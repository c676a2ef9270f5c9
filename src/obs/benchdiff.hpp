// Regression diffing between two bench-suite JSON documents.
//
// A suite document ("qmb-bench-suite/1", written by bench_suite and
// consumable straight from CI artifacts) carries one point per experiment
// with a stable key, latency stats, protocol counters, and the determinism
// fingerprint. diff() aligns points by key and classifies each: latency
// regression/improvement beyond a threshold, counter drift, fingerprint
// change (the simulation computed different events — either a real
// behavioural change or lost determinism). A changed impl_name (the
// executor's self-reported name) counts as a fingerprint change too: the
// point is no longer measuring the same executor. The CLI in tools/benchdiff.cpp
// is a thin wrapper; tests drive this engine directly.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace qmb::obs {

struct BenchDiffOptions {
  /// Mean-latency growth beyond this (percent) is a regression.
  double threshold_pct = 5.0;
  /// When true, a fingerprint change alone fails the diff.
  bool fail_on_fingerprint = false;
  /// Host-time drift beyond this (percent) is flagged in the advisory
  /// section. Purely informational: host time is wall-clock noise, so it
  /// never contributes to exit_code() regardless of this setting.
  double host_threshold_pct = 25.0;
};

struct BenchPointDelta {
  std::string key;
  double old_us = 0.0;
  double new_us = 0.0;
  double delta_pct = 0.0;
  bool regression = false;
  bool improvement = false;
  bool fingerprint_changed = false;
  /// Both suites name the executor and the names differ; also counted in
  /// fingerprint_changes.
  bool impl_name_changed = false;
  // Advisory host-time comparison (0 when either suite lacks host fields).
  double old_host_ms = 0.0;
  double new_host_ms = 0.0;
  double host_delta_pct = 0.0;
};

struct BenchDiffReport {
  std::vector<BenchPointDelta> deltas;    // common keys, baseline order
  std::vector<std::string> added;         // keys only in the new suite
  std::vector<std::string> removed;       // keys only in the baseline
  int regressions = 0;
  int improvements = 0;
  int fingerprint_changes = 0;  // includes the impl_name changes
  int impl_name_changes = 0;
  /// Points whose host time drifted beyond host_threshold_pct. Advisory
  /// only — see exit_code().
  int host_drifts = 0;
  std::string text;  // human-readable summary table (blocking section)
  /// Advisory host-time comparison, printed separately from `text` so the
  /// blocking simulated-latency verdict is never conflated with wall-clock
  /// noise. Empty when neither suite carries host_ms fields.
  std::string host_text;

  /// 0 = clean, 1 = regression (or fingerprint change when configured to
  /// fail on it). Host-time drift deliberately never affects the exit
  /// code: wall-clock is machine-dependent noise, only simulated latency
  /// and fingerprints gate.
  [[nodiscard]] int exit_code(const BenchDiffOptions& opts) const {
    if (regressions > 0) return 1;
    if (opts.fail_on_fingerprint && fingerprint_changes > 0) return 1;
    return 0;
  }
};

/// Diffs two parsed suite documents. Throws std::runtime_error when either
/// document is not a qmb-bench-suite object.
[[nodiscard]] BenchDiffReport diff_bench_suites(const JsonValue& baseline,
                                                const JsonValue& current,
                                                const BenchDiffOptions& opts = {});

}  // namespace qmb::obs
