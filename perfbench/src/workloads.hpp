// The benchmark's four workloads as data: each is a list of experiment
// specs (the points) plus how to run them. Every spec derives from the
// workload seed alone, so the same seed always yields the same points and
// the simulated results repeat exactly. README.md says why each workload
// exists and which layer it stresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "run/experiment.hpp"

namespace perfbench {

enum class Workload { kScaleSeq, kScalePdes, kPaperSweep, kTenancyLossy };

[[nodiscard]] std::string_view to_string(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view s);
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// A PDES-engine point and its sequential twin: the same spec on the
/// classic sequential engine, which must fingerprint identically.
struct Twin {
  std::size_t point = 0;
  qmb::run::ExperimentSpec sequential;
};

struct Plan {
  Workload workload = Workload::kScaleSeq;
  std::vector<qmb::run::ExperimentSpec> points;
  /// The points run as one run::SweepRunner sweep on this many threads
  /// (1: one after another on the calling thread).
  unsigned sweep_threads = 1;
  std::vector<Twin> twins;
};

/// The points of `w` for `seed`. `nproc` caps every thread count (engine
/// and sweep), so a plan never oversubscribes the host it runs on.
[[nodiscard]] Plan plan_for(Workload w, std::uint64_t seed, unsigned nproc);

/// The paper's scalar anchors (abstract and Sec. 8) and the points that
/// reproduce them. Each anchor is either a latency (one point) or a
/// factor (ratio of two points' means).
struct Anchor {
  const char* what;
  double paper;
  std::size_t num;          // index into anchor_specs()
  std::optional<std::size_t> den;  // set for factors: paper = mean[num] / mean[den]
};

[[nodiscard]] const std::vector<Anchor>& anchors();
[[nodiscard]] std::vector<qmb::run::ExperimentSpec> anchor_specs();

/// Mean absolute error (percent) of `means_us` (one per anchor_specs()
/// entry) against every anchor.
[[nodiscard]] double paper_err_pct(const std::vector<double>& means_us);

}  // namespace perfbench
