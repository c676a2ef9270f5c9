#include "obs/benchdiff.hpp"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace qmb::obs {

namespace {

const std::vector<JsonValue>& points_of(const JsonValue& doc, const char* which) {
  if (!doc.is_object()) {
    throw std::runtime_error(std::string(which) + ": not a JSON object");
  }
  const auto schema = doc.string_or("schema", "");
  if (schema.rfind("qmb-bench-suite/", 0) != 0) {
    throw std::runtime_error(std::string(which) + ": unknown schema '" +
                             std::string(schema) + "'");
  }
  const JsonValue* pts = doc.find("points");
  if (!pts || !pts->is_array()) {
    throw std::runtime_error(std::string(which) + ": missing 'points' array");
  }
  return pts->array;
}

}  // namespace

BenchDiffReport diff_bench_suites(const JsonValue& baseline, const JsonValue& current,
                                  const BenchDiffOptions& opts) {
  const auto& old_pts = points_of(baseline, "baseline");
  const auto& new_pts = points_of(current, "current");

  std::map<std::string, const JsonValue*> new_by_key;
  for (const JsonValue& p : new_pts) {
    new_by_key.emplace(std::string(p.string_or("key", "")), &p);
  }

  BenchDiffReport rep;
  std::map<std::string, bool> seen;
  char line[256];
  std::string table;

  for (const JsonValue& op : old_pts) {
    const std::string key(op.string_or("key", ""));
    const auto it = new_by_key.find(key);
    if (it == new_by_key.end()) {
      rep.removed.push_back(key);
      continue;
    }
    seen[key] = true;
    const JsonValue& np = *it->second;

    BenchPointDelta d;
    d.key = key;
    d.old_us = op.number_or("mean_us", 0.0);
    d.new_us = np.number_or("mean_us", 0.0);
    d.delta_pct = d.old_us > 0.0 ? (d.new_us - d.old_us) / d.old_us * 100.0 : 0.0;
    d.regression = d.delta_pct > opts.threshold_pct;
    d.improvement = d.delta_pct < -opts.threshold_pct;
    d.fingerprint_changed = op.string_or("fingerprint", "") != np.string_or("fingerprint", "");
    const std::string old_impl(op.string_or("impl_name", ""));
    const std::string new_impl(np.string_or("impl_name", ""));
    d.impl_name_changed = !old_impl.empty() && !new_impl.empty() && old_impl != new_impl;
    if (d.regression) ++rep.regressions;
    if (d.improvement) ++rep.improvements;
    if (d.fingerprint_changed || d.impl_name_changed) ++rep.fingerprint_changes;
    if (d.impl_name_changed) ++rep.impl_name_changes;

    if (d.regression || d.improvement || d.fingerprint_changed || d.impl_name_changed) {
      std::snprintf(line, sizeof line, "  %-44s %10.2f -> %10.2f us  %+7.2f%%%s%s",
                    d.key.c_str(), d.old_us, d.new_us, d.delta_pct,
                    d.regression ? "  REGRESSION" : (d.improvement ? "  improved" : ""),
                    d.fingerprint_changed ? "  [fingerprint changed]" : "");
      table += line;
      if (d.impl_name_changed) table += "  [impl_name " + old_impl + " -> " + new_impl + "]";
      table += "\n";
    }
    rep.deltas.push_back(std::move(d));
  }
  for (const JsonValue& np : new_pts) {
    const std::string key(np.string_or("key", ""));
    if (!seen.contains(key)) rep.added.push_back(key);
  }

  std::snprintf(line, sizeof line,
                "benchdiff: %zu common points, %d regression(s), %d improvement(s), "
                "%d fingerprint change(s) (%d impl_name), %zu added, %zu removed "
                "(threshold %.1f%%)\n",
                rep.deltas.size(), rep.regressions, rep.improvements,
                rep.fingerprint_changes, rep.impl_name_changes, rep.added.size(),
                rep.removed.size(), opts.threshold_pct);
  rep.text = line + table;
  for (const std::string& k : rep.added) rep.text += "  added:   " + k + "\n";
  for (const std::string& k : rep.removed) rep.text += "  removed: " + k + "\n";
  return rep;
}

}  // namespace qmb::obs
