// Machine id and build guard. Host-time metrics only compare between runs
// with equal machine ids: the same core count, CPU model, compiler and
// build type. A benchmark built without optimisation or with a sanitizer
// measures the instrumentation, so the driver refuses to run there.
#pragma once

#include <string>

namespace perfbench {

struct MachineId {
  unsigned nproc = 1;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;

  /// One-line JSON object with the four fields.
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] MachineId machine_id();

/// Why this build must not be benchmarked, or empty when it may be.
[[nodiscard]] std::string build_problem();

}  // namespace perfbench
