#include "machine.hpp"

#include <algorithm>
#include <fstream>
#include <thread>

#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? std::string() : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

MachineId machine_id() {
  MachineId m;
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  m.cpu_model = cpu_model();
  m.compiler = compiler();
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

std::string MachineId::to_json() const {
  qmb::obs::JsonValue o = qmb::obs::JsonValue::make_object();
  o.set("nproc", qmb::obs::JsonValue::of(static_cast<std::uint64_t>(nproc)));
  o.set("cpu_model", qmb::obs::JsonValue::of(cpu_model));
  o.set("compiler", qmb::obs::JsonValue::of(compiler));
  o.set("build_type", qmb::obs::JsonValue::of(build_type));
  return o.dump();
}

std::string build_problem() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (configure with -DCMAKE_BUILD_TYPE=Release)";
#elif defined(PERFBENCH_SANITIZED)
  return "sanitizer build (host times would measure the instrumentation)";
#else
  return {};
#endif
}

}  // namespace perfbench
