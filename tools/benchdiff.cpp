// benchdiff — compare two bench-suite JSON documents and fail on regression.
//
//   benchdiff baseline.json current.json
//   benchdiff --threshold 2.5 --fail-on-fingerprint bench/baseline.json BENCH_suite.json
//
// Exit codes: 0 clean, 1 regression detected (mean latency grew past the
// threshold on any common key, or a fingerprint or executor impl_name
// changed when --fail-on-fingerprint is set), 2 usage/parse error. CI runs
// this against the committed bench/baseline.json so a perf or determinism
// break shows up as a keyed delta in the job log.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/benchdiff.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold PCT] [--fail-on-fingerprint] "
               "[--host-threshold PCT] BASELINE CURRENT\n"
               "  --threshold PCT        mean-latency growth counted as a regression\n"
               "                         (default 5.0)\n"
               "  --fail-on-fingerprint  a changed determinism fingerprint (or executor\n"
               "                         impl_name) alone fails\n"
               "  --host-threshold PCT   wall-clock drift flagged in the advisory\n"
               "                         host-time section (default 25.0); host time\n"
               "                         never affects the exit code\n"
               "exit: 0 clean, 1 regression, 2 usage or parse error\n",
               argv0);
  std::exit(2);
}

std::string slurp(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "benchdiff: cannot read %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  qmb::obs::BenchDiffOptions opts;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threshold") {
      if (i + 1 >= argc) usage(argv[0]);
      char* end = nullptr;
      opts.threshold_pct = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || opts.threshold_pct < 0) usage(argv[0]);
    } else if (a == "--fail-on-fingerprint") {
      opts.fail_on_fingerprint = true;
    } else if (a == "--host-threshold") {
      if (i + 1 >= argc) usage(argv[0]);
      char* end = nullptr;
      opts.host_threshold_pct = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || opts.host_threshold_pct < 0) usage(argv[0]);
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "benchdiff: unknown option %s\n", a.c_str());
      usage(argv[0]);
    } else if (npaths < 2) {
      paths[npaths++] = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (npaths != 2) usage(argv[0]);

  try {
    const auto baseline = qmb::obs::JsonValue::parse(slurp(paths[0]));
    const auto current = qmb::obs::JsonValue::parse(slurp(paths[1]));
    const auto report = qmb::obs::diff_bench_suites(baseline, current, opts);
    std::fputs(report.text.c_str(), stdout);
    if (!report.host_text.empty()) std::fputs(report.host_text.c_str(), stdout);
    return report.exit_code(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchdiff: %s\n", e.what());
    return 2;
  }
}
