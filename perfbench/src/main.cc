// perfbench: the serving system's benchmark program. Runs one named
// workload with a seed and prints, as its last stdout line, one JSON
// object: correctness, operation counts, the measured metrics, and the
// build facts the fingerprint needs. Progress goes to stderr.
//
//   perfbench --workload <point-hot|range-scan> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--trace-summary <file>]
//
// Exit status: 0 when every checked answer matched its reference, 1 when
// one did not (or the run could not finish), 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

#if __has_include("strategies/strategies.h")
#include "strategies/strategies.h"
#define PERFBENCH_HAVE_STRATEGIES 1
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

const char* ActiveStrategy() {
#ifdef PERFBENCH_HAVE_STRATEGIES
  return utcq::strategies::Active().name;
#else
  return "none";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <point-hot|range-scan> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-summary <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string trace_arg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace_arg = value;
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else if (key == "--trace-summary") {
      opts.trace_summary = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || opts.seconds <= 0.0 ||
      (trace_arg != "0" && trace_arg != "1") || opts.work_dir.empty()) {
    return Usage(argv[0]);
  }
  opts.trace = trace_arg == "1";
  if (!perfbench::MakeDirs(opts.work_dir)) {
    std::fprintf(stderr, "cannot create %s\n", opts.work_dir.c_str());
    return 1;
  }

  perfbench::Result result;
  if (opts.workload == "point-hot") {
    result = perfbench::RunPointHot(opts);
  } else if (opts.workload == "range-scan") {
    result = perfbench::RunRangeScan(opts);
  } else {
    return Usage(argv[0]);
  }
  perfbench::RemoveTree(opts.work_dir);
  if (!result.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", result.error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s, \"strategy\": %s, \"build_type\": %s, "
      "\"samples\": {\"query\": %llu, \"encode\": %llu}, "
      "\"error\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.Json().c_str(), JsonString(ActiveStrategy()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(result.samples),
      static_cast<unsigned long long>(result.encode_samples),
      JsonString(result.error).c_str());
  return result.correct ? 0 : 1;
}
