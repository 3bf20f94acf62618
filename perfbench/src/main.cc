// perfbench harness entry point (normally started by perfbench/run.py).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --serve-bin PATH --run-dir DIR [--revision R]
//
// Prints one JSON report line (metadata plus every metric with its unit
// and sample count), then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1) that BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "server/net.h"

namespace {

using perfbench::Report;
using tchimera::Result;

// Keep in step with BENCHMARK.json.
const char* const kEndToEnd[] = {"setup_s", "server_cpu_us_per_op",
                                 "server_rss_mib"};
const char* const kPerLayer[] = {
    "server.wire.encode_decode_ns", "server.wire.reply_bytes",
    "server.overhead_us",           "query.parse_us",
    "query.session.execute_us",     "core.db.live_instances",
    "storage.snapshot_load_s",      "storage.snapshot_bytes_per_object",
    "trace.overhead_frac"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|history_read|mixed "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH "
               "--run-dir DIR [--revision R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tchimera::IgnoreSigpipe();
  perfbench::RunConfig config;
  std::string workload;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--serve-bin") {
      config.serve_bin = value;
    } else if (arg == "--run-dir") {
      config.run_dir = value;
    } else if (arg == "--revision") {
      config.revision = value;
    } else {
      return Usage();
    }
  }

  // The self-tests run before every measurement: a benchmark whose
  // stream generator or checkers are broken measures nothing.
  std::vector<std::string> selftest_failures = perfbench::RunSelfTests();
  for (const std::string& f : selftest_failures) {
    std::fprintf(stderr, "selftest: FAIL %s\n", f.c_str());
  }

  Result<perfbench::Workload> w = perfbench::ParseWorkload(workload);
  if (!w.ok() || config.serve_bin.empty() || config.run_dir.empty() ||
      config.seconds <= 0) {
    return Usage();
  }
  config.workload = *w;
  Result<perfbench::RunOutcome> outcome = trace != 0
                                              ? perfbench::RunTraced(config)
                                              : perfbench::RunUntraced(config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  Report& report = outcome->report;
  report.Meta("trace", static_cast<double>(trace));
  report.Meta("selftests", selftest_failures.empty() ? "pass" : "FAIL");
  std::printf("%s\n", report.ToJson().c_str());

  std::string metrics;
  auto emit = [&](const char* name) -> bool {
    const perfbench::Metric* m = report.Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += perfbench::JsonString(name) +
               ": {\"value\": " + perfbench::JsonNumber(m->value) +
               ", \"unit\": " + perfbench::JsonString(m->unit) + "}";
    return true;
  };
  bool complete = true;
  if (trace != 0) {
    for (const char* name : kPerLayer) complete = emit(name) && complete;
  } else {
    for (const char* name : kEndToEnd) complete = emit(name) && complete;
  }
  if (!complete) return 1;
  const bool correct = outcome->correct && selftest_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome->attempted),
              static_cast<unsigned long long>(outcome->failed),
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
