// The shared main() of the bench binaries that write a JSON report
// (bench_concurrency, bench_replication, bench_query, bench_server):
//
//   --json[=PATH]  write the report to the default file (or PATH) after
//                  the google-benchmark suite
//   --json-only    skip the google-benchmark suite (the CI artifact path)
//
// Every other argument goes to google-benchmark.
#ifndef TCHIMERA_BENCH_REPORT_H_
#define TCHIMERA_BENCH_REPORT_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace tchimera {

// Writes `json` to `path` and echoes it to stderr after "wrote PATH" and
// `summary`. Returns the exit code: 0, or 1 when the file cannot be
// written.
inline int WriteReport(const std::string& path, const std::string& json,
                       const std::string& summary = "") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s%s\n%s", path.c_str(), summary.c_str(),
               json.c_str());
  return 0;
}

// Runs the suite and/or `report(path)` per the flags above; returns the
// process exit code (nonzero when the report's gates miss).
inline int RunBenchMain(int argc, char** argv, const std::string& default_json,
                        const std::function<int(const std::string&)>& report) {
  std::string json_path;
  bool json_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-only") {
      json_only = true;
      if (json_path.empty()) json_path = default_json;
    } else if (arg == "--json") {
      json_path = default_json;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_only) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return json_path.empty() ? 0 : report(json_path);
}

}  // namespace tchimera

#endif  // TCHIMERA_BENCH_REPORT_H_
