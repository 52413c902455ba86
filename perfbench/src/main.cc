// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload paper_sweep|oltp_server --seed N --seconds S
//             --trace 0|1 --run-dir DIR --trace-out FILE [--commit SHA]
//
// Prints one detail line (host and option stamp, sample counts) and, last,
// one result line: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.  perfbench/run.py builds this binary and calls it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "measure.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_sweep|oltp_server "
               "--seed N --seconds S --trace 0|1 --run-dir DIR "
               "--trace-out FILE [--commit SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Every TDB_* variable is an engine lever that silently changes the
  // measured program; the benchmark measures the defaults as shipped.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "TDB_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; unset every "
                   "TDB_* variable\n",
                   *env);
      return 2;
    }
  }

  perfbench::RunConfig config;
  std::string workload, commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--run-dir") {
      config.run_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      config.run_dir.empty() || config.trace_path.empty()) {
    return Usage();
  }

  perfbench::Outcome out;
  if (workload == "paper_sweep") {
    out = perfbench::RunPaperSweep(config);
  } else if (workload == "oltp_server") {
    out = perfbench::RunOltpServer(config);
  } else {
    return Usage();
  }
  for (const auto& [name, value] : out.metrics) {
    if (!std::isfinite(value.first)) out.Fail(name + " is not a finite number");
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                 problem.c_str());
  }
  if (out.metrics.empty()) {
    std::fprintf(stderr, "perfbench: %s did not complete\n", workload.c_str());
    return 1;
  }

  out.Detail("host.nproc", std::thread::hardware_concurrency());
  out.Detail("build.compiler", PERFBENCH_COMPILER);
  out.Detail("build.type", PERFBENCH_BUILD_TYPE);
  out.Detail("build.commit", commit);
  out.Detail("run.workload", workload);
  out.Detail("run.seed", static_cast<double>(config.seed));
  out.Detail("run.seconds", config.seconds);
  out.Detail("run.trace", config.trace ? 1.0 : 0.0);

  std::string detail = "{\"detail\": {";
  for (auto it = out.detail.begin(); it != out.detail.end(); ++it) {
    if (it != out.detail.begin()) detail += ", ";
    detail += perfbench::Quote(it->first) + ": " + it->second;
  }
  std::printf("%s}}\n", detail.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (out.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    if (i > 0) result += ", ";
    result += perfbench::Quote(out.metrics[i].first) + ": {\"value\": " +
              perfbench::Num(out.metrics[i].second.first) +
              ", \"unit\": " + perfbench::Quote(out.metrics[i].second.second) +
              "}";
  }
  std::printf("%s}}\n", result.c_str());
  return 0;
}
