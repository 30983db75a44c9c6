// cgq_perfbench: one workload of the end-to-end benchmark per process.
//
//   cgq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR [--trace-out PATH]
//
// Prints a human-readable summary, a `deterministic` line of counts that
// must repeat on the same seed, and as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output
// check failed and 2 on a usage error.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: cgq_perfbench --workload geo_report|adhoc_plan|"
               "serve_mixed --seed N --seconds S --trace 0|1 --scratch DIR "
               "[--trace-out PATH]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      cfg.scratch_dir = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (cfg.scratch_dir.empty()) return Usage("--scratch is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  // One malloc arena: with per-thread arenas the resident size of the
  // same work varies by a third from run to run with thread scheduling,
  // and all threads share one CPU here anyway.
  mallopt(M_ARENA_MAX, 1);
  perfbench::PinToOneCpu();
  perfbench::RunReport report;
  std::error_code ec;
  std::filesystem::create_directories(cfg.scratch_dir, ec);
  if (cfg.workload == "geo_report") {
    report = perfbench::RunGeoReport(cfg);
  } else if (cfg.workload == "adhoc_plan") {
    report = perfbench::RunAdhocPlan(cfg);
  } else if (cfg.workload == "serve_mixed") {
    report = perfbench::RunServeMixed(cfg);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  std::filesystem::remove_all(cfg.scratch_dir, ec);
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.Mismatch("metric " + m.name + " is not finite");
    }
  }

  std::string fixed = "deterministic {";
  for (size_t i = 0; i < report.deterministic.size(); ++i) {
    const auto& [name, value] = report.deterministic[i];
    fixed += (i ? ", \"" : "\"") + JsonEscape(name) + "\": \"" +
             JsonEscape(value) + "\"";
  }
  std::printf("%s}\n", fixed.c_str());
  for (const auto& m : report.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);  // JSON has no NaN
    line += (i ? ", \"" : "\"") + JsonEscape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
