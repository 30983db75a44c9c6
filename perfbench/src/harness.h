// Shared pieces of the end-to-end benchmark: run configuration, the
// result record every workload fills, latency statistics, the traced
// run's span recorder, and result digests.

#ifndef CGQ_PERFBENCH_HARNESS_H_
#define CGQ_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/executor.h"
#include "service/plan_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// What one process run measures. `seconds` is the measured window; the
/// workload's set-up and output checks come on top of it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory of this run (inside the checkout); workloads make
  /// their data directories below it and main() removes it at exit.
  std::string scratch_dir;
  /// Where the traced run writes its Chrome trace JSON.
  std::string trace_out;
};

/// The outcome of one workload run. `metrics` keeps insertion order;
/// main() prints them as the result line.
struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Counts that must repeat exactly on the same seed (checked by the
  /// benchmark's own tests), printed on a `deterministic` line.
  std::vector<std::pair<std::string, std::string>> deterministic;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fixed(const std::string& name, const std::string& value) {
    deterministic.emplace_back(name, value);
  }
  /// Records a failed output check; the run then exits non-zero.
  void Mismatch(const std::string& what);
};

/// Appends every per-layer metric, in the fixed order the benchmark
/// declares them, taking values from `values`. A layer a workload does not
/// exercise reports 0: the traced run of every workload prints the same
/// rows, so a later change can show that a layer it did not touch stayed
/// idle.
void AddLayerMetrics(RunReport* report,
                     const std::map<std::string, double>& values);

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
/// Median of `values`.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Pins the calling thread, and every thread it creates afterwards, to
/// the last CPU the process may run on. Each workload runs on one core:
/// on a shared virtual machine, timings of a process spread over several
/// vCPUs swing with the host's load far more than those of one.
void PinToOneCpu();

/// Peak resident set size of this process (VmHWM) in MB.
double PeakRssMb();

/// Runs `setup` `times` times, calling `teardown` between repetitions
/// (not after the last one, whose state the measured phase uses), and
/// returns the median set-up time in seconds.
double MedianSetupSeconds(int times, const std::function<void()>& setup,
                          const std::function<void()>& teardown);

/// FNV-1a over the full-precision serialization of a result, column
/// names and row order included: equal digests mean identical results.
uint64_t ResultDigest(const cgq::QueryResult& result);
/// Mixes `v` into the running FNV-1a digest `h`.
uint64_t MixDigest(uint64_t h, const std::string& v);
std::string Hex(uint64_t v);

/// The traced run's span recorder: spans around the benchmark's own calls
/// into each module, kept in memory and written as Chrome trace JSON at
/// exit. Single-threaded: a span's parent is the innermost open span.
class Tracer {
 public:
  Tracer();

  /// Opens a span; every span records the op id it belongs to.
  int Begin(const char* name, int64_t op);
  void End(int id);
  /// Duration of a closed span in microseconds.
  double DurationUs(int id) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t op)
        : tracer_(tracer), id_(tracer->Begin(name, op)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Self time per span name (duration minus the time its child spans
  /// cover), in microseconds, summed over the run.
  std::map<std::string, double> SelfTimesUs() const;
  /// Share (percent) of root-span time that no child span covers.
  double UnattributedPct() const;
  /// Prints the per-layer self-time table to stdout.
  void PrintSelfTimes() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t op;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One query through the cached path of Engine::Run, driven module by
/// module with a span around each call: parameterize (sql), plan-cache
/// lookup (service), Definition-1 re-check of the cached plan (core) and
/// execution (exec). Each call's time lands in `samples` under the layer
/// metric's name. Fails when the query's plan is not cached or fails its
/// re-check; callers warm the cache first.
cgq::Result<cgq::QueryResult> TracedCachedRun(
    cgq::Engine& engine, cgq::PlanCache* cache, const std::string& sql,
    Tracer* tracer, int64_t op,
    std::map<std::string, std::vector<double>>* samples);

}  // namespace perfbench

#endif  // CGQ_PERFBENCH_HARNESS_H_
