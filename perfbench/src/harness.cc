#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <malloc.h>
#include <sched.h>

#include "core/compliance_checker.h"
#include "sql/param_normalizer.h"

namespace perfbench {

void RunReport::Mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  correct = false;
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Per-layer rows of the traced run, named module.metric after the
// library module whose public functions the span or counter wraps.
constexpr LayerMetric kLayerMetrics[] = {
    {"sql.parse_us", "us"},
    {"sql.parameterize_us", "us"},
    {"plan.bind_us", "us"},
    {"optimizer.explore_ms", "ms"},
    {"optimizer.memo_exprs", "count"},
    {"core.annotate_ms", "ms"},
    {"core.site_ms", "ms"},
    {"core.policy_eval_ms", "ms"},
    {"core.policy_candidates", "count"},
    {"core.implication_tests", "count"},
    {"core.implication_cache_hit_ratio", "ratio"},
    {"core.reject_ratio", "ratio"},
    {"core.recheck_us", "us"},
    {"core.add_policy_us", "us"},
    {"service.dispatch_us", "us"},
    {"service.queue_depth_mean", "count"},
    {"service.cache_lookup_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.param_hit_ratio", "ratio"},
    {"service.invalidations", "count"},
    {"service.drain_ms", "ms"},
    {"exec.execute_ms", "ms"},
    {"exec.rows_scanned", "count"},
    {"exec.rows_shipped", "count"},
    {"exec.ships", "count"},
    {"exec.shipped_kb", "KiB"},
    {"exec.fragment_wall_ms", "ms"},
    {"exec.retries", "count"},
    {"storage.blocks_read", "count"},
    {"storage.block_read_us", "us"},
    {"storage.scan_mb_s", "MB/s"},
    {"storage.write_mb_s", "MB/s"},
    {"storage.space_amp", "ratio"},
    {"net.deploy_s", "s"},
    {"net.codec_mb_s", "MB/s"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.unattributed_pct", "%"},
};

}  // namespace

void AddLayerMetrics(RunReport* report,
                     const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    report->Add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
    if (!known) report->Mismatch("undeclared layer metric " + name);
  }
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) last = c;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "warning: cannot pin to cpu %d\n", last);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double MedianSetupSeconds(int times, const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    if (i > 0) {
      teardown();
      // Hand freed memory back, so the next set-up starts from the same
      // resident size as the first.
      malloc_trim(0);
    }
    const auto t0 = Clock::now();
    setup();
    seconds.push_back(MsSince(t0) / 1000.0);
  }
  return Median(seconds);
}

uint64_t MixDigest(uint64_t h, const std::string& v) {
  for (char c : v) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t ResultDigest(const cgq::QueryResult& result) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& name : result.column_names) {
    h = MixDigest(h, name + ";");
  }
  char buf[40];
  for (const cgq::Row& row : result.rows) {
    for (const cgq::Value& v : row) {
      if (v.is_null()) {
        h = MixDigest(h, "NULL|");
      } else if (v.is_double()) {
        std::snprintf(buf, sizeof(buf), "%.17g|", v.dbl());
        h = MixDigest(h, buf);
      } else {
        h = MixDigest(h, v.ToString() + "|");
      }
    }
    h = MixDigest(h, "\n");
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const char* name, int64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, op, parent, NowNs(), -1});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

double Tracer::DurationUs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
}

std::map<std::string, double> Tracer::SelfTimesUs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1000.0;
  }
  return self;
}

double Tracer::UnattributedPct() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  int64_t root_ns = 0;
  int64_t uncovered_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || s.end_ns < 0) continue;
    root_ns += s.end_ns - s.start_ns;
    uncovered_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return root_ns > 0 ? 100.0 * static_cast<double>(uncovered_ns) /
                           static_cast<double>(root_ns)
                     : 0;
}

void Tracer::PrintSelfTimes() const {
  std::map<std::string, double> self = SelfTimesUs();
  double total = 0;
  for (const auto& [name, us] : self) total += us;
  std::printf("per-layer self time (traced run, %zu spans)\n", spans_.size());
  for (const auto& [name, us] : self) {
    std::printf("  %-24s %12.1f ms %6.1f%%\n", name.c_str(), us / 1000.0,
                total > 0 ? 100.0 * us / total : 0.0);
  }
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out << ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                  "\"id\":%zu,\"parent\":%d}}",
                  s.name, static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                  static_cast<long long>(s.op), i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  std::ofstream f(path);
  f << out.str();
  return static_cast<bool>(f);
}

cgq::Result<cgq::QueryResult> TracedCachedRun(
    cgq::Engine& engine, cgq::PlanCache* cache, const std::string& sql,
    Tracer* tracer, int64_t op,
    std::map<std::string, std::vector<double>>* samples) {
  using namespace cgq;  // NOLINT
  int s = tracer->Begin("sql.parameterize", op);
  ParameterizedSql p = ParameterizeSql(sql);
  tracer->End(s);
  (*samples)["sql.parameterize_us"].push_back(tracer->DurationUs(s));

  s = tracer->Begin("service.cache_lookup", op);
  const PlanCache::Key key =
      PlanCache::ComputeKey(p.skeleton, engine.default_options());
  std::optional<OptimizedQuery> plan =
      cache->Lookup(key, p.params, engine.policies());
  tracer->End(s);
  (*samples)["service.cache_lookup_us"].push_back(tracer->DurationUs(s));
  if (!plan.has_value()) {
    return Status::Internal("query missed the warm plan cache: " + sql);
  }

  s = tracer->Begin("core.recheck", op);
  PolicyEvaluator evaluator(&engine.catalog(), &engine.policies());
  ComplianceReport verdict =
      CheckCompliance(*plan->plan, evaluator, engine.catalog().locations());
  tracer->End(s);
  (*samples)["core.recheck_us"].push_back(tracer->DurationUs(s));
  if (!verdict.compliant) {
    return Status::Internal("cached plan failed its re-check: " + sql);
  }

  s = tracer->Begin("exec.execute", op);
  Executor executor(&engine.store(), &engine.net(),
                    engine.default_exec_options());
  Result<QueryResult> r = executor.Execute(*plan);
  tracer->End(s);
  (*samples)["exec.execute_ms"].push_back(tracer->DurationUs(s) / 1000.0);
  return r;
}

}  // namespace perfbench
