// geo_report: the paper's deployment. Five-location TPC-H under the CR+A
// policy set, deployed to three in-process loopback location servers
// with disk-backed stores, executed with ExecMode::kDistributed behind a
// QueryService. One client runs a closed loop; one op is one report (the
// six evaluation queries back to back), so the latency sample holds one
// cost class.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "exec/batch.h"
#include "net/server.h"
#include "net/wire_protocol.h"
#include "service/query_service.h"
#include "tpch/tpch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cgq;  // NOLINT

constexpr double kScaleFactor = 0.01;
constexpr int kSetups = 3;
// A run holds about 45 reports; the tail is the highest percentile with
// at least ten of them beyond it.
constexpr double kTailPercentile = 0.75;
// Location servers and the locations each hosts (l1..l5 are ids 0..4).
const std::vector<std::vector<LocationId>> kHosting = {{0, 1}, {2, 3}, {4}};

struct QueryText {
  int number;
  std::string sql;
};

/// Accounting of one query execution that must match the reference.
struct QueryOutcome {
  uint64_t digest = 0;
  int64_t ships = 0;
  int64_t rows_shipped = 0;
  double bytes_shipped = 0;

  bool operator==(const QueryOutcome&) const = default;
};

QueryOutcome OutcomeOf(const QueryResult& r) {
  return {ResultDigest(r), r.metrics.ships, r.metrics.rows_shipped,
          r.metrics.bytes_shipped};
}

/// Everything one set-up builds: catalog, engine with its coordinator
/// store (the row reference's input), servers, and the service.
struct Deployment {
  std::string dir;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<net::SiteServer>> servers;
  std::unique_ptr<QueryService> service;
  double deploy_s = 0;

  ~Deployment() {
    service.reset();
    for (auto& s : servers) s->Stop();
    servers.clear();
    engine.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "geo_report %s: %s\n", what, s.ToString().c_str());
    std::exit(3);
  }
}

std::unique_ptr<Deployment> Deploy(uint64_t seed, const std::string& dir,
                                   const std::vector<QueryText>& queries) {
  auto d = std::make_unique<Deployment>();
  d->dir = dir;
  tpch::TpchConfig config;
  config.scale_factor = kScaleFactor;
  config.seed = seed;
  Result<Catalog> catalog = tpch::BuildCatalog(config);
  Check(catalog.status(), "catalog");
  d->engine = std::make_unique<Engine>(std::move(*catalog),
                                       NetworkModel::DefaultGeo(5));
  Engine& engine = *d->engine;
  Check(tpch::InstallPolicySet("CRA", &engine.policies()), "policies");
  Check(tpch::GenerateData(engine.catalog(), config, &engine.store()),
        "data");

  std::map<LocationId, net::Endpoint> endpoints;
  for (size_t i = 0; i < kHosting.size(); ++i) {
    net::SiteServer::Options sopts;
    sopts.locations = kHosting[i];
    sopts.data_dir = dir + "/site" + std::to_string(i);
    auto server = std::make_unique<net::SiteServer>(sopts);
    Check(server->Start(), "server start");
    for (LocationId l : kHosting[i]) {
      endpoints[l] = {"127.0.0.1", server->port()};
    }
    d->servers.push_back(std::move(server));
  }
  Check(engine.ConnectCluster(endpoints), "connect");
  const auto t0 = Clock::now();
  Check(engine.DeployStore(), "deploy");
  d->deploy_s = MsSince(t0) / 1000.0;

  engine.set_exec_mode(ExecMode::kDistributed);
  // Pipelined fragment schedule (any value but 1), set explicitly.
  engine.default_exec_options().threads = 4;
  engine.default_options().threads = 1;

  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_capacity = 16;
  sopts.queue_timeout_ms = 60'000;
  d->service = std::make_unique<QueryService>(&engine, sopts);

  // Warm-up: the first report fills the plan cache.
  QueryService::Session session = d->service->OpenSession();
  for (const QueryText& q : queries) {
    Check(session.Run(q.sql).status(), "warm-up report");
  }
  return d;
}

/// Bytes of `rows` under the network model's row-size measure.
double UserBytes(const std::vector<Row>& rows) {
  double bytes = 0;
  for (const Row& row : rows) {
    for (const Value& v : row) bytes += static_cast<double>(v.ByteSize());
  }
  return bytes;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// Storage probes of the traced run: drain every hosted fragment's scan
/// cursor, and load the coordinator's rows durably into a scratch store.
void ProbeStorage(Deployment* d, std::map<std::string, double>* layer) {
  int64_t blocks = 0;
  double scan_ms = 0;
  double scanned_bytes = 0;
  for (auto& server : d->servers) {
    const TableStore* store = server->mutable_store();
    for (const TableStore::FragmentRef& f : store->ListFragments()) {
      const auto t0 = Clock::now();
      Result<TableStore::Cursor> cursor = store->Scan(f.location, f.table);
      Check(cursor.status(), "scan");
      std::vector<Row> rows;
      double bytes = 0;
      for (;;) {
        Result<bool> more = cursor->Next(&rows);
        Check(more.status(), "scan next");
        if (!*more) break;
        bytes += UserBytes(rows);
      }
      scan_ms += MsSince(t0);
      blocks += cursor->blocks_read();
      scanned_bytes += bytes;
    }
  }
  (*layer)["storage.block_read_us"] =
      blocks > 0 ? 1000.0 * scan_ms / static_cast<double>(blocks) : 0;
  (*layer)["storage.scan_mb_s"] = scanned_bytes / 1e6 / (scan_ms / 1000.0);

  const std::string dir = d->dir + "/write-probe";
  TableStore scratch;
  Check(scratch.EnableDiskStorage(dir), "scratch store");
  const TableStore& source = d->engine->store();
  double user_bytes = 0;
  const auto t0 = Clock::now();
  for (const TableStore::FragmentRef& f : source.ListFragments()) {
    Result<const std::vector<Row>*> rows = source.Get(f.location, f.table);
    Check(rows.status(), "fragment");
    user_bytes += UserBytes(**rows);
    Check(scratch.Put(f.location, f.table, **rows), "durable put");
  }
  const double write_s = MsSince(t0) / 1000.0;
  (*layer)["storage.write_mb_s"] = user_bytes / 1e6 / write_s;
  (*layer)["storage.space_amp"] =
      static_cast<double>(DirBytes(dir)) / user_bytes;
}

/// Codec probe: every stored fragment through the wire encoding and back,
/// in executor-sized batches, verifying each frame.
void ProbeCodec(Deployment* d, std::map<std::string, double>* layer) {
  const TableStore& source = d->engine->store();
  double bytes = 0;
  double ms = 0;
  for (const TableStore::FragmentRef& f : source.ListFragments()) {
    Result<const std::vector<Row>*> rows = source.Get(f.location, f.table);
    Check(rows.status(), "fragment");
    const std::vector<Row>& all = **rows;
    for (size_t at = 0; at < all.size(); at += kDefaultBatchSize) {
      RowBatch batch;
      const size_t end = std::min(all.size(), at + kDefaultBatchSize);
      batch.rows.assign(all.begin() + static_cast<std::ptrdiff_t>(at),
                        all.begin() + static_cast<std::ptrdiff_t>(end));
      const auto t0 = Clock::now();
      wire::Writer w;
      w.PutBatch(batch);
      const std::string frame =
          wire::EncodeFrame(wire::FrameType::kOutputBatch, w.Take());
      const auto* data = reinterpret_cast<const uint8_t*>(frame.data());
      Result<wire::FrameHeader> header =
          wire::DecodeFrameHeader(data, frame.size());
      Check(header.status(), "frame header");
      Check(wire::VerifyPayload(*header, data + wire::kHeaderSize),
            "frame checksum");
      wire::Reader r(data + wire::kHeaderSize, header->payload_len);
      Result<RowBatch> decoded = r.ReadBatch();
      Check(decoded.status(), "decode");
      ms += MsSince(t0);
      if (decoded->rows.size() != batch.rows.size()) {
        Check(Status::Internal("codec round trip lost rows"), "codec");
      }
      bytes += batch.ByteSize();
    }
  }
  (*layer)["net.codec_mb_s"] = bytes / 1e6 / (ms / 1000.0);
}

/// One report through the decomposed cached path (see TracedCachedRun).
Result<std::vector<QueryResult>> TracedReport(
    Deployment* d, const std::vector<QueryText>& queries, Tracer* tracer,
    int64_t op, std::map<std::string, std::vector<double>>* samples) {
  std::vector<QueryResult> results;
  Tracer::Scope report(tracer, "report", op);
  for (const QueryText& q : queries) {
    CGQ_ASSIGN_OR_RETURN(
        QueryResult r, TracedCachedRun(*d->engine, d->service->plan_cache(),
                                       q.sql, tracer, op, samples));
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace

RunReport RunGeoReport(const RunConfig& cfg) {
  RunReport out;
  std::vector<QueryText> queries;
  for (int n : tpch::QueryNumbers()) {
    Result<std::string> sql = tpch::Query(n);
    Check(sql.status(), "query text");
    queries.push_back({n, *sql});
  }

  std::unique_ptr<Deployment> d;
  int setup_index = 0;
  const double setup_s = MedianSetupSeconds(
      cfg.trace ? 1 : kSetups,
      [&] {
        d = Deploy(cfg.seed,
                   cfg.scratch_dir + "/geo" + std::to_string(setup_index++),
                   queries);
      },
      [&] { d.reset(); });
  QueryService::Session session = d->service->OpenSession();

  // Measured phase. Untraced: closed-loop reports through the service.
  // Traced: untraced and traced reports alternate, so both halves see the
  // same cache and page-cache state.
  std::vector<std::vector<QueryOutcome>> outcomes;  // per report
  std::vector<double> report_ms;
  std::vector<double> traced_report_ms;
  double busy_ms = 0;
  ExecMetrics totals;
  int64_t retries = 0;
  double fragment_wall_ms = 0;
  Tracer tracer;
  std::map<std::string, std::vector<double>> samples;
  const int64_t blocks_before = MetricsRegistry::Value("storage.blocks_read");
  const PlanCacheStats cache_before = d->service->plan_cache()->stats();
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  for (int64_t op = 0; Clock::now() < deadline || op < 2; ++op) {
    ++out.attempted;
    const bool traced = cfg.trace && op % 2 == 1;
    std::vector<QueryResult> results;
    const auto t0 = Clock::now();
    if (traced) {
      Result<std::vector<QueryResult>> r =
          TracedReport(d.get(), queries, &tracer, op, &samples);
      if (!r.ok()) {
        std::fprintf(stderr, "report failed: %s\n",
                     r.status().ToString().c_str());
        ++out.failed;
        continue;
      }
      results = std::move(*r);
    } else {
      for (const QueryText& q : queries) {
        Result<QueryResult> r = session.Run(q.sql);
        if (!r.ok()) {
          std::fprintf(stderr, "Q%d failed: %s\n", q.number,
                       r.status().ToString().c_str());
          break;
        }
        results.push_back(std::move(*r));
      }
      if (results.size() != queries.size()) {
        ++out.failed;
        continue;
      }
    }
    const double ms = MsSince(t0);
    if (traced) {
      traced_report_ms.push_back(ms);
    } else {
      report_ms.push_back(ms);
      busy_ms += ms;
    }
    std::vector<QueryOutcome> report;
    for (const QueryResult& r : results) {
      report.push_back(OutcomeOf(r));
      const ExecMetrics& m = r.metrics;
      totals.ships += m.ships;
      totals.rows_shipped += m.rows_shipped;
      totals.bytes_shipped += m.bytes_shipped;
      totals.rows_scanned += m.rows_scanned;
      retries += m.send_retries + m.send_timeouts + m.recv_timeouts +
                 m.fragment_restarts;
      for (const FragmentMetrics& f : m.fragments) {
        fragment_wall_ms += f.wall_ms;
      }
    }
    outcomes.push_back(std::move(report));
  }
  const int64_t blocks_read =
      MetricsRegistry::Value("storage.blocks_read") - blocks_before;
  const PlanCacheStats cache_after = d->service->plan_cache()->stats();
  const double reports = static_cast<double>(outcomes.size());

  // Output checks, outside the timed path: every report of the run must
  // equal the in-process row backend's result and ship accounting.
  ExecutorOptions row_exec;
  row_exec.mode = ExecMode::kRow;
  row_exec.threads = 1;
  uint64_t reference_digest = 1469598103934665603ull;
  std::vector<QueryOutcome> reference;
  for (const QueryText& q : queries) {
    Result<OptimizedQuery> plan = d->engine->Optimize(q.sql);
    Check(plan.status(), "reference optimize");
    Executor executor(&d->engine->store(), &d->engine->net(), row_exec);
    Result<QueryResult> r = executor.Execute(*plan);
    Check(r.status(), "reference execute");
    reference.push_back(OutcomeOf(*r));
    reference_digest =
        MixDigest(reference_digest, Hex(reference.back().digest));
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] != reference) {
      ++out.failed;
      out.Mismatch("report " + std::to_string(i) +
                   " differs from the row reference");
    }
  }

  const double shipped_kb = totals.bytes_shipped / 1024.0 / reports;
  const double blocks_per_report = static_cast<double>(blocks_read) / reports;
  const int64_t hits = cache_after.hits - cache_before.hits;
  const int64_t lookups = hits + (cache_after.misses - cache_before.misses);
  std::printf("geo_report: sf %.3f, 5 locations on %zu servers, %d reports "
              "(%zu traced)\n",
              kScaleFactor, kHosting.size(), static_cast<int>(reports),
              traced_report_ms.size());
  std::printf("  shipped %.1f KiB/report, %.1f storage blocks/report, "
              "%lld/%lld plan-cache hits, result digest %s\n",
              shipped_kb, blocks_per_report, static_cast<long long>(hits),
              static_cast<long long>(lookups), Hex(reference_digest).c_str());
  char fixed[64];
  std::snprintf(fixed, sizeof(fixed), "%.6f", shipped_kb);
  out.Fixed("shipped_kb", fixed);
  std::snprintf(fixed, sizeof(fixed), "%.6f", blocks_per_report);
  out.Fixed("storage.blocks_read", fixed);
  out.Fixed("result_digest", Hex(reference_digest));
  // Every lookup after warm-up is a hit, traced or not.
  out.Fixed("cache_hits_per_report",
            std::to_string(static_cast<double>(hits) / reports));

  if (!cfg.trace) {
    out.Add("setup_s", setup_s, "s");
    out.Add("p50_ms", Median(report_ms), "ms");
    out.Add("tail_ms", Percentile(report_ms, kTailPercentile), "ms");
    out.Add("capacity_qps",
            static_cast<double>(report_ms.size() * queries.size()) /
                (busy_ms / 1000.0),
            "queries/s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  std::map<std::string, double> layer;
  for (const auto& [name, values] : samples) layer[name] = Median(values);
  layer["exec.rows_scanned"] =
      static_cast<double>(totals.rows_scanned) / reports;
  layer["exec.rows_shipped"] =
      static_cast<double>(totals.rows_shipped) / reports;
  layer["exec.ships"] = static_cast<double>(totals.ships) / reports;
  layer["exec.shipped_kb"] = shipped_kb;
  layer["exec.fragment_wall_ms"] = fragment_wall_ms / reports;
  layer["exec.retries"] = static_cast<double>(retries);
  layer["storage.blocks_read"] = blocks_per_report;
  layer["net.deploy_s"] = d->deploy_s;
  if (lookups > 0) {
    layer["service.cache_hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(lookups);
    layer["service.param_hit_ratio"] =
        static_cast<double>(cache_after.param_hits - cache_before.param_hits) /
        static_cast<double>(lookups);
  }
  layer["service.invalidations"] = static_cast<double>(
      cache_after.invalidations - cache_before.invalidations);
  layer["bench.trace_overhead_pct"] =
      100.0 * (Median(traced_report_ms) / Median(report_ms) - 1.0);
  layer["bench.unattributed_pct"] = tracer.UnattributedPct();
  ProbeStorage(d.get(), &layer);
  ProbeCodec(d.get(), &layer);
  tracer.PrintSelfTimes();
  if (!cfg.trace_out.empty() && !tracer.WriteChromeJson(cfg.trace_out)) {
    out.Mismatch("cannot write trace " + cfg.trace_out);
  }
  AddLayerMetrics(&out, layer);
  return out;
}

}  // namespace perfbench
