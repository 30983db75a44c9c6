#include "exec/fragment_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/batch_ops.h"
#include "exec/exec_internal.h"
#include "exec/fragmenter.h"

namespace cgq {

using exec_internal::BatchOp;
using exec_internal::BatchOpEnv;
using exec_internal::BatchOpPtr;
using exec_internal::BuildBatchOp;
using exec_internal::CheckCancelled;
using exec_internal::LayoutOf;
using exec_internal::OptBatch;

namespace {

/// Shared state of one fragmented execution.
struct RunState {
  const TableStore* store = nullptr;
  const ExecutorOptions* options = nullptr;
  const FragmentedPlan* fp = nullptr;
  std::vector<std::unique_ptr<ShipChannel>> channels;
  std::atomic<bool> failed{false};

  std::mutex error_mu;
  Status first_error;

  /// Records the first (temporally) failure and aborts every channel with
  /// it, so blocked siblings wake up carrying the original structured
  /// status rather than a generic secondary error.
  void Fail(const Status& status) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = status;
    }
    failed.store(true, std::memory_order_release);
    for (auto& ch : channels) ch->Abort(status);
  }

  Status FirstError() {
    std::lock_guard<std::mutex> lock(error_mu);
    return first_error;
  }
};

class ChannelSourceOp : public BatchOp {
 public:
  ChannelSourceOp(const PlanNode* ship, ShipChannel* channel,
                  const std::atomic<bool>* failed)
      : channel_(channel),
        failed_(failed),
        layout_(LayoutOf(*ship->child(0))) {}

  Result<OptBatch> Next() override {
    RowBatch batch;
    CGQ_ASSIGN_OR_RETURN(bool got, channel_->Recv(&batch));
    if (!got) {
      if (failed_->load(std::memory_order_acquire)) {
        Status abort = channel_->abort_status();
        return abort.ok() ? Status::Internal("fragment execution aborted")
                          : abort;
      }
      return OptBatch();
    }
    return OptBatch(std::move(batch));
  }

  const RowLayout& layout() const override { return layout_; }

 private:
  ShipChannel* channel_;
  const std::atomic<bool>* failed_;
  RowLayout layout_;
};

/// Per-fragment storage accounting (disk scans + spill joins); folded
/// into ExecMetrics after all fragments finish. Like rows_scanned, the
/// counts accumulate across restart attempts.
struct StorageCounters {
  int64_t blocks_read = 0;
  int64_t columns_read = 0;
  int64_t columns_skipped = 0;
  int64_t spill_partitions = 0;
  int64_t spill_bytes = 0;
};

/// Drives one fragment to completion: producer fragments push batches into
/// their output channel, the top fragment collects the query result.
Status RunFragment(const PlanFragment& fragment, RunState* st,
                   FragmentMetrics* fm, StorageCounters* sc,
                   std::vector<Row>* result_rows) {
  if (CGQ_FAILPOINT("fragment.start")) {
    return Status::Unavailable("injected failure: fragment #" +
                               std::to_string(fragment.id) +
                               " died at start");
  }
  BatchOpEnv env;
  env.store = st->store;
  env.batch_size =
      static_cast<size_t>(std::max(1, st->options->batch_size));
  env.cancel = st->options->cancel.get();
  env.rows_scanned = &fm->rows_scanned;
  env.storage_blocks_read = &sc->blocks_read;
  env.storage_columns_read = &sc->columns_read;
  env.storage_columns_skipped = &sc->columns_skipped;
  env.spill_partitions = &sc->spill_partitions;
  env.spill_bytes = &sc->spill_bytes;
  env.memory_budget_bytes = st->options->memory_budget_bytes;
  env.spill_dir = st->options->spill_dir;
  env.ship_source = [st](const PlanNode& ship) -> Result<BatchOpPtr> {
    int channel = st->fp->channel_of_ship.at(&ship);
    return BatchOpPtr(new ChannelSourceOp(
        &ship, st->channels[channel].get(), &st->failed));
  };
  CGQ_ASSIGN_OR_RETURN(BatchOpPtr op, BuildBatchOp(*fragment.root, env));
  const std::atomic<bool>* cancel = st->options->cancel.get();
  if (fragment.output_channel >= 0) {
    ShipChannel* channel = st->channels[fragment.output_channel].get();
    while (true) {
      CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
      CGQ_ASSIGN_OR_RETURN(OptBatch batch, op->Next());
      if (!batch) break;
      if (batch->Empty()) continue;
      fm->rows_out += static_cast<int64_t>(batch->NumRows());
      CGQ_RETURN_NOT_OK(channel->Send(std::move(*batch)));
    }
    channel->CloseProducer();
    return Status::OK();
  }
  while (true) {
    CGQ_RETURN_NOT_OK(CheckCancelled(cancel));
    CGQ_ASSIGN_OR_RETURN(OptBatch batch, op->Next());
    if (!batch) break;
    fm->rows_out += static_cast<int64_t>(batch->NumRows());
    result_rows->insert(result_rows->end(),
                        std::make_move_iterator(batch->rows.begin()),
                        std::make_move_iterator(batch->rows.end()));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteFragmentedPlan(const PlanNode& plan,
                                          const TableStore* store,
                                          const NetworkModel* net,
                                          const ExecutorOptions& options) {
  FragmentedPlan fp = FragmentPlan(plan);
  const size_t n = fp.fragments.size();

  // One worker per fragment keeps bounded channels deadlock-free: every
  // blocking producer/consumer owns a thread. With threads == 1 (or when
  // called from inside a pool worker, where fanning out again could
  // starve), fragments instead run bottom-up on the calling thread and
  // channels buffer whole intermediates.
  const bool sequential =
      options.threads == 1 || n == 1 || ThreadPool::InWorkerThread();

  RunState st;
  st.store = store;
  st.options = &options;
  st.fp = &fp;
  // Channels are created below on this thread, before any worker starts,
  // so their "ship" spans attach to the current span in deterministic
  // (plan post-order) creation order. Workers re-install the context
  // themselves (thread locals do not cross into the pool).
  TraceSession* trace = TraceSession::Current();
  int64_t trace_parent = TraceSession::CurrentSpanId();
  CGQ_GAUGE_SET("exec.fragments", static_cast<int64_t>(n));
  const size_t capacity =
      sequential ? 0
                 : static_cast<size_t>(std::max(0, options.channel_capacity));
  st.channels.reserve(fp.num_channels());
  for (const PlanNode* ship : fp.ship_of_channel) {
    st.channels.push_back(std::make_unique<ShipChannel>(
        ship->ship_from, ship->ship_to, capacity, net, options.retry));
  }

  std::vector<FragmentMetrics> fmetrics(n);
  std::vector<StorageCounters> scounters(n);
  std::vector<Row> result_rows;

  auto run = [&](size_t i) {
    auto start = std::chrono::steady_clock::now();
    const PlanFragment& fragment = fp.fragments[i];
    FragmentMetrics& fm = fmetrics[i];
    fm.id = fragment.id;
    fm.site = fragment.site;
    ScopedTraceContext trace_ctx(trace, trace_parent,
                                 /*track=*/static_cast<int>(i) + 1);
    TraceSpan fragment_span("fragment", /*ordinal=*/static_cast<int>(i));
    fragment_span.AddArg("id", fragment.id);
    fragment_span.AddArg("site", static_cast<int64_t>(fragment.site));
    // Recovery: a *source* fragment (no input channels; its inputs are
    // idempotent scans of stable storage) may restart after a transient
    // (kUnavailable) failure. Its output channel replays: partial
    // undelivered batches are drained and the already-delivered row
    // prefix of the deterministic re-execution is suppressed, so the
    // consumer sees each row exactly once. Interior fragments rely on
    // send-level retries; when those are exhausted, the query aborts
    // with the structured status — never a partial result. Every attempt
    // re-runs at the site the located plan assigned, re-checked against
    // the execution/shipping traits.
    const bool restartable = fragment.input_channels.empty();
    const size_t result_base = result_rows.size();
    Status s;
    for (int attempt = 0;; ++attempt) {
      s = CheckFragmentPlacement(fragment);
      if (s.ok()) {
        s = RunFragment(fragment, &st, &fm, &scounters[i], &result_rows);
      }
      if (s.ok() || !s.IsUnavailable() || !restartable ||
          attempt >= options.retry.max_retries ||
          st.failed.load(std::memory_order_acquire)) {
        break;
      }
      fm.restarts += 1;
      if (fragment.output_channel >= 0) {
        st.channels[fragment.output_channel]->BeginReplay();
      } else {
        // Top fragment: discard the partial result of the failed attempt.
        result_rows.resize(result_base);
      }
    }
    fm.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    // Only deterministic values (no wall time) so traces stay
    // byte-stable per seed.
    fragment_span.AddArg("rows_out", fm.rows_out);
    fragment_span.AddArg("rows_scanned", fm.rows_scanned);
    fragment_span.AddArg("restarts", fm.restarts);
    if (!s.ok()) st.Fail(s);
  };

  if (sequential) {
    for (size_t i = 0; i < n; ++i) {
      run(i);
      if (st.failed.load()) break;
    }
  } else {
    ThreadPool pool(n - 1);
    pool.ParallelFor(n, n, run);
  }

  if (st.failed.load(std::memory_order_acquire)) {
    return st.FirstError();
  }

  QueryResult result;
  for (const OutputCol& c : plan.outputs) {
    result.column_names.push_back(c.name);
  }
  result.rows = std::move(result_rows);

  ExecMetrics& m = result.metrics;
  for (const auto& channel : st.channels) {
    ChannelStats stats = channel->stats();
    m.ships += 1;
    m.rows_shipped += stats.rows;
    m.bytes_shipped += stats.bytes;
    m.network_ms += stats.network_ms;
    m.send_retries += stats.send_retries;
    m.dropped_batches += stats.dropped_batches;
    m.send_timeouts += stats.send_timeouts;
    m.recv_timeouts += stats.recv_timeouts;
    m.backoff_ms += stats.backoff_ms;
    m.edges.push_back(stats);
  }
  for (const FragmentMetrics& fm : fmetrics) {
    m.rows_scanned += fm.rows_scanned;
    m.fragment_restarts += fm.restarts;
  }
  for (const StorageCounters& sc : scounters) {
    m.storage_blocks_read += sc.blocks_read;
    m.storage_columns_read += sc.columns_read;
    m.storage_columns_skipped += sc.columns_skipped;
    m.spill_partitions += sc.spill_partitions;
    m.spill_bytes += sc.spill_bytes;
  }
  m.fragments = std::move(fmetrics);
  return result;
}

}  // namespace cgq
