#include "sim/load_driver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.h"

namespace gecko {

namespace {

/// A NotFound extent is a read or trim of a never-written page — part of
/// a normal mixed workload, not a failure.
bool Failed(const Status& es) {
  return !es.ok() && es.code() != StatusCode::kNotFound;
}

bool RecordsLatency(IoOp op) { return op == IoOp::kRead || op == IoOp::kWrite; }

/// Accounts one async completion, measured from its arrival.
void Complete(IoOp op, uint64_t extents, double arrival_us,
              const IoResult& result, const AsyncCompletion& done,
              LoadReport* report) {
  if (result.status.code() == StatusCode::kAborted) {
    ++report->aborted;
    return;
  }
  ++report->completed;
  report->extents_completed += extents;
  for (const Status& es : result.extent_status) {
    if (Failed(es)) ++report->failed_extents;
  }
  if (RecordsLatency(op)) {
    report->latency.Record(done.complete_us - arrival_us);
  }
}

/// Fills the rates and the WA breakdown once counts and time are final.
void Finish(double offered_window_us, double delta, LoadReport* report) {
  report->offered_kiops =
      offered_window_us > 0
          ? static_cast<double>(report->extents_offered) / offered_window_us *
                1000.0
          : 0;
  report->achieved_kiops =
      report->elapsed_us > 0
          ? static_cast<double>(report->extents_completed) /
                report->elapsed_us * 1000.0
          : 0;
  report->wa = WaBreakdown::Of(report->io, delta);
}

}  // namespace

WaBreakdown WaBreakdown::Of(const IoCounters& io, double delta) {
  WaBreakdown wa;
  wa.user_and_gc = io.WriteAmplificationFor(IoPurpose::kGcMigration, delta) +
                   io.WriteAmplificationFor(IoPurpose::kUserWrite, delta);
  wa.translation = io.WriteAmplificationFor(IoPurpose::kTranslation, delta);
  wa.page_validity = io.WriteAmplificationFor(IoPurpose::kPvm, delta);
  wa.total = io.WriteAmplification(delta);
  return wa;
}

ChannelReport Channels(const FlashDevice& device) {
  const IoStats& stats = device.stats();
  ChannelReport report;
  report.utilization = stats.ChannelUtilizations();
  for (uint32_t c = 0; c < stats.num_channels(); ++c) {
    report.ops.push_back(stats.ChannelOps(c));
  }
  report.max_queue_depth = stats.max_queue_depth();
  return report;
}

void Fill(Ftl& ftl, uint64_t num_lpns, uint32_t batch_size) {
  GECKO_CHECK_GT(batch_size, 0u);
  for (uint64_t base = 0; base < num_lpns; base += batch_size) {
    IoRequest request(IoOp::kWrite);
    uint64_t end = std::min<uint64_t>(base + batch_size, num_lpns);
    for (uint64_t lpn = base; lpn < end; ++lpn) {
      const Lpn l = static_cast<Lpn>(lpn);
      request.Add(l, RequestStream::PayloadToken(l, 0));
    }
    IoResult result;
    Status s = ftl.Submit(request, &result);
    GECKO_CHECK(s.ok() && result.AllOk()) << result.FirstError().ToString();
  }
}

LoadReport LoadDriver::Run(const LoadOptions& options, RequestStream& stream,
                           const WorkloadFactory& factory) {
  GECKO_CHECK_GE(options.inter_arrival_us, 0.0);
  if (options.threads > 0) return RunThreaded(options, stream, factory);
  GECKO_CHECK(device_ != nullptr) << "inline runs need the FTL's device";
  return RunInline(options, stream);
}

void LoadDriver::DrainDeferred(LoadReport* report) {
  while (!deferred_.empty()) {
    Deferred& d = deferred_.front();
    const IoOp op = d.request.op;
    const uint64_t extents = d.request.size();
    const double arrival_us = d.arrival_us;
    CompletionCb on_complete = [report, op, extents, arrival_us](
                                   const IoResult& result,
                                   const AsyncCompletion& done) {
      Complete(op, extents, arrival_us, result, done, report);
    };
    // The request is untouched on kQueueFull; it keeps waiting.
    Status s = ftl_->SubmitAsync(std::move(d.request), std::move(on_complete));
    if (s.code() == StatusCode::kQueueFull) return;
    GECKO_CHECK(s.ok()) << s.ToString();
    deferred_.pop_front();
  }
}

LoadReport LoadDriver::RunInline(const LoadOptions& options,
                                 RequestStream& stream) {
  LoadReport report;
  const bool closed = options.inter_arrival_us == 0;
  const IoCounters io_before = device_->stats().Snapshot();
  const double start_us = device_->now_us();
  const double elapsed_before_us = device_->stats().elapsed_us();

  for (uint64_t i = 0; options.requests > 0
                           ? i < options.requests
                           : stream.ops_emitted() < options.until_extents;
       ++i) {
    const double arrival_us =
        start_us + static_cast<double>(i) * options.inter_arrival_us;
    if (!closed) {
      // Let device time pass until this arrival, firing completions at
      // their true device times so queue slots free as they would on
      // real hardware (not rounded up to the next arrival tick).
      while (ftl_->NextCompletionUs() <= arrival_us) {
        device_->AdvanceTo(ftl_->NextCompletionUs());
        ftl_->Poll();
        DrainDeferred(&report);
      }
      if (arrival_us > device_->now_us()) device_->AdvanceTo(arrival_us);
      ftl_->Poll();
      DrainDeferred(&report);
    }
    if (options.idle_slots > 0) {
      if (in_burst_ == kBurstRequests) {
        // Host-idle phase: every slot goes to the maintenance scheduler.
        for (uint32_t s = 0; s < options.idle_slots; ++s) {
          report.background_steps += ftl_->IdleTick();
        }
        in_burst_ = 0;
      }
      ++in_burst_;
    }

    IoRequest request = stream.Next();
    ++report.arrivals;
    report.extents_offered += request.size();
    if (!closed) {
      // FIFO fairness: an arrival is submitted right away only when no
      // earlier deferral waits before it.
      deferred_.push_back(Deferred{std::move(request), arrival_us});
      if (deferred_.size() == 1) DrainDeferred(&report);
      if (!deferred_.empty()) ++report.deferrals;
      continue;
    }
    const double before_us = device_->stats().elapsed_us();
    IoResult result;
    Status s = ftl_->Submit(request, &result);
    GECKO_CHECK(s.ok()) << s.ToString();
    for (const Status& es : result.extent_status) {
      GECKO_CHECK(!Failed(es)) << es.ToString();
    }
    ++report.completed;
    report.extents_completed += request.size();
    if (RecordsLatency(request.op)) {
      report.latency.Record(device_->stats().elapsed_us() - before_us);
    }
  }

  // Tail drain: the backlog (in-flight + overflow) empties at device
  // speed, completion by completion.
  while (true) {
    DrainDeferred(&report);
    if (ftl_->InFlightRequests() == 0 && deferred_.empty()) break;
    const double next_us = ftl_->NextCompletionUs();
    GECKO_CHECK(!std::isinf(next_us)) << "in-flight requests but no pending "
                                         "completion";
    device_->AdvanceTo(next_us);
    ftl_->Poll();
  }

  // The closed loop has no arrival clock; its timeline is the device's
  // elapsed-time counter, the same clock its latencies are taken on.
  report.elapsed_us = closed
                          ? device_->stats().elapsed_us() - elapsed_before_us
                          : device_->now_us() - start_us;
  report.io = device_->stats().Snapshot() - io_before;
  Finish(static_cast<double>(report.arrivals) * options.inter_arrival_us,
         device_->stats().latency().Delta(), &report);
  return report;
}

LoadReport LoadDriver::RunThreaded(const LoadOptions& options,
                                   const RequestStream& prototype,
                                   const WorkloadFactory& factory) {
  GECKO_CHECK(sharded_ != nullptr) << "threaded runs need a ShardedFtl";
  GECKO_CHECK(factory != nullptr);
  GECKO_CHECK_GT(options.requests, 0u);
  GECKO_CHECK_EQ(options.idle_slots, 0u) << "bursty hosts run inline";

  const uint32_t num_shards = sharded_->num_shards();
  std::vector<double> start_now(num_shards);
  IoCounters io_before;
  for (uint32_t s = 0; s < num_shards; ++s) {
    start_now[s] = sharded_->shard_device(s).now_us();
    io_before += sharded_->shard_device(s).stats().Snapshot();
  }
  // Arrival clocks start at the latest shard clock so stamps are never in
  // any shard's past (a prefilled shard may already be ahead).
  const double arrival_base =
      *std::max_element(start_now.begin(), start_now.end());

  // Per-thread uncompleted requests, decremented by the shard workers.
  std::vector<std::atomic<uint32_t>> outstanding(options.threads);
  // Completions fire concurrently on shard worker threads; `mu` guards
  // the report until the run has drained.
  std::mutex mu;
  LoadReport report;

  auto submit = [&](uint32_t t) {
    std::atomic<uint32_t>& mine = outstanding[t];
    uint64_t extents_offered = 0;
    uint64_t deferrals = 0;
    std::unique_ptr<Workload> workload = factory(t);
    GECKO_CHECK(workload != nullptr);
    RequestStream stream = prototype.Fork(t, workload.get());

    for (uint64_t i = 0; i < options.requests; ++i) {
      const double arrival_us =
          arrival_base + static_cast<double>(i) * options.inter_arrival_us;
      while (mine.load(std::memory_order_acquire) >=
             kMaxOutstandingPerThread) {
        std::this_thread::yield();
      }
      IoRequest request = stream.Next();
      const IoOp op = request.op;
      const uint64_t extents = request.size();
      extents_offered += extents;
      CompletionCb on_complete = [&mu, &report, &mine, op, extents,
                                  arrival_us](const IoResult& result,
                                              const AsyncCompletion& done) {
        {
          std::lock_guard<std::mutex> lock(mu);
          Complete(op, extents, arrival_us, result, done, &report);
        }
        mine.fetch_sub(1, std::memory_order_acq_rel);
      };
      for (;;) {
        mine.fetch_add(1, std::memory_order_acq_rel);
        Status s = sharded_->SubmitAsyncAt(std::move(request), arrival_us,
                                           on_complete);
        if (s.ok()) break;
        mine.fetch_sub(1, std::memory_order_acq_rel);
        GECKO_CHECK_EQ(static_cast<int>(s.code()),
                       static_cast<int>(StatusCode::kQueueFull))
            << s.ToString();
        ++deferrals;  // request untouched; retry after yield
        std::this_thread::yield();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    report.arrivals += options.requests;
    report.extents_offered += extents_offered;
    report.deferrals += deferrals;
  };

  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (uint32_t t = 0; t < options.threads; ++t) {
    threads.emplace_back(submit, t);
  }
  for (std::thread& t : threads) t.join();
  sharded_->DrainAsync();  // tail completions land before we read anything

  IoCounters io_after;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const FlashDevice& device = sharded_->shard_device(s);
    report.elapsed_us =
        std::max(report.elapsed_us, device.now_us() - start_now[s]);
    io_after += device.stats().Snapshot();
  }
  report.io = io_after - io_before;
  Finish(static_cast<double>(options.requests) * options.inter_arrival_us,
         sharded_->shard_device(0).stats().latency().Delta(), &report);
  return report;
}

}  // namespace gecko
