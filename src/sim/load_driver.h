// The FTL load driver: feeds a RequestStream into an Ftl on one arrival
// clock and measures the run in simulated device time. Every FTL
// experiment runs through it (page-validity stores run alone, under
// PvmDriver). LoadOptions selects the regime:
//
//   threads == 0, inter_arrival_us == 0 — the closed loop of the Section
//     5.3/5.4 experiments: each request goes through the synchronous
//     Ftl::Submit (submit, then drain) before the next is drawn. Latency
//     is the request's makespan on the device's elapsed-time counter,
//     foreground GC steps included.
//
//   threads == 0, inter_arrival_us > 0 — the bdevperf-style open loop.
//     Arrivals tick regardless of completions, so overload shows up as
//     queueing delay in the arrival-to-completion latency instead of
//     being hidden by a self-throttling host. Before each arrival the
//     device clock advances to it, firing completions at their true
//     device times; kQueueFull parks the request on an unbounded host
//     overflow FIFO that drains as completions free slots.
//
//   threads > 0 — T submitter threads against a ShardedFtl, one host core
//     each. Thread t draws from its own forked stream (util/random.h is
//     not thread-safe) and submits arrival-stamped (SubmitAsyncAt); it
//     caps its uncompleted requests at kMaxOutstandingPerThread and
//     retries kQueueFull after a yield.
//
// Inline runs can model a bursty host: after every kBurstRequests
// requests come `idle_slots` idle slots, each handed to Ftl::IdleTick so
// the maintenance scheduler can collect while the host is quiet. The
// burst position persists across Runs of one driver.

#ifndef GECKOFTL_SIM_LOAD_DRIVER_H_
#define GECKOFTL_SIM_LOAD_DRIVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "flash/flash_device.h"
#include "flash/latency_histogram.h"
#include "ftl/ftl.h"
#include "ftl/sharded_ftl.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

namespace gecko {

/// Write-amplification split by cause, per Figure 13 (bottom).
struct WaBreakdown {
  double user_and_gc = 0;    // GC migrations of user data
  double translation = 0;    // sync ops + translation-page GC
  double page_validity = 0;  // PVM updates, GC queries, PVM-page GC
  double total = 0;

  /// `delta` is the write/read cost ratio of the Section 5 WA formula.
  static WaBreakdown Of(const IoCounters& io, double delta);
};

/// How evenly a run on the channel-parallel backend spread its flash ops,
/// and how deep the channel queues got.
struct ChannelReport {
  std::vector<double> utilization;  // busy / elapsed per channel, in [0,1]
  std::vector<uint64_t> ops;        // flash ops serviced per channel
  uint32_t max_queue_depth = 0;     // deepest any channel queue got

  double MeanUtilization() const {
    if (utilization.empty()) return 0;
    double sum = 0;
    for (double u : utilization) sum += u;
    return sum / static_cast<double>(utilization.size());
  }
};

ChannelReport Channels(const FlashDevice& device);

/// Writes every logical page once, with payload PayloadToken(lpn, 0), as
/// requests of `batch_size` sequential pages.
void Fill(Ftl& ftl, uint64_t num_lpns, uint32_t batch_size = 1);

struct LoadOptions {
  /// Submitter threads: 0 runs inline against any Ftl, T > 0 runs T
  /// threads against a ShardedFtl.
  uint32_t threads = 0;
  /// Period of each submitter's arrival clock in simulated us; 0 is the
  /// closed loop (inline only).
  double inter_arrival_us = 0;
  /// Arrivals per submitter; 0 runs until `until_extents` instead.
  uint64_t requests = 0;
  /// Inline only: run until the stream has emitted this many extents in
  /// total, earlier Runs included — a warm-up Run to N and a measurement
  /// Run to N + M split one stream exactly.
  uint64_t until_extents = 0;
  /// Inline only: IdleTick calls after every kBurstRequests requests;
  /// 0 is a saturated host.
  uint32_t idle_slots = 0;
};

struct LoadReport {
  uint64_t arrivals = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;  // by a power failure
  uint64_t extents_offered = 0;
  uint64_t extents_completed = 0;
  /// Completed extents that failed with anything but NotFound (a read or
  /// trim of a never-written page). The closed loop CHECKs instead.
  uint64_t failed_extents = 0;
  /// Arrivals that found the submission queue full: inline, those that
  /// waited in the overflow FIFO; threaded, every retry.
  uint64_t deferrals = 0;
  uint64_t background_steps = 0;  // GC steps the idle slots ran
  /// Inline: first arrival to last completion. Threaded: the largest
  /// per-shard device-clock advance (shard clocks run in parallel).
  double elapsed_us = 0;
  double offered_kiops = 0;   // extents offered per simulated ms
  double achieved_kiops = 0;  // extents completed per simulated ms
  /// Read and write requests only; trims and flushes are not timed.
  LatencyHistogram latency;
  IoCounters io;  // flash IO of the run, summed over shards
  WaBreakdown wa;
};

class LoadDriver {
 public:
  using WorkloadFactory =
      std::function<std::unique_ptr<Workload>(uint32_t thread)>;

  static constexpr uint32_t kBurstRequests = 16;
  static constexpr uint32_t kMaxOutstandingPerThread = 16;

  LoadDriver(Ftl* ftl, FlashDevice* device) : ftl_(ftl), device_(device) {}
  explicit LoadDriver(ShardedFtl* sharded)
      : ftl_(sharded), sharded_(sharded) {}

  /// Runs to the end of the options' arrivals and drains the tail; the
  /// report covers this Run only. Threaded, `stream` is only a prototype:
  /// thread t draws from stream.Fork(t, factory(t)), a deterministic
  /// stream with a disjoint payload-version range.
  LoadReport Run(const LoadOptions& options, RequestStream& stream,
                 const WorkloadFactory& factory = nullptr);

 private:
  struct Deferred {
    IoRequest request;
    double arrival_us = 0;
  };

  LoadReport RunInline(const LoadOptions& options, RequestStream& stream);
  LoadReport RunThreaded(const LoadOptions& options,
                         const RequestStream& prototype,
                         const WorkloadFactory& factory);
  /// Submits overflow-queue requests FIFO until the queue is full.
  void DrainDeferred(LoadReport* report);

  Ftl* ftl_;
  FlashDevice* device_ = nullptr;
  ShardedFtl* sharded_ = nullptr;
  std::deque<Deferred> deferred_;
  uint32_t in_burst_ = 0;  // requests issued in the current burst
};

}  // namespace gecko

#endif  // GECKOFTL_SIM_LOAD_DRIVER_H_
