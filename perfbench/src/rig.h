// One repetition of a workload: build the front end, fill, warm up, run
// the saturated and paced phases, then crash -> recover -> read back.
//
// The rig drives the library only through its public surface: Ftl /
// ShardedFtl (SubmitAsync, SubmitAsyncAt, Poll, NextCompletionUs,
// IdleTick, CrashAndRecover, RamBytes, counters()), FlashDevice::AdvanceTo
// and stats(), the engine and maintenance counters BaseFtl exposes, and
// the spec-driven RequestStream. Every completion goes through the oracle.
//
// Determinism: everything simulated depends only on the seed. The
// unsharded front end is single-threaded. The sharded one executes each
// shard's sub-requests in the order the single submitter pushed them, and
// the rig makes every decision that feeds back into the simulation (idle
// ticks, crash points) from simulated state that is complete when it is
// read, never from how far the worker threads have got.

#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flash/flash_device.h"
#include "flash/latency_histogram.h"
#include "ftl/base_ftl.h"
#include "ftl/ftl.h"
#include "ftl/sharded_ftl.h"
#include "oracle.h"
#include "trace.h"
#include "workload/request_stream.h"
#include "workloads.h"

namespace perfbench {

/// What one repetition measured.
struct RepResult {
  /// Simulated-clock and counter metrics: identical for a fixed seed.
  std::map<std::string, double> sim;
  /// Counters that depend on host thread timing (sharded admission).
  std::map<std::string, double> host_layer;
  /// Host-clock bounds of the measured window (for span filtering).
  int64_t measure_begin_ns = 0;
  int64_t measure_end_ns = 0;
  /// Sample counts behind the simulated percentiles.
  std::map<std::string, uint64_t> samples;
  /// Host clock.
  double setup_s = 0;
  double measured_s = 0;  // saturated + paced phases
  double saturated_s = 0;  // the saturated phase alone
  double host_kops = 0;   // user pages per host ms over the measured phases
  /// Heap the benchmark itself holds at the end of the measured window
  /// (shadow + latency samples), part of peak_rss_mb.
  double own_mb = 0;
  /// Oracle.
  uint64_t attempted = 0;  // extents submitted, all phases
  uint64_t failed = 0;     // extents that failed honestly
  uint64_t wrong = 0;      // extents that returned wrong data
  std::string first_error;
  /// Regime self-checks, one printable line each.
  std::vector<std::string> regime;
  bool regime_ok = true;
};

class Rig {
 public:
  /// `tracer` may be null (untraced run). It must outlive the rig. Spans
  /// are recorded from the start of the measured window on: set-up is
  /// not traced.
  Rig(const WorkloadDef& def, uint64_t seed, Tracer* tracer);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Runs every phase. `corrupt_shadow` flips one oracle entry before the
  /// first read-back after a crash (self-test of the oracle).
  RepResult Run(bool corrupt_shadow);

  /// Set-up alone (construction, fill, warm-up); returns its host seconds.
  /// Call at most once per rig, and not together with Run().
  double SetUp(RepResult* out);

 private:
  /// What a request is for. kSetup and kReadback requests are the
  /// benchmark's own bulk writes and reads; the others draw from the
  /// workload's request stream.
  enum class Kind : uint8_t {
    kSetup, kWarmup, kSaturated, kPaced, kBurst, kReadback
  };

  struct Pending {
    uint64_t seq = 0;
    gecko::IoRequest request;
    std::vector<uint64_t> expected;
    double arrival_us = -1;  // paced requests only
    Kind kind = Kind::kSetup;
  };

  struct Done {
    uint32_t slot = 0;
    gecko::IoResult result;
    gecko::AsyncCompletion done;
  };

  /// Counters of every layer at one instant (front end quiescent).
  struct Snapshot {
    gecko::FtlCounters ftl;
    uint64_t engine_admitted = 0;
    uint64_t engine_parked = 0;
    gecko::MaintenanceStats maint;
    gecko::IoCounters io;
    std::vector<double> channel_busy_us;
    std::vector<double> clocks;  // one device clock per shard
    uint32_t max_channel_depth = 0;
    gecko::ShardedFtlStats shard;
  };

  void Build();
  Snapshot Take() const;
  void ResetDeviceStats();
  double Clock() const;  // max device clock (quiescent for sharded)

  gecko::IoRequest NextFromStream();
  /// Submits `request` (kept untouched and false on kQueueFull).
  bool TrySubmit(gecko::IoRequest& request, Kind kind, double arrival_us);
  void OnCompletion(uint32_t slot, const gecko::IoResult& result,
                    const gecko::AsyncCompletion& done);
  void Harvest();
  void Process(Done& d);
  /// Blocks until at least one completion has been processed.
  void WaitForProgress();
  /// Unsharded only: the next engine event, and running the device to
  /// it (completions fire and are processed).
  double NextDue();
  void StepTo(double due_us);
  void DrainAll();
  void Advance(double until_us);

  /// Keeps the queue full until `requests` have been issued; drains after
  /// unless `leave_in_flight`. kSetup and kReadback requests cover the
  /// next kBulkExtents pages at `cursor_`.
  void ClosedLoop(uint64_t requests, Kind kind, bool leave_in_flight);
  void Fill();
  bool Warmup(RepResult* out);
  void Saturated(RepResult* out);
  void Paced(RepResult* out);
  void CrashCycles(RepResult* out);
  void ReadBack();

  const WorkloadDef def_;
  const uint64_t seed_;
  Tracer* const run_tracer_;
  Tracer* tracer_ = nullptr;  // run_tracer_ once measurement starts

  std::unique_ptr<gecko::FlashDevice> device_;  // unsharded front ends
  std::unique_ptr<gecko::Ftl> ftl_;
  gecko::ShardedFtl* sharded_ = nullptr;
  std::vector<const gecko::BaseFtl*> bases_;
  std::unique_ptr<gecko::RequestStream> stream_;
  Oracle oracle_;

  std::vector<Pending> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 1;
  uint32_t inflight_ = 0;

  std::mutex mu_;
  std::vector<Done> done_;     // guarded by mu_
  // Completions pushed so far; the driving thread polls it instead of
  // sleeping, like a polling (SPDK-style) host.
  std::atomic<uint64_t> pushed_{0};
  uint64_t harvested_ = 0;     // driving thread only
  std::vector<Done> harvest_;  // driving thread only

  // Next page of the fill or the read-back.
  gecko::Lpn cursor_ = 0;
  bool corrupt_shadow_ = false;

  // Phase accounting (driving thread only).
  uint64_t pages_completed_ = 0;  // kSaturated + kPaced pages
  uint64_t write_pages_issued_ = 0;
  uint64_t queue_full_ = 0;         // kQueueFull returns, measured phases
  uint64_t measured_requests_ = 0;  // requests admitted, measured phases
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double max_complete_us_ = 0;
  double last_paced_complete_us_ = 0;
  uint64_t ledger_violations_ = 0;
  // Paced arrival -> completion latencies, one sample per request: the
  // end-to-end percentiles are exact (see Percentile in rig.cc).
  std::vector<double> read_lat_, write_lat_;
  // Paced arrival -> admission and admission -> completion.
  gecko::LatencyHistogram host_wait_, device_lat_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_
