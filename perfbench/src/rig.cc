#include "rig.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <thread>
#include <utility>

#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "util/check.h"
#include "util/random.h"

namespace perfbench {

namespace {

using gecko::IoOp;
using gecko::IoRequest;
using gecko::StatusCode;

/// Extents per request of the sequential fill and of the read-back.
constexpr uint32_t kBulkExtents = 64;

/// Payload version of the fill writes: far above any version a request
/// stream reaches, so fill tokens never collide with workload tokens.
constexpr uint64_t kFillVersion = uint64_t{1} << 62;

/// Regime of the two measured phases: the saturated phase must deliver at
/// least this many times the paced phase's offered rate, so the paced
/// phase runs well below the knee.
constexpr double kCapacityOverPaced = 1.5;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mid-quantile of `v` (sorted in place): Hyndman-Fan type 5 linear
/// interpolation, with tied samples placed at the middle of their step of
/// the empirical distribution (Parzen's mid-distribution). Simulated
/// service times are discrete, so latencies pile up on exact values;
/// a nearest-rank percentile would stick to one of those values
/// whenever it falls inside a pile, hiding how the mass around it moved.
/// Samples within kTieUs of each other are ties: arrival-relative
/// latencies of equal service times differ only by rounding.
double Percentile(std::vector<double>& v, double q) {
  constexpr double kTieUs = 1e-6;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double prev_x = v.front(), prev_mid = -1;
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] - v[i] <= kTieUs) ++j;
    const double mid = (static_cast<double>(i) + static_cast<double>(j)) / 2 / n;
    if (q <= mid) {
      if (prev_mid < 0) return v[i];
      return prev_x + (v[i] - prev_x) * (q - prev_mid) / (mid - prev_mid);
    }
    prev_x = v[i];
    prev_mid = mid;
    i = j;
  }
  return v.back();
}

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

Rig::Rig(const WorkloadDef& def, uint64_t seed, Tracer* tracer)
    : def_(def),
      seed_(seed),
      run_tracer_(tracer),
      oracle_(0) {}

Rig::~Rig() {
  // Worker threads of a sharded front end call back into this rig: stop
  // them before anything they touch goes away.
  ftl_.reset();
  device_.reset();
}

void Rig::Build() {
  using gecko::FtlConfig;
  if (def_.front == FrontEnd::kShardedGecko) {
    gecko::ShardedFtlOptions options;
    options.geometry = def_.geometry;
    options.num_shards = def_.num_shards;
    options.config =
        gecko::GeckoFtl::DefaultConfig(def_.cache_capacity / def_.num_shards);
    options.config.async_queue_depth = kQueueDepth;
    options.max_inflight = kQueueDepth;
    auto sharded = std::make_unique<gecko::ShardedFtl>(
        options,
        [](gecko::FlashDevice* d,
           const FtlConfig& c) -> std::unique_ptr<gecko::Ftl> {
          return std::make_unique<gecko::GeckoFtl>(d, c);
        });
    sharded_ = sharded.get();
    for (uint32_t s = 0; s < sharded_->num_shards(); ++s) {
      bases_.push_back(
          dynamic_cast<const gecko::BaseFtl*>(&sharded_->shard_ftl(s)));
      GECKO_CHECK(bases_.back() != nullptr);
    }
    ftl_ = std::move(sharded);
  } else {
    device_ = std::make_unique<gecko::FlashDevice>(def_.geometry);
    const bool lazy = def_.front == FrontEnd::kLazy;
    FtlConfig config = lazy ? gecko::LazyFtl::DefaultConfig(def_.cache_capacity)
                            : gecko::GeckoFtl::DefaultConfig(def_.cache_capacity);
    config.async_queue_depth = kQueueDepth;
    std::unique_ptr<gecko::BaseFtl> base;
    if (lazy) {
      base = std::make_unique<gecko::LazyFtl>(device_.get(), config);
    } else {
      base = std::make_unique<gecko::GeckoFtl>(device_.get(), config);
    }
    bases_.push_back(base.get());
    ftl_ = std::move(base);
  }
  // Sharding rounds the logical space down to whole striping chunks.
  const uint64_t num_lpns = sharded_ != nullptr
                                ? sharded_->shard_map().TotalLpns()
                                : def_.geometry.NumLogicalPages();
  oracle_ = Oracle(num_lpns);
  gecko::RequestStream::Options options = def_.stream;
  options.seed = seed_;
  options.workload.num_lpns = num_lpns;
  stream_ = std::make_unique<gecko::RequestStream>(options);
}

Rig::Snapshot Rig::Take() const {
  Snapshot s;
  s.ftl = ftl_->counters();
  for (const gecko::BaseFtl* base : bases_) {
    s.engine_admitted += base->async_engine().stats().admitted;
    s.engine_parked += base->async_engine().stats().parked;
    const gecko::MaintenanceStats& m = base->maintenance().stats();
    s.maint.idle_ticks += m.idle_ticks;
    s.maint.background_steps += m.background_steps;
    s.maint.throttled_steps += m.throttled_steps;
    s.maint.emergency_stalls += m.emergency_stalls;
  }
  std::vector<const gecko::FlashDevice*> devices;
  if (sharded_ != nullptr) {
    for (uint32_t i = 0; i < sharded_->num_shards(); ++i) {
      devices.push_back(&sharded_->shard_device(i));
    }
    s.shard = sharded_->stats();
  } else {
    devices.push_back(device_.get());
  }
  for (const gecko::FlashDevice* d : devices) {
    s.io += d->stats().counters();
    for (uint32_t c = 0; c < d->stats().num_channels(); ++c) {
      s.channel_busy_us.push_back(d->stats().ChannelBusyUs(c));
    }
    s.clocks.push_back(d->now_us());
    s.max_channel_depth =
        std::max(s.max_channel_depth, d->stats().max_queue_depth());
  }
  return s;
}

void Rig::ResetDeviceStats() {
  if (sharded_ != nullptr) {
    for (uint32_t i = 0; i < sharded_->num_shards(); ++i) {
      sharded_->shard_device(i).stats().Reset();
    }
  } else {
    device_->stats().Reset();
  }
}

double Rig::Clock() const {
  if (sharded_ == nullptr) return device_->now_us();
  double t = 0;
  for (uint32_t i = 0; i < sharded_->num_shards(); ++i) {
    t = std::max(t, sharded_->shard_device(i).now_us());
  }
  return t;
}

IoRequest Rig::NextFromStream() {
  Tracer::Scope span(tracer_, SpanName::kWorkloadNext, next_seq_);
  return stream_->Next();
}

bool Rig::TrySubmit(IoRequest& request, Kind kind, double arrival_us) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Pending& p = slots_[slot];
  p.request.op = request.op;
  p.request.extents.assign(request.extents.begin(), request.extents.end());
  p.kind = kind;
  p.arrival_us = arrival_us;
  p.seq = next_seq_;
  gecko::CompletionCb on_complete =
      [this, slot](const gecko::IoResult& result,
                   const gecko::AsyncCompletion& done) {
        OnCompletion(slot, result, done);
      };
  gecko::Status s;
  if (sharded_ != nullptr) {
    Tracer::Scope span(tracer_, SpanName::kShardSubmit, p.seq);
    s = arrival_us >= 0 ? sharded_->SubmitAsyncAt(std::move(request),
                                                  arrival_us,
                                                  std::move(on_complete))
                        : sharded_->SubmitAsync(std::move(request),
                                                std::move(on_complete));
  } else {
    Tracer::Scope span(tracer_, SpanName::kEngineSubmit, p.seq);
    s = ftl_->SubmitAsync(std::move(request), std::move(on_complete));
  }
  if (s.code() == StatusCode::kQueueFull) {
    free_slots_.push_back(slot);
    if (kind == Kind::kSaturated || kind == Kind::kPaced) ++queue_full_;
    return false;
  }
  GECKO_CHECK(s.ok()) << s.ToString();
  ++next_seq_;
  ++inflight_;
  if (kind == Kind::kSaturated || kind == Kind::kPaced) ++measured_requests_;
  attempted_ += p.request.size();
  if (p.request.op == IoOp::kWrite) write_pages_issued_ += p.request.size();
  if (kind != Kind::kReadback) oracle_.OnSubmit(p.request, &p.expected);
  return true;
}

void Rig::OnCompletion(uint32_t slot, const gecko::IoResult& result,
                       const gecko::AsyncCompletion& done) {
  // Runs inside Poll() on the driving thread, or on a shard worker thread.
  Tracer::Scope span(sharded_ != nullptr ? nullptr : tracer_,
                     SpanName::kBenchComplete, 0);
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(Done{slot, result, done});
  pushed_.fetch_add(1, std::memory_order_release);
}

void Rig::Harvest() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    harvest_.swap(done_);
  }
  harvested_ += harvest_.size();
  for (Done& d : harvest_) Process(d);
  harvest_.clear();
}

void Rig::Process(Done& d) {
  Pending& p = slots_[d.slot];
  Tracer::Scope span(tracer_, SpanName::kBenchComplete, p.seq);
  --inflight_;
  bool aborted = d.result.status.code() == StatusCode::kAborted;
  for (const gecko::Status& st : d.result.extent_status) {
    aborted = aborted || st.code() == StatusCode::kAborted;
  }
  if (aborted) {
    oracle_.OnAbort(p.request);
  } else if (p.kind == Kind::kReadback) {
    for (size_t i = 0; i < p.request.size(); ++i) {
      const uint64_t got = i < d.result.payloads.size() ? d.result.payloads[i]
                                                        : 0;
      if (oracle_.CheckRecovered(p.request.extents[i].lpn,
                                 d.result.extent_status[i], got, next_seq_)) {
        ++failed_;
      }
    }
  } else {
    failed_ += oracle_.OnComplete(p.seq, p.request, p.expected, d.result);
    max_complete_us_ = std::max(max_complete_us_, d.done.complete_us);
    if (p.kind == Kind::kSaturated || p.kind == Kind::kPaced) {
      pages_completed_ += p.request.size();
    }
    if (p.kind == Kind::kPaced) {
      // Ledger: arrival -> admission (host queue) plus admission ->
      // completion (device) must add up to arrival -> completion on the
      // device clock the rig reads itself when it harvests the completion.
      // The sharded front end completes off this thread; its stamp is
      // checked against the shard clocks at the next drain (Paced()).
      const double wait = d.done.submit_us - p.arrival_us;
      const double device = d.done.complete_us - d.done.submit_us;
      if (wait < -1e-6 || device < 0 ||
          (sharded_ == nullptr &&
           std::abs(wait + device - (device_->now_us() - p.arrival_us)) >
               1e-6)) {
        ++ledger_violations_;
      }
      last_paced_complete_us_ = d.done.complete_us;
      host_wait_.Record(wait);
      device_lat_.Record(device);
      const double latency = d.done.complete_us - p.arrival_us;
      if (p.request.op == IoOp::kRead) read_lat_.push_back(latency);
      if (p.request.op == IoOp::kWrite) write_lat_.push_back(latency);
    }
  }
  free_slots_.push_back(d.slot);
}

void Rig::Advance(double until_us) {
  Tracer::Scope span(tracer_, SpanName::kFlashAdvance, 0);
  device_->AdvanceTo(until_us);
}

void Rig::WaitForProgress() {
  if (sharded_ != nullptr) {
    {
      Tracer::Scope span(tracer_, SpanName::kShardWait, 0);
      while (pushed_.load(std::memory_order_acquire) == harvested_) {
        std::this_thread::yield();
      }
    }
    Harvest();
    return;
  }
  const double due = NextDue();
  GECKO_CHECK(!std::isinf(due)) << "requests in flight but none due";
  StepTo(due);
}

double Rig::NextDue() {
  Tracer::Scope span(tracer_, SpanName::kEngineNextDue, 0);
  return ftl_->NextCompletionUs();
}

void Rig::StepTo(double due_us) {
  Advance(due_us);
  {
    Tracer::Scope span(tracer_, SpanName::kEnginePoll, 0);
    ftl_->Poll();
  }
  Harvest();
}

void Rig::DrainAll() {
  if (sharded_ != nullptr) {
    {
      // Every callback has pushed its completion before the front end
      // stops counting the request in flight.
      Tracer::Scope span(tracer_, SpanName::kShardWait, 0);
      while (sharded_->InFlightRequests() != 0) std::this_thread::yield();
    }
    Harvest();
    GECKO_CHECK_EQ(inflight_, 0u);
    return;
  }
  while (inflight_ > 0) WaitForProgress();
}

void Rig::ClosedLoop(uint64_t requests, Kind kind, bool leave_in_flight) {
  const uint64_t num_lpns = oracle_.num_lpns();
  auto make = [&]() {
    if (kind != Kind::kSetup && kind != Kind::kReadback) {
      return NextFromStream();
    }
    const bool write = kind == Kind::kSetup;
    IoRequest r(write ? IoOp::kWrite : IoOp::kRead);
    for (uint32_t i = 0; i < kBulkExtents && cursor_ < num_lpns; ++i) {
      r.Add(cursor_, write ? gecko::RequestStream::PayloadToken(
                                 cursor_, kFillVersion + cursor_)
                           : 0);
      ++cursor_;
    }
    return r;
  };
  IoRequest next;
  bool have = false;
  uint64_t issued = 0;
  while (issued < requests) {
    while (issued < requests) {
      if (!have) {
        next = make();
        have = true;
      }
      if (!TrySubmit(next, kind, -1)) break;
      have = false;
      ++issued;
    }
    if (issued == requests) break;
    WaitForProgress();
  }
  if (!leave_in_flight) DrainAll();
}

void Rig::Fill() {
  cursor_ = 0;
  const uint64_t requests =
      (oracle_.num_lpns() + kBulkExtents - 1) / kBulkExtents;
  ClosedLoop(requests, Kind::kSetup, /*leave_in_flight=*/false);
  IoRequest flush = IoRequest::Flush();
  GECKO_CHECK(TrySubmit(flush, Kind::kSetup, -1));
  DrainAll();
}

bool Rig::Warmup(RepResult* out) {
  if (def_.warmup_max_passes <= 0) return true;
  // Windows of a fixed request count (about a quarter of the physical
  // pages written each), so every seed runs the same schedule.
  const uint64_t physical = def_.geometry.TotalPages();
  const double write_share =
      (1.0 - def_.stream.read_fraction) * (1.0 - def_.stream.trim_fraction);
  const uint64_t window_requests = static_cast<uint64_t>(
      physical / 4 / (def_.stream.batch_size * write_share));
  const int min_windows = static_cast<int>(std::ceil(kWarmupMinPasses * 4));
  const int max_windows =
      static_cast<int>(std::ceil(def_.warmup_max_passes * 4));
  const bool need_level = max_windows > min_windows;
  const double delta = gecko::LatencyModel().Delta();
  const uint64_t start = write_pages_issued_;
  double prev_wa = 0, wa = 0;
  uint64_t gc_last = 0;
  bool levelled = false;
  for (int w = 1; w <= max_windows && !levelled; ++w) {
    const Snapshot before = Take();
    ClosedLoop(window_requests, Kind::kWarmup, /*leave_in_flight=*/false);
    const Snapshot after = Take();
    wa = (after.io - before.io).WriteAmplification(delta);
    gc_last = after.ftl.gc_collections - before.ftl.gc_collections;
    levelled = w >= min_windows && w >= 2 && gc_last > 0 &&
               std::abs(wa - prev_wa) < 0.05 * prev_wa;
    if (w < max_windows && !levelled) prev_wa = wa;
  }
  const double passes =
      static_cast<double>(write_pages_issued_ - start) / physical;
  if (!need_level) {
    out->regime.push_back(Fmt("warmup: %.2f passes, last-window paper_wa %.3f",
                              passes, wa));
    return true;
  }
  out->regime.push_back(
      Fmt("warmup: %.2f passes, last window: %llu gc collections, paper_wa "
          "%.3f vs %.3f before -> %s",
          passes, static_cast<unsigned long long>(gc_last), wa, prev_wa,
          levelled ? "ok" : "NOT LEVELLED"));
  return levelled;
}

void Rig::Saturated(RepResult* out) {
  const Snapshot before = Take();
  const uint64_t pages0 = pages_completed_;
  ClosedLoop(def_.saturated_requests, Kind::kSaturated,
             /*leave_in_flight=*/false);
  const Snapshot after = Take();
  double makespan = 0, min_adv = 0;
  for (size_t i = 0; i < after.clocks.size(); ++i) {
    const double adv = after.clocks[i] - before.clocks[i];
    makespan = std::max(makespan, adv);
    min_adv = i == 0 ? adv : std::min(min_adv, adv);
  }
  const double kiops =
      Ratio(static_cast<double>(pages_completed_ - pages0), makespan) * 1000;
  out->sim["sim_kiops"] = kiops;
  out->sim["ftl.shard.clock_skew"] =
      sharded_ != nullptr ? Ratio(makespan - min_adv, makespan) : 0.0;
  // The closed loop holds kQueueDepth requests in flight by construction
  // (it refills until the front end refuses with kQueueFull). What can
  // fail is the capacity it finds: the paced rate is a constant, so a
  // front end whose capacity fell towards it would turn the paced phase
  // into a second saturated one.
  const double ratio = Ratio(kiops, def_.paced_kiops);
  const bool ok = ratio >= kCapacityOverPaced;
  out->regime.push_back(
      Fmt("saturated: %.3f kiops at queue depth %u, %.2fx the paced rate "
          "(need %.1fx) -> %s",
          kiops, kQueueDepth, ratio, kCapacityOverPaced,
          ok ? "ok" : "BELOW THE PACED RATE'S KNEE"));
  out->regime_ok = out->regime_ok && ok;
}

void Rig::Paced(RepResult* out) {
  gecko::Rng arrivals(gecko::RequestStream::ForkSeed(seed_, 7));
  const double mean_gap_us =
      def_.stream.batch_size / def_.paced_kiops * 1000.0;
  const double t0 = Clock();
  const uint64_t pages0 = pages_completed_;
  max_complete_us_ = t0;
  // Room for every latency sample up front (5% over the expected read
  // share), so the sample vectors never grow by doubling.
  const double reads = def_.stream.read_fraction * def_.paced_requests;
  read_lat_.reserve(static_cast<size_t>(1.05 * reads) + 100);
  write_lat_.reserve(
      static_cast<size_t>(1.05 * (def_.paced_requests - reads)) + 100);
  uint64_t offered_pages = 0;
  uint64_t idle_ticks = 0;
  uint64_t deferred = 0;  // arrivals that found the host queue full
  size_t backlog_at_end = 0;
  double t = t0;

  if (sharded_ != nullptr) {
    // One submitter, arrival-stamped. Whether the host queue is empty at
    // an arrival is a fact of simulated time (every earlier request done
    // by then), so wait for the earlier completions before deciding.
    // With one request in flight, its completion stamp must equal the
    // clock of the busiest shard it touched, read once it has drained.
    std::vector<uint32_t> touched;
    auto check_stamp = [&]() {
      double clock = 0;
      for (uint32_t s : touched) {
        clock = std::max(clock, sharded_->shard_device(s).now_us());
      }
      if (!touched.empty() &&
          std::abs(clock - last_paced_complete_us_) > 1e-6) {
        ++ledger_violations_;
      }
    };
    const gecko::ShardMap& map = sharded_->shard_map();
    for (uint64_t i = 0; i < def_.paced_requests; ++i) {
      t += -mean_gap_us * std::log(1.0 - arrivals.UniformDouble());
      DrainAll();
      check_stamp();
      if (max_complete_us_ <= t) {
        Tracer::Scope span(tracer_, SpanName::kGcIdleTick, 0);
        ftl_->IdleTick();
        ++idle_ticks;
      }
      IoRequest request = NextFromStream();
      offered_pages += request.size();
      touched.clear();
      for (const gecko::IoExtent& e : request.extents) {
        const uint32_t s = map.ShardOf(e.lpn);
        if (std::find(touched.begin(), touched.end(), s) == touched.end()) {
          touched.push_back(s);
        }
      }
      GECKO_CHECK(TrySubmit(request, Kind::kPaced, t));
    }
    DrainAll();
    check_stamp();
  } else {
    std::deque<std::pair<IoRequest, double>> overflow;
    auto admit = [&]() {
      while (!overflow.empty() &&
             TrySubmit(overflow.front().first, Kind::kPaced,
                       overflow.front().second)) {
        overflow.pop_front();
      }
    };
    for (uint64_t i = 0; i < def_.paced_requests; ++i) {
      t += -mean_gap_us * std::log(1.0 - arrivals.UniformDouble());
      // Let device time run up to the arrival: completions fire at their
      // own device times and free queue slots for the overflow.
      for (;;) {
        admit();
        const double due = NextDue();
        if (due > t) break;
        StepTo(due);
      }
      if (inflight_ == 0 && overflow.empty()) {
        Tracer::Scope span(tracer_, SpanName::kGcIdleTick, 0);
        ftl_->IdleTick();
        ++idle_ticks;
      }
      if (t > device_->now_us()) Advance(t);
      IoRequest request = NextFromStream();
      offered_pages += request.size();
      if (!overflow.empty() || !TrySubmit(request, Kind::kPaced, t)) {
        overflow.emplace_back(std::move(request), t);
        ++deferred;
      }
    }
    backlog_at_end = overflow.size();
    for (;;) {
      admit();
      if (inflight_ == 0 && overflow.empty()) break;
      WaitForProgress();
    }
  }

  const double offered = Ratio(static_cast<double>(offered_pages), t - t0);
  const double achieved = Ratio(static_cast<double>(pages_completed_ - pages0),
                                max_complete_us_ - t0);
  const bool ok = achieved >= 0.97 * offered && achieved <= 1.03 * offered &&
                  backlog_at_end == 0 && ledger_violations_ == 0;
  out->regime.push_back(Fmt(
      "paced: offered %.3f kiops, achieved %.3f kiops, %.2f%% of arrivals "
      "deferred, overflow backlog at last arrival %zu, idle ticks %llu, "
      "ledger violations %llu -> %s",
      offered * 1000, achieved * 1000,
      100.0 * Ratio(static_cast<double>(deferred), def_.paced_requests),
      backlog_at_end,
      static_cast<unsigned long long>(idle_ticks),
      static_cast<unsigned long long>(ledger_violations_),
      ok ? "ok" : "NOT PACED"));
  out->regime_ok = out->regime_ok && ok;
}

void Rig::ReadBack() {
  cursor_ = 0;
  const uint64_t requests =
      (oracle_.num_lpns() + kBulkExtents - 1) / kBulkExtents;
  ClosedLoop(requests, Kind::kReadback, /*leave_in_flight=*/false);
  oracle_.ClearDoubt();
}

void Rig::CrashCycles(RepResult* out) {
  const gecko::LatencyModel latency;
  double sim_us = 0;
  uint64_t page_reads = 0, spare_reads = 0, page_writes = 0;
  for (uint32_t c = 0; c < def_.crash_cycles; ++c) {
    // The unsharded engine crashes with the queue full; the sharded front
    // end crashes at quiescence, since which of its queued sub-requests
    // the workers reach first is host timing, not simulation.
    ClosedLoop(def_.crash_burst_requests, Kind::kBurst,
               /*leave_in_flight=*/sharded_ == nullptr);
    gecko::RecoveryReport report;
    {
      Tracer::Scope span(tracer_, SpanName::kRecovery, 0);
      report = ftl_->CrashAndRecover();
    }
    Harvest();
    GECKO_CHECK_EQ(inflight_, 0u) << "a request outlived the power failure";
    if (corrupt_shadow_ && c == 0) oracle_.Corrupt(oracle_.num_lpns() / 2);
    sim_us += report.TotalMicros(latency);
    page_reads += report.TotalPageReads();
    spare_reads += report.TotalSpareReads();
    page_writes += report.TotalPageWrites();
    ReadBack();
  }
  const double n = def_.crash_cycles;
  out->sim["recovery_sim_ms"] = Ratio(sim_us, n) / 1000;
  out->sim["ftl.recovery.page_reads"] = Ratio(page_reads, n);
  out->sim["ftl.recovery.spare_reads"] = Ratio(spare_reads, n);
  out->sim["ftl.recovery.page_writes"] = Ratio(page_writes, n);
  out->samples["crash_points"] = def_.crash_cycles;
}

double Rig::SetUp(RepResult* out) {
  const int64_t setup0 = NowNs();
  Build();
  Fill();
  out->regime_ok = Warmup(out);
  return static_cast<double>(NowNs() - setup0) * 1e-9;
}

RepResult Rig::Run(bool corrupt_shadow) {
  RepResult out;
  out.setup_s = SetUp(&out);
  corrupt_shadow_ = corrupt_shadow;

  // Measured window: the saturated phase, then the paced phase.
  ResetDeviceStats();
  const Snapshot before = Take();
  tracer_ = run_tracer_;
  out.measure_begin_ns = NowNs();
  Saturated(&out);
  out.saturated_s =
      static_cast<double>(NowNs() - out.measure_begin_ns) * 1e-9;
  Paced(&out);
  out.measure_end_ns = NowNs();
  out.measured_s =
      static_cast<double>(out.measure_end_ns - out.measure_begin_ns) * 1e-9;
  const Snapshot after = Take();
  out.host_kops = Ratio(static_cast<double>(pages_completed_),
                        out.measured_s) / 1000;

  const gecko::IoCounters io = after.io - before.io;
  const double writes = static_cast<double>(io.logical_writes);
  const double reads = static_cast<double>(io.logical_reads);
  const double user_ops = writes + reads + io.logical_trims;
  auto ftl_delta = [&](uint64_t gecko::FtlCounters::*field) {
    return static_cast<double>(after.ftl.*field - before.ftl.*field);
  };
  auto& m = out.sim;
  m["paper_wa"] = io.WriteAmplification(gecko::LatencyModel().Delta());
  m["ftl_ram_kb"] = static_cast<double>(ftl_->RamBytes()) / 1024;
  m["sim_read_p50_us"] = Percentile(read_lat_, 0.50);
  m["sim_read_p99_us"] = Percentile(read_lat_, 0.99);
  m["sim_write_p50_us"] = Percentile(write_lat_, 0.50);
  m["sim_write_p99_us"] = Percentile(write_lat_, 0.99);
  m["ftl.engine.host_wait_p99_us"] = host_wait_.P99();
  m["ftl.engine.device_p99_us"] = device_lat_.P99();
  m["ftl.engine.dep_parked_frac"] =
      Ratio(after.engine_parked - before.engine_parked,
            after.engine_admitted - before.engine_admitted);
  m["ftl.cache.hit_ratio"] =
      Ratio(ftl_delta(&gecko::FtlCounters::cache_hits),
            ftl_delta(&gecko::FtlCounters::cache_hits) +
                ftl_delta(&gecko::FtlCounters::cache_misses));
  m["ftl.cache.fetches_per_miss"] =
      Ratio(ftl_delta(&gecko::FtlCounters::miss_fetches),
            ftl_delta(&gecko::FtlCounters::cache_misses));
  m["ftl.cache.syncs_per_kwrite"] =
      Ratio(ftl_delta(&gecko::FtlCounters::sync_ops) * 1000, writes);
  m["ftl.translation.reads_per_op"] =
      Ratio(io.ReadsFor(gecko::IoPurpose::kTranslation), reads + writes);
  m["ftl.translation.writes_per_kwrite"] =
      Ratio(io.WritesFor(gecko::IoPurpose::kTranslation) * 1000.0, writes);
  m["ftl.translation.checkpoints"] =
      ftl_delta(&gecko::FtlCounters::checkpoints);
  m["ftl.gc.migrations_per_write"] =
      Ratio(ftl_delta(&gecko::FtlCounters::gc_migrations), writes);
  m["ftl.gc.collections_per_kwrite"] =
      Ratio(ftl_delta(&gecko::FtlCounters::gc_collections) * 1000, writes);
  m["ftl.gc.background_steps"] = static_cast<double>(
      after.maint.background_steps - before.maint.background_steps);
  m["ftl.gc.throttled_steps"] = static_cast<double>(
      after.maint.throttled_steps - before.maint.throttled_steps);
  m["ftl.gc.emergency_stalls"] = static_cast<double>(
      after.maint.emergency_stalls - before.maint.emergency_stalls);
  m["pvm.reads_per_write"] = Ratio(io.ReadsFor(gecko::IoPurpose::kPvm), writes);
  m["pvm.writes_per_write"] =
      Ratio(io.WritesFor(gecko::IoPurpose::kPvm), writes);
  double window_us = 0;
  for (size_t i = 0; i < after.clocks.size(); ++i) {
    window_us = std::max(window_us, after.clocks[i] - before.clocks[i]);
  }
  double util_sum = 0, util_min = 1;
  for (size_t c = 0; c < after.channel_busy_us.size(); ++c) {
    const double u = Ratio(
        after.channel_busy_us[c] - before.channel_busy_us[c], window_us);
    util_sum += u;
    util_min = std::min(util_min, u);
  }
  m["flash.util_mean"] = Ratio(util_sum, after.channel_busy_us.size());
  m["flash.util_min"] = util_min;
  m["flash.ops_per_user_op"] =
      Ratio(static_cast<double>(io.TotalReads() + io.TotalWrites() +
                                io.TotalSpareReads() + io.TotalErases()),
            user_ops);
  m["flash.max_queue_depth"] = after.max_channel_depth;
  m["ftl.shard.subs_per_req"] =
      Ratio(after.shard.sub_requests - before.shard.sub_requests,
            after.shard.requests - before.shard.requests);
  out.own_mb = static_cast<double>(
                   oracle_.Bytes() +
                   (read_lat_.capacity() + write_lat_.capacity()) *
                       sizeof(double) +
                   2 * sizeof(gecko::LatencyHistogram)) /
               (1024 * 1024);
  out.samples["read_latency"] = read_lat_.size();
  out.samples["write_latency"] = write_lat_.size();
  out.samples["paced_requests"] = host_wait_.count();
  const uint64_t min_tail = def_.min_tail_samples;
  const bool tails_ok =
      read_lat_.size() >= min_tail && write_lat_.size() >= min_tail;
  out.regime.push_back(Fmt(
      "tails: %zu read and %zu write latency samples (need %llu each) -> %s",
      read_lat_.size(), write_lat_.size(),
      static_cast<unsigned long long>(min_tail), tails_ok ? "ok" : "TOO FEW"));
  out.regime_ok = out.regime_ok && tails_ok;

  const double queue_full_per_req =
      Ratio(static_cast<double>(queue_full_),
            static_cast<double>(measured_requests_));
  out.host_layer["ftl.engine.queue_full_per_req"] =
      sharded_ == nullptr ? queue_full_per_req : 0.0;
  out.host_layer["ftl.shard.queue_full_retries"] =
      sharded_ != nullptr ? static_cast<double>(queue_full_) : 0.0;

  CrashCycles(&out);
  DrainAll();
  out.attempted = attempted_;
  out.failed = failed_;
  out.wrong = oracle_.wrong();
  out.first_error = oracle_.first_error();
  return out;
}

}  // namespace perfbench
