// The benchmark's four named workloads.
//
// Every workload runs the same phases (see rig.h): construction + fill
// (+ warm-up), a saturated closed-loop phase at a fixed queue depth, a
// paced open-loop phase at one fixed offered rate, then crash -> recover
// -> full read-back cycles. What differs is the front end, its
// configuration, the device geometry and the traffic shape.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "flash/geometry.h"
#include "workload/request_stream.h"

namespace perfbench {

enum class FrontEnd { kGecko, kLazy, kShardedGecko };

/// Host queue depth of every workload: the saturated phase keeps this
/// many requests in flight, and it is the front end's async admission cap.
constexpr uint32_t kQueueDepth = 32;

/// Warm-up writes at least this many x the physical pages before it
/// checks whether GC has reached steady state.
constexpr double kWarmupMinPasses = 1.0;

struct WorkloadDef {
  std::string name;
  FrontEnd front = FrontEnd::kGecko;
  uint32_t num_shards = 1;  // kShardedGecko only
  gecko::Geometry geometry;
  /// Mapping-cache entries across the whole device (split evenly across
  /// shards for the sharded front end).
  uint32_t cache_capacity = 1024;
  /// Traffic shape of warm-up, both measured phases and the pre-crash
  /// bursts (lpn distribution, request size, read and trim shares). The
  /// rig sets the seed and the lpn count (the front end's capacity).
  gecko::RequestStream::Options stream;
  /// Warm-up until GC reaches steady state: write kWarmupMinPasses x
  /// physical pages, then keep going in windows of physical/4 pages until
  /// paper_wa moves less than 5% between windows (at most
  /// `warmup_max_passes` x physical pages; equal to kWarmupMinPasses: a
  /// fixed warm-up with no levelling check). 0 skips warm-up.
  double warmup_max_passes = 0;
  uint64_t saturated_requests = 0;
  uint64_t paced_requests = 0;
  /// Offered page rate of the paced phase, in simulated kilo-pages per
  /// second; a constant at about half the saturated capacity this
  /// benchmark measured when it was written. Arrivals are Poisson.
  double paced_kiops = 0;
  uint32_t crash_cycles = 0;
  /// Requests run at the saturated queue depth before each crash point.
  uint64_t crash_burst_requests = 0;
  /// Fewest paced samples a reported p99 may rest on (ten beyond it).
  uint64_t min_tail_samples = 1000;
};

inline gecko::Geometry EightChannel(uint32_t blocks) {
  gecko::Geometry g;
  g.num_blocks = blocks;
  g.pages_per_block = 64;
  g.page_bytes = 4096;
  g.logical_ratio = 0.7;
  g.num_channels = 8;
  return g;
}

/// Looks a workload up by name; false if there is none. `tiny` shrinks
/// geometry and phase lengths for the self-test.
inline bool FindWorkload(const std::string& name, bool tiny, WorkloadDef* out) {
  using gecko::WorkloadSpec;
  WorkloadDef d;
  d.name = name;
  if (name == "write_hotcold") {
    d.front = FrontEnd::kGecko;
    d.geometry = EightChannel(1536);
    d.cache_capacity = 512;  // the hot set is 13x the cache
    d.stream.batch_size = 1;
    d.stream.trim_fraction = 0.02;
    d.stream.read_fraction = 0.05;
    d.stream.workload =
        WorkloadSpec::HotCold(d.geometry.NumLogicalPages(), 0.1, 0.9);
    d.warmup_max_passes = 4.0;
    d.saturated_requests = 60000;
    d.paced_requests = 160000;
    d.paced_kiops = 0.8;
    d.crash_cycles = 8;
    d.crash_burst_requests = 4000;
  } else if (name == "read_uniform_miss") {
    d.front = FrontEnd::kGecko;
    d.geometry = EightChannel(1024);
    d.cache_capacity = 896;  // working set ~51x the cache
    d.stream.batch_size = 1;
    d.stream.read_fraction = 0.98;
    d.stream.workload = WorkloadSpec::Uniform(d.geometry.NumLogicalPages());
    d.saturated_requests = 400000;
    d.paced_requests = 400000;
    d.paced_kiops = 14.0;
    d.crash_cycles = 8;
    d.crash_burst_requests = 4000;
  } else if (name == "mixed_zipf_lazyftl") {
    d.front = FrontEnd::kLazy;
    d.geometry = EightChannel(1024);
    d.cache_capacity = 4096;
    d.stream.batch_size = 1;
    d.stream.read_fraction = 0.7;
    d.stream.workload =
        WorkloadSpec::Zipf(d.geometry.NumLogicalPages(), 0.99);
    d.warmup_max_passes = 4.0;
    d.saturated_requests = 300000;
    d.paced_requests = 300000;
    d.paced_kiops = 1.5;
    d.crash_cycles = 8;
    d.crash_burst_requests = 4000;
  } else if (name == "sharded_mixed") {
    d.front = FrontEnd::kShardedGecko;
    d.num_shards = 2;
    d.geometry = EightChannel(1024);
    d.cache_capacity = 1024;
    d.stream.batch_size = 4;
    d.stream.read_fraction = 0.5;
    d.stream.workload = WorkloadSpec::Uniform(d.geometry.NumLogicalPages());
    d.warmup_max_passes = 1.0;
    d.saturated_requests = 150000;
    d.paced_requests = 20000;
    d.paced_kiops = 1.2;
    d.crash_cycles = 6;
    d.crash_burst_requests = 2000;
  } else {
    return false;
  }
  if (tiny) {
    d.geometry.num_blocks = 256;
    d.cache_capacity = d.cache_capacity / 8 > 16 ? d.cache_capacity / 8 : 16;
    d.saturated_requests = 3000;
    d.paced_requests = 3000;
    d.crash_cycles = 1;
    d.crash_burst_requests = 300;
    d.min_tail_samples = 0;
    d.paced_kiops /= 2;  // the small device saturates sooner
  }
  *out = d;
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
