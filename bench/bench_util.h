// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each bench_fig* binary regenerates the rows/series of one paper figure
// or table and prints a qualitative "paper vs measured" check. Absolute
// numbers come from scaled-down simulations (the shapes are what must
// hold); RAM/recovery figures are evaluated from the analytic models at
// paper scale, as in the paper itself. See docs/DESIGN.md §5.

#ifndef GECKOFTL_BENCH_BENCH_UTIL_H_
#define GECKOFTL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flash/flash_device.h"
#include "flash/simple_allocator.h"
#include "ftl/ftl.h"
#include "pvm/flash_pvb.h"
#include "pvm/gecko_store.h"
#include "pvm/pvl.h"
#include "pvm/ram_pvb.h"
#include "sim/pvm_driver.h"
#include "util/table_printer.h"
#include "workload/workload.h"

namespace gecko {
namespace bench {

/// Appends one row per FtlCounters field to `table` (two columns: name,
/// value), so benches can print batching efficacy alongside the IO
/// breakdown.
inline void AddFtlCounterRows(TablePrinter* table, const FtlCounters& c) {
  const std::pair<const char*, uint64_t> items[] = {
      {"writes", c.writes},
      {"reads", c.reads},
      {"trims", c.trims},
      {"flushes", c.flushes},
      {"batches", c.batches},
      {"batched_pages", c.batched_pages},
      {"sync_ops", c.sync_ops},
      {"aborted_sync_ops", c.aborted_sync_ops},
      {"checkpoints", c.checkpoints},
      {"gc_collections", c.gc_collections},
      {"gc_migrations", c.gc_migrations},
      {"gc_demotions", c.gc_demotions},
      {"gc_force_skips", c.gc_force_skips},
      {"uip_detections", c.uip_detections},
      {"cache_hits", c.cache_hits},
      {"cache_misses", c.cache_misses},
  };
  for (const auto& [name, value] : items) {
    table->AddRow({name, TablePrinter::Fmt(value)});
  }
}

/// Which page-validity scheme a stand-alone experiment drives.
enum class StoreKind { kRamPvb, kFlashPvb, kPvl, kGecko };

inline const char* StoreName(StoreKind k) {
  switch (k) {
    case StoreKind::kRamPvb: return "RAM PVB";
    case StoreKind::kFlashPvb: return "flash PVB";
    case StoreKind::kPvl: return "PVL";
    case StoreKind::kGecko: return "Log. Gecko";
  }
  return "?";
}

/// Result of one Section 5.1/5.2-style run.
struct PvmRunResult {
  double pvm_wa = 0;        // WA contribution of the validity metadata
  uint64_t pvm_reads = 0;   // internal reads on the kPvm purpose
  uint64_t pvm_writes = 0;  // internal writes on the kPvm purpose
  uint64_t updates = 0;     // logical updates measured
  uint64_t gc_queries = 0;  // GC operations during measurement
  double ram_bytes = 0;     // store's integrated-RAM footprint
  /// Flash reads per GC query, measured by direct probe queries after the
  /// run (isolated from the update-path reads).
  double reads_per_query = 0;
  /// Per-interval (reads, writes) on the kPvm purpose.
  std::vector<std::pair<uint64_t, uint64_t>> intervals;
};

struct PvmRunOptions {
  uint64_t updates = 60000;
  uint64_t interval = 10000;  // Figure 9 uses 10k-write windows
  uint64_t seed = 42;
  double delta = 10.0;
};

/// Runs `kind` under uniformly random updates on `geometry` and measures
/// the validity-metadata IO (fill phase excluded). One sixth of the
/// device hosts the metadata region (generous; real devices need ~0.01%).
inline PvmRunResult RunPvmExperiment(StoreKind kind, const Geometry& geometry,
                                     const LogGeckoConfig& gecko_config,
                                     const PvmRunOptions& options = {}) {
  uint32_t pvm_blocks = geometry.num_blocks / 6;
  if (pvm_blocks < 16) pvm_blocks = 16;
  uint32_t user_blocks = geometry.num_blocks - pvm_blocks;

  FlashDevice device(geometry);
  SimpleAllocator allocator(&device, user_blocks, pvm_blocks);
  std::unique_ptr<PageValidityStore> store;
  switch (kind) {
    case StoreKind::kRamPvb:
      store = std::make_unique<RamPvb>(geometry);
      break;
    case StoreKind::kFlashPvb:
      store = std::make_unique<FlashPvb>(geometry, &device, &allocator);
      break;
    case StoreKind::kPvl:
      store = std::make_unique<PageValidityLog>(geometry, &device, &allocator);
      break;
    case StoreKind::kGecko:
      store = std::make_unique<GeckoStore>(geometry, gecko_config, &device,
                                           &allocator);
      break;
  }

  PvmDriver driver(&device, store.get(), user_blocks,
                   geometry.logical_ratio);
  driver.Fill();

  UniformWorkload workload(driver.num_lpns(), options.seed);
  IoCounters before = device.stats().Snapshot();
  uint64_t gc_before = driver.gc_operations();

  PvmRunResult result;
  uint64_t remaining = options.updates;
  IoCounters window_start = before;
  while (remaining > 0) {
    uint64_t chunk = remaining < options.interval ? remaining : options.interval;
    driver.RunUpdates(chunk, workload);
    IoCounters now = device.stats().Snapshot();
    IoCounters w = now - window_start;
    result.intervals.emplace_back(w.ReadsFor(IoPurpose::kPvm),
                                  w.WritesFor(IoPurpose::kPvm));
    window_start = now;
    remaining -= chunk;
  }

  IoCounters delta = device.stats().Snapshot() - before;
  result.pvm_wa = delta.WriteAmplificationFor(IoPurpose::kPvm, options.delta);
  result.pvm_reads = delta.ReadsFor(IoPurpose::kPvm);
  result.pvm_writes = delta.WritesFor(IoPurpose::kPvm);
  result.updates = delta.logical_writes;
  result.gc_queries = driver.gc_operations() - gc_before;
  result.ram_bytes = static_cast<double>(store->RamBytes());

  // Isolate the per-query read cost with direct probes.
  const uint64_t kProbes = 256;
  Rng rng(options.seed + 1);
  IoCounters probe_before = device.stats().Snapshot();
  for (uint64_t i = 0; i < kProbes; ++i) {
    store->QueryInvalidPages(static_cast<BlockId>(rng.Uniform(user_blocks)));
  }
  IoCounters probe = device.stats().Snapshot() - probe_before;
  result.reads_per_query =
      static_cast<double>(probe.ReadsFor(IoPurpose::kPvm)) / kProbes;
  return result;
}

/// Standard simulation geometry for the PVM experiments.
inline Geometry PvmBenchGeometry(uint32_t num_blocks = 1024,
                                 uint32_t pages_per_block = 64,
                                 uint32_t page_bytes = 2048) {
  Geometry g;
  g.num_blocks = num_blocks;
  g.pages_per_block = pages_per_block;
  g.page_bytes = page_bytes;
  g.logical_ratio = 0.7;
  return g;
}

inline void PrintHeader(const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("Paper's claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline void PrintCheck(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "REPRODUCED" : "MISMATCH", what.c_str());
}

}  // namespace bench
}  // namespace gecko

#endif  // GECKOFTL_BENCH_BENCH_UTIL_H_
