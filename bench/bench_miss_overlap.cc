// Cache-starved random reads through the non-blocking translation-miss
// pipeline vs the synchronous-miss baseline.
//
// The claim under test: when nearly every read misses the mapping cache,
// stalling each request on its own inline translation fetch serializes
// the device behind the mapping store — the fetch and the data read of
// one request occupy the clock while admitted requests idle. Parking the
// missed extent on a per-translation-page waiting list instead (one
// in-flight fetch per tpage, concurrent misses coalesced, replay at the
// fetch's device time) lets hit extents and independent requests keep
// dispatching across channels, so open-loop throughput at QD=16 on an
// 8-channel device is >= 2x the synchronous-miss baseline for every FTL.
//
// Flags: --tiny   CI smoke scale (exit 0 regardless of the speedup gate;
//                 invariants are still CHECKed)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ftl/base_ftl.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/load_driver.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;      // 64 cached mappings over a ...
constexpr Lpn kSpan = 4096;          // ... 4096-lpn working set: ~98% misses
constexpr uint32_t kChannels = 8;
constexpr uint32_t kQd = 16;
constexpr double kInterArrivalUs = 20.0;  // ~50 reads/ms offered: saturating

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = kChannels;
  return g;
}

template <typename FtlT>
std::unique_ptr<Ftl> MakeWithMode(FlashDevice* device, uint32_t qd,
                                  bool async_miss) {
  FtlConfig config = FtlT::DefaultConfig(kCache);
  config.async_queue_depth = qd;
  config.async_miss_fetch = async_miss;
  return std::make_unique<FtlT>(device, config);
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device,
                          uint32_t qd, bool async_miss) {
  if (name == "GeckoFTL") return MakeWithMode<GeckoFtl>(device, qd, async_miss);
  if (name == "DFTL") return MakeWithMode<DftlFtl>(device, qd, async_miss);
  if (name == "LazyFTL") return MakeWithMode<LazyFtl>(device, qd, async_miss);
  if (name == "uFTL") return MakeWithMode<MuFtl>(device, qd, async_miss);
  return MakeWithMode<IbFtl>(device, qd, async_miss);
}

struct MissRow {
  std::string ftl;
  std::string mode;  // "sync-miss" or "async-miss"
  uint32_t qd = 0;
  LoadReport report;
  uint64_t fetches = 0;        // translation fetches issued by the pipeline
  uint64_t coalesced = 0;      // extents that joined an in-flight fetch
  uint32_t fetch_watermark = 0;
  double stall_p50 = 0;        // park-to-replay stall of parked extents
  double stall_p99 = 0;
  double speedup = 1.0;        // vs the sync-miss baseline at the same QD
};

MissRow RunOne(const std::string& name, uint32_t qd, bool async_miss,
               uint64_t requests) {
  FlashDevice device(BenchGeometry());
  auto ftl = Make(name, &device, qd, async_miss);
  Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();  // measure only the open-loop phase

  UniformWorkload uniform(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;
  sopt.read_fraction = 1.0;  // pure cache-starved reads
  sopt.seed = 7;
  RequestStream stream(&uniform, sopt);

  LoadDriver driver(ftl.get(), &device);

  MissRow row;
  row.ftl = name;
  row.mode = async_miss ? "async-miss" : "sync-miss";
  row.qd = qd;
  row.report = driver.Run(
      {.inter_arrival_us = kInterArrivalUs, .requests = requests}, stream);
  GECKO_CHECK_EQ(row.report.completed, row.report.arrivals);
  GECKO_CHECK_EQ(ftl->InFlightRequests(), 0u);

  // Pipeline bookkeeping must balance: every parked extent was replayed,
  // no waiting-list entry or in-flight-fetch gauge tick leaked.
  auto* base = dynamic_cast<BaseFtl*>(ftl.get());
  GECKO_CHECK(base != nullptr);
  const AsyncEngineStats& es = base->async_engine().stats();
  GECKO_CHECK_EQ(es.parked_extents, es.replayed_extents);
  GECKO_CHECK_EQ(base->async_engine().ongoing_fetch_count(), 0u);
  GECKO_CHECK_EQ(device.stats().miss_fetch_inflight(), 0u);

  row.fetches = device.stats().miss_fetches_issued();
  row.coalesced = device.stats().coalesced_misses();
  row.fetch_watermark = device.stats().miss_fetch_inflight_watermark();
  row.stall_p50 = device.stats().MissStall().P50();
  row.stall_p99 = device.stats().MissStall().P99();
  return row;
}

void WriteJson(const char* path, uint64_t requests,
               const std::vector<MissRow>& rows,
               const std::vector<std::pair<std::string, double>>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"miss_overlap\",\n");
  std::fprintf(f,
               "  \"channels\": %u,\n  \"qd\": %u,\n  \"cache\": %u,\n"
               "  \"span\": %llu,\n  \"requests\": %llu,\n",
               kChannels, kQd, kCache,
               static_cast<unsigned long long>(kSpan),
               static_cast<unsigned long long>(requests));
  std::fprintf(f, "  \"inter_arrival_us\": %.1f,\n", kInterArrivalUs);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const MissRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"ftl\": \"%s\", \"mode\": \"%s\", \"qd\": %u, "
        "\"achieved_kiops\": %.3f, \"speedup_vs_sync\": %.3f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
        "\"miss_fetches\": %llu, \"coalesced\": %llu, "
        "\"fetch_inflight_watermark\": %u, "
        "\"stall_p50_us\": %.1f, \"stall_p99_us\": %.1f}%s\n",
        r.ftl.c_str(), r.mode.c_str(), r.qd, r.report.achieved_kiops,
        r.speedup, r.report.latency.P50(), r.report.latency.P99(),
        r.report.latency.Percentile(0.999),
        static_cast<unsigned long long>(r.fetches),
        static_cast<unsigned long long>(r.coalesced), r.fetch_watermark,
        r.stall_p50, r.stall_p99, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"speedup_async_vs_sync\": %.3f, "
                 "\"pass\": %s}%s\n",
                 gates[i].first.c_str(), gates[i].second,
                 gates[i].second >= 2.0 ? "true" : "false",
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--tiny] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  const uint64_t kRequests = tiny ? 256 : 4096;

  PrintHeader(
      "Miss overlap: cache-starved reads, async vs synchronous miss path",
      "parking missed read extents on coalesced per-tpage fetches keeps "
      "channels busy while the mapping store is read: >= 2x open-loop "
      "throughput vs stalling each request on its own inline fetch, at "
      "QD=16 on 8 channels for every FTL");

  std::printf(
      "\nSingle-extent uniform reads over %u lpns, cache C=%u (~%.0f%% "
      "miss), %u channels, %llu requests at one per %.0fus (open loop):\n",
      unsigned{kSpan}, kCache, 100.0 * (1.0 - double{kCache} / double{kSpan}),
      kChannels, static_cast<unsigned long long>(kRequests), kInterArrivalUs);

  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};
  std::vector<MissRow> rows;
  std::vector<std::pair<std::string, double>> gates;
  TablePrinter table({"FTL", "miss path", "qd", "kiops", "speedup", "p50 us",
                      "p99 us", "p999 us", "fetches", "coalesced", "fetch wm",
                      "stall p99"});
  for (const char* name : kFtls) {
    MissRow sync_row = RunOne(name, kQd, /*async_miss=*/false, kRequests);
    MissRow async_qd1 = RunOne(name, 1, /*async_miss=*/true, kRequests);
    MissRow async_row = RunOne(name, kQd, /*async_miss=*/true, kRequests);
    double base_kiops = sync_row.report.achieved_kiops;
    async_row.speedup =
        base_kiops > 0 ? async_row.report.achieved_kiops / base_kiops : 0;
    gates.emplace_back(name, async_row.speedup);
    for (MissRow* r : {&sync_row, &async_qd1, &async_row}) {
      table.AddRow({r->ftl, r->mode, TablePrinter::Fmt(static_cast<int>(r->qd)),
                    TablePrinter::Fmt(r->report.achieved_kiops, 2),
                    TablePrinter::Fmt(r->speedup, 2),
                    TablePrinter::Fmt(r->report.latency.P50(), 0),
                    TablePrinter::Fmt(r->report.latency.P99(), 0),
                    TablePrinter::Fmt(r->report.latency.Percentile(0.999), 0),
                    TablePrinter::Fmt(r->fetches),
                    TablePrinter::Fmt(r->coalesced),
                    TablePrinter::Fmt(static_cast<int>(r->fetch_watermark)),
                    TablePrinter::Fmt(r->stall_p99, 0)});
      rows.push_back(std::move(*r));
    }
  }
  table.Print();

  bool all_pass = true;
  for (const auto& [name, speedup] : gates) {
    bool ok = speedup >= 2.0;
    all_pass = all_pass && ok;
    PrintCheck(ok, name + ": " + TablePrinter::Fmt(speedup, 2) +
                       "x open-loop throughput with the non-blocking miss "
                       "pipeline vs the synchronous-miss baseline at QD=16");
  }
  if (json_path != nullptr) WriteJson(json_path, kRequests, rows, gates);
  if (tiny) return 0;  // smoke scale: invariants checked, gate advisory
  return all_pass ? 0 : 1;
}
