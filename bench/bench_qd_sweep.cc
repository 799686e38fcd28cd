// Open-loop queue-depth sweep over the async submission interface.
//
// The claim under test: with the host-side submission queue admitting up
// to QD requests in flight, single-extent writes from *independent*
// requests stripe across channels exactly like the extents of one
// scatter-gather batch, so open-loop throughput scales with queue depth
// until the channels saturate — >= 3x at QD=16 vs QD=1 on an 8-channel
// device for every FTL. Because the driver is open-loop (fixed arrival
// clock, unbounded overflow queue), the p99/p999 columns show genuine
// queueing delay under saturation rather than the flat self-throttled
// tails a closed loop would report.
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
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/load_driver.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;
constexpr Lpn kSpan = 4096;         // working set
constexpr uint32_t kChannels = 8;   // fixed; QD is the parallelism lever
constexpr double kInterArrivalUs = 20.0;  // ~50 extents/ms offered: saturating

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
std::unique_ptr<Ftl> MakeWithQd(FlashDevice* device, uint32_t cache,
                                uint32_t qd) {
  FtlConfig config = FtlT::DefaultConfig(cache);
  config.async_queue_depth = qd;
  return std::make_unique<FtlT>(device, config);
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device,
                          uint32_t cache, uint32_t qd) {
  if (name == "GeckoFTL") return MakeWithQd<GeckoFtl>(device, cache, qd);
  if (name == "DFTL") return MakeWithQd<DftlFtl>(device, cache, qd);
  if (name == "LazyFTL") return MakeWithQd<LazyFtl>(device, cache, qd);
  if (name == "uFTL") return MakeWithQd<MuFtl>(device, cache, qd);
  return MakeWithQd<IbFtl>(device, cache, qd);
}

struct SweepRow {
  std::string ftl;
  uint32_t qd = 0;
  double read_fraction = 0;
  LoadReport report;
  uint32_t inflight_watermark = 0;  // host in-flight depth high-watermark
  double speedup = 1.0;  // achieved_kiops vs the same FTL's QD=1 run
};

SweepRow RunOne(const std::string& name, uint32_t qd, uint64_t requests,
                double read_fraction) {
  FlashDevice device(BenchGeometry());
  auto ftl = Make(name, &device, kCache, qd);
  Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();  // measure only the open-loop phase

  UniformWorkload uniform(kSpan, 42);
  RequestStream::Options sopt;
  sopt.batch_size = 1;  // one extent per request: QD carries the parallelism
  sopt.read_fraction = read_fraction;
  sopt.seed = 7;
  RequestStream stream(&uniform, sopt);

  LoadDriver driver(ftl.get(), &device);
  SweepRow row;
  row.ftl = name;
  row.qd = qd;
  row.read_fraction = read_fraction;
  row.report = driver.Run(
      {.inter_arrival_us = kInterArrivalUs, .requests = requests}, stream);
  GECKO_CHECK_EQ(row.report.completed, row.report.arrivals);
  GECKO_CHECK_EQ(ftl->InFlightRequests(), 0u);
  row.inflight_watermark = device.stats().host_inflight_watermark();
  return row;
}

void WriteJson(const char* path, uint64_t requests,
               const std::vector<SweepRow>& rows,
               const std::vector<std::pair<std::string, double>>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"qd_sweep\",\n");
  std::fprintf(f, "  \"channels\": %u,\n  \"requests\": %llu,\n", kChannels,
               static_cast<unsigned long long>(requests));
  std::fprintf(f, "  \"inter_arrival_us\": %.1f,\n", kInterArrivalUs);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"ftl\": \"%s\", \"qd\": %u, \"read_fraction\": %.2f, "
        "\"achieved_kiops\": %.3f, \"speedup_vs_qd1\": %.3f, "
        "\"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
        "\"inflight_watermark\": %u, \"deferrals\": %llu}%s\n",
        r.ftl.c_str(), r.qd, r.read_fraction, r.report.achieved_kiops,
        r.speedup, r.report.latency.P50(), r.report.latency.P99(),
        r.report.latency.Percentile(0.999), r.inflight_watermark,
        static_cast<unsigned long long>(r.report.deferrals),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f, "    {\"ftl\": \"%s\", \"speedup_qd16\": %.3f, "
                    "\"pass\": %s}%s\n",
                 gates[i].first.c_str(), gates[i].second,
                 gates[i].second >= 3.0 ? "true" : "false",
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
      "Queue-depth sweep: open-loop throughput and tail latency vs QD",
      "independent in-flight requests stripe across channels like the "
      "extents of one batch, so async throughput scales with queue depth: "
      ">= 3x at QD=16 vs QD=1 on 8 channels for every FTL");

  const uint32_t kQds[] = {1, 2, 4, 8, 16, 32};
  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};

  std::printf(
      "\nSingle-extent writes over %u lpns, cache C=%u, %u channels, "
      "%llu requests at one per %.0fus (open loop):\n",
      unsigned{kSpan}, kCache, kChannels,
      static_cast<unsigned long long>(kRequests), kInterArrivalUs);

  std::vector<SweepRow> rows;
  std::vector<std::pair<std::string, double>> gates;
  TablePrinter table({"FTL", "qd", "kiops", "speedup", "p50 us", "p99 us",
                      "p999 us", "infl wm", "defer"});
  for (const char* name : kFtls) {
    double base_kiops = 0;
    double speedup16 = 0;
    for (uint32_t qd : kQds) {
      SweepRow row = RunOne(name, qd, kRequests, /*read_fraction=*/0.0);
      if (qd == 1) base_kiops = row.report.achieved_kiops;
      row.speedup = base_kiops > 0 ? row.report.achieved_kiops / base_kiops : 0;
      if (qd == 16) speedup16 = row.speedup;
      table.AddRow(
          {name, TablePrinter::Fmt(static_cast<int>(qd)),
           TablePrinter::Fmt(row.report.achieved_kiops, 2),
           TablePrinter::Fmt(row.speedup, 2),
           TablePrinter::Fmt(row.report.latency.P50(), 0),
           TablePrinter::Fmt(row.report.latency.P99(), 0),
           TablePrinter::Fmt(row.report.latency.Percentile(0.999), 0),
           TablePrinter::Fmt(static_cast<int>(row.inflight_watermark)),
           TablePrinter::Fmt(row.report.deferrals)});
      rows.push_back(std::move(row));
    }
    gates.emplace_back(name, speedup16);
  }
  table.Print();

  // Secondary view: a 30% read mix at QD=16. Reads take shared claims on
  // their translation pages, so this exercises the dependency tracker's
  // reader/writer path under load; read service time (100us) vs program
  // time (1000us) also splits the latency distribution visibly.
  std::printf("\n30%% read mix at QD=16 (shared-claim path under load):\n");
  TablePrinter mixed({"FTL", "kiops", "p50 us", "p99 us", "p999 us",
                      "infl wm"});
  for (const char* name : kFtls) {
    SweepRow row = RunOne(name, 16, kRequests, /*read_fraction=*/0.3);
    mixed.AddRow({name, TablePrinter::Fmt(row.report.achieved_kiops, 2),
                  TablePrinter::Fmt(row.report.latency.P50(), 0),
                  TablePrinter::Fmt(row.report.latency.P99(), 0),
                  TablePrinter::Fmt(row.report.latency.Percentile(0.999), 0),
                  TablePrinter::Fmt(static_cast<int>(row.inflight_watermark))});
    rows.push_back(std::move(row));
  }
  mixed.Print();

  bool all_pass = true;
  for (const auto& [name, speedup16] : gates) {
    bool ok = speedup16 >= 3.0;
    all_pass = all_pass && ok;
    PrintCheck(ok, name + ": " + TablePrinter::Fmt(speedup16, 2) +
                       "x open-loop throughput at QD=16 vs QD=1");
  }
  if (json_path != nullptr) WriteJson(json_path, kRequests, rows, gates);
  if (tiny) return 0;  // smoke scale: invariants checked, gate advisory
  return all_pass ? 0 : 1;
}
