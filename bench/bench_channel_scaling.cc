// Throughput vs channel count (1 -> 16) for all five FTLs on a batched
// write workload, on the channel-parallel flash backend.
//
// The claim under test: with channel-striped allocation and per-request
// batch windows, a scatter-gather write batch completes in
// max-per-channel time, so simulated throughput scales with the channel
// count — >= 3x at 8 channels vs 1 channel for every FTL (the LFTL/FMMU
// observation that FTL throughput should track hardware parallelism).
// Per-channel utilization and queue depth come from the IoStats channel
// accounting; speedups saturate when per-channel work (GC, metadata
// read-modify-writes serialized on one stream) starts to dominate.

//
// Flags: --json P write machine-readable results to path P

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/load_driver.h"
#include "util/table_printer.h"
#include "workload/trace.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kCache = 64;
constexpr Lpn kSpan = 4096;       // working set
constexpr uint32_t kBatch = 64;   // extents per write request
constexpr uint64_t kOps = 16384;  // update extents measured per run

Geometry BenchGeometry(uint32_t channels) {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;  // 128 mapping entries per translation page
  g.logical_ratio = 0.5;
  g.num_channels = channels;
  return g;
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device,
                          uint32_t cache) {
  if (name == "GeckoFTL")
    return std::make_unique<GeckoFtl>(device, GeckoFtl::DefaultConfig(cache));
  if (name == "DFTL")
    return std::make_unique<DftlFtl>(device, DftlFtl::DefaultConfig(cache));
  if (name == "LazyFTL")
    return std::make_unique<LazyFtl>(device, LazyFtl::DefaultConfig(cache));
  if (name == "uFTL")
    return std::make_unique<MuFtl>(device, MuFtl::DefaultConfig(cache));
  return std::make_unique<IbFtl>(device, IbFtl::DefaultConfig(cache));
}

struct RunResult {
  double elapsed_us = 0;     // simulated time for the measured updates
  double kpages_per_sec = 0; // simulated throughput (logical pages)
  ChannelReport channels;
};

RunResult RunOne(const std::string& name, const Trace& trace,
                 uint32_t num_channels) {
  FlashDevice device(BenchGeometry(num_channels));
  auto ftl = Make(name, &device, kCache);
  Fill(*ftl, kSpan, /*batch_size=*/kBatch);
  GECKO_CHECK(ftl->Flush().ok());

  double before = device.stats().elapsed_us();
  for (uint64_t base = 0; base < kOps; base += kBatch) {
    IoRequest write(IoOp::kWrite);
    for (uint64_t i = base; i < base + kBatch && i < kOps; ++i) {
      Lpn lpn = trace.at(i);
      write.Add(lpn, RequestStream::PayloadToken(lpn, i));
    }
    IoResult result;
    Status s = ftl->Submit(write, &result);
    GECKO_CHECK(s.ok());
  }

  RunResult r;
  r.elapsed_us = device.stats().elapsed_us() - before;
  r.kpages_per_sec = kOps / r.elapsed_us * 1e6 / 1000.0;
  r.channels = Channels(device);
  return r;
}

struct SweepRow {
  std::string ftl;
  uint32_t channels = 0;
  RunResult result;
  double speedup = 1.0;  // elapsed vs the same FTL's 1-channel run
};

void WriteJson(const char* path, const std::vector<SweepRow>& rows,
               const std::vector<std::pair<std::string, double>>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"channel_scaling\",\n");
  std::fprintf(f, "  \"span_lpns\": %llu,\n  \"batch\": %u,\n",
               static_cast<unsigned long long>(kSpan), kBatch);
  std::fprintf(f, "  \"update_extents\": %llu,\n",
               static_cast<unsigned long long>(kOps));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"ftl\": \"%s\", \"channels\": %u, \"elapsed_ms\": %.3f, "
        "\"kpages_per_sec\": %.3f, \"speedup_vs_1ch\": %.3f, "
        "\"mean_utilization\": %.3f, \"max_queue_depth\": %u}%s\n",
        r.ftl.c_str(), r.channels, r.result.elapsed_us / 1000.0,
        r.result.kpages_per_sec, r.speedup,
        r.result.channels.MeanUtilization(),
        r.result.channels.max_queue_depth, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f, "    {\"ftl\": \"%s\", \"speedup_8ch\": %.3f, "
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
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  PrintHeader(
      "Channel scaling: simulated throughput vs channel count (1 -> 16)",
      "with channel-striped allocation and per-request batch windows, "
      "batched write throughput scales with the channel count: >= 3x at 8 "
      "channels vs 1 for every FTL");

  UniformWorkload uniform(kSpan, 42);
  Trace trace = Trace::Record(uniform, kOps);
  const uint32_t kChannelCounts[] = {1, 2, 4, 8, 16};
  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};

  std::printf(
      "\n%u-extent write batches over %u lpns, cache C=%u, simulated time:\n",
      kBatch, unsigned{kSpan}, kCache);
  TablePrinter table({"FTL", "ch", "elapsed ms", "kpages/s", "speedup",
                      "mean util", "max qdepth"});
  bool all_pass = true;
  double speedup8[5] = {0};
  std::vector<SweepRow> rows;
  int ftl_index = 0;
  for (const char* name : kFtls) {
    double base_elapsed = 0;
    for (uint32_t channels : kChannelCounts) {
      SweepRow row;
      row.ftl = name;
      row.channels = channels;
      row.result = RunOne(name, trace, channels);
      if (channels == 1) base_elapsed = row.result.elapsed_us;
      row.speedup = base_elapsed / row.result.elapsed_us;
      if (channels == 8) speedup8[ftl_index] = row.speedup;
      table.AddRow({name, TablePrinter::Fmt(static_cast<int>(channels)),
                    TablePrinter::Fmt(row.result.elapsed_us / 1000.0, 1),
                    TablePrinter::Fmt(row.result.kpages_per_sec, 1),
                    TablePrinter::Fmt(row.speedup, 2),
                    TablePrinter::Fmt(row.result.channels.MeanUtilization(), 2),
                    TablePrinter::Fmt(static_cast<int>(
                        row.result.channels.max_queue_depth))});
      rows.push_back(std::move(row));
    }
    ++ftl_index;
  }
  table.Print();

  std::printf("\nPer-channel utilization, GeckoFTL at 8 channels:\n");
  RunResult gecko8 = RunOne("GeckoFTL", trace, 8);
  for (uint32_t c = 0; c < gecko8.channels.utilization.size(); ++c) {
    std::printf("  channel %u: %5.1f%%  (%llu ops)\n", c,
                100.0 * gecko8.channels.utilization[c],
                static_cast<unsigned long long>(gecko8.channels.ops[c]));
  }

  std::vector<std::pair<std::string, double>> gates;
  ftl_index = 0;
  for (const char* name : kFtls) {
    bool ok = speedup8[ftl_index] >= 3.0;
    all_pass = all_pass && ok;
    PrintCheck(ok, std::string(name) + ": " +
                       TablePrinter::Fmt(speedup8[ftl_index], 2) +
                       "x throughput at 8 channels vs 1");
    gates.emplace_back(name, speedup8[ftl_index]);
    ++ftl_index;
  }
  if (json_path != nullptr) WriteJson(json_path, rows, gates);
  return all_pass ? 0 : 1;
}
