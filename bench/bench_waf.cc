// Write amplification under skewed workloads, with and without hot/cold
// stream separation.
//
// The claim: on a skewed update mix (10% of the address space takes 90%
// of the writes — the regime every real host lives in), segregating
// writes into per-temperature-class active blocks cuts GC page
// migrations by >= 30% versus the classic single-stream layout, and
// lowers the end-to-end write-amplification factor, for all five FTLs.
// Single-stream blocks interleave hot and cold pages, so every
// collection of a hot block drags its resident cold pages along; with
// separation, cold pages settle in cold blocks that GC rarely touches,
// and survivors demote one class colder per collection until they stop
// moving.
//
// Both arms run cost-benefit victim selection (the age-aware policy is
// the interesting one under skew; greedy hides part of the stream-
// separation benefit by never aging victims).
//
// Flags: --tiny   CI smoke scale (exit 0 regardless of the perf gates;
//                 integrity CHECKs still hold)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <cstring>
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

constexpr uint32_t kChannels = 4;
constexpr uint32_t kCache = 256;
constexpr uint32_t kTempClasses = 4;
constexpr double kHotFraction = 0.1;
constexpr double kHotAccessFraction = 0.9;
constexpr double kMigrationGate = 0.70;  // migrations(T=4) / migrations(T=1)

Geometry BenchGeometry(bool tiny) {
  Geometry g;
  g.num_blocks = tiny ? 256 : 512;
  g.pages_per_block = 32;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = kChannels;
  return g;
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device,
                          uint32_t temp_classes) {
  FtlConfig config;
  if (name == "GeckoFTL") config = GeckoFtl::DefaultConfig(kCache);
  else if (name == "DFTL") config = DftlFtl::DefaultConfig(kCache);
  else if (name == "LazyFTL") config = LazyFtl::DefaultConfig(kCache);
  else if (name == "uFTL") config = MuFtl::DefaultConfig(kCache);
  else config = IbFtl::DefaultConfig(kCache);
  config.gc_policy = GcPolicy::kCostBenefit;
  config.num_temp_classes = temp_classes;
  if (name == "GeckoFTL") return std::make_unique<GeckoFtl>(device, config);
  if (name == "DFTL") return std::make_unique<DftlFtl>(device, config);
  if (name == "LazyFTL") return std::make_unique<LazyFtl>(device, config);
  if (name == "uFTL") return std::make_unique<MuFtl>(device, config);
  return std::make_unique<IbFtl>(device, config);
}

struct WafRow {
  std::string ftl;
  uint32_t temp_classes = 0;
  double waf = 0;          // end-to-end write amplification
  double user_gc_wa = 0;   // the user-data + GC share of it
  uint64_t migrations = 0;
  uint64_t demotions = 0;
  uint64_t collections = 0;
};

WafRow RunOne(const std::string& name, uint32_t temp_classes, bool tiny) {
  FlashDevice device(BenchGeometry(tiny));
  auto ftl = Make(name, &device, temp_classes);
  const uint64_t num_lpns = device.geometry().NumLogicalPages();
  Fill(*ftl, num_lpns, /*batch_size=*/32);
  GECKO_CHECK(ftl->Flush().ok());

  HotColdWorkload workload(num_lpns, kHotFraction, kHotAccessFraction, 29);
  RequestStream::Options sopt;
  sopt.batch_size = 8;
  sopt.trim_fraction = 0.02;
  sopt.seed = 31;
  const uint64_t warm = tiny ? 4000 : 40000;
  const uint64_t measure = tiny ? 8000 : 80000;
  // Warm to steady state with one stream, then measure WA and the GC
  // counter deltas with a second, identically seeded stream that picks up
  // the workload where the first left it.
  LoadDriver driver(ftl.get(), &device);
  RequestStream warm_stream(&workload, sopt);
  driver.Run({.until_extents = warm}, warm_stream);
  const FtlCounters& live = ftl->counters();
  const uint64_t migrations_before = live.gc_migrations;
  const uint64_t demotions_before = live.gc_demotions;
  const uint64_t collections_before = live.gc_collections;
  RequestStream measure_stream(&workload, sopt);
  WaBreakdown wa = driver.Run({.until_extents = measure}, measure_stream).wa;

  WafRow row;
  row.ftl = name;
  row.temp_classes = temp_classes;
  row.waf = wa.total;
  row.user_gc_wa = wa.user_and_gc;
  row.migrations = live.gc_migrations - migrations_before;
  row.demotions = live.gc_demotions - demotions_before;
  row.collections = live.gc_collections - collections_before;
  return row;
}

struct Gate {
  std::string ftl;
  double migration_ratio = 0;  // separated / single-stream
  double waf_single = 0;
  double waf_separated = 0;
  bool pass = false;
};

void WriteJson(const char* path, bool tiny, const std::vector<WafRow>& rows,
               const std::vector<Gate>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"waf\",\n");
  std::fprintf(f,
               "  \"channels\": %u,\n  \"temp_classes\": %u,\n"
               "  \"hot_fraction\": %.2f,\n  \"hot_access_fraction\": %.2f,\n"
               "  \"tiny\": %s,\n",
               kChannels, kTempClasses, kHotFraction, kHotAccessFraction,
               tiny ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const WafRow& r = rows[i];
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"temp_classes\": %u, "
                 "\"waf\": %.4f, \"user_gc_wa\": %.4f, "
                 "\"gc_migrations\": %llu, \"gc_demotions\": %llu, "
                 "\"gc_collections\": %llu}%s\n",
                 r.ftl.c_str(), r.temp_classes, r.waf, r.user_gc_wa,
                 static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.demotions),
                 static_cast<unsigned long long>(r.collections),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"migration_ratio\": %.4f, "
                 "\"waf_single_stream\": %.4f, \"waf_separated\": %.4f, "
                 "\"pass\": %s}%s\n",
                 g.ftl.c_str(), g.migration_ratio, g.waf_single,
                 g.waf_separated, g.pass ? "true" : "false",
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

  PrintHeader(
      "Write amplification: hot/cold stream separation on a skewed mix",
      "per-temperature-class write streams cut GC page migrations by >= "
      "30% and lower end-to-end WAF versus single-stream placement, for "
      "all five FTLs, on a 10%-hot/90%-of-writes update mix");

  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};

  std::printf(
      "\nHot/cold updates (hot %.0f%% of lpns take %.0f%% of writes), "
      "batch 8, 2%% trim mix, cost-benefit GC, %u channels, "
      "1 vs %u temperature classes:\n",
      100.0 * kHotFraction, 100.0 * kHotAccessFraction, kChannels,
      kTempClasses);

  std::vector<WafRow> rows;
  std::vector<Gate> gates;
  TablePrinter table({"FTL", "classes", "WAF", "user+GC WA", "migrations",
                      "demotions", "collections"});
  for (const char* name : kFtls) {
    WafRow single = RunOne(name, 1, tiny);
    WafRow separated = RunOne(name, kTempClasses, tiny);
    GECKO_CHECK_EQ(single.demotions, 0u)
        << name << ": single-stream runs must never demote";
    for (const WafRow* r : {&single, &separated}) {
      table.AddRow({r->ftl, TablePrinter::Fmt(static_cast<int>(r->temp_classes)),
                    TablePrinter::Fmt(r->waf, 3),
                    TablePrinter::Fmt(r->user_gc_wa, 3),
                    TablePrinter::Fmt(r->migrations),
                    TablePrinter::Fmt(r->demotions),
                    TablePrinter::Fmt(r->collections)});
    }
    Gate gate;
    gate.ftl = name;
    gate.migration_ratio =
        single.migrations > 0
            ? static_cast<double>(separated.migrations) /
                  static_cast<double>(single.migrations)
            : 1.0;
    gate.waf_single = single.waf;
    gate.waf_separated = separated.waf;
    gate.pass = gate.migration_ratio <= kMigrationGate &&
                separated.waf < single.waf;
    gates.push_back(gate);
    rows.push_back(std::move(single));
    rows.push_back(std::move(separated));
  }
  table.Print();
  std::printf("\n");

  bool all_pass = true;
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass;
    PrintCheck(g.pass,
               g.ftl + ": migrations x" +
                   TablePrinter::Fmt(g.migration_ratio, 3) +
                   " of single-stream (gate <= 0.70), WAF " +
                   TablePrinter::Fmt(g.waf_single, 3) + " -> " +
                   TablePrinter::Fmt(g.waf_separated, 3));
  }

  if (json_path != nullptr) {
    WriteJson(json_path, tiny, rows, gates);
    std::printf("\nwrote %s\n", json_path);
  }
  if (!tiny && !all_pass) return 1;
  return 0;
}
