// Graceful degradation under media faults, swept across fault rates.
//
// Three claims, each over all five FTLs:
//
//  1. Throughput degrades gracefully: at a 1e-4 transient-read-fault
//     rate (each fault costs <= R retry reads through the channel
//     queues), open-loop throughput at QD=16 on 8 channels stays >= 90%
//     of the zero-fault baseline — and there is no cliff anywhere below
//     the degradation threshold across the swept rates.
//  2. No completion ever returns wrong data: under simultaneous
//     transient, hard-read and program faults plus crash churn, every
//     read either fails honestly (kIoError per extent) or matches the
//     shadow model exactly.
//  3. Spare exhaustion is a mode, not a crash: with every erase failing,
//     the FTL transitions to sticky read-only degraded mode; reads still
//     verify against the shadow afterwards.
//
// Flags: --tiny   CI smoke scale (exit 0 regardless of the throughput
//                 gate; integrity and degradation claims still CHECK)
//        --json P write machine-readable results to path P

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "flash/fault_model.h"
#include "ftl/baseline_ftls.h"
#include "ftl/gecko_ftl.h"
#include "sim/load_driver.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

using namespace gecko;
using namespace gecko::bench;

namespace {

constexpr uint32_t kChannels = 8;
constexpr uint32_t kQd = 16;
constexpr uint32_t kCache = 512;
constexpr Lpn kSpan = 4096;
constexpr double kInterArrivalUs = 30.0;
const double kSweepRates[] = {0.0, 1e-5, 1e-4, 1e-3};
constexpr double kGateRate = 1e-4;   // the gated point of the sweep
constexpr double kGateFraction = 0.90;

Geometry BenchGeometry() {
  Geometry g;
  g.num_blocks = 1024;
  g.pages_per_block = 32;
  g.page_bytes = 512;
  g.logical_ratio = 0.5;
  g.num_channels = kChannels;
  return g;
}

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 96;
  g.pages_per_block = 16;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  g.num_channels = kChannels;
  return g;
}

std::unique_ptr<Ftl> Make(const std::string& name, FlashDevice* device,
                          uint32_t qd) {
  FtlConfig config;
  if (name == "GeckoFTL") config = GeckoFtl::DefaultConfig(kCache);
  else if (name == "DFTL") config = DftlFtl::DefaultConfig(kCache);
  else if (name == "LazyFTL") config = LazyFtl::DefaultConfig(kCache);
  else if (name == "uFTL") config = MuFtl::DefaultConfig(kCache);
  else config = IbFtl::DefaultConfig(kCache);
  config.async_queue_depth = qd;
  if (name == "GeckoFTL") return std::make_unique<GeckoFtl>(device, config);
  if (name == "DFTL") return std::make_unique<DftlFtl>(device, config);
  if (name == "LazyFTL") return std::make_unique<LazyFtl>(device, config);
  if (name == "uFTL") return std::make_unique<MuFtl>(device, config);
  return std::make_unique<IbFtl>(device, config);
}

// --- Claim 1: throughput sweep over transient-read-fault rates ----------

struct SweepRow {
  std::string ftl;
  double rate = 0;
  double kiops = 0;
  double p99_us = 0;
  uint64_t retries = 0;
  uint64_t transient_faults = 0;
  double fraction_of_clean = 1.0;  // kiops / kiops(rate=0)
};

SweepRow RunSweepPoint(const std::string& name, double rate,
                       uint64_t requests) {
  FaultConfig faults;
  faults.enabled = rate > 0;
  faults.seed = 97;
  faults.transient_read_fault_rate = rate;
  FlashDevice device(BenchGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device, kQd);
  Fill(*ftl, kSpan, /*batch_size=*/64);
  GECKO_CHECK(ftl->Flush().ok());
  device.stats().Reset();

  ZipfWorkload zipf(kSpan, 0.9, 11);
  RequestStream::Options sopt;
  sopt.batch_size = 4;
  sopt.read_fraction = 0.5;  // reads are what transient faults tax
  sopt.seed = 13;
  RequestStream stream(&zipf, sopt);

  LoadDriver driver(ftl.get(), &device);

  SweepRow row;
  row.ftl = name;
  row.rate = rate;
  LoadReport report = driver.Run(
      {.inter_arrival_us = kInterArrivalUs, .requests = requests}, stream);
  GECKO_CHECK_EQ(report.completed, report.arrivals);
  row.kiops = report.achieved_kiops;
  row.p99_us = report.latency.P99();
  row.retries = device.stats().read_retries();
  row.transient_faults = device.stats().transient_read_faults();
  GECKO_CHECK_EQ(device.stats().hard_read_faults(), 0u);
  return row;
}

// --- Claim 2: shadow-verified integrity under mixed faults --------------

struct IntegrityRow {
  std::string ftl;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t io_errors = 0;       // honest per-extent failures
  uint64_t remapped = 0;        // program faults transparently re-placed
  uint64_t transient_faults = 0;
  uint64_t crashes = 0;
};

IntegrityRow RunIntegrityChurn(const std::string& name, uint64_t ops) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 171;
  faults.transient_read_fault_rate = 1e-3;
  faults.hard_read_fault_rate = 1e-4;
  faults.program_fault_rate = 1e-3;
  FlashDevice device(SmallGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device, kQd);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  IntegrityRow row;
  row.ftl = name;
  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  for (uint64_t i = 0; i < ops; ++i) {
    uint32_t dice = rng.Uniform(1000);
    if (dice < 550) {
      Lpn lpn = rng.Uniform(span);
      uint64_t token = RequestStream::PayloadToken(lpn, ++version);
      Status s = ftl->Write(lpn, token);
      GECKO_CHECK(s.ok()) << s.ToString();
      shadow[lpn] = token;
      ++row.writes;
    } else if (dice < 990) {
      if (shadow.empty()) continue;
      auto it = shadow.lower_bound(rng.Uniform(span));
      if (it == shadow.end()) it = shadow.begin();
      uint64_t got = 0;
      Status s = ftl->Read(it->first, &got);
      ++row.reads;
      if (s.code() == StatusCode::kIoError) {
        // Unrecoverable read error: that copy is gone. GC may later drop
        // the dead page and a post-crash scan then has nothing to map, so
        // the lpn is lost (honestly) until rewritten.
        ++row.io_errors;
        shadow.erase(it);
        continue;
      }
      GECKO_CHECK(s.ok()) << s.ToString();
      GECKO_CHECK_EQ(got, it->second)
          << name << " returned wrong data for lpn " << it->first;
    } else {
      ftl->CrashAndRecover();
      ++row.crashes;
    }
  }
  row.remapped = ftl->counters().remapped_programs;
  row.transient_faults = device.stats().transient_read_faults();
  return row;
}

// --- Claim 3: spare exhaustion -> read-only mode, data intact -----------

struct DegradeRow {
  std::string ftl;
  uint64_t writes_before_wall = 0;
  uint32_t grown_bad_blocks = 0;
  uint64_t survivors_verified = 0;
};

DegradeRow RunDegradation(const std::string& name) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 233;
  faults.erase_fault_rate = 1.0;  // every GC erase retires its victim
  FlashDevice device(SmallGeometry(), LatencyModel(), faults);
  auto ftl = Make(name, &device, kQd);
  const Lpn span = device.geometry().NumLogicalPages() / 2;

  DegradeRow row;
  row.ftl = name;
  std::map<Lpn, uint64_t> shadow;
  Rng rng(faults.seed + 1);
  uint64_t version = 0;
  bool hit_wall = false;
  for (uint64_t i = 0; i < 50000; ++i) {
    Lpn lpn = rng.Uniform(span);
    uint64_t token = RequestStream::PayloadToken(lpn, ++version);
    Status s = ftl->Write(lpn, token);
    if (!s.ok()) {
      GECKO_CHECK_EQ(static_cast<int>(s.code()),
                     static_cast<int>(StatusCode::kOutOfSpace))
          << s.ToString();
      hit_wall = true;
      break;
    }
    shadow[lpn] = token;
    ++row.writes_before_wall;
  }
  GECKO_CHECK(hit_wall) << name << ": pool never exhausted";
  GECKO_CHECK(ftl->IsDegraded());
  GECKO_CHECK_EQ(ftl->counters().degraded_mode, 1u);
  row.grown_bad_blocks =
      static_cast<uint32_t>(ftl->counters().grown_bad_blocks);
  GECKO_CHECK_GT(row.grown_bad_blocks, 0u);

  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    Status s = ftl->Read(lpn, &got);
    GECKO_CHECK(s.ok()) << name << ": degraded read failed: " << s.ToString();
    GECKO_CHECK_EQ(got, token) << name << ": wrong data for lpn " << lpn;
    ++row.survivors_verified;
  }
  return row;
}

void WriteJson(const char* path, uint64_t requests, uint64_t churn_ops,
               const std::vector<SweepRow>& sweep,
               const std::vector<IntegrityRow>& integrity,
               const std::vector<DegradeRow>& degrade,
               const std::vector<std::pair<std::string, double>>& gates) {
  std::FILE* f = std::fopen(path, "w");
  GECKO_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"fault_tolerance\",\n");
  std::fprintf(f,
               "  \"channels\": %u,\n  \"qd\": %u,\n  \"span\": %llu,\n"
               "  \"requests\": %llu,\n  \"churn_ops\": %llu,\n",
               kChannels, kQd, static_cast<unsigned long long>(kSpan),
               static_cast<unsigned long long>(requests),
               static_cast<unsigned long long>(churn_ops));
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"transient_rate\": %g, "
                 "\"achieved_kiops\": %.3f, \"p99_us\": %.1f, "
                 "\"read_retries\": %llu, \"transient_faults\": %llu, "
                 "\"fraction_of_clean\": %.4f}%s\n",
                 r.ftl.c_str(), r.rate, r.kiops, r.p99_us,
                 static_cast<unsigned long long>(r.retries),
                 static_cast<unsigned long long>(r.transient_faults),
                 r.fraction_of_clean, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"integrity\": [\n");
  for (size_t i = 0; i < integrity.size(); ++i) {
    const IntegrityRow& r = integrity[i];
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"writes\": %llu, \"reads\": %llu, "
                 "\"io_errors\": %llu, \"remapped_programs\": %llu, "
                 "\"transient_faults\": %llu, \"crashes\": %llu, "
                 "\"wrong_data\": 0}%s\n",
                 r.ftl.c_str(), static_cast<unsigned long long>(r.writes),
                 static_cast<unsigned long long>(r.reads),
                 static_cast<unsigned long long>(r.io_errors),
                 static_cast<unsigned long long>(r.remapped),
                 static_cast<unsigned long long>(r.transient_faults),
                 static_cast<unsigned long long>(r.crashes),
                 i + 1 < integrity.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"degradation\": [\n");
  for (size_t i = 0; i < degrade.size(); ++i) {
    const DegradeRow& r = degrade[i];
    std::fprintf(
        f,
        "    {\"ftl\": \"%s\", \"writes_before_wall\": %llu, "
        "\"grown_bad_blocks\": %u, \"survivors_verified\": %llu, "
        "\"entered_read_only\": true}%s\n",
        r.ftl.c_str(), static_cast<unsigned long long>(r.writes_before_wall),
        r.grown_bad_blocks,
        static_cast<unsigned long long>(r.survivors_verified),
        i + 1 < degrade.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates\": [\n");
  for (size_t i = 0; i < gates.size(); ++i) {
    std::fprintf(f,
                 "    {\"ftl\": \"%s\", \"fraction_of_clean_at_1e4\": %.4f, "
                 "\"pass\": %s}%s\n",
                 gates[i].first.c_str(), gates[i].second,
                 gates[i].second >= kGateFraction ? "true" : "false",
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
  const uint64_t kChurnOps = tiny ? 800 : 6000;

  PrintHeader(
      "Fault tolerance: media faults injected below every FTL",
      "transient read faults cost retries, not throughput cliffs (>= 90% "
      "of clean throughput at a 1e-4 rate); mixed faults plus crash churn "
      "never surface wrong data; spare exhaustion lands in read-only "
      "degraded mode with every surviving write intact");

  const char* kFtls[] = {"GeckoFTL", "DFTL", "LazyFTL", "uFTL", "IB-FTL"};

  std::printf(
      "\nOpen-loop 50%%-read zipf batches over %llu lpns, QD=%u, %u "
      "channels, %llu requests, transient-read-fault rate swept:\n",
      static_cast<unsigned long long>(kSpan), kQd, kChannels,
      static_cast<unsigned long long>(kRequests));

  std::vector<SweepRow> sweep;
  std::vector<std::pair<std::string, double>> gates;
  TablePrinter sweep_table(
      {"FTL", "fault rate", "kiops", "vs clean", "p99 us", "retries"});
  for (const char* name : kFtls) {
    double clean_kiops = 0;
    double gate_fraction = 0;
    for (double rate : kSweepRates) {
      SweepRow row = RunSweepPoint(name, rate, kRequests);
      if (rate == 0.0) clean_kiops = row.kiops;
      row.fraction_of_clean = clean_kiops > 0 ? row.kiops / clean_kiops : 0;
      if (rate == kGateRate) gate_fraction = row.fraction_of_clean;
      sweep_table.AddRow({row.ftl, TablePrinter::Fmt(rate, 6),
                          TablePrinter::Fmt(row.kiops, 2),
                          TablePrinter::Fmt(row.fraction_of_clean, 3),
                          TablePrinter::Fmt(row.p99_us, 0),
                          TablePrinter::Fmt(row.retries)});
      sweep.push_back(std::move(row));
    }
    gates.emplace_back(name, gate_fraction);
  }
  sweep_table.Print();

  std::printf(
      "\nShadow-verified mixed-fault churn (%llu ops: transient 1e-3, "
      "hard-read 1e-4, program 1e-3, plus crash/recover):\n",
      static_cast<unsigned long long>(kChurnOps));
  std::vector<IntegrityRow> integrity;
  TablePrinter churn_table({"FTL", "writes", "reads", "io errors",
                            "remapped", "transient", "crashes", "wrong data"});
  for (const char* name : kFtls) {
    IntegrityRow row = RunIntegrityChurn(name, kChurnOps);
    churn_table.AddRow(
        {row.ftl, TablePrinter::Fmt(row.writes), TablePrinter::Fmt(row.reads),
         TablePrinter::Fmt(row.io_errors), TablePrinter::Fmt(row.remapped),
         TablePrinter::Fmt(row.transient_faults),
         TablePrinter::Fmt(row.crashes), "0"});
    integrity.push_back(std::move(row));
  }
  churn_table.Print();

  std::printf(
      "\nSpare exhaustion (every erase fails; small device, write until "
      "the wall):\n");
  std::vector<DegradeRow> degrade;
  TablePrinter degrade_table(
      {"FTL", "writes to wall", "grown bad", "survivors verified"});
  for (const char* name : kFtls) {
    DegradeRow row = RunDegradation(name);
    degrade_table.AddRow({row.ftl, TablePrinter::Fmt(row.writes_before_wall),
                          TablePrinter::Fmt(static_cast<int>(
                              row.grown_bad_blocks)),
                          TablePrinter::Fmt(row.survivors_verified)});
    degrade.push_back(std::move(row));
  }
  degrade_table.Print();

  bool all_pass = true;
  for (const auto& [name, fraction] : gates) {
    bool ok = fraction >= kGateFraction;
    all_pass = all_pass && ok;
    PrintCheck(ok, name + ": " + TablePrinter::Fmt(100.0 * fraction, 1) +
                       "% of zero-fault throughput at a 1e-4 transient-"
                       "read-fault rate (gate >= 90%)");
  }
  PrintCheck(true, "no completion returned wrong data at any fault rate "
                   "(shadow-verified; every media failure surfaced as "
                   "kIoError)");
  PrintCheck(true, "all five FTLs entered read-only degraded mode at spare "
                   "exhaustion with every surviving write verified");

  if (json_path != nullptr) {
    WriteJson(json_path, kRequests, kChurnOps, sweep, integrity, degrade,
              gates);
    std::printf("\nwrote %s\n", json_path);
  }
  if (!tiny && !all_pass) return 1;
  return 0;
}
