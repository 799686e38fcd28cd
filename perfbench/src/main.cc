// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale tiny] [--corrupt-shadow] [--out-dir <dir>]
//
// Repeats the workload (set-up + measured phases + crash cycles) with the
// same seed until `--seconds` of host time have passed, at least three
// times. Simulated metrics must come out identical in every repetition;
// host-clock metrics are the median over repetitions (see README.md for
// why not the best one). With --trace 1 the
// repetitions alternate untraced and traced, and the per-layer metrics
// are printed instead of the end-to-end ones. The last line of standard
// output is the result as one JSON object.
//
// Exit codes: 0 success, 1 wrong data, 2 a regime self-check or the
// determinism check failed, 64 bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rig.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool corrupt_shadow = false;
  std::string out_dir = ".bench_out";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (printed with --trace 0).
const MetricDef kEndToEnd[] = {
    {"host_kops", "kpages/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},      {"sim_kiops", "kpages/s"},
    {"sim_read_p50_us", "us"},   {"sim_read_p99_us", "us"},
    {"sim_write_p50_us", "us"},  {"sim_write_p99_us", "us"},
    {"paper_wa", "ratio"},       {"ftl_ram_kb", "KiB"},
    {"recovery_sim_ms", "ms"},   {"ok_frac", "fraction"},
};

// Per-layer metrics (printed with --trace 1).
const MetricDef kPerLayer[] = {
    {"workload.next_ns", "ns"},
    {"workload.self_frac", "fraction"},
    {"ftl.engine.submit_ns", "ns"},
    {"ftl.engine.poll_ns", "ns"},
    {"ftl.engine.self_frac", "fraction"},
    {"ftl.engine.dep_parked_frac", "fraction"},
    {"ftl.engine.queue_full_per_req", "ratio"},
    {"ftl.engine.host_wait_p99_us", "us"},
    {"ftl.engine.device_p99_us", "us"},
    {"ftl.cache.hit_ratio", "fraction"},
    {"ftl.cache.fetches_per_miss", "ratio"},
    {"ftl.cache.syncs_per_kwrite", "count"},
    {"ftl.translation.reads_per_op", "ratio"},
    {"ftl.translation.writes_per_kwrite", "count"},
    {"ftl.translation.checkpoints", "count"},
    {"ftl.gc.migrations_per_write", "ratio"},
    {"ftl.gc.collections_per_kwrite", "count"},
    {"ftl.gc.background_steps", "count"},
    {"ftl.gc.throttled_steps", "count"},
    {"ftl.gc.emergency_stalls", "count"},
    {"ftl.gc.idle_tick_ns", "ns"},
    {"ftl.gc.self_frac", "fraction"},
    {"pvm.reads_per_write", "ratio"},
    {"pvm.writes_per_write", "ratio"},
    {"flash.advance_ns", "ns"},
    {"flash.self_frac", "fraction"},
    {"flash.util_mean", "fraction"},
    {"flash.util_min", "fraction"},
    {"flash.ops_per_user_op", "ratio"},
    {"flash.max_queue_depth", "count"},
    {"ftl.recovery.host_ms", "ms"},
    {"ftl.recovery.page_reads", "count"},
    {"ftl.recovery.spare_reads", "count"},
    {"ftl.recovery.page_writes", "count"},
    {"ftl.shard.submit_ns", "ns"},
    {"ftl.shard.wait_ns", "ns"},
    {"ftl.shard.self_frac", "fraction"},
    {"ftl.shard.subs_per_req", "ratio"},
    {"ftl.shard.queue_full_retries", "count"},
    {"ftl.shard.clock_skew", "fraction"},
    {"bench.self_frac", "fraction"},
    {"trace.host_kops", "kpages/s"},
    {"trace.overhead_frac", "fraction"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale tiny] [--corrupt-shadow] "
               "[--out-dir <dir>]\n",
               msg);
  return 64;
}

bool Parse(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--corrupt-shadow") {
      a->corrupt_shadow = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      *error = "missing value for " + flag;
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) *error = "--trace is 0 or 1";
    } else if (flag == "--scale") {
      a->tiny = std::strcmp(v, "tiny") == 0;
      if (!a->tiny && std::strcmp(v, "full") != 0) {
        *error = "--scale is tiny or full";
      }
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else {
      *error = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') *error = "bad number for " + flag;
    if (!error->empty()) return false;
  }
  if (a->workload.empty()) *error = "--workload is required";
  return error->empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Per-layer host figures of one traced repetition's measured window.
std::map<std::string, double> LayerTimes(const Tracer& tracer,
                                         const RepResult& r) {
  const std::vector<SpanTotals> in_window = tracer.Totals(r.measure_end_ns);
  const std::vector<SpanTotals> all =
      tracer.Totals(std::numeric_limits<int64_t>::max());
  auto at = [&](SpanName n) -> const SpanTotals& {
    return in_window[static_cast<size_t>(n)];
  };
  std::map<std::string, double> m;
  m["workload.next_ns"] = at(SpanName::kWorkloadNext).MeanSelfNs();
  m["ftl.engine.submit_ns"] = at(SpanName::kEngineSubmit).MeanSelfNs();
  m["ftl.engine.poll_ns"] = at(SpanName::kEnginePoll).MeanSelfNs();
  m["ftl.gc.idle_tick_ns"] = at(SpanName::kGcIdleTick).MeanSelfNs();
  m["flash.advance_ns"] = at(SpanName::kFlashAdvance).MeanSelfNs();
  m["ftl.shard.submit_ns"] = at(SpanName::kShardSubmit).MeanSelfNs();
  m["ftl.shard.wait_ns"] = at(SpanName::kShardWait).MeanSelfNs();
  const SpanTotals& rec = all[static_cast<size_t>(SpanName::kRecovery)];
  m["ftl.recovery.host_ms"] =
      rec.calls > 0 ? rec.total_ns / 1e6 / rec.calls : 0.0;
  // Self-time shares of the measured window, by layer.
  const double window_ns =
      static_cast<double>(r.measure_end_ns - r.measure_begin_ns);
  double traced_ns = 0;
  for (const char* layer :
       {"workload", "ftl.engine", "ftl.gc", "flash", "ftl.shard"}) {
    double ns = 0;
    for (size_t i = 0; i < in_window.size(); ++i) {
      if (std::strcmp(SpanLayer(static_cast<SpanName>(i)), layer) == 0) {
        ns += static_cast<double>(in_window[i].self_ns);
      }
    }
    traced_ns += ns;
    m[std::string(layer) + ".self_frac"] = window_ns > 0 ? ns / window_ns : 0;
  }
  // Everything outside a library call: the benchmark's loop and oracle.
  m["bench.self_frac"] = window_ns > 0 ? 1.0 - traced_ns / window_ns : 0;
  return m;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const MetricDef* defs, size_t n,
               const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < n; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, values.at(defs[i].name),
                defs[i].unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!Parse(argc, argv, &args, &error)) return Usage(error.c_str());
  WorkloadDef def;
  if (!FindWorkload(args.workload, args.tiny, &def)) {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  constexpr size_t kDumpedSpans = 200000;
  const int64_t start_ns = NowNs();
  // Untraced runs repeat at least three times; traced runs alternate
  // untraced and traced repetitions, at least two of each.
  const int min_reps = args.trace ? 4 : 3;
  std::vector<RepResult> untraced, traced;
  std::vector<std::map<std::string, double>> layer_times;
  RepResult first;
  uint64_t attempted = 0, failed = 0;
  int64_t longest_rep_ns = 0;
  for (int rep = 0;; ++rep) {
    const bool trace_rep = args.trace && rep % 2 == 1;
    Tracer tracer(trace_rep ? size_t{1} << 20 : 0);
    const int64_t rep0 = NowNs();
    RepResult r;
    {
      Rig rig(def, args.seed, trace_rep ? &tracer : nullptr);
      r = rig.Run(args.corrupt_shadow);
    }
    longest_rep_ns = std::max(longest_rep_ns, NowNs() - rep0);
    std::printf("rep %d%s: setup %.3f s, measured %.3f s (saturated %.3f s), "
                "host %.2f kpages/s\n",
                rep, trace_rep ? " (traced)" : "", r.setup_s, r.measured_s,
                r.saturated_s, r.host_kops);
    attempted += r.attempted;
    failed += r.failed + r.wrong;
    if (rep == 0) {
      for (const std::string& line : r.regime) {
        std::printf("regime %s: %s\n", def.name.c_str(), line.c_str());
      }
      first = r;
    }
    if (r.wrong > 0) {
      std::fprintf(stderr, "WRONG DATA in %s (seed %llu): %llu extents, first: %s\n",
                   def.name.c_str(), static_cast<unsigned long long>(args.seed),
                   static_cast<unsigned long long>(r.wrong),
                   r.first_error.c_str());
      return 1;
    }
    if (!r.regime_ok) {
      std::fprintf(stderr, "regime self-check failed for %s\n",
                   def.name.c_str());
      return 2;
    }
    if (r.sim != first.sim) {
      for (const auto& [name, value] : r.sim) {
        if (first.sim.at(name) != value) {
          std::fprintf(stderr,
                       "NOT DETERMINISTIC: %s was %.17g, now %.17g (rep %d)\n",
                       name.c_str(), first.sim.at(name), value, rep);
        }
      }
      return 2;
    }
    if (trace_rep) {
      layer_times.push_back(LayerTimes(tracer, r));
      if (!args.out_dir.empty()) {
        const std::string path =
            args.out_dir + "/trace-" + def.name + ".tsv";
        if (!tracer.Dump(path, kDumpedSpans)) {
          std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
        }
      }
      traced.push_back(std::move(r));
    } else {
      untraced.push_back(std::move(r));
    }
    const int done = rep + 1;
    const double elapsed_s = (NowNs() - start_ns) * 1e-9;
    const bool enough = done >= min_reps && elapsed_s >= args.seconds;
    // Never start a repetition that would run past the time budget of a
    // single invocation.
    const bool out_of_time = elapsed_s + 1.5 * longest_rep_ns * 1e-9 > 150;
    if (enough || (out_of_time && done >= 2)) break;
  }

  // Set-up is short on some workloads, so take extra set-up-only samples
  // until there are kSetupSamples or kExtraSetupS of extra time is spent.
  constexpr size_t kSetupSamples = 15;
  constexpr double kExtraSetupS = 2.0;
  std::vector<double> setups;
  for (const auto* reps : {&untraced, &traced}) {
    for (const RepResult& r : *reps) setups.push_back(r.setup_s);
  }
  const int64_t extra0 = NowNs();
  while (setups.size() < kSetupSamples &&
         (NowNs() - extra0) * 1e-9 < kExtraSetupS) {
    RepResult scratch;
    Rig rig(def, args.seed, nullptr);
    setups.push_back(rig.SetUp(&scratch));
  }

  auto median_kops = [](const std::vector<RepResult>& reps) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(r.host_kops);
    return Median(v);
  };
  std::map<std::string, double> values = first.sim;
  for (const auto& [name, unused] : first.host_layer) {
    std::vector<double> v;
    for (const auto* reps : {&untraced, &traced}) {
      for (const RepResult& r : *reps) v.push_back(r.host_layer.at(name));
    }
    values[name] = Median(v);
  }
  values["host_kops"] = median_kops(untraced);
  values["setup_s"] = Median(setups);
  values["peak_rss_mb"] = PeakRssMb();
  std::printf("memory: peak RSS %.1f MiB, of which the benchmark's shadow and "
              "latency samples %.1f MiB\n",
              values["peak_rss_mb"], first.own_mb);
  values["ok_frac"] =
      1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  if (args.trace) {
    for (const auto& [name, unused] : layer_times.front()) {
      std::vector<double> v;
      for (const auto& t : layer_times) v.push_back(t.at(name));
      values[name] = Median(v);
    }
    values["trace.host_kops"] = median_kops(traced);
    values["trace.overhead_frac"] =
        1.0 - values["trace.host_kops"] / values["host_kops"];
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions\n",
              def.name.c_str(), static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size());
  for (const auto& [name, n] : first.samples) {
    std::printf("samples %s: %llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  }
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const size_t n = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < n; ++i) {
    std::printf("metric %-36s %.6g %s\n", defs[i].name,
                values.at(defs[i].name), defs[i].unit);
  }
  PrintJson(true, attempted, failed, defs, n, values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
