// perfbench — the end-to-end and per-layer benchmark of AutoCTS++.
//
//   perfbench --workload pipeline|serve_hot|serve_cold|stream --seed N
//             --seconds S --trace 0|1 [--size full|tiny]
//
// Runs one workload in this process and prints, as the last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before it
// records the seed, a digest of the generated inputs and the host's steal
// time and load, so a noisy run or a changed input can be told apart from a
// program change. See README.md for the workloads and metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints. A layer that the workload's
/// subject does not exercise reads 0.
const MetricSpec kLayerMetrics[] = {
    {"core.pretrain_other_s", "s"},
    {"core.search_other_s", "s"},
    {"core.checkpoint_bytes", "bytes"},
    {"embedding.ts2vec_pretrain_s", "s"},
    {"embedding.embed_task_ms", "ms"},
    {"embedding.request_embed_ms", "ms"},
    {"comparator.collect_plan_s", "s"},
    {"comparator.tahc_train_s", "s"},
    {"comparator.tahc_pairs", "count"},
    {"comparator.compare_logits_us", "us"},
    {"model.collect_train_s", "s"},
    {"model.collect_samples", "count"},
    {"model.collect_retried", "count"},
    {"model.collect_quarantined", "count"},
    {"model.topk_train_s", "s"},
    {"search.rank_ms", "ms"},
    {"search.rank_only_ms", "ms"},
    {"tensor.pool_hit_rate", "ratio"},
    {"tensor.allocations", "count"},
    {"tensor.plan_replay_ratio", "ratio"},
    {"tensor.plan_poisoned", "count"},
    {"tensor.plan_replays_per_req", "count"},
    {"tensor.plan_arena_mb", "MB"},
    {"tensor.gemm_micro_calls", "count"},
    {"tensor.gemm_small_calls", "count"},
    {"common.lane_util", "ratio"},
    {"common.guard_checks", "count"},
    {"common.nonfinite", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p90", "ms"},
    {"serve.queue_highwater", "count"},
    {"serve.service_ms_p50", "ms"},
    {"serve.service_ms_p90", "ms"},
    {"serve.http_ms_p50", "ms"},
    {"serve.rt_ms_p99", "ms"},
    {"serve.http_parse_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.embed_hit_rate", "ratio"},
    {"serve.dedup_saved_pct", "%"},
    {"serve.cpu_ms_per_req", "ms"},
    {"serve.models_trained", "count"},
    {"stream.push_us_p50", "us"},
    {"stream.push_us_p90", "us"},
    {"stream.recovery_ms", "ms"},
    {"stream.open_ms", "ms"},
    {"stream.drifts", "count"},
    {"stream.swaps", "count"},
    {"stream.research_failures", "count"},
    {"stream.swap_stalls", "count"},
    {"stream.recovery_ticks", "count"},
    {"host.steal_pct", "%"},
    {"host.load1", "count"},
    {"trace.e2e_ms", "ms"},
    {"trace.attributed_ms", "ms"},
    {"trace.remainder_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

/// CPU jiffies from the aggregate line of /proc/stat: total and steal.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    double v = 0.0;
    stat >> v;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double Load1() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : 0.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

struct Args {
  std::string workload;
  RunConfig config;
  bool valid = true;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.config.seconds = std::atof(value.c_str());
      have_seconds = args.config.seconds > 0.0;
    } else if (flag == "--trace") {
      args.config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--size") {
      args.config.tiny = value == "tiny";
      args.valid = args.valid && (value == "tiny" || value == "full");
    } else {
      args.valid = false;
    }
  }
  args.valid = args.valid && argc % 2 == 1 && have_seed && have_seconds &&
               have_trace &&
               (args.workload == "pipeline" || args.workload == "serve_hot" ||
                args.workload == "serve_cold" || args.workload == "stream");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.valid) {
    std::cerr << "usage: perfbench --workload pipeline|serve_hot|serve_cold|"
                 "stream --seed N --seconds S --trace 0|1 [--size full|tiny]\n";
    return 2;
  }
  // The benchmark fixes its own configuration: no AUTOCTS_* knob of the
  // caller applies, and the process default pool gets kLanes lanes too.
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AUTOCTS_", 0) == 0) {
      inherited.push_back(kv.substr(0, kv.find('=')));
    }
  }
  for (const std::string& name : inherited) ::unsetenv(name.c_str());
  ::setenv("AUTOCTS_NUM_THREADS", std::to_string(kLanes).c_str(), 1);

  RunConfig config = args.config;
  config.work_dir = ".bench_run/perfbench-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  const HostTicks host0 = ReadHostTicks();
  const double load0 = Load1();

  // The workload's subject runs first, at full size; the other groups run
  // afterwards as small probes so every end-to-end metric is present.
  const std::string& w = args.workload;
  GroupResult pipeline, serve, stream;
  GroupResult* native = w == "pipeline" ? &pipeline
                        : w == "stream" ? &stream
                                        : &serve;
  auto run = [&](GroupResult* group) {
    const bool is_native = group == native;
    if (group == &pipeline) {
      RunPipeline(config, is_native, group);
    } else if (group == &serve) {
      RunServe(config, w == "serve_cold", is_native, group);
    } else {
      RunStream(config, is_native, group);
    }
  };
  run(native);
  const double peak_rss = PeakRssMb();
  for (GroupResult* group : {&pipeline, &serve, &stream}) {
    if (group != native) run(group);
  }

  const HostTicks host1 = ReadHostTicks();
  const double dt = host1.total - host0.total;
  const double steal_pct =
      dt > 0.0 ? 100.0 * (host1.steal - host0.steal) / dt : 0.0;
  const double load1 = 0.5 * (load0 + Load1());

  Tally tally;
  for (const GroupResult* g : {&pipeline, &serve, &stream}) {
    tally.Merge(g->tally);
  }
  Metrics e2e;
  e2e.Set("setup_s", native->setup_s, "s");
  e2e.Set("ok_pct",
          tally.attempted > 0
              ? 100.0 * (tally.attempted - tally.failed) / tally.attempted
              : 0.0,
          "%");
  e2e.Set("cpu_s", native->cpu_s, "s");
  e2e.Set("peak_rss_mb", peak_rss, "MB");
  for (const GroupResult* g : {&pipeline, &serve, &stream}) {
    for (const Metrics::Entry& m : g->e2e.entries()) {
      e2e.Set(m.name, m.value, m.unit);
    }
  }

  Metrics layers;
  if (config.trace) {
    for (const MetricSpec& spec : kLayerMetrics) {
      layers.Set(spec.name, native->layers.Has(spec.name)
                                ? native->layers.Get(spec.name)
                                : 0.0,
                 spec.unit);
    }
    layers.Set("host.steal_pct", steal_pct, "%");
    layers.Set("host.load1", load1, "count");
  }
  const Metrics& reported = config.trace ? layers : e2e;
  for (const Metrics::Entry& m : reported.entries()) {
    if (!std::isfinite(m.value)) tally.Op(false, m.name + " is not finite");
  }

  // Human-readable lines, then the run record, then the result.
  for (const Metrics::Entry& m : e2e.entries()) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& e : tally.errors) {
    std::cout << "  FAILED: " << e << "\n";
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(native->digest.value()));
  std::cout << "{\"record\": {\"workload\": \"" << w << "\", \"seed\": "
            << config.seed << ", \"seconds\": " << JsonNumber(config.seconds)
            << ", \"trace\": " << (config.trace ? 1 : 0) << ", \"size\": \""
            << (config.tiny ? "tiny" : "full") << "\", \"input_digest\": \""
            << digest << "\", \"host_steal_pct\": " << JsonNumber(steal_pct)
            << ", \"host_load1\": " << JsonNumber(load1) << "}}\n";

  std::ostringstream line;
  line << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max(1, tally.attempted)
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metrics::Entry& m : reported.entries()) {
    line << (first ? "" : ", ") << "\"" << JsonEscape(m.name)
         << "\": {\"value\": "
         << JsonNumber(std::isfinite(m.value) ? m.value : 0.0)
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  std::filesystem::remove_all(config.work_dir, ec);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
