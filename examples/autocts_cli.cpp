// autocts_cli — command-line front end for the library.
//
//   pretrain   pre-train a T-AHC on synthetic source tasks and save a
//              checkpoint:
//                autocts_cli pretrain --ckpt /tmp/my_tahc [--tasks 8] \
//                    [--checkpoint-dir /tmp/ckpt] [--resume]
//              --checkpoint-dir makes every pipeline stage persist its
//              progress (per-sample label fates, encoder/T-AHC parameters,
//              RNG state); --resume restarts a killed run from the last
//              completed sample with bit-identical results. Sample
//              collection runs on AUTOCTS_NUM_THREADS work-item threads;
//              the sample bank and the trained T-AHC are bit-identical at
//              any thread count.
//   search     zero-shot search on a dataset (named synthetic or CSV):
//                autocts_cli search --ckpt /tmp/my_tahc --dataset PEMS-BAY \
//                    --p 24 --q 24 [--csv path.csv] [--single]
//   eval       train + evaluate a specific arch-hyper signature:
//                autocts_cli eval --dataset Los-Loop --p 12 --q 12 \
//                    --arch "B2C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S"
//   serve      long-lived zero-shot recommendation server (HTTP front end
//              over serve::RecommendationService):
//                autocts_cli serve --ckpt /tmp/my_tahc [--port 8080] \
//                    [--workers 2] [--max-batch 8] [--max-delay-us 200] \
//                    [--embed-cache-entries 64]
//              Flags default from the AUTOCTS_SERVE_* environment knobs
//              (see print-config). POST a CSV window (one row per
//              series, columns = time steps) to /recommend:
//                curl -s -X POST --data-binary @window.csv \
//                    'localhost:8080/recommend?p=12&q=12&topk=3'
//   stream     online forecasting under an injected fault scenario, with
//              drift-triggered zero-shot re-search and model hot-swap:
//                autocts_cli stream --ckpt /tmp/my_tahc --dataset PEMS-BAY \
//                    [--scenario regime-shift|dropout|anomaly|drift|stationary] \
//                    [--ticks 192] [--onset 64] [--magnitude 3.0] \
//                    [--seed-steps 160] [--no-recovery] [--ph-lambda 8] \
//                    [--warmup 64] [--deadline 32] [--research-delay 0]
//              Prints drift / hot-swap events and the online MAE
//              pre-onset, degraded, and post-recovery. Detector and
//              recovery flags default from the AUTOCTS_STREAM_* knobs.
//   bank       inspect / CRC-verify a memory-mapped sample bank written by
//              a checkpointed pretrain run:
//                autocts_cli bank --path /tmp/ckpt/pipeline.bank [--json]
//              Prints the header, per-task record counts and quarantine /
//              retry tallies, and verifies every section CRC. Exits
//              non-zero on any corruption — usable as an fsck in scripts.
//   info       print search-space and dataset registry information.
//   print-config
//              print the process runtime configuration (every AUTOCTS_*
//              knob, parsed once at startup) plus the resolved kernel
//              backend, as one JSON object. `--print-config` also works.
//   stats      print the process RuntimeStats snapshot (kernel dispatch,
//              serve, and fault-tolerance counter families) as one
//              JSON object — print-config's sibling for "what did this
//              process actually do?".
//
// Each subcommand accepts only the flags it reads (the table in
// Commands()): an unknown flag, a stray argument, or a number that does not
// parse exits 2 with a message naming the flag.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/jsonio.h"
#include "common/runtime_config.h"
#include "common/runtime_stats.h"
#include "comparator/bank_file.h"
#include "core/autocts.h"
#include "tensor/backend.h"
#include "data/csv_loader.h"
#include "data/synthetic.h"
#include "model/searched_model.h"
#include "searchspace/parse.h"
#include "serve/http.h"
#include "serve/service.h"

namespace autocts {
namespace {

using Flags = std::map<std::string, std::string>;

enum class FlagKind { kBool, kInt, kDouble, kString };

/// One --flag a subcommand reads. kBool flags take no value.
struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// strtol with an end-pointer and int range check (as the HTTP front end's
/// query parser does): "abc", "12x", "" and out-of-range values fail.
bool ParseInt(const std::string& text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// strtod with an end-pointer check; non-finite values fail.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// Parses argv[first..] as `--flag [value]` pairs against the flags a
/// subcommand reads. An unknown flag, a stray argument, a value flag without
/// a value, or a malformed number is an error naming the offending flag —
/// a typo must not silently fall back to a default.
Status ParseFlags(int argc, char** argv, int first,
                  const std::vector<FlagSpec>& known, Flags* flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::Error("unexpected argument '" + arg + "'");
    }
    const std::string key = arg.substr(2);
    auto spec =
        std::find_if(known.begin(), known.end(),
                     [&](const FlagSpec& f) { return key == f.name; });
    if (spec == known.end()) return Status::Error("unknown flag " + arg);
    if (spec->kind == FlagKind::kBool) {
      (*flags)[key] = "1";
      continue;
    }
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      return Status::Error(arg + " needs a value");
    }
    const std::string value = argv[++i];
    int int_value = 0;
    double double_value = 0.0;
    if (spec->kind == FlagKind::kInt && !ParseInt(value, &int_value)) {
      return Status::Error(arg + ": '" + value +
                           "' is not an integer in range");
    }
    if (spec->kind == FlagKind::kDouble &&
        !ParseDouble(value, &double_value)) {
      return Status::Error(arg + ": '" + value + "' is not a finite number");
    }
    (*flags)[key] = value;
  }
  return Status::Ok();
}

/// Reads an int flag ParseFlags already validated.
int IntFlag(const Flags& flags, const std::string& key, int fallback) {
  auto it = flags.find(key);
  int v = fallback;
  if (it != flags.end()) CHECK(ParseInt(it->second, &v)) << key;
  return v;
}

double DoubleFlag(const Flags& flags, const std::string& key,
                  double fallback) {
  auto it = flags.find(key);
  double v = fallback;
  if (it != flags.end()) CHECK(ParseDouble(it->second, &v)) << key;
  return v;
}

std::string StrFlag(const Flags& flags, const std::string& key,
                    const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

StatusOr<ForecastTask> BuildTask(
    const Flags& flags, const ScaleConfig& scale) {
  ForecastTask task;
  std::string csv = StrFlag(flags, "csv", "");
  if (!csv.empty()) {
    CsvOptions csv_opts;
    csv_opts.adjacency_path = StrFlag(flags, "adjacency", "");
    StatusOr<CtsDataset> loaded = LoadCtsCsv(csv, csv_opts);
    if (!loaded.ok()) return loaded.status();
    task.data = std::make_shared<CtsDataset>(std::move(loaded).value());
  } else {
    std::string name = StrFlag(flags, "dataset", "");
    if (name.empty()) return Status::Error("need --dataset or --csv");
    StatusOr<CtsDatasetPtr> data = MakeSyntheticDataset(name, scale);
    if (!data.ok()) return data.status();
    task.data = std::move(data).value();
  }
  task.p = IntFlag(flags, "p", 12);
  task.q = IntFlag(flags, "q", 12);
  task.single_step = flags.count("single") > 0;
  if (task.num_windows() <= 0) {
    return Status::Error("dataset too short for P=" + std::to_string(task.p) +
                         " Q=" + std::to_string(task.q));
  }
  return task;
}

int Pretrain(const Flags& flags) {
  ScaleConfig scale = ScaleConfig::Bench();
  scale.num_source_tasks = IntFlag(flags, "tasks", scale.num_source_tasks);
  AutoCtsOptions options = AutoCtsOptions::ForScale(scale);
  options.checkpoint.dir = StrFlag(flags, "checkpoint-dir", "");
  options.checkpoint.resume = flags.count("resume") > 0;
  std::string ckpt = StrFlag(flags, "ckpt", "./autocts_cli");
  std::vector<ForecastTask> sources;
  Rng rng(static_cast<uint64_t>(IntFlag(flags, "seed", 97)));
  std::vector<std::string> names = SourceDatasetNames();
  for (int i = 0; i < scale.num_source_tasks; ++i) {
    const std::string& name = names[static_cast<size_t>(i) % names.size()];
    int p = i % 2 == 0 ? 12 : 48;
    sources.push_back(DeriveSubsetTask(MakeSyntheticDataset(name, scale).value(), p,
                                       p, false, &rng));
  }
  AutoCtsPlusPlus framework(options);
  std::cout << "pre-training on " << sources.size() << " source tasks...\n";
  StatusOr<PretrainReport> pretrained = framework.TryPretrain(sources);
  if (!pretrained.ok()) {
    std::cerr << "error: " << pretrained.status().message() << "\n";
    return 1;
  }
  const PretrainReport& report = pretrained.value();
  std::cout << "pairs trained: " << report.total_pairs_trained
            << ", final pairwise accuracy: " << report.final_accuracy << "\n";
  const RobustnessReport& rb = report.robustness;
  if (rb.resumed_samples > 0) {
    std::cout << "resumed " << rb.resumed_samples
              << " samples from checkpoint\n";
  }
  if (rb.nonfinite_events > 0) {
    std::cout << "guardrails: " << rb.nonfinite_events
              << " non-finite events, " << rb.retried_samples << " retried, "
              << rb.quarantined_samples << " quarantined\n";
    for (const std::string& reason : rb.quarantine_reasons) {
      std::cout << "  quarantined: " << reason << "\n";
    }
  }
  Status saved = framework.SaveCheckpoint(ckpt);
  if (!saved.ok()) {
    std::cerr << "error: " << saved.message() << "\n";
    return 1;
  }
  std::cout << "checkpoint written to " << ckpt << ".{encoder,tahc}\n";
  return 0;
}

int Search(const Flags& flags) {
  ScaleConfig scale = ScaleConfig::Bench();
  AutoCtsOptions options = AutoCtsOptions::ForScale(scale);
  options.search.top_k = IntFlag(flags, "topk", options.search.top_k);
  StatusOr<ForecastTask> task = BuildTask(flags, scale);
  if (!task.ok()) {
    std::cerr << "error: " << task.status().message() << "\n";
    return 1;
  }
  AutoCtsPlusPlus framework(options);
  std::string ckpt = StrFlag(flags, "ckpt", "./autocts_cli");
  Status loaded = framework.LoadCheckpoint(ckpt);
  if (!loaded.ok()) {
    std::cerr << "error: cannot load checkpoint " << ckpt << " ("
              << loaded.message() << "); run `autocts_cli pretrain` first\n";
    return 1;
  }
  std::cout << "searching for " << task.value().name() << "...\n";
  SearchOutcome outcome = framework.SearchAndTrain(task.value());
  std::cout << "best arch-hyper: " << outcome.best.Signature() << "\n"
            << "val MAE " << outcome.best_report.val.mae << " | test MAE "
            << outcome.best_report.test.mae << ", RMSE "
            << outcome.best_report.test.rmse << ", MAPE "
            << outcome.best_report.test.mape << "%\n"
            << "search " << outcome.embed_seconds + outcome.rank_seconds
            << "s, final training " << outcome.train_seconds << "s\n";
  return 0;
}

int Eval(const Flags& flags) {
  ScaleConfig scale = ScaleConfig::Bench();
  AutoCtsOptions options = AutoCtsOptions::ForScale(scale);
  StatusOr<ForecastTask> task = BuildTask(flags, scale);
  if (!task.ok()) {
    std::cerr << "error: " << task.status().message() << "\n";
    return 1;
  }
  StatusOr<ArchHyper> ah = ParseArchHyper(StrFlag(flags, "arch", ""));
  if (!ah.ok()) {
    std::cerr << "error: --arch: " << ah.status().message() << "\n";
    return 1;
  }
  ForecasterSpec spec = MakeForecasterSpec(task.value());
  auto model = BuildSearchedModel(ah.value(), spec, scale,
                                  static_cast<uint64_t>(IntFlag(flags, "seed", 7)));
  ModelTrainer trainer(task.value(), options.final_train);
  TrainReport report = trainer.Train(model.get());
  std::cout << "params: " << model->NumParameters() << "\n"
            << "test MAE " << report.test.mae << ", RMSE " << report.test.rmse
            << ", MAPE " << report.test.mape << "%, RRSE " << report.test.rrse
            << ", CORR " << report.test.corr << "\n";
  return 0;
}

volatile std::sig_atomic_t g_serve_interrupted = 0;

void ServeSignalHandler(int) { g_serve_interrupted = 1; }

/// Long-lived serving mode: pretrained checkpoint + RecommendationService +
/// embedded HTTP front end. Flags default from the process AUTOCTS_SERVE_*
/// environment knobs so `autocts_cli serve` alone honors the environment.
int Serve(const Flags& flags) {
  const RuntimeConfig& rc = GlobalRuntimeConfig();
  ScaleConfig scale = ScaleConfig::Bench();
  AutoCtsOptions options = AutoCtsOptions::ForScale(scale);
  AutoCtsPlusPlus framework(options);
  std::string ckpt = StrFlag(flags, "ckpt", "./autocts_cli");
  Status loaded = framework.LoadCheckpoint(ckpt);
  if (!loaded.ok()) {
    std::cerr << "error: cannot load checkpoint " << ckpt << " ("
              << loaded.message() << "); run `autocts_cli pretrain` first\n";
    return 1;
  }
  serve::ServeOptions serve_opts = serve::ServeOptions::ForScale(scale);
  serve_opts.workers = IntFlag(flags, "workers", rc.serve_workers);
  serve_opts.max_batch = IntFlag(flags, "max-batch", rc.serve_max_batch);
  serve_opts.max_delay_us =
      IntFlag(flags, "max-delay-us", rc.serve_max_delay_us);
  serve_opts.embed_cache_entries = static_cast<size_t>(IntFlag(
      flags, "embed-cache-entries",
      static_cast<int>(rc.serve_embed_cache_entries)));
  serve::RecommendationService service(framework.comparator(),
                                       framework.encoder(),
                                       &framework.space(), serve_opts);
  Status started = service.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started.message() << "\n";
    return 1;
  }
  serve::HttpOptions http_opts;
  http_opts.port = IntFlag(flags, "port", rc.serve_port);
  serve::HttpServer server(&service, http_opts);
  Status bound = server.Start();
  if (!bound.ok()) {
    std::cerr << "error: " << bound.message() << "\n";
    service.Shutdown();
    return 1;
  }
  std::cout << "serving on port " << server.port() << " ("
            << serve_opts.workers << " workers, max-batch "
            << serve_opts.max_batch << ", max-delay " << serve_opts.max_delay_us
            << "us, embed-cache " << serve_opts.embed_cache_entries
            << " entries); POST /recommend, GET /stats — Ctrl-C stops\n";
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (g_serve_interrupted == 0) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::cout << "\nshutting down (draining in-flight requests)...\n";
  server.Stop();
  service.Shutdown();
  ServeStats stats = service.stats();
  std::cout << "served " << stats.requests << " requests in " << stats.batches
            << " batches (mean batch " << stats.mean_batch_size()
            << ", embed-cache hit rate " << stats.embed_hit_rate() << ")\n";
  return 0;
}

/// `stream` subcommand: online forecasting under an injected fault
/// scenario. Seeds a streaming session from the head of the dataset, then
/// feeds the remainder tick by tick through a deterministic scenario
/// overlay (regime shift, sensor dropout, anomaly burst, concept drift, or
/// stationary), printing drift / hot-swap events as they land and the
/// online MAE before, during, and after recovery.
int Stream(const Flags& flags) {
  const RuntimeConfig& rc = GlobalRuntimeConfig();
  ScaleConfig scale = ScaleConfig::Bench();
  AutoCtsOptions options = AutoCtsOptions::ForScale(scale);
  StatusOr<ForecastTask> built = BuildTask(flags, scale);
  if (!built.ok()) {
    std::cerr << "error: " << built.status().message() << "\n";
    return 1;
  }
  const ForecastTask& task = built.value();
  const CtsDataset& data = *task.data;

  const int min_seed = task.p + task.q + 19;
  int seed_steps = IntFlag(flags, "seed-steps",
                           std::max(min_seed, data.num_steps() / 3));
  if (seed_steps < min_seed) seed_steps = min_seed;
  int ticks = IntFlag(flags, "ticks", data.num_steps() - seed_steps);
  ticks = std::min(ticks, data.num_steps() - seed_steps);
  if (ticks < 1) {
    std::cerr << "error: dataset too short: need seed-steps + ticks <= "
              << data.num_steps() << " steps\n";
    return 1;
  }

  const std::string scenario = StrFlag(flags, "scenario", "regime-shift");
  ScenarioSpec spec;
  if (scenario == "stationary") {
    spec.kind = ScenarioKind::kStationary;
  } else if (scenario == "regime-shift") {
    spec.kind = ScenarioKind::kRegimeShift;
  } else if (scenario == "dropout") {
    spec.kind = ScenarioKind::kSensorDropout;
  } else if (scenario == "anomaly") {
    spec.kind = ScenarioKind::kAnomalyBurst;
  } else if (scenario == "drift") {
    spec.kind = ScenarioKind::kConceptDrift;
  } else {
    std::cerr << "error: unknown --scenario '" << scenario
              << "' (stationary|regime-shift|dropout|anomaly|drift)\n";
    return 2;
  }
  spec.onset = IntFlag(flags, "onset", ticks / 3);
  spec.duration = IntFlag(flags, "duration", 0);
  spec.magnitude = static_cast<float>(DoubleFlag(flags, "magnitude", 3.0));
  spec.fraction = static_cast<float>(DoubleFlag(flags, "fraction", 0.3));
  spec.seed = static_cast<uint64_t>(IntFlag(flags, "seed", 1234));
  ScenarioData sc = ApplyScenario(
      std::make_shared<const CtsDataset>(
          data.TemporalSlice(seed_steps, ticks)),
      spec);

  AutoCtsPlusPlus framework(options);
  std::string ckpt = StrFlag(flags, "ckpt", "./autocts_cli");
  Status loaded = framework.LoadCheckpoint(ckpt);
  if (!loaded.ok()) {
    std::cerr << "error: cannot load checkpoint " << ckpt << " ("
              << loaded.message() << "); run `autocts_cli pretrain` first\n";
    return 1;
  }
  serve::ServeOptions serve_opts = serve::ServeOptions::ForScale(scale);
  serve::RecommendationService service(framework.comparator(),
                                       framework.encoder(),
                                       &framework.space(), serve_opts);
  Status started = service.Start();
  if (!started.ok()) {
    std::cerr << "error: " << started.message() << "\n";
    return 1;
  }

  CtsDataset seed_window = data.TemporalSlice(0, seed_steps);
  serve::RecommendRequest req;
  req.window = seed_window.values();
  req.num_series = data.num_series();
  req.num_steps = seed_steps;
  req.adjacency = seed_window.adjacency();
  req.p = task.p;
  req.q = task.q;
  req.single_step = task.single_step;

  stream::StreamOptions knobs = stream::StreamOptions::FromConfig(rc);
  knobs.warmup = IntFlag(flags, "warmup", knobs.warmup);
  knobs.ph_delta =
      static_cast<float>(DoubleFlag(flags, "ph-delta", knobs.ph_delta));
  knobs.ph_lambda =
      static_cast<float>(DoubleFlag(flags, "ph-lambda", knobs.ph_lambda));
  knobs.research_deadline =
      IntFlag(flags, "deadline", knobs.research_deadline);
  knobs.research_backoff = IntFlag(flags, "backoff", knobs.research_backoff);
  knobs.research_retries = IntFlag(flags, "retries", knobs.research_retries);
  knobs.research_delay = IntFlag(flags, "research-delay", knobs.research_delay);
  if (flags.count("no-recovery") > 0) knobs.recovery = false;

  std::cout << "opening stream (seed window " << seed_steps << " steps, "
            << ticks << " live ticks, scenario " << scenario << " @ tick "
            << spec.onset << ")...\n";
  StatusOr<uint64_t> session = service.StreamOpen(req, knobs);
  if (!session.ok()) {
    std::cerr << "error: " << session.status().message() << "\n";
    service.Shutdown();
    return 1;
  }

  const int n = data.num_series();
  std::vector<float> tick(static_cast<size_t>(n));
  std::vector<uint8_t> miss(static_cast<size_t>(n));
  const CtsDataset& observed = *sc.observed;
  double pre_sum = 0.0, during_sum = 0.0, post_sum = 0.0;
  int pre_count = 0, during_count = 0, post_count = 0;
  int first_swap_tick = -1;
  for (int t = 0; t < ticks; ++t) {
    bool any_missing = false;
    for (int s = 0; s < n; ++s) {
      tick[static_cast<size_t>(s)] = observed.value(s, t, 0);
      const bool m =
          sc.missing[static_cast<size_t>(s) * ticks + t] != 0;
      miss[static_cast<size_t>(s)] = m ? 1 : 0;
      any_missing = any_missing || m;
    }
    StatusOr<stream::TickResult> pushed = service.StreamPush(
        session.value(), tick,
        any_missing ? miss : std::vector<uint8_t>{});
    if (!pushed.ok()) {
      std::cerr << "error: " << pushed.status().message() << "\n";
      service.Shutdown();
      return 1;
    }
    const stream::TickResult& r = pushed.value();
    if (r.drift) {
      std::cout << "tick " << t << ": drift detected (online MAE "
                << r.recent_mae << ")\n";
    }
    if (r.swapped) {
      std::cout << "tick " << t << ": model hot-swapped (generation "
                << r.generation << ")\n";
      // Segment on the first swap at or after the scenario onset; a swap
      // triggered by pre-onset noise is printed but doesn't count as the
      // recovery from the injected fault.
      if (first_swap_tick < 0 && t >= spec.onset) first_swap_tick = t;
    }
    if (!r.scored) continue;
    if (t < spec.onset) {
      pre_sum += r.error;
      ++pre_count;
    } else if (first_swap_tick < 0) {
      during_sum += r.error;
      ++during_count;
    } else {
      post_sum += r.error;
      ++post_count;
    }
  }

  StatusOr<stream::StreamEngineStats> st =
      service.StreamStats(session.value());
  std::cout << "online MAE: pre-onset "
            << (pre_count > 0 ? pre_sum / pre_count : 0.0) << " ("
            << pre_count << " ticks), degraded "
            << (during_count > 0 ? during_sum / during_count : 0.0) << " ("
            << during_count << " ticks), post-recovery "
            << (post_count > 0 ? post_sum / post_count : 0.0) << " ("
            << post_count << " ticks)\n";
  if (first_swap_tick >= 0) {
    std::cout << "recovery latency: " << first_swap_tick - spec.onset
              << " ticks after onset\n";
  }
  if (st.ok()) {
    const stream::StreamEngineStats& e = st.value();
    std::cout << "drifts " << e.drifts << ", re-searches "
              << e.research_launched << " (" << e.research_failures
              << " failed, " << e.swap_stalls << " stalled), swaps "
              << e.swaps << ", imputed points " << e.imputed_points << "\n";
  }
  service.StreamClose(session.value());
  service.Shutdown();
  return 0;
}

int Info(const Flags&) {
  JointSearchSpace space;
  std::cout << "joint search space: 10^" << space.Log10Size()
            << " arch-hypers\n";
  std::cout << "operators:";
  for (int o = 0; o < kNumOpTypes; ++o) {
    std::cout << " " << OpName(static_cast<OpType>(o));
  }
  std::cout << "\nsynthetic datasets:\n  sources:";
  for (const auto& n : SourceDatasetNames()) std::cout << " " << n;
  std::cout << "\n  targets:";
  for (const auto& n : TargetDatasetNames()) std::cout << " " << n;
  std::cout << "\n";
  return 0;
}

/// `bank` subcommand: open a sample bank read-only (no config-hash gate —
/// inspection must work on any bank), print its inventory, and CRC-verify
/// every frame. Returns non-zero when the bank cannot be opened or any
/// section fails verification.
int BankInspect(const Flags& flags) {
  const std::string path = StrFlag(flags, "path", "");
  if (path.empty()) {
    std::cerr << "usage: autocts_cli bank --path <dir>/pipeline.bank\n";
    return 2;
  }
  StatusOr<std::unique_ptr<SampleBank>> opened =
      SampleBank::Open(path, std::nullopt, SampleBank::Mode::kReadOnly);
  if (!opened.ok()) {
    std::cerr << "error: " << opened.status().message() << "\n";
    return 1;
  }
  const SampleBank& bank = *opened.value();

  struct TaskTally {
    int records = 0;
    int quarantined = 0;
    int retried = 0;
    int sections = 0;
  };
  std::map<int, TaskTally> tallies;
  for (const BankRecord& r : bank.records()) {
    TaskTally& t = tallies[r.task];
    ++t.records;
    if (r.quarantined) ++t.quarantined;
    if (r.retries > 0) ++t.retried;
  }
  uint64_t section_floats = 0;
  for (const BankSection& s : bank.sections()) {
    ++tallies[s.task].sections;
    section_floats += s.float_count;
  }
  Status verified = bank.VerifyAll();

  if (flags.count("json") > 0) {
    JsonWriter w;
    w.BeginObject();
    w.Field("path", bank.path());
    w.Field("config_hash", bank.config_hash());
    w.Field("bytes", bank.size());
    w.Field("records", static_cast<uint64_t>(bank.records().size()));
    w.Field("sections", static_cast<uint64_t>(bank.sections().size()));
    w.Field("section_floats", section_floats);
    w.Field("verified", verified.ok());
    if (!verified.ok()) w.Field("error", verified.message());
    w.Key("tasks");
    w.BeginArray();
    for (const auto& [task, t] : tallies) {
      w.BeginObject();
      w.Field("task", task);
      w.Field("records", t.records);
      w.Field("sections", t.sections);
      w.Field("quarantined", t.quarantined);
      w.Field("retried", t.retried);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "sample bank " << bank.path() << "\n"
              << "  config hash   " << bank.config_hash() << "\n"
              << "  bytes         " << bank.size() << "\n"
              << "  records       " << bank.records().size() << "\n"
              << "  sections      " << bank.sections().size() << " ("
              << section_floats << " floats)\n";
    for (const auto& [task, t] : tallies) {
      std::cout << "  task " << task << ": " << t.records << " records, "
                << t.sections << " sections, " << t.quarantined
                << " quarantined, " << t.retried << " retried\n";
    }
    if (verified.ok()) {
      std::cout << "  verify        OK (every frame CRC checked)\n";
    } else {
      std::cout << "  verify        FAILED: " << verified.message() << "\n";
    }
  }
  return verified.ok() ? 0 : 1;
}

/// Dumps the startup RuntimeConfig plus the backend dispatch resolution
/// (active + available) as one JSON object — the debugging entry point for
/// "which knobs is this process actually running with?".
int PrintConfig(const Flags&) {
  JsonWriter w;
  w.BeginObject();
  w.Key("config");
  w.Raw(GlobalRuntimeConfig().ToJson());
  w.Field("active_backend", std::string(kernels::ActiveBackend().name));
  w.Key("available_backends");
  w.BeginArray();
  for (const kernels::Backend* b : kernels::AvailableBackends()) {
    w.Value(b->name);
  }
  w.EndArray();
  w.EndObject();
  std::cout << w.str() << "\n";
  return 0;
}

/// Dumps the process counter families (kernel dispatch, serve, fault
/// tolerance) as one JSON object — print-config's sibling: config is
/// what the process was told, stats is what it did.
int PrintStats(const Flags&) {
  std::cout << RuntimeStats::Snapshot().ToJson() << "\n";
  return 0;
}

/// A subcommand and the flags it reads.
struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  using K = FlagKind;
  // BuildTask's flags, shared by every subcommand that takes a dataset.
  auto with_task = [](std::vector<FlagSpec> own) {
    own.insert(own.end(), {{"csv", K::kString},
                           {"adjacency", K::kString},
                           {"dataset", K::kString},
                           {"p", K::kInt},
                           {"q", K::kInt},
                           {"single", K::kBool}});
    return own;
  };
  static const std::vector<Command> commands = {
      {"pretrain",
       {{"ckpt", K::kString},
        {"tasks", K::kInt},
        {"checkpoint-dir", K::kString},
        {"resume", K::kBool},
        {"seed", K::kInt}},
       Pretrain},
      {"search", with_task({{"ckpt", K::kString}, {"topk", K::kInt}}), Search},
      {"eval", with_task({{"arch", K::kString}, {"seed", K::kInt}}), Eval},
      {"serve",
       {{"ckpt", K::kString},
        {"port", K::kInt},
        {"workers", K::kInt},
        {"max-batch", K::kInt},
        {"max-delay-us", K::kInt},
        {"embed-cache-entries", K::kInt}},
       Serve},
      {"stream",
       with_task({{"ckpt", K::kString},
                  {"scenario", K::kString},
                  {"seed-steps", K::kInt},
                  {"ticks", K::kInt},
                  {"onset", K::kInt},
                  {"duration", K::kInt},
                  {"magnitude", K::kDouble},
                  {"fraction", K::kDouble},
                  {"seed", K::kInt},
                  {"warmup", K::kInt},
                  {"ph-delta", K::kDouble},
                  {"ph-lambda", K::kDouble},
                  {"deadline", K::kInt},
                  {"backoff", K::kInt},
                  {"retries", K::kInt},
                  {"research-delay", K::kInt},
                  {"no-recovery", K::kBool}}),
       Stream},
      {"bank", {{"path", K::kString}, {"json", K::kBool}}, BankInspect},
      {"info", {}, Info},
      {"print-config", {}, PrintConfig},
      {"--print-config", {}, PrintConfig},
      {"stats", {}, PrintStats},
  };
  return commands;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: autocts_cli "
                 "{pretrain|search|eval|serve|stream|bank|info|print-config"
                 "|stats} [--flags]\n"
                 "see the header of examples/autocts_cli.cpp for details\n";
    return 2;
  }
  const std::string command = argv[1];
  for (const Command& c : Commands()) {
    if (command != c.name) continue;
    Flags flags;
    const Status parsed = ParseFlags(argc, argv, 2, c.flags, &flags);
    if (!parsed.ok()) {
      std::cerr << "error: " << command << ": " << parsed.message() << "\n";
      return 2;
    }
    return c.run(flags);
  }
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}

}  // namespace
}  // namespace autocts

int main(int argc, char** argv) { return autocts::Main(argc, argv); }
