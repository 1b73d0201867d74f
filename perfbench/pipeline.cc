// The pipeline group: pre-training (TS2Vec, early-validation sample
// collection, T-AHC) and zero-shot search (embed, rank, top-K train) on
// unseen targets, in the paper's own cost units.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>

#include "core/autocts.h"
#include "data/synthetic.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using autocts::AutoCtsOptions;
using autocts::AutoCtsPlusPlus;
using autocts::ArchHyper;
using autocts::CtsDataset;
using autocts::CtsDatasetPtr;
using autocts::ForecastTask;
using autocts::ScaleConfig;

struct TargetSpec {
  const char* dataset;
  int p;
};

struct PipelineSize {
  ScaleConfig scale;
  std::vector<TargetSpec> targets;
};

PipelineSize SizeFor(bool full) {
  PipelineSize s;
  if (full) {
    s.scale = ScaleConfig::Bench();
    s.scale.num_sensors = 6;
    s.scale.num_steps = 400;
    s.scale.samples_per_task = 4;
    s.scale.num_source_tasks = 8;
    // One early-validation epoch per sample and two epochs per top-K
    // candidate keep one pipeline run under a minute at kLanes lanes of a
    // 4-core host.
    s.scale.early_validation_epochs = 1;
    s.scale.train_epochs = 2;
    s.targets = {{"PEMS-BAY", 12},
                 {"Electricity", 12},
                 {"NYC-TAXI", 12},
                 {"Los-Loop", 24}};
  } else {
    s.scale = ScaleConfig::Test();
    s.targets = {{"PEMS-BAY", 12}};
  }
  return s;
}

/// The named synthetic dataset with its generator seed mixed with the
/// workload seed: same geometry and flavour, different content per seed.
CtsDatasetPtr SeededDataset(const std::string& name, const ScaleConfig& scale,
                            uint64_t seed) {
  autocts::DatasetProfile profile = autocts::ProfileFor(name, scale).value();
  profile.seed = Mix(profile.seed, seed);
  return autocts::GenerateSynthetic(profile);
}

/// Source tasks in the P-12/P-48 mix of the paper's pre-training corpus
/// (even tasks P-12, odd P-48), each a contiguous slice of a sensor subset
/// of a source dataset. The seed picks the content, the slice offset and the
/// sensors; the geometry is fixed (P-12 slices keep 3/4 of the steps, P-48
/// all of them; N/2+1 sensors), so the work per run does not depend on it.
std::vector<ForecastTask> SourceTasks(const ScaleConfig& scale, uint64_t seed,
                                      Digest* digest) {
  autocts::Rng rng(Mix(seed, 0x50c));
  const std::vector<std::string> names = autocts::SourceDatasetNames();
  std::vector<ForecastTask> tasks;
  for (int i = 0; i < scale.num_source_tasks; ++i) {
    const CtsDatasetPtr source = SeededDataset(
        names[static_cast<size_t>(i) % names.size()], scale,
        Mix(seed, static_cast<uint64_t>(i)));
    const int p = i % 2 == 0 ? 12 : 48;
    const int len = p == 12 ? source->num_steps() * 3 / 4 : source->num_steps();
    const int t0 = rng.Int(0, source->num_steps() - len);
    std::vector<int> sensors(static_cast<size_t>(source->num_series()));
    std::iota(sensors.begin(), sensors.end(), 0);
    rng.Shuffle(&sensors);
    sensors.resize(static_cast<size_t>(source->num_series() / 2 + 1));
    std::sort(sensors.begin(), sensors.end());
    ForecastTask task;
    task.data = std::make_shared<CtsDataset>(
        source->TemporalSlice(t0, len).SelectSensors(sensors));
    task.p = p;
    task.q = p;
    digest->Add(task.data->values().data(), task.data->values().size());
    tasks.push_back(std::move(task));
  }
  return tasks;
}

/// Unseen targets with the Table 3 split ratios.
std::vector<ForecastTask> TargetTasks(const PipelineSize& size, uint64_t seed,
                                      Digest* digest) {
  std::vector<ForecastTask> tasks;
  for (size_t k = 0; k < size.targets.size(); ++k) {
    const std::string name = size.targets[k].dataset;
    ForecastTask task;
    task.data = SeededDataset(name, size.scale, Mix(seed, 100 + k));
    task.p = size.targets[k].p;
    task.q = size.targets[k].p;
    const bool six_two_two = name == "PEMSD7M" || name == "NYC-TAXI" ||
                             name == "NYC-BIKE";
    task.train_ratio = six_two_two ? 0.6 : 0.7;
    task.val_ratio = six_two_two ? 0.2 : 0.1;
    digest->Add(task.data->values().data(), task.data->values().size());
    tasks.push_back(std::move(task));
  }
  return tasks;
}

/// The search seed AutoCtsPlusPlus::RankTopK derives per task: the options
/// seed with the FNV-1a of the task label folded in.
autocts::SearchOptions TaskSearchOptions(autocts::SearchOptions search,
                                         const ForecastTask& task) {
  uint64_t h = 1469598103934665603ull;
  for (char c : task.name()) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  search.seed ^= h;
  return search;
}

bool SameParameters(const autocts::Module& a, const autocts::Module& b) {
  const std::vector<autocts::Tensor> pa = a.Parameters();
  const std::vector<autocts::Tensor> pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].numel() != pb[i].numel() ||
        std::memcmp(pa[i].data().data(), pb[i].data().data(),
                    static_cast<size_t>(pa[i].numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

std::vector<std::string> Signatures(const std::vector<ArchHyper>& top) {
  std::vector<std::string> out;
  for (const ArchHyper& ah : top) out.push_back(ah.Signature());
  return out;
}

/// One search outcome of the untimed-API run, kept to cross-check the
/// traced replica.
struct SearchRecord {
  std::vector<std::string> top;
  double test_mae = 0.0;
  double seconds = 0.0;
};

struct UntracedRun {
  double pretrain_s = 0.0;
  double final_accuracy = 0.0;
  std::vector<SearchRecord> searches;
  double checkpoint_bytes = 0.0;
};

/// The measured run through the public one-call APIs: TryPretrain with a
/// checkpoint directory, then RankTopK + TrainTopKAndSelect per target.
/// The resume check afterwards is untimed.
UntracedRun RunUntraced(const AutoCtsOptions& options,
                        const std::vector<ForecastTask>& sources,
                        const std::vector<ForecastTask>& targets,
                        Tally* tally) {
  UntracedRun run;
  AutoCtsPlusPlus framework(options);
  const Clock::time_point t0 = Clock::now();
  autocts::StatusOr<autocts::PretrainReport> report =
      framework.TryPretrain(sources);
  run.pretrain_s = SecondsSince(t0);
  if (!report.ok()) {
    tally->Op(false, "TryPretrain: " + report.status().message());
    return run;
  }
  run.final_accuracy = report.value().final_accuracy;
  tally->Op(std::isfinite(run.final_accuracy) && run.final_accuracy > 0.0 &&
                run.final_accuracy <= 1.0,
            "TryPretrain: pair accuracy out of range");
  run.checkpoint_bytes = DirectoryBytes(options.checkpoint.dir);

  for (size_t k = 0; k < targets.size(); ++k) {
    const Clock::time_point s0 = Clock::now();
    const std::vector<ArchHyper> top = framework.RankTopK(targets[k]);
    const autocts::SearchOutcome outcome = autocts::TrainTopKAndSelect(
        top, targets[k], options.final_train, options.scale,
        framework.exec_context().WithSeed(Mix(options.seed, k)));
    SearchRecord rec;
    rec.seconds = SecondsSince(s0);
    rec.top = Signatures(top);
    rec.test_mae = outcome.best_report.test.mae;
    tally->Op(static_cast<int>(top.size()) == options.search.top_k &&
                  !outcome.best_report.diverged() &&
                  std::isfinite(rec.test_mae) && rec.test_mae > 0.0,
              "search on " + targets[k].name());
    run.searches.push_back(std::move(rec));
  }

  // Resume from the run's checkpoint directory: reads the sample bank back
  // through the mmap path; the restored parameters must be the trained
  // ones, byte for byte.
  AutoCtsOptions resume_options = options;
  resume_options.checkpoint.resume = true;
  AutoCtsPlusPlus resumed(resume_options);
  autocts::StatusOr<autocts::PretrainReport> again =
      resumed.TryPretrain(sources);
  tally->Op(again.ok() &&
                SameParameters(*resumed.comparator(), *framework.comparator()) &&
                SameParameters(*resumed.encoder(), *framework.encoder()),
            again.ok() ? "resume: restored parameters differ"
                       : "resume: " + again.status().message());
  return run;
}

/// The traced run: the same work as RunUntraced, but through the stage
/// functions TryPretrain and RankTopK call, each timed from outside. A
/// private Rng mirrors the framework's own stream (constructor draws, then
/// TS2Vec pre-training, then one preliminary embedding per target), so the
/// replica must reproduce the untraced accuracy, top-K lists and MAEs.
void RunTraced(const AutoCtsOptions& untraced_options,
               const std::vector<ForecastTask>& sources,
               const std::vector<ForecastTask>& targets,
               const UntracedRun& untraced, Tally* tally, Metrics* layers) {
  AutoCtsOptions options = untraced_options;
  options.checkpoint = {};
  AutoCtsPlusPlus framework(options);
  autocts::Rng rng(options.seed);
  {
    autocts::Ts2Vec mirror(1, options.ts2vec, &rng);
    (void)rng.Fork();
  }
  const autocts::ExecContext ctx = framework.exec_context();
  autocts::ExecScope scope(ctx);
  auto* ts2vec = dynamic_cast<autocts::Ts2Vec*>(framework.encoder());
  CHECK(ts2vec != nullptr);

  const Clock::time_point wall0 = Clock::now();
  CounterDelta counters;
  std::vector<CtsDatasetPtr> corpora;
  for (const ForecastTask& t : sources) corpora.push_back(t.data);
  Clock::time_point t = Clock::now();
  autocts::PretrainTs2Vec(ts2vec, corpora, options.ts2vec_pretrain, &rng);
  const double ts2vec_s = SecondsSince(t);

  t = Clock::now();
  autocts::CollectPlan plan = autocts::PlanCollectSamples(
      sources, framework.space(), *framework.encoder(), options.scale,
      options.collect, ctx);
  const double plan_s = SecondsSince(t);

  t = Clock::now();
  double cpu = ProcessCpuSeconds();
  autocts::TrainPlannedSamples(&plan, 0,
                               static_cast<int64_t>(plan.pending.size()), ctx);
  const double collect_s = SecondsSince(t);
  double busy_cpu = ProcessCpuSeconds() - cpu;

  t = Clock::now();
  const autocts::PretrainReport report = autocts::PretrainComparator(
      framework.comparator(), plan.sets, options.pretrain, ctx);
  const double tahc_s = SecondsSince(t);
  tally->Op(report.final_accuracy == untraced.final_accuracy,
            "traced pretrain accuracy differs from TryPretrain");

  std::vector<double> embed_s, rank_s, topk_s;
  for (size_t k = 0; k < targets.size(); ++k) {
    t = Clock::now();
    const autocts::Tensor preliminary = autocts::PreliminaryTaskEmbedding(
        *framework.encoder(), targets[k], options.collect.windows_per_task,
        &rng);
    const autocts::Tensor task_embed =
        framework.comparator()->EmbedTask(preliminary).Detach();
    embed_s.push_back(SecondsSince(t));

    t = Clock::now();
    autocts::EvolutionarySearcher searcher(framework.comparator(),
                                           &framework.space(), ctx);
    const std::vector<ArchHyper> top = searcher.SearchTopK(
        task_embed, TaskSearchOptions(options.search, targets[k]));
    rank_s.push_back(SecondsSince(t));

    t = Clock::now();
    cpu = ProcessCpuSeconds();
    const autocts::SearchOutcome outcome = autocts::TrainTopKAndSelect(
        top, targets[k], options.final_train, options.scale,
        ctx.WithSeed(Mix(options.seed, k)));
    topk_s.push_back(SecondsSince(t));
    busy_cpu += ProcessCpuSeconds() - cpu;
    const bool same = k < untraced.searches.size() &&
                      Signatures(top) == untraced.searches[k].top &&
                      outcome.best_report.test.mae ==
                          untraced.searches[k].test_mae;
    tally->Op(same, "traced search differs on " + targets[k].name());
  }
  const double traced_wall = SecondsSince(wall0);
  counters.Report(static_cast<double>(targets.size()), layers);

  const autocts::RobustnessReport scan = autocts::ScanSampleBank(plan.sets);
  const double n = static_cast<double>(targets.size());
  std::vector<double> untraced_per_target;
  for (const SearchRecord& r : untraced.searches) {
    untraced_per_target.push_back(r.seconds);
  }
  const double untraced_search = Mean(untraced_per_target);
  const double stage_sum = ts2vec_s + plan_s + collect_s + tahc_s;
  const double search_sum = Mean(embed_s) + Mean(rank_s) + Mean(topk_s);
  layers->Set("core.pretrain_other_s", untraced.pretrain_s - stage_sum, "s");
  layers->Set("core.search_other_s", untraced_search - search_sum, "s");
  layers->Set("core.checkpoint_bytes", untraced.checkpoint_bytes, "bytes");
  layers->Set("embedding.ts2vec_pretrain_s", ts2vec_s, "s");
  layers->Set("embedding.embed_task_ms", Mean(embed_s) * 1e3, "ms");
  layers->Set("comparator.collect_plan_s", plan_s, "s");
  layers->Set("comparator.tahc_train_s", tahc_s, "s");
  layers->Set("comparator.tahc_pairs", report.total_pairs_trained, "count");
  layers->Set("model.collect_train_s", collect_s, "s");
  layers->Set("model.collect_samples", static_cast<double>(plan.pending.size()),
              "count");
  layers->Set("model.collect_retried", scan.retried_samples, "count");
  layers->Set("model.collect_quarantined", scan.quarantined_samples, "count");
  layers->Set("model.topk_train_s", Mean(topk_s), "s");
  layers->Set("search.rank_ms", Mean(rank_s) * 1e3, "ms");
  layers->Set("common.lane_util",
              busy_cpu / ((collect_s + n * Mean(topk_s)) * kLanes), "ratio");

  // The op is the whole pipeline: pre-training plus every target's search.
  const double e2e = untraced.pretrain_s + n * untraced_search;
  const double attributed = stage_sum + n * search_sum;
  layers->Set("trace.e2e_ms", e2e * 1e3, "ms");
  layers->Set("trace.attributed_ms", attributed * 1e3, "ms");
  layers->Set("trace.remainder_ms", (e2e - attributed) * 1e3, "ms");
  layers->Set("trace.overhead_ms", (traced_wall - e2e) * 1e3, "ms");

  // Duel cost of the trained comparator at the search's batch size.
  const autocts::Tensor probe_embed =
      framework.comparator()
          ->EmbedTask(autocts::PreliminaryTaskEmbedding(
              *framework.encoder(), targets[0],
              options.collect.windows_per_task, &rng))
          .Detach();
  layers->Set("comparator.compare_logits_us",
              CompareLogitsMicros(*framework.comparator(), framework.space(),
                                  probe_embed, options.search.compare_batch,
                                  Mix(options.seed, 77)),
              "us");
}

}  // namespace

ScaleConfig PipelineScale() { return SizeFor(true).scale; }

void RunPipeline(const RunConfig& config, bool native, GroupResult* out) {
  const PipelineSize size = SizeFor(native && !config.tiny);
  const std::string ckpt_dir = config.work_dir + "/pipeline-ckpt";

  // Set-up: the generated inputs and the framework options. It takes a few
  // milliseconds, so the workload repeats it 1000 times and keeps the
  // median. A single set-up runs at one of two speeds about a third apart,
  // in spells set by the host that last from tens of milliseconds to
  // seconds; 25 repetitions fell inside one spell, and their median moved
  // with it. A probe reports no set-up time and sets up once.
  std::vector<ForecastTask> sources, targets;
  AutoCtsOptions options;
  std::vector<double> setups;
  const int setup_reps = native ? 1000 : 1;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Digest digest;
    sources = SourceTasks(size.scale, kCorpusSeed, &digest);
    targets = TargetTasks(size, kCorpusSeed, &digest);
    options = AutoCtsOptions::ForScale(size.scale);
    options.collect.train.batches_per_epoch = 5;
    options.num_threads = kLanes;
    options.checkpoint.dir = ckpt_dir;
    AutoCtsPlusPlus warm(options);  // Pool start-up and weight init.
    setups.push_back(SecondsSince(t0));
    out->digest = digest;
  }
  out->setup_s = Median(setups);

  // The probe is short, so it runs three times and keeps the quickest; its
  // exact figures must agree across the repetitions.
  const bool full = native && !config.tiny;
  UntracedRun run;
  std::vector<double> pretrain_s, search_s;
  std::error_code ec;
  for (int rep = 0; rep < (full ? 1 : 3); ++rep) {
    std::filesystem::remove_all(ckpt_dir, ec);
    std::filesystem::create_directories(ckpt_dir, ec);
    const double cpu0 = ProcessCpuSeconds();
    UntracedRun again = RunUntraced(options, sources, targets, &out->tally);
    out->cpu_s = ProcessCpuSeconds() - cpu0;
    std::vector<double> per_target;
    for (const SearchRecord& r : again.searches) per_target.push_back(r.seconds);
    pretrain_s.push_back(again.pretrain_s);
    search_s.push_back(Mean(per_target));
    if (rep > 0) {
      bool same = again.final_accuracy == run.final_accuracy &&
                  again.searches.size() == run.searches.size();
      for (size_t k = 0; same && k < run.searches.size(); ++k) {
        same = again.searches[k].top == run.searches[k].top &&
               again.searches[k].test_mae == run.searches[k].test_mae;
      }
      out->tally.Op(same, "pipeline repetition differs");
    }
    run = std::move(again);
  }

  double mae = 0.0;
  for (const SearchRecord& r : run.searches) mae += r.test_mae;
  out->e2e.Set("pretrain_s",
               *std::min_element(pretrain_s.begin(), pretrain_s.end()), "s");
  out->e2e.Set("search_s", *std::min_element(search_s.begin(), search_s.end()),
               "s");
  out->e2e.Set("tahc_pair_acc", run.final_accuracy, "ratio");
  out->e2e.Set("search_test_mae",
               run.searches.empty()
                   ? 0.0
                   : mae / static_cast<double>(run.searches.size()),
               "raw");

  if (config.trace && native) {
    RunTraced(options, sources, targets, run, &out->tally, &out->layers);
  }
  std::filesystem::remove_all(ckpt_dir, ec);
}

}  // namespace perfbench
