#ifndef REPRO_CORE_AUTOCTS_H_
#define REPRO_CORE_AUTOCTS_H_

#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/scale_config.h"
#include "comparator/pretrain.h"
#include "core/checkpoint.h"
#include "nn/serialize.h"
#include "search/evolutionary.h"

namespace autocts {

/// Everything configurable about the framework, with scaled defaults that
/// mirror the paper's setup (§4.1.4).
struct AutoCtsOptions {
  ScaleConfig scale;
  Ts2Vec::Options ts2vec;
  Ts2VecPretrainOptions ts2vec_pretrain;
  Comparator::Options comparator;
  SampleCollectionOptions collect;
  PretrainOptions pretrain;
  SearchOptions search;
  /// Full training of the final top-K candidates.
  TrainOptions final_train;
  /// Ablation (§4.2.3, "w/o TS2Vec"): encode tasks with a plain MLP.
  bool use_mlp_encoder = false;
  /// Pipeline checkpoint/resume (see PipelineCheckpoint). Off by default.
  CheckpointOptions checkpoint;
  uint64_t seed = 1234;
  /// Execution lanes for tensor kernels and coarse-grained phases (sample
  /// collection, ranking, top-K training). `<= 0` means hardware
  /// concurrency; `1` reproduces the single-threaded behavior bit-for-bit
  /// — and so does every other value, by the determinism contract in
  /// DESIGN.md "Threading model & determinism".
  int num_threads = 0;

  /// Defaults consistent across sub-configs for a given scale preset.
  static AutoCtsOptions ForScale(const ScaleConfig& scale);
};

/// Outcome of one search-and-train run on a task.
struct SearchOutcome {
  std::vector<ArchHyper> top_k;   ///< Ranked candidates, best-ranked first.
  ArchHyper best;                 ///< Winner by validation accuracy.
  TrainReport best_report;        ///< Val/test metrics of the winner.
  double embed_seconds = 0.0;     ///< Task-embedding phase (Fig. 7).
  double rank_seconds = 0.0;      ///< Ranking/evolution phase (Fig. 7).
  double train_seconds = 0.0;     ///< Final top-K training phase (Fig. 7).
  /// What the guardrails absorbed during this search: non-finite
  /// comparator logits and diverged final-candidate trainings.
  RobustnessReport robustness;
};

/// AutoCTS++: zero-shot joint neural architecture and hyperparameter
/// search. Pre-train T-AHC once on a collection of source tasks; then any
/// unseen task costs only minutes (embedding + comparator-guided ranking +
/// training of the few top-ranked candidates).
class AutoCtsPlusPlus {
 public:
  explicit AutoCtsPlusPlus(const AutoCtsOptions& options);

  /// Pre-trains the TS2Vec encoder (contrastive) and T-AHC (Alg. 1) on the
  /// source tasks. Must be called once before any search. CHECK-fails on
  /// checkpoint errors; prefer TryPretrain when options_.checkpoint is set.
  PretrainReport Pretrain(const std::vector<ForecastTask>& source_tasks);

  /// Status-returning Pretrain. When `options().checkpoint.dir` is set, the
  /// three pipeline stages (TS2Vec, sample collection, T-AHC) persist their
  /// progress there after every completed unit of work; with
  /// `checkpoint.resume` also set, completed work is restored instead of
  /// recomputed and the run continues from the first unfinished sample.
  /// The resumed run is bit-identical to an uninterrupted one: same sample
  /// bank, same parameters, same downstream search results, at any thread
  /// count (see DESIGN.md "Fault tolerance & checkpointing"). Errors only
  /// on unusable checkpoints (corrupt manifest, config drift, unreadable
  /// parameter files) — checkpoint *write* failures degrade to counters in
  /// the report's RobustnessReport.
  StatusOr<PretrainReport> TryPretrain(
      const std::vector<ForecastTask>& source_tasks);

  /// Re-trains T-AHC on the union of the previously collected samples and
  /// `extra` — the sample-reuse workflow of paper §3.1.1 ("the samples
  /// collected before can be reused when retraining T-AHC", e.g. after
  /// extending the operator set or adding source tasks). Requires a prior
  /// Pretrain() in this process (loaded checkpoints carry no sample bank).
  PretrainReport RetrainWithSamples(std::vector<TaskSampleSet> extra);

  /// The labeled sample bank from the last Pretrain() call.
  const std::vector<TaskSampleSet>& collected_samples() const {
    return collected_;
  }

  /// Zero-shot search on an unseen task (Alg. 2) followed by full training
  /// of the top-K candidates; returns the validation winner.
  SearchOutcome SearchAndTrain(const ForecastTask& task);

  /// Task vector E' of an unseen task (embedding phase only).
  Tensor EmbedTask(const ForecastTask& task);

  /// Ranking phase only: top-K arch-hypers without training them.
  std::vector<ArchHyper> RankTopK(const ForecastTask& task);
  std::vector<ArchHyper> RankTopK(const ForecastTask& task,
                                  const SearchOptions& search);

  /// Persists the pre-trained encoder + T-AHC parameters; LoadCheckpoint
  /// restores them into an identically configured instance and marks it
  /// pretrained. Lets one pre-training run serve many search sessions.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

  Comparator* comparator() { return comparator_.get(); }
  TaskEncoder* encoder() { return encoder_.get(); }
  const JointSearchSpace& space() const { return space_; }
  const AutoCtsOptions& options() const { return options_; }
  bool pretrained() const { return pretrained_; }
  /// The execution context (pool + base seed) this instance runs on.
  ExecContext exec_context() const { return ExecContext{pool_.get(), options_.seed}; }

 private:
  AutoCtsOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< Sized from options_.num_threads.
  Rng rng_;
  JointSearchSpace space_;
  std::unique_ptr<TaskEncoder> encoder_;
  std::unique_ptr<Comparator> comparator_;
  std::vector<TaskSampleSet> collected_;
  bool pretrained_ = false;
};

/// AutoCTS+ (the SIGMOD 2023 preliminary system): fully-supervised joint
/// search for a single given task — collects (ah, R') samples on that very
/// task, trains a task-blind AHC on them, and searches. No transfer.
class AutoCtsPlus {
 public:
  explicit AutoCtsPlus(const AutoCtsOptions& options);

  SearchOutcome SearchAndTrain(const ForecastTask& task);

 private:
  AutoCtsOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  JointSearchSpace space_;
};

/// Trains every candidate in `top_k` fully on the task and returns the
/// outcome with the validation winner. Shared by both frameworks and the
/// benchmark harnesses. Candidates train concurrently on `ctx`'s pool
/// (model seeds derive from `ctx.seed` by candidate index, so the outcome
/// is identical for any pool size); the winner is picked serially with
/// first-wins tie-breaking.
SearchOutcome TrainTopKAndSelect(const std::vector<ArchHyper>& top_k,
                                 const ForecastTask& task,
                                 const TrainOptions& train,
                                 const ScaleConfig& scale,
                                 const ExecContext& ctx);

}  // namespace autocts

#endif  // REPRO_CORE_AUTOCTS_H_
