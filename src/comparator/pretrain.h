#ifndef REPRO_COMPARATOR_PRETRAIN_H_
#define REPRO_COMPARATOR_PRETRAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/guard.h"
#include "common/parallel.h"
#include "common/scale_config.h"
#include "comparator/comparator.h"
#include "data/task.h"
#include "embedding/ts2vec.h"
#include "model/trainer.h"
#include "searchspace/search_space.h"

namespace autocts {

/// One labeled pre-training sample: an arch-hyper and its early-validation
/// error R' (Eq. 22) on the owning task. `shared` marks members of the
/// cross-task shared set S_0 (§3.2.4 "Selecting Shared Samples").
struct LabeledSample {
  ArchHyper arch_hyper;
  double r_prime = 0.0;  ///< Validation MAE after k epochs; lower is better.
  bool shared = false;
  /// Training diverged twice (original lr, then the lr-halved retry); the
  /// sample carries no usable label and is excluded from pairing.
  bool quarantined = false;
  /// lr-halved retries consumed (0 or 1).
  int retries = 0;
  /// Why the sample was quarantined (empty otherwise).
  std::string note;

  /// True when the sample may enter the comparator's label set.
  bool usable() const;
};

/// All pre-training material of one source task.
struct TaskSampleSet {
  ForecastTask task;
  Tensor preliminary;  ///< TS2Vec preliminary embedding [W, S, F'], constant.
  std::vector<LabeledSample> samples;
};

/// Knobs for sample collection (Alg. 1, lines 1–7).
struct SampleCollectionOptions {
  int shared_count = 5;            ///< L shared arch-hypers (same for all).
  int random_count = 5;            ///< L per-task random arch-hypers.
  int early_validation_epochs = 2; ///< k of Eq. 22.
  int windows_per_task = 8;        ///< Windows for the preliminary embedding.
  TrainOptions train;              ///< Template for the k-epoch trainings.
  uint64_t seed = 101;
};

/// Per-sample persistence hook for CollectSamples — the seam the
/// checkpoint/resume subsystem plugs into without the collector knowing
/// about files. Both methods are invoked with the (task, slot) coordinates
/// of the serial draw order, which are identical across runs and thread
/// counts, so restored labels land in exactly the slots they came from.
class SampleBankHook {
 public:
  virtual ~SampleBankHook() = default;

  /// Returns true and fills the fate fields (r_prime, quarantined, retries,
  /// note) when (task, slot) was already labeled by a previous run;
  /// `sample->arch_hyper` and `shared` are pre-filled by the caller and
  /// may be used to verify alignment. False means "train it".
  virtual bool Restore(int task, int slot, LabeledSample* sample) = 0;

  /// Called after a sample's fate is decided (trained, retried, or
  /// quarantined). Serialized by the collector — implementations need no
  /// locking of their own.
  virtual void Commit(int task, int slot, const LabeledSample& sample) = 0;

  /// Returns true and fills `preliminary` (typically a zero-copy borrow
  /// from the mmap sample bank) when the task's preliminary embedding was
  /// persisted by a previous run under `key` (see TaskSectionKey). The
  /// collector then skips the encoder forward but still burns the RNG draws
  /// it would have made, keeping the serial stream bit-identical. Called
  /// from the serial pass only. Default: nothing persisted.
  virtual bool RestoreTaskSection(int task, uint64_t key, Tensor* preliminary) {
    (void)task;
    (void)key;
    (void)preliminary;
    return false;
  }

  /// Called from the serial pass right after a preliminary embedding was
  /// computed fresh, so the persistence layer can append it to the bank.
  /// Default: discard.
  virtual void CommitTaskSection(int task, uint64_t key,
                                 const ForecastTask& forecast_task,
                                 const Tensor& preliminary) {
    (void)task;
    (void)key;
    (void)forecast_task;
    (void)preliminary;
  }
};

/// Stable identity of a task's preliminary-embedding section in the sample
/// bank: a hash of the task label, window geometry, and window count —
/// everything the embedding's content depends on besides the encoder
/// parameters (which the config hash covers).
uint64_t TaskSectionKey(const ForecastTask& task, int windows_per_task);

/// Stable signature of a sample's identity — a hash of the arch-hyper's
/// canonical string and the shared flag. The checkpoint manifest stores it
/// per fate (PipelineCheckpoint::SampleSignature delegates here) so resume
/// can verify that a persisted fate belongs to the (task, slot) it claims.
uint64_t SampleFateSignature(const LabeledSample& sample);

/// One unit of deferred training work: the (task, slot) coordinates in the
/// serial draw order, the arch-hyper to evaluate, and the model seed forked
/// for it. The pending index of an entry in CollectPlan::pending is the
/// canonical fault/work address used everywhere (kKillBeforeSample,
/// kNanLoss scoping).
struct PendingSample {
  int task = 0;
  int slot = 0;  ///< Index into the task's sample list.
  ArchHyper arch_hyper;
  uint64_t model_seed = 0;
  bool shared = false;
};

/// The deterministic prelude of CollectSamples, materialized: every RNG
/// draw (shared pool, preliminary embeddings, per-task arch-hypers, model
/// seeds) already consumed in the exact single-threaded order, with the
/// expensive trainings still pending. Planning is cheap and
/// bit-reproducible from (tasks, encoder, options); keeping it apart from
/// training lets a caller time the two phases separately.
struct CollectPlan {
  /// Per-task output skeletons: task + preliminary embedding filled,
  /// samples sized but unlabeled until trained.
  std::vector<TaskSampleSet> sets;
  /// All trainings, task-major and slot-minor.
  std::vector<PendingSample> pending;
  std::vector<std::unique_ptr<ModelTrainer>> trainers;  ///< One per task.
  std::vector<ForecasterSpec> specs;                    ///< One per task.
  ScaleConfig scale;
  SampleCollectionOptions options;
};

/// Runs the serial pass only: burns the full RNG stream, computes (or
/// restores via `hook`) the preliminary embeddings, and returns the pending
/// work list. `hook` is consulted for task sections exactly as in
/// CollectSamples; sample fates are untouched.
CollectPlan PlanCollectSamples(const std::vector<ForecastTask>& tasks,
                               const JointSearchSpace& space,
                               const TaskEncoder& encoder,
                               const ScaleConfig& scale,
                               const SampleCollectionOptions& options,
                               const ExecContext& ctx = {},
                               SampleBankHook* hook = nullptr);

/// Trains pending entries [begin, end) across `ctx`'s pool and writes their
/// fates into plan->sets. The retry/quarantine policy, hook consultation
/// (Restore before, Commit after, both serialized), and fault addressing
/// are identical to CollectSamples — which is exactly this over the full
/// range. Pass the same `ctx` the plan was built with (the per-task
/// trainers captured it).
void TrainPlannedSamples(CollectPlan* plan, int64_t begin, int64_t end,
                         const ExecContext& ctx = {},
                         SampleBankHook* hook = nullptr);

/// Trains and early-validates the shared pool plus per-task random
/// arch-hypers on every task, and computes each task's preliminary
/// embedding. This is the expensive, GPU-hours-in-the-paper step, so the
/// per-sample trainings fan out across `ctx`'s pool: all RNG streams are
/// forked up front in the serial draw order, which makes the collected
/// samples identical for every pool size.
///
/// Fault tolerance: a sample whose training trips the non-finite
/// guardrails is retried once at half the learning rate (same model seed);
/// if the retry diverges too, the sample is quarantined — kept in the bank
/// with a reason but excluded from the comparator's label set. `hook`, when
/// given, is consulted before each training (checkpoint resume) and
/// notified after each completed sample (checkpoint write).
std::vector<TaskSampleSet> CollectSamples(
    const std::vector<ForecastTask>& tasks, const JointSearchSpace& space,
    const TaskEncoder& encoder, const ScaleConfig& scale,
    const SampleCollectionOptions& options, const ExecContext& ctx = {},
    SampleBankHook* hook = nullptr);

/// Robustness counters derivable from a collected bank: quarantined and
/// retried samples, the non-finite events they imply, and one reason line
/// per quarantined sample.
RobustnessReport ScanSampleBank(const std::vector<TaskSampleSet>& data);

/// Knobs for T-AHC pre-training (Alg. 1, lines 8–18).
struct PretrainOptions {
  int epochs = 8;
  int batch_size = 16;
  float lr = 1e-3f;
  float weight_decay = 5e-4f;
  /// Curriculum: the fraction of random samples admitted grows linearly
  /// from this value to 1 across epochs (Δ schedule).
  float initial_random_fraction = 0.0f;
  uint64_t seed = 202;
};

/// Pre-training outcome.
struct PretrainReport {
  std::vector<double> epoch_loss;
  /// Pairwise-ranking accuracy over all training pairs after the last
  /// epoch (sanity signal; ~0.5 means the comparator learned nothing).
  double final_accuracy = 0.0;
  int total_pairs_trained = 0;
  /// What the guardrails absorbed across the whole pipeline (sample
  /// collection quarantines, excluded labels, checkpoint writes).
  RobustnessReport robustness;
};

/// Algorithm 1: data-level curriculum (shared samples first, random samples
/// phased in), dynamic pairing re-drawn every epoch, BCE objective.
PretrainReport PretrainComparator(Comparator* comparator,
                                  const std::vector<TaskSampleSet>& data,
                                  const PretrainOptions& options,
                                  const ExecContext& ctx = {});

/// Ranking quality of a comparator on a labeled set: fraction of ordered
/// pairs it classifies consistently with the R' labels. Quarantined and
/// non-finite-labeled samples are excluded from the pairing.
double PairwiseAccuracy(const Comparator& comparator,
                        const TaskSampleSet& task_set);

}  // namespace autocts

#endif  // REPRO_COMPARATOR_PRETRAIN_H_
