#include "comparator/pretrain.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include <map>

#include "common/fault.h"
#include "model/searched_model.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/plan.h"

namespace autocts {

bool LabeledSample::usable() const {
  return !quarantined && std::isfinite(r_prime);
}

namespace {

uint64_t Fnv1aHash(const std::string& bytes,
                   uint64_t h = 1469598103934665603ull) {
  for (char c : bytes) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t TaskSectionKey(const ForecastTask& task, int windows_per_task) {
  std::string id = task.name();
  id += '|';
  id += std::to_string(task.p);
  id += '|';
  id += std::to_string(task.q);
  id += '|';
  id += std::to_string(windows_per_task);
  return Fnv1aHash(id);
}

uint64_t SampleFateSignature(const LabeledSample& sample) {
  return Fnv1aHash(sample.shared ? "S" : "R",
                   Fnv1aHash(sample.arch_hyper.Signature()));
}

CollectPlan PlanCollectSamples(const std::vector<ForecastTask>& tasks,
                               const JointSearchSpace& space,
                               const TaskEncoder& encoder,
                               const ScaleConfig& scale,
                               const SampleCollectionOptions& options,
                               const ExecContext& ctx, SampleBankHook* hook) {
  CHECK(!tasks.empty());
  ExecScope scope(ctx);
  CollectPlan plan;
  plan.scale = scale;
  plan.options = options;
  Rng rng(options.seed);
  // Shared set S_0: the same L arch-hypers are evaluated on every task so
  // the comparator can observe how rankings shift across tasks.
  std::vector<ArchHyper> shared_pool =
      space.SampleDistinct(options.shared_count, &rng);

  // Serial pass: every RNG draw (embeddings, arch-hyper sampling, model
  // seeds) happens here in the exact single-threaded order, so the pending
  // work list is independent of how it later fans out across the pool.
  std::vector<TaskSampleSet>& out = plan.sets;
  out.resize(tasks.size());
  std::vector<std::unique_ptr<ModelTrainer>>& trainers = plan.trainers;
  std::vector<PendingSample>& pending = plan.pending;
  for (size_t ti = 0; ti < tasks.size(); ++ti) {
    const ForecastTask& task = tasks[ti];
    TaskSampleSet& set = out[ti];
    set.task = task;
    // The preliminary embedding is the expensive part of resume: when a
    // previous run banked it, borrow that (zero-copy) and burn the draws
    // the encoder path would have consumed, so every later sample in the
    // serial stream is unchanged.
    const uint64_t section_key = TaskSectionKey(task, options.windows_per_task);
    if (hook != nullptr && hook->RestoreTaskSection(static_cast<int>(ti),
                                                    section_key,
                                                    &set.preliminary)) {
      SkipPreliminaryEmbeddingDraws(task, options.windows_per_task, &rng);
    } else {
      set.preliminary = PreliminaryTaskEmbedding(
          encoder, task, options.windows_per_task, &rng);
      if (hook != nullptr) {
        hook->CommitTaskSection(static_cast<int>(ti), section_key, task,
                                set.preliminary);
      }
    }
    set.samples.resize(shared_pool.size() +
                       static_cast<size_t>(options.random_count));
    trainers.push_back(
        std::make_unique<ModelTrainer>(task, options.train, ctx));
    int slot = 0;
    for (const ArchHyper& ah : shared_pool) {
      pending.push_back({static_cast<int>(ti), slot++, ah, rng.Fork(), true});
    }
    for (int i = 0; i < options.random_count; ++i) {
      ArchHyper ah = space.Sample(&rng);
      pending.push_back(
          {static_cast<int>(ti), slot++, std::move(ah), rng.Fork(), false});
    }
  }
  for (const ForecastTask& task : tasks) {
    plan.specs.push_back(MakeForecasterSpec(task));
  }
  return plan;
}

void TrainPlannedSamples(CollectPlan* plan, int64_t begin, int64_t end,
                         const ExecContext& ctx, SampleBankHook* hook) {
  ExecScope scope(ctx);
  const SampleCollectionOptions& options = plan->options;
  const ScaleConfig& scale = plan->scale;
  const std::vector<PendingSample>& pending = plan->pending;
  const std::vector<ForecasterSpec>& specs = plan->specs;
  std::vector<std::unique_ptr<ModelTrainer>>& trainers = plan->trainers;
  std::vector<TaskSampleSet>& out = plan->sets;
  begin = std::max<int64_t>(begin, 0);
  end = std::min<int64_t>(end, static_cast<int64_t>(pending.size()));
  // Parallel pass: each pending sample trains its own model and writes its
  // own slot. The trainers are shared per task but their methods are pure
  // (fresh RNG + optimizer per call).
  // Serializes hook->Commit calls; everything else in the loop is
  // per-sample private.
  std::mutex hook_mu;
  ParallelFor(
      begin, end, 1,
      [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
          const PendingSample& ps = pending[static_cast<size_t>(p)];
          ModelTrainer* trainer = trainers[static_cast<size_t>(ps.task)].get();
          // Simulated process death: anything committed so far is on disk,
          // this sample and later ones are not. The exception drains the
          // pool and reaches the caller (see ThreadPool::RunChunks).
          MaybeInjectKill(FaultPoint::kKillBeforeSample, p);
          LabeledSample sample;
          sample.arch_hyper = ps.arch_hyper;
          sample.shared = ps.shared;
          bool restored = false;
          if (hook != nullptr) {
            std::lock_guard<std::mutex> lock(hook_mu);
            restored = hook->Restore(ps.task, ps.slot, &sample);
          }
          if (!restored) {
            // Scope the training under this sample's pending index so the
            // kNanLoss fault point can address exactly one sample.
            FaultAddressScope fault_scope(p);
            auto build = [&] {
              return BuildSearchedModel(
                  ps.arch_hyper, specs[static_cast<size_t>(ps.task)], scale,
                  ps.model_seed);
            };
            auto model = build();
            StatusOr<double> r = trainer->TryEarlyValidationError(
                model.get(), options.early_validation_epochs);
            if (!r.ok()) {
              // Quarantine policy: one retry from the same init at half the
              // learning rate (divergence is usually an lr problem at this
              // scale); a second failure excludes the sample.
              sample.retries = 1;
              auto retry_model = build();
              StatusOr<double> retry = trainer->TryEarlyValidationError(
                  retry_model.get(), options.early_validation_epochs, 0.5f);
              if (retry.ok()) {
                sample.r_prime = retry.value();
              } else {
                sample.quarantined = true;
                sample.r_prime = std::numeric_limits<double>::quiet_NaN();
                sample.note = r.status().message() + "; retry at lr/2: " +
                              retry.status().message();
              }
            } else {
              sample.r_prime = r.value();
            }
          }
          out[static_cast<size_t>(ps.task)]
              .samples[static_cast<size_t>(ps.slot)] = sample;
          if (hook != nullptr) {
            std::lock_guard<std::mutex> lock(hook_mu);
            hook->Commit(ps.task, ps.slot, sample);
          }
        }
      });
}

std::vector<TaskSampleSet> CollectSamples(
    const std::vector<ForecastTask>& tasks, const JointSearchSpace& space,
    const TaskEncoder& encoder, const ScaleConfig& scale,
    const SampleCollectionOptions& options, const ExecContext& ctx,
    SampleBankHook* hook) {
  CollectPlan plan =
      PlanCollectSamples(tasks, space, encoder, scale, options, ctx, hook);
  TrainPlannedSamples(&plan, 0, static_cast<int64_t>(plan.pending.size()), ctx,
                      hook);
  return std::move(plan.sets);
}

RobustnessReport ScanSampleBank(const std::vector<TaskSampleSet>& data) {
  RobustnessReport report;
  for (size_t t = 0; t < data.size(); ++t) {
    for (size_t i = 0; i < data[t].samples.size(); ++i) {
      const LabeledSample& s = data[t].samples[i];
      // Each divergence is one event: a recovered retry is one, a
      // quarantined sample is two (original attempt + failed retry).
      report.nonfinite_events += s.retries + (s.quarantined ? 1 : 0);
      if (s.quarantined) {
        ++report.quarantined_samples;
        report.quarantine_reasons.push_back(
            data[t].task.name() + " sample #" + std::to_string(i) + ": " +
            (s.note.empty() ? "diverged twice" : s.note));
      } else if (s.retries > 0) {
        ++report.retried_samples;
      }
    }
  }
  return report;
}

namespace {

/// A training pair: indices into one task's sample list.
struct Pair {
  int task = 0;
  int first = 0;
  int second = 0;
};

/// A cached pre-training step plan. Keyed by (batch size, per-row task id
/// sequence): the recorded graph bakes in which rows share which EmbedTask
/// result, so only a batch with the identical task layout can replay it.
struct PretrainPlanEntry {
  int sightings = 0;
  std::unique_ptr<StepPlan> plan;
};

/// Distinct batch layouts worth compiling; rarer layouts stay eager.
constexpr int kMaxPretrainPlans = 4;

}  // namespace

PretrainReport PretrainComparator(Comparator* comparator,
                                  const std::vector<TaskSampleSet>& data,
                                  const PretrainOptions& options,
                                  const ExecContext& ctx) {
  CHECK(!data.empty());
  // The pairing curriculum is a sequential RNG stream and the optimizer
  // steps are ordered, so the epoch loop stays serial; the scope still lets
  // the tensor kernels under each batch fan out.
  ExecScope scope(ctx);
  Rng rng(options.seed);
  Adam::Options adam_opts;
  adam_opts.lr = options.lr;
  adam_opts.weight_decay = options.weight_decay;
  Adam adam(comparator->Parameters(), adam_opts);
  comparator->SetTraining(true);

  // Pre-encode every sample once (encodings are constants).
  std::vector<std::vector<ArchHyperEncoding>> encodings(data.size());
  for (size_t t = 0; t < data.size(); ++t) {
    for (const LabeledSample& s : data[t].samples) {
      encodings[t].push_back(EncodeArchHyper(s.arch_hyper));
    }
  }

  PretrainReport report;
  report.robustness = ScanSampleBank(data);
  // Compiled step plans, keyed by batch layout. A layout is captured on its
  // second sighting (one-off tail batches never pay the capture cost) and
  // replayed from then on.
  std::map<std::pair<int, std::vector<int>>, PretrainPlanEntry> plan_cache;
  int plans_allocated = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Curriculum (Alg. 1, line 12): shared samples are always in; the
    // admitted fraction Δ of random samples grows linearly to 1.
    float frac = options.epochs <= 1
                     ? 1.0f
                     : options.initial_random_fraction +
                           (1.0f - options.initial_random_fraction) *
                               static_cast<float>(epoch) /
                               static_cast<float>(options.epochs - 1);
    // Dynamic pairing (line 13): fresh random pairs every epoch.
    std::vector<Pair> pairs;
    for (size_t t = 0; t < data.size(); ++t) {
      std::vector<int> pool;
      std::vector<int> randoms;
      for (size_t i = 0; i < data[t].samples.size(); ++i) {
        // Quarantined / non-finite-labeled samples never enter the label
        // set — a NaN R' would poison every BCE target it touches.
        if (!data[t].samples[i].usable()) continue;
        if (data[t].samples[i].shared) {
          pool.push_back(static_cast<int>(i));
        } else {
          randoms.push_back(static_cast<int>(i));
        }
      }
      rng.Shuffle(&randoms);
      int admit = static_cast<int>(std::round(frac * randoms.size()));
      pool.insert(pool.end(), randoms.begin(), randoms.begin() + admit);
      if (pool.size() < 2) continue;
      rng.Shuffle(&pool);
      for (size_t i = 0; i < pool.size(); ++i) {
        pairs.push_back({static_cast<int>(t), pool[i],
                         pool[(i + 1) % pool.size()]});
      }
    }
    rng.Shuffle(&pairs);

    double epoch_loss = 0.0;
    int batches = 0;
    for (size_t begin = 0; begin < pairs.size();
         begin += static_cast<size_t>(options.batch_size)) {
      size_t end = std::min(pairs.size(),
                            begin + static_cast<size_t>(options.batch_size));
      std::vector<ArchHyperEncoding> first, second;
      std::vector<float> labels;
      std::vector<int> task_seq;
      for (size_t p = begin; p < end; ++p) {
        const Pair& pair = pairs[p];
        const TaskSampleSet& set = data[static_cast<size_t>(pair.task)];
        first.push_back(encodings[static_cast<size_t>(pair.task)]
                                 [static_cast<size_t>(pair.first)]);
        second.push_back(encodings[static_cast<size_t>(pair.task)]
                                  [static_cast<size_t>(pair.second)]);
        labels.push_back(
            set.samples[static_cast<size_t>(pair.first)].r_prime <=
                    set.samples[static_cast<size_t>(pair.second)].r_prime
                ? 1.0f
                : 0.0f);
        if (comparator->options().task_aware) task_seq.push_back(pair.task);
      }
      const int m = static_cast<int>(labels.size());
      EncodingBatch b1 = StackEncodings(first);
      EncodingBatch b2 = StackEncodings(second);
      Tensor target = Tensor::FromVector({m}, std::move(labels));
      std::vector<Tensor> step_inputs = {b1.adjacency, b1.op_onehot, b1.hyper,
                                         b2.adjacency, b2.op_onehot, b2.hyper,
                                         target};
      PretrainPlanEntry& entry = plan_cache[{m, task_seq}];
      ++entry.sightings;
      StepPlan* plan = entry.plan.get();
      if (plan != nullptr && plan->ready() &&
          !plan->MatchesInputs(step_inputs)) {
        plan->Invalidate();
      }
      if (plan != nullptr && plan->ready()) {
        // Replay: BeginStep's grad zeroing is the eager ZeroGrad, the
        // recorded thunks are the eager forward (EmbedTask, Concat and
        // CompareLogits included), the recorded closures the eager backward.
        plan->BeginStep(step_inputs);
        plan->RunForward();
        plan->RunBackward();
        adam.Step();
        epoch_loss += plan->LossValue();
        ++batches;
        report.total_pairs_trained += m;
        continue;
      }
      if (plan == nullptr && entry.sightings >= 2 && plan::PlansEnabled() &&
          plans_allocated < kMaxPretrainPlans) {
        entry.plan = std::make_unique<StepPlan>();
        plan = entry.plan.get();
        ++plans_allocated;
      }
      const bool capture =
          plan != nullptr && plan::PlansEnabled() && !plan->capture_failed();
      if (capture) plan->BeginCapture(step_inputs, "pretrain_step");
      // Task embeddings are trainable; compute one per task per batch
      // (inside the capture — the rows are recorded ops).
      std::vector<Tensor> task_rows;
      std::vector<Tensor> cached_embeds(data.size());
      for (size_t p = begin; p < end; ++p) {
        const Pair& pair = pairs[p];
        if (!comparator->options().task_aware) break;
        Tensor& cached = cached_embeds[static_cast<size_t>(pair.task)];
        if (!cached.defined()) {
          cached = comparator->EmbedTask(
              data[static_cast<size_t>(pair.task)].preliminary);
        }
        task_rows.push_back(Reshape(cached, {1, comparator->options().f2}));
      }
      Tensor task_embeds;
      if (!task_rows.empty()) task_embeds = Concat(task_rows, 0);
      Tensor logits = comparator->CompareLogits(b1, b2, task_embeds);
      Tensor loss = BceLoss(Sigmoid(logits), target);
      adam.ZeroGrad();
      loss.Backward();
      adam.Step();
      epoch_loss += loss.item();
      bool pinned_by_plan = false;
      if (capture) {
        plan->SetLoss(loss);
        pinned_by_plan = plan->EndCapture();
      }
      // Recycle the step's graph storage through the buffer pool (a frozen
      // plan keeps it pinned for replay instead).
      if (!pinned_by_plan) loss.ReleaseTape();
      ++batches;
      report.total_pairs_trained += m;
    }
    report.epoch_loss.push_back(batches > 0 ? epoch_loss / batches : 0.0);
  }
  report.robustness.skipped_optimizer_steps = adam.skipped_steps();
  comparator->SetTraining(false);

  // Final training-set accuracy over all ordered pairs of usable samples.
  double correct = 0.0;
  int total = 0;
  for (const TaskSampleSet& set : data) {
    double acc = PairwiseAccuracy(*comparator, set);
    int n = 0;
    for (const LabeledSample& s : set.samples) {
      if (s.usable()) ++n;
    }
    int pairs_n = n * (n - 1);
    correct += acc * pairs_n;
    total += pairs_n;
  }
  report.final_accuracy = total > 0 ? correct / total : 0.0;
  return report;
}

double PairwiseAccuracy(const Comparator& comparator,
                        const TaskSampleSet& task_set) {
  // Only samples with a trustworthy R' can anchor a ground-truth ordering.
  std::vector<int> usable;
  for (size_t i = 0; i < task_set.samples.size(); ++i) {
    if (task_set.samples[i].usable()) usable.push_back(static_cast<int>(i));
  }
  const int n = static_cast<int>(usable.size());
  if (n < 2) return 1.0;
  Tensor task_embed;
  if (comparator.options().task_aware) {
    task_embed = comparator.EmbedTask(task_set.preliminary).Detach();
  }
  std::vector<ArchHyperEncoding> enc;
  for (int idx : usable) {
    enc.push_back(
        EncodeArchHyper(task_set.samples[static_cast<size_t>(idx)].arch_hyper));
  }
  int correct = 0, total = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      bool label =
          task_set.samples[static_cast<size_t>(usable[static_cast<size_t>(i)])]
              .r_prime <=
          task_set.samples[static_cast<size_t>(usable[static_cast<size_t>(j)])]
              .r_prime;
      bool pred = comparator.Prefers(enc[static_cast<size_t>(i)],
                                     enc[static_cast<size_t>(j)], task_embed);
      if (pred == label) ++correct;
      ++total;
    }
  }
  return static_cast<double>(correct) / total;
}

}  // namespace autocts
