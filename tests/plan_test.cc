// Contract tests of the step-plan capture/replay layer (tensor/plan.h).
// Replay promises the *same bits* as eager execution — the thunks are the
// eager kernels over the same buffers in the same order — so every
// comparison here is memcmp-strict: whole training runs with plans on vs
// off, 1 vs 4 threads, fused kernels on vs off, and T-AHC pre-training.
// Also covers the replayed backward pass against a freshly taped graph, plan
// invalidation on shape/knob changes, the NaN-quarantine recapture path,
// arena-bound inference replay (the ASan/UBSan CI job runs this binary to
// vet the liveness-based aliasing), and the live-tape-node accounting
// behind the stale-tape capture assert.
#include "tensor/plan.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/guard.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "comparator/comparator.h"
#include "comparator/pretrain.h"
#include "data/synthetic.h"
#include "model/searched_model.h"
#include "model/trainer.h"
#include "searchspace/parse.h"
#include "searchspace/search_space.h"
#include "tensor/fused.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace autocts {
namespace {

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Restores the plan/fusion toggles no matter how a test exits.
struct KnobGuard {
  bool plans = plan::PlansEnabled();
  bool fused = FusedKernelsEnabled();
  ~KnobGuard() {
    plan::SetPlansEnabled(plans);
    SetFusedKernelsEnabled(fused);
  }
};

ForecastTask SmallTask() {
  ForecastTask task;
  task.data = MakeSyntheticDataset("Los-Loop", ScaleConfig::Test()).value();
  task.p = 12;
  task.q = 12;
  return task;
}

TrainOptions SmallTrainOptions() {
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 4;
  opts.batches_per_epoch = 4;
  return opts;
}

/// Trains the reference ST-block from a fixed seed and returns every
/// parameter's final values. An odd hidden size would be nicer for tail
/// coverage, but the search space pins H ∈ {16, 32, 64}; batch 4 with 5
/// cell nodes already drives non-multiple-of-8 reduction tails.
std::vector<std::vector<float>> TrainedParams(bool plans_on, int threads,
                                              bool fused) {
  KnobGuard knobs;
  plan::SetPlansEnabled(plans_on);
  SetFusedKernelsEnabled(fused);
  ThreadPool pool(threads);
  ForecastTask task = SmallTask();
  ForecasterSpec spec = MakeForecasterSpec(task);
  ArchHyper ah = ParseArchHyper(
                     "B4C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S")
                     .value();
  auto model = BuildSearchedModel(ah, spec, ScaleConfig::Test(), 8);
  ModelTrainer trainer(task, SmallTrainOptions(), ExecContext{&pool, 0});
  TrainReport report = trainer.Train(model.get());
  EXPECT_TRUE(report.status.ok()) << report.status.message();
  std::vector<std::vector<float>> params;
  for (const Tensor& p : model->Parameters()) params.push_back(p.data());
  return params;
}

void ExpectSameParams(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEqual(a[i], b[i])) << "parameter " << i << " diverged";
  }
}

TEST(PlanTrainTest, ReplayBitExactVsEager) {
  const PlanStats before = ExecContext{}.plan_stats();
  std::vector<std::vector<float>> with_plans =
      TrainedParams(/*plans_on=*/true, /*threads=*/1, /*fused=*/true);
  const PlanStats after = ExecContext{}.plan_stats();
  // The run actually exercised the layer: one capture per RunEpochs entry
  // (Train's epochs all share one plan), every later step a replay.
  EXPECT_GT(after.captures, before.captures);
  EXPECT_GT(after.replays, before.replays);
  ExpectSameParams(with_plans,
                   TrainedParams(/*plans_on=*/false, /*threads=*/1,
                                 /*fused=*/true));
}

TEST(PlanTrainTest, ReplayThreadCountInvariant) {
  ExpectSameParams(
      TrainedParams(/*plans_on=*/true, /*threads=*/1, /*fused=*/true),
      TrainedParams(/*plans_on=*/true, /*threads=*/4, /*fused=*/true));
}

TEST(PlanTrainTest, ReplayBitExactWithFusedKernelsDisabled) {
  // AUTOCTS_NO_FUSED interop: the op-graph reference path records and
  // replays too, and stays bit-identical to its eager self.
  ExpectSameParams(
      TrainedParams(/*plans_on=*/true, /*threads=*/1, /*fused=*/false),
      TrainedParams(/*plans_on=*/false, /*threads=*/1, /*fused=*/false));
}

/// Synthetic labeled samples whose ranking signal is deterministic (copied
/// from comparator_test.cc's setup).
TaskSampleSet SyntheticSampleSet(int count, uint64_t seed) {
  JointSearchSpace space;
  Rng rng(seed);
  TaskSampleSet set;
  set.preliminary = Tensor::Randn({3, 8, 4}, &rng);
  for (int i = 0; i < count; ++i) {
    LabeledSample s;
    s.arch_hyper = space.Sample(&rng);
    s.r_prime =
        s.arch_hyper.hyper.hidden_dim + 0.1 * s.arch_hyper.hyper.num_blocks;
    s.shared = i < count / 2;
    set.samples.push_back(std::move(s));
  }
  return set;
}

Comparator::Options SmallComparatorOptions(bool task_aware) {
  Comparator::Options opts;
  opts.gin.layers = 2;
  opts.gin.embed_dim = 8;
  opts.repr_dim = 4;
  opts.f1 = 8;
  opts.f2 = 4;
  opts.fc_dim = 16;
  opts.task_aware = task_aware;
  return opts;
}

std::vector<std::vector<float>> PretrainedParams(bool plans_on) {
  KnobGuard knobs;
  plan::SetPlansEnabled(plans_on);
  Comparator comp(SmallComparatorOptions(/*task_aware=*/true), 12);
  std::vector<TaskSampleSet> data = {SyntheticSampleSet(20, 13)};
  PretrainOptions opts;
  opts.epochs = 6;
  opts.batch_size = 8;
  PretrainReport report = PretrainComparator(&comp, data, opts);
  EXPECT_GT(report.total_pairs_trained, 0);
  std::vector<std::vector<float>> params;
  for (const Tensor& p : comp.Parameters()) params.push_back(p.data());
  return params;
}

TEST(PlanPretrainTest, ReplayBitExactVsEager) {
  const PlanStats before = ExecContext{}.plan_stats();
  std::vector<std::vector<float>> with_plans = PretrainedParams(true);
  const PlanStats after = ExecContext{}.plan_stats();
  // Pre-train plans capture on the second sighting of a batch signature;
  // six epochs over one task re-draw the same batch sizes, so the cache
  // must both capture and replay.
  EXPECT_GT(after.captures, before.captures);
  EXPECT_GT(after.replays, before.replays);
  ExpectSameParams(with_plans, PretrainedParams(false));
}

TEST(PlanStepTest, ReplayedBackwardMatchesFreshTape) {
  ThreadPool pool(1);
  ExecScope scope(ExecContext{&pool, 0});
  KnobGuard knobs;
  plan::SetPlansEnabled(true);
  Rng rng(5);
  // Odd/tail shapes on purpose: 5x7 times 7x3 exercises non-multiple-of-8
  // reduction and broadcast tails in both passes.
  Tensor w = Tensor::Randn({7, 3}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor x = Tensor::Randn({5, 7}, &rng);
  Tensor target = Tensor::Randn({5, 3}, &rng);
  StepPlan plan;
  plan.BeginCapture({x, target}, "test_step");
  Tensor loss = MaeLoss(MatMul(x, w), target);
  loss.Backward();
  plan.SetLoss(loss);
  ASSERT_TRUE(plan.EndCapture());
  EXPECT_GT(plan::PinnedTapeNodesThisThread(), 0u);
  EXPECT_GT(plan.num_ops(), 0);
  EXPECT_GT(plan.pinned_bytes(), 0);

  // Replay on fresh input values; the plan zeroes w's grad itself.
  Rng rng2(6);
  Tensor x2 = Tensor::Randn({5, 7}, &rng2);
  Tensor t2 = Tensor::Randn({5, 3}, &rng2);
  plan.BeginStep({x2, t2});
  plan.RunForward();
  plan.RunBackward();
  std::vector<float> replayed_grad = w.grad();
  float replayed_loss = plan.LossValue();

  // Reference: a freshly taped eager graph over the same values.
  Tensor w_ref = Tensor::FromVector({7, 3}, w.data(), /*requires_grad=*/true);
  Tensor loss_ref = MaeLoss(MatMul(x2, w_ref), t2);
  loss_ref.Backward();
  EXPECT_EQ(loss_ref.item(), replayed_loss);
  EXPECT_TRUE(BitEqual(w_ref.grad(), replayed_grad));
  loss_ref.ReleaseTape();
  // Everything still taped on this thread is pinned by the plan — the
  // invariant the debug-build capture assert enforces.
  EXPECT_EQ(LiveTapeNodesThisThread(), plan::PinnedTapeNodesThisThread());
}

TEST(PlanStepTest, InvalidationOnShapeAndKnobChanges) {
  ThreadPool pool(1);
  ExecScope scope(ExecContext{&pool, 0});
  KnobGuard knobs;
  plan::SetPlansEnabled(true);
  SetFusedKernelsEnabled(true);
  Rng rng(9);
  Tensor x = Tensor::Randn({4, 6}, &rng);
  Tensor target = Tensor::Randn({4, 6}, &rng);
  Tensor w = Tensor::Randn({6, 6}, &rng, 1.0f, /*requires_grad=*/true);
  StepPlan plan;
  plan.BeginCapture({x, target}, "test_step");
  Tensor loss = MaeLoss(MatMul(x, w), target);
  loss.Backward();
  plan.SetLoss(loss);
  ASSERT_TRUE(plan.EndCapture());
  ASSERT_TRUE(plan.ready());
  EXPECT_TRUE(plan.MatchesInputs({x, target}));

  // Shape change.
  Rng rng2(10);
  Tensor x_tail = Tensor::Randn({3, 6}, &rng2);
  Tensor t_tail = Tensor::Randn({3, 6}, &rng2);
  EXPECT_FALSE(plan.MatchesInputs({x_tail, t_tail}));
  // Fused-kernel knob flip (AUTOCTS_NO_FUSED): recorded thunks are the
  // fused kernels, so the plan no longer represents the eager step.
  SetFusedKernelsEnabled(false);
  EXPECT_FALSE(plan.MatchesInputs({x, target}));
  SetFusedKernelsEnabled(true);
  EXPECT_TRUE(plan.MatchesInputs({x, target}));
  // Plans disabled at runtime (AUTOCTS_NO_PLAN).
  plan::SetPlansEnabled(false);
  EXPECT_FALSE(plan.MatchesInputs({x, target}));
  plan::SetPlansEnabled(true);

  const PlanStats before = ExecContext{}.plan_stats();
  plan.Invalidate();
  EXPECT_FALSE(plan.ready());
  const PlanStats after = ExecContext{}.plan_stats();
  EXPECT_EQ(after.invalidations, before.invalidations + 1);
}

TEST(PlanTrainTest, NanQuarantineRetryRecaptures) {
  // The PR-4 quarantine policy (pretrain.cc): a run whose loss goes NaN
  // errors out, and the lr-halved retry re-enters RunEpochs — which must
  // recapture a fresh plan rather than replay state from the dead run.
  KnobGuard knobs;
  plan::SetPlansEnabled(true);
  ThreadPool pool(1);
  ForecastTask task = SmallTask();
  ForecasterSpec spec = MakeForecasterSpec(task);
  ArchHyper ah = ParseArchHyper(
                     "B4C5H32I64U1d0|0-1:GDCC,0-2:DGCN,2-3:INF-T,3-4:INF-S")
                     .value();
  auto model = BuildSearchedModel(ah, spec, ScaleConfig::Test(), 8);
  ModelTrainer trainer(task, SmallTrainOptions(), ExecContext{&pool, 0});
  ArmFault(FaultPoint::kNanLoss, kAnyAddress, /*fires=*/1);
  StatusOr<double> first = trainer.TryEarlyValidationError(model.get(), 1);
  DisarmAllFaults();
  ASSERT_FALSE(first.ok());
  const PlanStats before = ExecContext{}.plan_stats();
  StatusOr<double> retry =
      trainer.TryEarlyValidationError(model.get(), 1, /*lr_scale=*/0.5f);
  ASSERT_TRUE(retry.ok()) << retry.status().message();
  EXPECT_TRUE(std::isfinite(retry.value()));
  const PlanStats after = ExecContext{}.plan_stats();
  EXPECT_GT(after.captures, before.captures);
  EXPECT_GT(after.replays, before.replays);
}

TEST(PlanInferTest, ArenaBoundReplayMatchesEager) {
  // Inference plans re-bind pure intermediates into one liveness-packed
  // arena; replaying twice and against a fresh eager run proves the offset
  // reuse never aliases a live value (the ASan job double-checks the
  // addresses themselves).
  ThreadPool pool(1);
  ExecScope scope(ExecContext{&pool, 0});
  KnobGuard knobs;
  plan::SetPlansEnabled(true);
  Comparator comp(SmallComparatorOptions(/*task_aware=*/false), 31);
  comp.SetTraining(false);
  JointSearchSpace space;
  auto make_batch = [&](uint64_t seed, EncodingBatch* b1, EncodingBatch* b2) {
    Rng rng(seed);
    std::vector<ArchHyperEncoding> first, second;
    for (int i = 0; i < 7; ++i) {  // Odd batch for tail coverage.
      first.push_back(EncodeArchHyper(space.Sample(&rng)));
      second.push_back(EncodeArchHyper(space.Sample(&rng)));
    }
    *b1 = StackEncodings(first);
    *b2 = StackEncodings(second);
  };
  NoGradScope no_grad;
  EncodingBatch b1, b2;
  make_batch(41, &b1, &b2);
  std::vector<Tensor> inputs = {b1.adjacency, b1.op_onehot, b1.hyper,
                                b2.adjacency, b2.op_onehot, b2.hyper};
  StepPlan plan;
  plan.BeginCapture(inputs, "test_infer");
  Tensor logits = comp.CompareLogits(b1, b2, Tensor());
  plan.AddOutput(logits);
  ASSERT_TRUE(plan.EndCapture());
  EXPECT_GT(plan.arena_bytes(), 0) << "no intermediates were arena-bound";
  const std::vector<float> captured = logits.data();

  // Replay 1: same inputs reproduce the capture's output bits.
  const uint64_t tape_before = TapeNodesCreated();
  plan.BeginStep(inputs);
  plan.RunForward();
  EXPECT_TRUE(BitEqual(plan.output(0).data(), captured));

  // Replay 2: fresh input values match a fresh eager evaluation.
  EncodingBatch c1, c2;
  make_batch(42, &c1, &c2);
  plan.BeginStep({c1.adjacency, c1.op_onehot, c1.hyper, c2.adjacency,
                  c2.op_onehot, c2.hyper});
  plan.RunForward();
  EXPECT_EQ(TapeNodesCreated(), tape_before) << "replay taped nodes";
  plan::SetPlansEnabled(false);
  Tensor eager = comp.CompareLogits(c1, c2, Tensor());
  EXPECT_TRUE(BitEqual(plan.output(0).data(), eager.data()));
}

TEST(PlanTapeTest, LiveTapeNodeAccounting) {
  // The counter behind the stale-tape capture assert: taped nodes raise it,
  // ReleaseTape and plain destruction lower it back to the baseline.
  const uint64_t base = LiveTapeNodesThisThread();
  Rng rng(3);
  {
    Tensor a = Tensor::Randn({4, 4}, &rng, 1.0f, /*requires_grad=*/true);
    Tensor b = MatMul(a, a);
    Tensor c = MatMul(b, a);
    EXPECT_GT(LiveTapeNodesThisThread(), base);
    c.ReleaseTape();
    EXPECT_EQ(LiveTapeNodesThisThread(), base);
  }
  EXPECT_EQ(LiveTapeNodesThisThread(), base);
  {
    // Destruction without ReleaseTape must also return to baseline.
    Tensor a = Tensor::Randn({4, 4}, &rng, 1.0f, /*requires_grad=*/true);
    Tensor b = MatMul(a, a);
    EXPECT_GT(LiveTapeNodesThisThread(), base);
  }
  EXPECT_EQ(LiveTapeNodesThisThread(), base);
}

TEST(PlanThreadTest, ValidateReplayThreadDetectsCrossThreadUse) {
  // Frozen plans pin tape accounting in thread-local counters, so replaying
  // (or destroying) a plan on a different thread corrupts another thread's
  // bookkeeping — plan.h promotes this from a comment to a checkable
  // invariant. Validation itself is side-effect-free, so probing from the
  // wrong thread here is safe; only BeginStep/RunForward would be UB.
  ThreadPool pool(1);
  ExecScope scope(ExecContext{&pool, 0});
  KnobGuard knobs;
  plan::SetPlansEnabled(true);
  Rng rng(63);
  Tensor x = Tensor::Randn({2, 3}, &rng);
  Tensor w = Tensor::Randn({3, 3}, &rng);
  NoGradScope no_grad;
  StepPlan plan;
  EXPECT_TRUE(plan.ValidateReplayThread().ok()) << "not ready: vacuously ok";
  plan.BeginCapture({x}, "thread_probe");
  Tensor y = MatMul(x, w);
  plan.AddOutput(y);
  ASSERT_TRUE(plan.EndCapture());
  ASSERT_TRUE(plan.ready());
  EXPECT_TRUE(plan.ValidateReplayThread().ok());

  Status cross;
  std::thread other([&] { cross = plan.ValidateReplayThread(); });
  other.join();
  EXPECT_FALSE(cross.ok());
  EXPECT_NE(cross.message().find("thread"), std::string::npos)
      << cross.message();
  EXPECT_NE(cross.message().find("thread_probe"), std::string::npos)
      << "error should name the offending plan: " << cross.message();

  // Back on the capture thread the plan still replays.
  EXPECT_TRUE(plan.ValidateReplayThread().ok());
  plan.BeginStep({x});
  plan.RunForward();
  EXPECT_TRUE(BitEqual(plan.output(0).data(), y.data()));
}

}  // namespace
}  // namespace autocts
