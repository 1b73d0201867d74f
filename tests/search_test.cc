#include "search/evolutionary.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/runtime_config.h"
#include "comparator/pretrain.h"

namespace autocts {
namespace {

Comparator::Options SmallOptions(bool task_aware) {
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

/// Trains a task-blind comparator to prefer small hidden dimensions so the
/// search has a crisp, verifiable objective.
std::unique_ptr<Comparator> OracleLikeComparator() {
  auto comp = std::make_unique<Comparator>(SmallOptions(false), 21);
  JointSearchSpace space;
  Rng rng(22);
  TaskSampleSet set;
  for (int i = 0; i < 40; ++i) {
    LabeledSample s;
    s.arch_hyper = space.Sample(&rng);
    s.r_prime = s.arch_hyper.hyper.hidden_dim;
    s.shared = true;
    set.samples.push_back(std::move(s));
  }
  PretrainOptions opts;
  opts.epochs = 60;
  opts.batch_size = 20;
  opts.lr = 3e-3f;
  PretrainComparator(comp.get(), {set}, opts);
  return comp;
}

SearchOptions TinySearch() {
  SearchOptions s;
  s.ranking_pool = 40;
  s.opponents_per_candidate = 4;
  s.population = 6;
  s.generations = 2;
  s.top_k = 3;
  s.compare_batch = 32;
  return s;
}

TEST(EvolutionarySearchTest, ReturnsValidTopK) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  std::vector<ArchHyper> top = searcher.SearchTopK(Tensor(), TinySearch());
  ASSERT_EQ(top.size(), 3u);
  for (const ArchHyper& ah : top) {
    EXPECT_TRUE(ValidateArchHyper(ah).ok());
    EXPECT_TRUE(HasSpatialAndTemporal(ah.arch));
  }
}

TEST(EvolutionarySearchTest, FollowsComparatorPreference) {
  // A comparator trained to prefer H=32 should surface mostly H=32
  // candidates.
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  SearchOptions opts = TinySearch();
  opts.ranking_pool = 80;
  opts.generations = 4;
  std::vector<ArchHyper> top = searcher.SearchTopK(Tensor(), opts);
  int small_hidden = 0;
  for (const ArchHyper& ah : top) {
    if (ah.hyper.hidden_dim == 32) ++small_hidden;
  }
  EXPECT_GE(small_hidden, 2) << "search ignored the comparator signal";
}

TEST(EvolutionarySearchTest, DeterministicGivenSeed) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  std::vector<ArchHyper> a = searcher.SearchTopK(Tensor(), TinySearch());
  std::vector<ArchHyper> b = searcher.SearchTopK(Tensor(), TinySearch());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Signature(), b[i].Signature());
  }
}

TEST(EvolutionarySearchTest, RoundRobinWinsSumToPairCount) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  Rng rng(23);
  std::vector<ArchHyper> candidates = space.SampleDistinct(5, &rng);
  std::vector<int> wins = searcher.RoundRobinWins(candidates, Tensor(), 16);
  // Every ordered pair (i, j), i≠j, is evaluated once; candidate i can win
  // at most its 2(n-1) duels. The comparator need not be anti-symmetric
  // (that is exactly why Alg. 2 uses round-robin), so totals are bounded,
  // not fixed.
  int total = 0;
  for (int w : wins) {
    EXPECT_GE(w, 0);
    EXPECT_LE(w, 4);  // i is "first" in n-1 = 4 duels.
    total += w;
  }
  EXPECT_LE(total, 5 * 4);
}

TEST(EvolutionarySearchTest, SparseTournamentCountsBounded) {
  auto comp = OracleLikeComparator();
  JointSearchSpace space;
  EvolutionarySearcher searcher(comp.get(), &space);
  Rng rng(24);
  std::vector<ArchHyper> pool = space.SampleDistinct(20, &rng);
  std::vector<int> wins = searcher.SparseWinCounts(pool, Tensor(), 4, 16, &rng);
  ASSERT_EQ(wins.size(), 20u);
  int total = 0;
  for (int w : wins) {
    EXPECT_GE(w, 0);
    total += w;
  }
  EXPECT_EQ(total, 20 * 4);  // One point per duel.
}

TEST(EvolutionarySearchTest, TaskAwarePathRuns) {
  Comparator comp(SmallOptions(true), 25);
  JointSearchSpace space;
  EvolutionarySearcher searcher(&comp, &space);
  Rng rng(26);
  Tensor task_embed = Tensor::Randn({4}, &rng);
  std::vector<ArchHyper> top = searcher.SearchTopK(task_embed, TinySearch());
  EXPECT_EQ(top.size(), 3u);
}

TEST(EvolutionarySearchTest, WinsInvariantToBatchPoolAndPrecision) {
  // Row-locality oracle: every comparator op is row-local, so a duel's
  // logit does not depend on the batch size, on which duels share its
  // batch, or on which pool thread scores it. Duel dedup and the serving
  // layer's exact-size tail chunks rely on this; compare_batch 7 also puts
  // batch boundaries mid-word in any packed outcome storage.
  Comparator comp(SmallOptions(/*task_aware=*/true), 27);
  comp.SetTraining(false);
  JointSearchSpace space;
  Rng sample_rng(28);
  const std::vector<ArchHyper> pool = space.SampleDistinct(40, &sample_rng);
  const std::vector<ArchHyper> finalists(pool.begin(), pool.begin() + 8);
  const Tensor task_embed = Tensor::Randn({4}, &sample_rng);
  for (ComparatorPrecision precision :
       {ComparatorPrecision::kFp32, ComparatorPrecision::kBf16}) {
    RuntimeConfig config;
    config.comparator_precision = precision;
    std::vector<int> reference;
    for (int threads : {1, 4}) {
      ThreadPool lanes(threads);
      for (int batch : {1, 7, 64}) {
        EvolutionarySearcher searcher(&comp, &space,
                                      ExecContext{&lanes, 0, &config});
        Rng rng(29);
        std::vector<int> wins =
            searcher.SparseWinCounts(pool, task_embed, 4, batch, &rng);
        const std::vector<int> rr =
            searcher.RoundRobinWins(finalists, task_embed, batch);
        wins.insert(wins.end(), rr.begin(), rr.end());
        if (reference.empty()) {
          // A constant win vector would pass trivially; the seeded
          // comparator must actually discriminate.
          ASSERT_NE(*std::min_element(wins.begin(), wins.end()),
                    *std::max_element(wins.begin(), wins.end()));
          reference = wins;
          continue;
        }
        EXPECT_EQ(wins, reference)
            << ComparatorPrecisionName(precision) << ", " << threads
            << " threads, compare_batch " << batch;
      }
    }
  }
}

}  // namespace
}  // namespace autocts
