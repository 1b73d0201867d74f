#include "search/evolutionary.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

#include "common/guard.h"
#include "tensor/ops.h"

namespace autocts {

EvolutionarySearcher::EvolutionarySearcher(const Comparator* comparator,
                                           const JointSearchSpace* space,
                                           ExecContext ctx)
    : comparator_(comparator), space_(space), ctx_(ctx) {
  CHECK(comparator_ != nullptr);
  CHECK(space_ != nullptr);
}

std::vector<uint8_t> EvolutionarySearcher::ComparePairs(
    const std::vector<ArchHyperEncoding>& enc,
    const std::vector<std::pair<int, int>>& pairs, const Tensor& task_embed,
    int compare_batch) const {
  // One byte per duel, not vector<bool>: pool threads write neighbouring
  // batches concurrently, and packed bits would share a word across them.
  std::vector<uint8_t> wins(pairs.size(), 0);
  const bool task_aware = comparator_->options().task_aware;
  const int f2 = comparator_->options().f2;
  if (task_aware) CHECK(task_embed.defined());
  auto record = [&](size_t begin, int m, const float* logits) {
    for (int i = 0; i < m; ++i) {
      const float logit = logits[i];
      if (GuardsEnabled() && !std::isfinite(logit)) {
        // A NaN/inf logit carries no preference; count it and fall back to
        // the deterministic "second wins" outcome (same verdict NaN >= 0
        // would yield, but now observable in the RobustnessReport).
        nonfinite_comparisons_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      wins[begin + static_cast<size_t>(i)] = logit >= 0.0f ? 1 : 0;
    }
  };
  // Scores batch `bi` into `wins`. `task_row` is the [1, f2] embedding view;
  // `quant` selects the bf16/int8 snapshot, null the fp32 tape.
  auto run_batch = [&](int64_t bi, const Tensor& task_row,
                       const QuantizedComparator* quant) {
    const size_t begin =
        static_cast<size_t>(bi) * static_cast<size_t>(compare_batch);
    const size_t end =
        std::min(pairs.size(), begin + static_cast<size_t>(compare_batch));
    const int m = static_cast<int>(end - begin);
    std::vector<ArchHyperEncoding> first, second;
    for (size_t p = begin; p < end; ++p) {
      first.push_back(enc[static_cast<size_t>(pairs[p].first)]);
      second.push_back(enc[static_cast<size_t>(pairs[p].second)]);
    }
    const EncodingBatch eb1 = StackEncodings(first);
    const EncodingBatch eb2 = StackEncodings(second);
    Tensor task_embeds;
    if (task_aware) {
      std::vector<Tensor> rows(static_cast<size_t>(m), task_row);
      task_embeds = Concat(rows, 0);
    }
    if (quant != nullptr) {
      const std::vector<float> logits =
          quant->CompareLogits(eb1, eb2, task_embeds);
      record(begin, m, logits.data());
    } else {
      const Tensor logits = comparator_->CompareLogits(eb1, eb2, task_embeds);
      record(begin, m, logits.data().data());
    }
  };
  const int64_t num_batches =
      (static_cast<int64_t>(pairs.size()) + compare_batch - 1) / compare_batch;
  if (comparator_->training()) {
    // Training mode shares one dropout RNG; keep the sequential draw order.
    Tensor task_row;
    if (task_aware) task_row = Reshape(task_embed, {1, f2});
    for (int64_t bi = 0; bi < num_batches; ++bi) {
      run_batch(bi, task_row, nullptr);
    }
    return wins;
  }
  // Eval-mode inference is pure (dropout is a no-op, so no shared RNG) and
  // every comparator op is row-local, so batches are independent: fan them
  // out across the pool. fp32 runs the eager tape under NoGradScope;
  // bf16/int8 (AUTOCTS_COMPARATOR_PRECISION) run the off-tape quantized
  // snapshot through the active kernel backend.
  const ComparatorPrecision precision =
      ctx_.effective_config().comparator_precision;
  const QuantizedComparator* quant =
      precision == ComparatorPrecision::kFp32 ? nullptr : Quantized(precision);
  ExecScope scope(ctx_);
  ParallelFor(0, num_batches, 1, [&](int64_t b0, int64_t b1) {
    NoGradScope no_grad;
    Tensor task_row;
    if (task_aware) task_row = Reshape(task_embed, {1, f2});
    for (int64_t bi = b0; bi < b1; ++bi) run_batch(bi, task_row, quant);
  });
  return wins;
}

const QuantizedComparator* EvolutionarySearcher::Quantized(
    ComparatorPrecision precision) const {
  std::lock_guard<std::mutex> lock(quant_mu_);
  if (quant_ == nullptr || quant_->precision() != precision) {
    quant_ = std::make_unique<QuantizedComparator>(*comparator_, precision);
  }
  return quant_.get();
}

ArchHyperEncoding EvolutionarySearcher::CachedEncoding(
    const ArchHyper& ah) const {
  const std::string key = ah.Signature();
  {
    std::lock_guard<std::mutex> lock(encode_mu_);
    auto it = encode_cache_.find(key);
    if (it != encode_cache_.end()) return it->second;
  }
  // Encode outside the lock; a racing duplicate encode is harmless (both
  // produce identical tensors, the first insert wins).
  ArchHyperEncoding enc = EncodeArchHyper(ah);
  std::lock_guard<std::mutex> lock(encode_mu_);
  return encode_cache_.try_emplace(key, std::move(enc)).first->second;
}

std::vector<uint8_t> EvolutionarySearcher::DedupedOutcomes(
    const std::vector<ArchHyper>& items,
    const std::vector<ArchHyperEncoding>& enc,
    const std::vector<std::pair<int, int>>& pairs, const Tensor& task_embed,
    int compare_batch) const {
  // Canonical representative per signature: crossover/mutation churn yields
  // duplicate arch-hypers across generations, so round-robins repeat many
  // (first, second) encoding pairs verbatim.
  std::unordered_map<std::string, int> canon_by_sig;
  std::vector<int> canon(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    auto it = canon_by_sig.try_emplace(items[i].Signature(),
                                       static_cast<int>(i));
    canon[i] = it.first->second;
  }
  std::map<std::pair<int, int>, int> slot_of;
  std::vector<std::pair<int, int>> unique_pairs;
  std::vector<int> pair_slot(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    const std::pair<int, int> cp = {canon[static_cast<size_t>(pairs[p].first)],
                                    canon[static_cast<size_t>(pairs[p].second)]};
    auto it = slot_of.try_emplace(cp, static_cast<int>(unique_pairs.size()));
    if (it.second) unique_pairs.push_back(cp);
    pair_slot[p] = it.first->second;
  }
  // Bit-safe broadcast: every comparator op is row-local, so a pair's logit
  // does not depend on which other rows share its batch.
  const std::vector<uint8_t> unique_outcomes =
      ComparePairs(enc, unique_pairs, task_embed, compare_batch);
  std::vector<uint8_t> outcomes(pairs.size());
  for (size_t p = 0; p < pairs.size(); ++p) {
    outcomes[p] = unique_outcomes[static_cast<size_t>(pair_slot[p])];
  }
  return outcomes;
}

std::vector<int> EvolutionarySearcher::SparseWinCounts(
    const std::vector<ArchHyper>& pool, const Tensor& task_embed,
    int opponents, int compare_batch, Rng* rng) const {
  const int n = static_cast<int>(pool.size());
  std::vector<ArchHyperEncoding> enc;
  enc.reserve(pool.size());
  for (const ArchHyper& ah : pool) enc.push_back(CachedEncoding(ah));
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int o = 0; o < opponents; ++o) {
      int j = rng->Int(0, n - 1);
      if (j == i) j = (j + 1) % n;
      pairs.push_back({i, j});
    }
  }
  const std::vector<uint8_t> outcomes =
      DedupedOutcomes(pool, enc, pairs, task_embed, compare_batch);
  std::vector<int> wins(static_cast<size_t>(n), 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    // Credit both sides: the winner of each duel gets a point.
    if (outcomes[p] != 0) {
      ++wins[static_cast<size_t>(pairs[p].first)];
    } else {
      ++wins[static_cast<size_t>(pairs[p].second)];
    }
  }
  return wins;
}

std::vector<int> EvolutionarySearcher::RoundRobinWins(
    const std::vector<ArchHyper>& candidates, const Tensor& task_embed,
    int compare_batch) const {
  const int n = static_cast<int>(candidates.size());
  std::vector<ArchHyperEncoding> enc;
  enc.reserve(candidates.size());
  for (const ArchHyper& ah : candidates) enc.push_back(CachedEncoding(ah));
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, j});
    }
  }
  const std::vector<uint8_t> outcomes =
      DedupedOutcomes(candidates, enc, pairs, task_embed, compare_batch);
  std::vector<int> wins(static_cast<size_t>(n), 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (outcomes[p] != 0) ++wins[static_cast<size_t>(pairs[p].first)];
  }
  return wins;
}

std::vector<int> TopIndices(const std::vector<int>& scores, int k) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  order.resize(
      static_cast<size_t>(std::min<int>(k, static_cast<int>(order.size()))));
  return order;
}

std::vector<ArchHyper> EvolutionarySearcher::SearchTopK(
    const Tensor& task_embed, const SearchOptions& options) const {
  Rng rng(options.seed);
  // Stage 1: sample K_s candidates and rank them by sparse tournament.
  std::vector<ArchHyper> pool =
      space_->SampleDistinct(options.ranking_pool, &rng);
  std::vector<int> wins =
      SparseWinCounts(pool, task_embed, options.opponents_per_candidate,
                      options.compare_batch, &rng);
  std::vector<ArchHyper> population;
  for (int idx : TopIndices(wins, options.population)) {
    population.push_back(pool[static_cast<size_t>(idx)]);
  }

  // Stage 2: evolution — offspring via crossover/mutation, survivors by
  // comparator round-robin within the (small) population.
  for (int gen = 0; gen < options.generations; ++gen) {
    std::vector<ArchHyper> offspring;
    for (const ArchHyper& parent : population) {
      ArchHyper child = parent;
      if (rng.Bernoulli(options.crossover_prob)) {
        const ArchHyper& other = rng.Choice(population);
        child = space_->Crossover(child, other, &rng);
      }
      if (rng.Bernoulli(options.mutation_prob)) {
        child = space_->Mutate(child, &rng);
      }
      offspring.push_back(std::move(child));
    }
    std::vector<ArchHyper> merged = population;
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    std::vector<int> rr =
        RoundRobinWins(merged, task_embed, options.compare_batch);
    std::vector<ArchHyper> next;
    for (int idx : TopIndices(rr, options.population)) {
      next.push_back(merged[static_cast<size_t>(idx)]);
    }
    population = std::move(next);
  }

  // Stage 3: transitivity-free top-K by round-robin wins (Alg. 2).
  std::vector<int> final_wins =
      RoundRobinWins(population, task_embed, options.compare_batch);
  std::vector<ArchHyper> top;
  for (int idx : TopIndices(final_wins, options.top_k)) {
    top.push_back(population[static_cast<size_t>(idx)]);
  }
  return top;
}

}  // namespace autocts
