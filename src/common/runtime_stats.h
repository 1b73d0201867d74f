#ifndef REPRO_COMMON_RUNTIME_STATS_H_
#define REPRO_COMMON_RUNTIME_STATS_H_

#include <cstdint>
#include <string>

#include "common/guard.h"
#include "common/parallel.h"

namespace autocts {

/// Counters of the runtime-dispatched kernel backend layer (see
/// tensor/backend.h). `active` names the backend serving dispatched kernels
/// at snapshot time; the call counters are process-wide totals across all
/// backends that ran (switching backends does not reset them).
struct BackendStats {
  std::string active;             ///< "scalar", "avx2", "avx512", "neon".
  uint64_t gemm_micro_calls = 0;  ///< Blocked-GEMM dispatches (micro path).
  uint64_t gemm_small_calls = 0;  ///< Small-problem GEMM dispatches.
  uint64_t qgemm_s8_calls = 0;    ///< int8 quantized GEMM dispatches.
  uint64_t qgemm_bf16_calls = 0;  ///< bf16-weight GEMM dispatches.
};

/// Hook tensor/backend.cc installs so RuntimeStats::Snapshot() works
/// without a common -> tensor dependency (same pattern as the pool and plan
/// providers in common/parallel.h).
using BackendStatsProvider = BackendStats (*)();
void RegisterBackendStatsProvider(BackendStatsProvider provider);

/// Counters of the recommendation serving layer (src/serve). All zeros when
/// no RecommendationService is live in the process.
struct ServeStats {
  uint64_t requests = 0;          ///< Requests admitted to the queue.
  uint64_t rejected = 0;          ///< TrySubmit refusals (queue full/stopping).
  uint64_t batches = 0;           ///< Micro-batches processed by workers.
  uint64_t batched_requests = 0;  ///< Requests served through those batches.
  uint64_t queue_highwater = 0;   ///< Deepest queue observed since Start().
  uint64_t embed_hits = 0;        ///< Task-embedding cache hits.
  uint64_t embed_misses = 0;      ///< Task-embedding cache misses.
  uint64_t embed_entries = 0;     ///< Resident task embeddings right now.
  uint64_t embed_evictions = 0;   ///< Embeddings dropped by LRU capacity.
  uint64_t duel_rows = 0;           ///< Comparator duels requested (pre-dedup).
  uint64_t duel_rows_evaluated = 0; ///< Duel rows actually run (post-dedup).
  uint64_t models_trained = 0;    ///< Forecast models trained on demand.
  uint64_t forecasts = 0;         ///< Forecasts served (trained or cached).
  uint64_t stream_sessions = 0;   ///< Stream sessions opened since Start().
  uint64_t stream_ticks = 0;      ///< Observations pushed across sessions.
  uint64_t stream_drifts = 0;     ///< Drift-detector triggers.
  uint64_t stream_swaps = 0;      ///< Model hot-swaps installed.
  uint64_t stream_research_failures = 0;  ///< Re-search attempts that failed.
  uint64_t stream_swap_stalls = 0;        ///< Ready models discarded as stale.

  /// Requests coalesced per micro-batch, on average.
  double mean_batch_size() const {
    return batches == 0 ? 0.0 : static_cast<double>(batched_requests) /
                                    static_cast<double>(batches);
  }
  /// Fraction of embedding lookups served from the cache.
  double embed_hit_rate() const {
    const uint64_t total = embed_hits + embed_misses;
    return total == 0 ? 0.0 : static_cast<double>(embed_hits) /
                                  static_cast<double>(total);
  }
};

/// Hook serve/service.cc installs so RuntimeStats::Snapshot() works without
/// a common -> serve dependency (the live RecommendationService registers
/// itself; the last one started wins).
using ServeStatsProvider = ServeStats (*)();
void RegisterServeStatsProvider(ServeStatsProvider provider);

/// One unified snapshot of every process-wide runtime counter family:
/// buffer pool, step plans, guardrails, and the kernel-backend dispatch
/// layer. This is THE stats surface — benches, stats dumps, and the CLI all
/// serialize this struct through its single JSON serializer instead of
/// hand-formatting their own field subsets.
struct RuntimeStats {
  PoolStats pool;
  PlanStats plan;
  GuardStats guard;
  BackendStats backend;
  ServeStats serve;

  /// Gathers all five counter families (families whose subsystem is not
  /// linked in stay at their zero defaults).
  static RuntimeStats Snapshot();

  /// Nested JSON object: {"pool": {...}, "plan": {...}, "guard": {...},
  /// "backend": {...}, "serve": {...}} via the shared JsonWriter.
  std::string ToJson() const;
};

}  // namespace autocts

#endif  // REPRO_COMMON_RUNTIME_STATS_H_
