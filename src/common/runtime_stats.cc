#include "common/runtime_stats.h"

#include <atomic>

#include "common/jsonio.h"

namespace autocts {
namespace {

std::atomic<BackendStatsProvider> g_backend_provider{nullptr};
std::atomic<ServeStatsProvider> g_serve_provider{nullptr};

}  // namespace

void RegisterBackendStatsProvider(BackendStatsProvider provider) {
  g_backend_provider.store(provider, std::memory_order_release);
}

void RegisterServeStatsProvider(ServeStatsProvider provider) {
  g_serve_provider.store(provider, std::memory_order_release);
}

RuntimeStats RuntimeStats::Snapshot() {
  RuntimeStats s;
  ExecContext ctx;
  s.pool = ctx.pool_stats();
  s.plan = ctx.plan_stats();
  s.guard = CurrentGuardStats();
  if (BackendStatsProvider p =
          g_backend_provider.load(std::memory_order_acquire)) {
    s.backend = p();
  }
  if (ServeStatsProvider p = g_serve_provider.load(std::memory_order_acquire)) {
    s.serve = p();
  }
  return s;
}

std::string RuntimeStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("pool");
  w.BeginObject();
  w.Field("hits", pool.hits);
  w.Field("misses", pool.misses);
  w.Field("releases", pool.releases);
  w.Field("dropped", pool.dropped);
  w.Field("bypassed", pool.bypassed);
  w.Field("bytes_pooled", pool.bytes_pooled);
  w.Field("hit_rate", pool.hit_rate());
  w.EndObject();
  w.Key("plan");
  w.BeginObject();
  w.Field("captures", plan.captures);
  w.Field("replays", plan.replays);
  w.Field("invalidations", plan.invalidations);
  w.Field("poisoned", plan.poisoned);
  w.Field("arena_bytes", plan.arena_bytes);
  w.Field("pinned_bytes", plan.pinned_bytes);
  w.EndObject();
  w.Key("guard");
  w.BeginObject();
  w.Field("finite_checks", guard.finite_checks);
  w.Field("nonfinite_detected", guard.nonfinite_detected);
  w.EndObject();
  w.Key("backend");
  w.BeginObject();
  w.Field("active", backend.active.empty() ? "unlinked" : backend.active);
  w.Field("gemm_micro_calls", backend.gemm_micro_calls);
  w.Field("gemm_small_calls", backend.gemm_small_calls);
  w.Field("qgemm_s8_calls", backend.qgemm_s8_calls);
  w.Field("qgemm_bf16_calls", backend.qgemm_bf16_calls);
  w.EndObject();
  w.Key("serve");
  w.BeginObject();
  w.Field("requests", serve.requests);
  w.Field("rejected", serve.rejected);
  w.Field("batches", serve.batches);
  w.Field("batched_requests", serve.batched_requests);
  w.Field("mean_batch_size", serve.mean_batch_size());
  w.Field("queue_highwater", serve.queue_highwater);
  w.Field("embed_hits", serve.embed_hits);
  w.Field("embed_misses", serve.embed_misses);
  w.Field("embed_hit_rate", serve.embed_hit_rate());
  w.Field("embed_entries", serve.embed_entries);
  w.Field("embed_evictions", serve.embed_evictions);
  w.Field("duel_rows", serve.duel_rows);
  w.Field("duel_rows_evaluated", serve.duel_rows_evaluated);
  w.Field("models_trained", serve.models_trained);
  w.Field("forecasts", serve.forecasts);
  w.Field("stream_sessions", serve.stream_sessions);
  w.Field("stream_ticks", serve.stream_ticks);
  w.Field("stream_drifts", serve.stream_drifts);
  w.Field("stream_swaps", serve.stream_swaps);
  w.Field("stream_research_failures", serve.stream_research_failures);
  w.Field("stream_swap_stalls", serve.stream_swap_stalls);
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace autocts
