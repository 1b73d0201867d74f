#ifndef REPRO_COMMON_RUNTIME_CONFIG_H_
#define REPRO_COMMON_RUNTIME_CONFIG_H_

#include <cstdint>
#include <string>

namespace autocts {

/// Numeric precision of comparator *inference* (CompareLogits during
/// zero-shot ranking). Training and forecaster evaluation always run fp32;
/// pairwise ranking tolerates reduced precision as long as rank agreement
/// holds (validated by comparator_quant_test and the ablation bench).
enum class ComparatorPrecision {
  kFp32 = 0,  ///< The tensor-graph fp32 path (default).
  kBf16,      ///< Weights rounded to bfloat16, fp32 accumulation.
  kInt8,      ///< Per-channel int8 weights, dynamic per-row activations,
              ///< int32 accumulation.
};

const char* ComparatorPrecisionName(ComparatorPrecision p);

/// The process runtime configuration: every AUTOCTS_* knob, parsed from the
/// environment exactly once (see FromEnv) instead of ad-hoc getenv calls
/// sprinkled through the subsystems. Subsystems seed their live toggles from
/// GlobalRuntimeConfig() on first use; the existing in-process setters
/// (SetFusedKernelsEnabled, plan::SetPlansEnabled, SetGuardsEnabled,
/// kernels::SetActiveBackend, ...) still override afterwards — the struct is
/// the startup snapshot and the single parse point, not a live registry.
///
/// ExecContext carries an optional pointer to one of these so pipeline code
/// can thread a non-global configuration (tests, multi-tenant servers)
/// through the same plumbing as pools and seeds.
struct RuntimeConfig {
  /// AUTOCTS_NUM_THREADS: size of the process-default thread pool
  /// (0 = hardware concurrency).
  int num_threads = 0;
  /// AUTOCTS_POOL_MB: buffer-pool capacity cap in bytes (default 256 MiB).
  uint64_t pool_capacity_bytes = uint64_t{256} << 20;
  /// AUTOCTS_NO_FUSED=1 routes fused kernels through their op-graph
  /// reference compositions.
  bool fused_kernels = true;
  /// AUTOCTS_NO_PLAN=1 disables step-plan capture/replay.
  bool step_plans = true;
  /// AUTOCTS_NO_GUARDS=1 disarms the non-finite guardrails.
  bool guards = true;
  /// AUTOCTS_BACKEND: SIMD kernel backend ("" = auto-detect per CPU;
  /// "scalar", "avx2", "avx512", "neon" force one, and forcing an
  /// unavailable backend falls back to the best available with a warning).
  std::string backend;
  /// AUTOCTS_COMPARATOR_PRECISION: "fp32" (default), "bf16", or "int8".
  ComparatorPrecision comparator_precision = ComparatorPrecision::kFp32;
  /// AUTOCTS_SERVE_PORT: TCP port of `autocts_cli serve` (0 = ephemeral).
  int serve_port = 8080;
  /// AUTOCTS_SERVE_WORKERS: serving worker threads (0 = one per core, capped
  /// at 8 — serving workers run kernels inline, so more rarely helps).
  int serve_workers = 2;
  /// AUTOCTS_SERVE_MAX_BATCH: requests coalesced into one micro-batch.
  int serve_max_batch = 8;
  /// AUTOCTS_SERVE_MAX_DELAY_US: straggler wait after the first request of a
  /// micro-batch.
  int serve_max_delay_us = 200;
  /// AUTOCTS_SERVE_EMBED_CACHE: resident task embeddings (0 disables).
  int serve_embed_cache_entries = 64;
  /// AUTOCTS_BANK_DISABLE=1 routes sample-fate persistence through the
  /// legacy wholesale checkpoint manifest instead of the mmap sample bank.
  bool sample_bank = true;
  /// AUTOCTS_BANK_NO_MADVISE=1 suppresses madvise streaming hints on bank
  /// mappings.
  bool bank_madvise = true;
  /// AUTOCTS_BANK_VERIFY=1 CRC-verifies every section payload when a bank
  /// is opened (default: sections verify on scrub only, keeping open cost
  /// independent of bank size).
  bool bank_verify_on_open = false;
  /// AUTOCTS_STREAM_WARMUP: ticks the drift detector observes before its
  /// error baseline freezes and triggering becomes possible.
  int stream_warmup = 64;
  /// AUTOCTS_STREAM_PH_DELTA: Page–Hinkley drift tolerance — per-tick slack
  /// subtracted from the normalized-error deviation before it accumulates.
  float stream_ph_delta = 0.05f;
  /// AUTOCTS_STREAM_PH_LAMBDA: Page–Hinkley trigger threshold on the
  /// accumulated deviation (larger = less sensitive).
  float stream_ph_lambda = 8.0f;
  /// AUTOCTS_STREAM_ERROR_WINDOW: rolling online-error window length used
  /// for the recent-MAE estimate reported per tick.
  int stream_error_window = 128;
  /// AUTOCTS_STREAM_RESEARCH_RETRIES: re-search attempts per drift trigger
  /// before the engine gives up and keeps the degraded model.
  int stream_research_retries = 2;
  /// AUTOCTS_STREAM_RESEARCH_BACKOFF: ticks between re-search retries
  /// (doubles per consecutive failure).
  int stream_research_backoff = 16;
  /// AUTOCTS_STREAM_RESEARCH_DEADLINE: ticks after which an outstanding
  /// background re-search is collected (the swap point; the old model
  /// serves every tick until then).
  int stream_research_deadline = 32;
  /// AUTOCTS_STREAM_RESEARCH_DELAY: ticks between a drift trigger and the
  /// re-search launch, letting the history ring refill with post-drift
  /// data before the training snapshot is taken (0 = launch immediately).
  int stream_research_delay = 0;
  /// AUTOCTS_STREAM_NO_RECOVERY=1 disables drift-triggered re-search and
  /// hot-swap; the detector still counts drifts (degraded-baseline mode).
  bool stream_recovery = true;

  /// Parses every knob from the environment. Unparseable values keep their
  /// defaults (matching the historical per-site getenv behaviour).
  static RuntimeConfig FromEnv();

  /// One-line-per-knob JSON object (shared serializer, see common/jsonio.h).
  std::string ToJson() const;
};

/// The configuration this process started with: FromEnv(), parsed once on
/// first call. This is the single environment entry point — subsystem code
/// must consult this (or the ExecContext-carried override) instead of
/// calling getenv.
const RuntimeConfig& GlobalRuntimeConfig();

}  // namespace autocts

#endif  // REPRO_COMMON_RUNTIME_CONFIG_H_
