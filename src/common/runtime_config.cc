#include "common/runtime_config.h"

#include <cstdlib>
#include <cstring>

#include "common/jsonio.h"

namespace autocts {
namespace {

/// The historical truthiness of the AUTOCTS_NO_* knobs: unset, empty, or
/// "0" means "feature stays on".
bool DisableFlagSet(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace

const char* ComparatorPrecisionName(ComparatorPrecision p) {
  switch (p) {
    case ComparatorPrecision::kFp32: return "fp32";
    case ComparatorPrecision::kBf16: return "bf16";
    case ComparatorPrecision::kInt8: return "int8";
  }
  return "fp32";
}

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig cfg;
  if (const char* env = std::getenv("AUTOCTS_NUM_THREADS")) {
    int n = std::atoi(env);
    if (n > 0) cfg.num_threads = n;
  }
  if (const char* env = std::getenv("AUTOCTS_POOL_MB")) {
    long mb = std::atol(env);
    if (mb >= 0) cfg.pool_capacity_bytes = static_cast<uint64_t>(mb) << 20;
  }
  cfg.fused_kernels = !DisableFlagSet("AUTOCTS_NO_FUSED");
  cfg.step_plans = !DisableFlagSet("AUTOCTS_NO_PLAN");
  cfg.guards = !DisableFlagSet("AUTOCTS_NO_GUARDS");
  if (const char* env = std::getenv("AUTOCTS_BACKEND")) {
    cfg.backend = env;
  }
  if (const char* env = std::getenv("AUTOCTS_COMPARATOR_PRECISION")) {
    if (std::strcmp(env, "bf16") == 0) {
      cfg.comparator_precision = ComparatorPrecision::kBf16;
    } else if (std::strcmp(env, "int8") == 0) {
      cfg.comparator_precision = ComparatorPrecision::kInt8;
    }
    // Anything else (incl. "fp32") keeps the fp32 default.
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_PORT")) {
    int n = std::atoi(env);
    if (n >= 0 && n <= 65535) cfg.serve_port = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_WORKERS")) {
    int n = std::atoi(env);
    if (n >= 0) cfg.serve_workers = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_MAX_BATCH")) {
    int n = std::atoi(env);
    if (n > 0) cfg.serve_max_batch = n;
  }
  if (const char* env = std::getenv("AUTOCTS_SERVE_MAX_DELAY_US")) {
    int n = std::atoi(env);
    if (n >= 0) cfg.serve_max_delay_us = n;
  }
  cfg.sample_bank = !DisableFlagSet("AUTOCTS_BANK_DISABLE");
  cfg.bank_madvise = !DisableFlagSet("AUTOCTS_BANK_NO_MADVISE");
  cfg.bank_verify_on_open = DisableFlagSet("AUTOCTS_BANK_VERIFY");
  if (const char* env = std::getenv("AUTOCTS_STREAM_WARMUP")) {
    int n = std::atoi(env);
    if (n > 0) cfg.stream_warmup = n;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_PH_DELTA")) {
    char* end = nullptr;
    const float v = std::strtof(env, &end);
    if (end != env && v >= 0.0f) cfg.stream_ph_delta = v;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_PH_LAMBDA")) {
    char* end = nullptr;
    const float v = std::strtof(env, &end);
    if (end != env && v > 0.0f) cfg.stream_ph_lambda = v;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_ERROR_WINDOW")) {
    int n = std::atoi(env);
    if (n > 0) cfg.stream_error_window = n;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_RESEARCH_RETRIES")) {
    // 0 legitimately means "one attempt, no retries".
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 0) cfg.stream_research_retries = static_cast<int>(n);
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_RESEARCH_BACKOFF")) {
    int n = std::atoi(env);
    if (n > 0) cfg.stream_research_backoff = n;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_RESEARCH_DEADLINE")) {
    int n = std::atoi(env);
    if (n > 0) cfg.stream_research_deadline = n;
  }
  if (const char* env = std::getenv("AUTOCTS_STREAM_RESEARCH_DELAY")) {
    // 0 legitimately means "snapshot at the trigger tick".
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 0) cfg.stream_research_delay = static_cast<int>(n);
  }
  cfg.stream_recovery = !DisableFlagSet("AUTOCTS_STREAM_NO_RECOVERY");
  if (const char* env = std::getenv("AUTOCTS_SERVE_EMBED_CACHE")) {
    // 0 legitimately disables caching, so unparseable input must be told
    // apart from a parsed zero.
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n >= 0) {
      cfg.serve_embed_cache_entries = static_cast<size_t>(n);
    }
  }
  return cfg;
}

std::string RuntimeConfig::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("num_threads", num_threads);
  w.Field("pool_capacity_bytes", pool_capacity_bytes);
  w.Field("fused_kernels", fused_kernels);
  w.Field("step_plans", step_plans);
  w.Field("guards", guards);
  w.Field("backend", backend.empty() ? "auto" : backend);
  w.Field("comparator_precision",
          ComparatorPrecisionName(comparator_precision));
  w.Field("serve_port", serve_port);
  w.Field("serve_workers", serve_workers);
  w.Field("serve_max_batch", serve_max_batch);
  w.Field("serve_max_delay_us", serve_max_delay_us);
  w.Field("serve_embed_cache_entries", serve_embed_cache_entries);
  w.Field("sample_bank", sample_bank);
  w.Field("bank_madvise", bank_madvise);
  w.Field("bank_verify_on_open", bank_verify_on_open);
  w.Field("stream_warmup", stream_warmup);
  w.Field("stream_ph_delta", stream_ph_delta);
  w.Field("stream_ph_lambda", stream_ph_lambda);
  w.Field("stream_error_window", stream_error_window);
  w.Field("stream_research_retries", stream_research_retries);
  w.Field("stream_research_backoff", stream_research_backoff);
  w.Field("stream_research_deadline", stream_research_deadline);
  w.Field("stream_research_delay", stream_research_delay);
  w.Field("stream_recovery", stream_recovery);
  w.EndObject();
  return w.str();
}

const RuntimeConfig& GlobalRuntimeConfig() {
  // Parsed exactly once, on first use; leaked so late static destructors
  // can still read it.
  static const RuntimeConfig* config = new RuntimeConfig(RuntimeConfig::FromEnv());
  return *config;
}

}  // namespace autocts
