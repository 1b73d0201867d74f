// The unified runtime configuration surface (common/runtime_config.h):
// single-point environment parsing, the shared JSON serializer, the
// ExecContext configuration carry, and the RuntimeStats snapshot that folds
// pool/plan/guard/backend counters into one JSON object.
#include "common/runtime_config.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/jsonio.h"
#include "common/parallel.h"
#include "common/runtime_stats.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace autocts {
namespace {

/// Sets an environment variable for the current scope and restores the
/// prior value on destruction, so FromEnv tests cannot leak state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(RuntimeConfigTest, DefaultsWhenUnset) {
  unsetenv("AUTOCTS_NUM_THREADS");
  unsetenv("AUTOCTS_POOL_MB");
  unsetenv("AUTOCTS_NO_FUSED");
  unsetenv("AUTOCTS_NO_PLAN");
  unsetenv("AUTOCTS_NO_GUARDS");
  unsetenv("AUTOCTS_BACKEND");
  unsetenv("AUTOCTS_COMPARATOR_PRECISION");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 0);
  EXPECT_EQ(cfg.pool_capacity_bytes, uint64_t{256} << 20);
  EXPECT_TRUE(cfg.fused_kernels);
  EXPECT_TRUE(cfg.step_plans);
  EXPECT_TRUE(cfg.guards);
  EXPECT_TRUE(cfg.backend.empty());
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kFp32);
}

TEST(RuntimeConfigTest, ParsesEveryKnob) {
  ScopedEnv threads("AUTOCTS_NUM_THREADS", "3");
  ScopedEnv pool("AUTOCTS_POOL_MB", "64");
  ScopedEnv fused("AUTOCTS_NO_FUSED", "1");
  ScopedEnv plan("AUTOCTS_NO_PLAN", "1");
  ScopedEnv guards("AUTOCTS_NO_GUARDS", "1");
  ScopedEnv backend("AUTOCTS_BACKEND", "scalar");
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "int8");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 3);
  EXPECT_EQ(cfg.pool_capacity_bytes, uint64_t{64} << 20);
  EXPECT_FALSE(cfg.fused_kernels);
  EXPECT_FALSE(cfg.step_plans);
  EXPECT_FALSE(cfg.guards);
  EXPECT_EQ(cfg.backend, "scalar");
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kInt8);
}

TEST(RuntimeConfigTest, ParsesServeKnobs) {
  {
    unsetenv("AUTOCTS_SERVE_PORT");
    unsetenv("AUTOCTS_SERVE_WORKERS");
    unsetenv("AUTOCTS_SERVE_MAX_BATCH");
    unsetenv("AUTOCTS_SERVE_MAX_DELAY_US");
    unsetenv("AUTOCTS_SERVE_EMBED_CACHE");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 8080);
    EXPECT_EQ(cfg.serve_workers, 2);
    EXPECT_EQ(cfg.serve_max_batch, 8);
    EXPECT_EQ(cfg.serve_max_delay_us, 200);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 64u);
  }
  {
    ScopedEnv port("AUTOCTS_SERVE_PORT", "9191");
    ScopedEnv workers("AUTOCTS_SERVE_WORKERS", "4");
    ScopedEnv batch("AUTOCTS_SERVE_MAX_BATCH", "16");
    ScopedEnv delay("AUTOCTS_SERVE_MAX_DELAY_US", "1000");
    ScopedEnv cache("AUTOCTS_SERVE_EMBED_CACHE", "128");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 9191);
    EXPECT_EQ(cfg.serve_workers, 4);
    EXPECT_EQ(cfg.serve_max_batch, 16);
    EXPECT_EQ(cfg.serve_max_delay_us, 1000);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 128u);
  }
  {
    // Out-of-range or unparseable values keep defaults (port is 16-bit,
    // max_batch must be positive, the others non-negative).
    ScopedEnv port("AUTOCTS_SERVE_PORT", "70000");
    ScopedEnv workers("AUTOCTS_SERVE_WORKERS", "-1");
    ScopedEnv batch("AUTOCTS_SERVE_MAX_BATCH", "0");
    ScopedEnv delay("AUTOCTS_SERVE_MAX_DELAY_US", "-5");
    ScopedEnv cache("AUTOCTS_SERVE_EMBED_CACHE", "lots");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.serve_port, 8080);
    EXPECT_EQ(cfg.serve_workers, 2);
    EXPECT_EQ(cfg.serve_max_batch, 8);
    EXPECT_EQ(cfg.serve_max_delay_us, 200);
    EXPECT_EQ(cfg.serve_embed_cache_entries, 64u);
  }
  // print-config surfaces the serving knobs through the shared serializer.
  RuntimeConfig cfg;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"serve_port\": 8080"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve_max_batch\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve_embed_cache_entries\": 64"), std::string::npos)
      << json;
}

TEST(RuntimeConfigTest, ParsesStreamKnobs) {
  {
    unsetenv("AUTOCTS_STREAM_WARMUP");
    unsetenv("AUTOCTS_STREAM_PH_DELTA");
    unsetenv("AUTOCTS_STREAM_PH_LAMBDA");
    unsetenv("AUTOCTS_STREAM_ERROR_WINDOW");
    unsetenv("AUTOCTS_STREAM_RESEARCH_RETRIES");
    unsetenv("AUTOCTS_STREAM_RESEARCH_BACKOFF");
    unsetenv("AUTOCTS_STREAM_RESEARCH_DEADLINE");
    unsetenv("AUTOCTS_STREAM_RESEARCH_DELAY");
    unsetenv("AUTOCTS_STREAM_NO_RECOVERY");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.stream_warmup, 64);
    EXPECT_EQ(cfg.stream_research_delay, 0);
    EXPECT_FLOAT_EQ(cfg.stream_ph_delta, 0.05f);
    EXPECT_FLOAT_EQ(cfg.stream_ph_lambda, 8.0f);
    EXPECT_EQ(cfg.stream_error_window, 128);
    EXPECT_EQ(cfg.stream_research_retries, 2);
    EXPECT_EQ(cfg.stream_research_backoff, 16);
    EXPECT_EQ(cfg.stream_research_deadline, 32);
    EXPECT_TRUE(cfg.stream_recovery);
  }
  {
    ScopedEnv warmup("AUTOCTS_STREAM_WARMUP", "16");
    ScopedEnv delta("AUTOCTS_STREAM_PH_DELTA", "0.1");
    ScopedEnv lambda("AUTOCTS_STREAM_PH_LAMBDA", "12.5");
    ScopedEnv window("AUTOCTS_STREAM_ERROR_WINDOW", "32");
    ScopedEnv retries("AUTOCTS_STREAM_RESEARCH_RETRIES", "0");
    ScopedEnv backoff("AUTOCTS_STREAM_RESEARCH_BACKOFF", "8");
    ScopedEnv deadline("AUTOCTS_STREAM_RESEARCH_DEADLINE", "10");
    ScopedEnv delay("AUTOCTS_STREAM_RESEARCH_DELAY", "48");
    ScopedEnv no_recovery("AUTOCTS_STREAM_NO_RECOVERY", "1");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.stream_research_delay, 48);
    EXPECT_EQ(cfg.stream_warmup, 16);
    EXPECT_FLOAT_EQ(cfg.stream_ph_delta, 0.1f);
    EXPECT_FLOAT_EQ(cfg.stream_ph_lambda, 12.5f);
    EXPECT_EQ(cfg.stream_error_window, 32);
    // Retries = 0 is meaningful: one attempt, no retry.
    EXPECT_EQ(cfg.stream_research_retries, 0);
    EXPECT_EQ(cfg.stream_research_backoff, 8);
    EXPECT_EQ(cfg.stream_research_deadline, 10);
    EXPECT_FALSE(cfg.stream_recovery);
  }
  {
    // Invalid values keep defaults; NO_RECOVERY follows the disable-flag
    // truthiness rules ("0"/"" stay enabled).
    ScopedEnv warmup("AUTOCTS_STREAM_WARMUP", "-3");
    ScopedEnv delta("AUTOCTS_STREAM_PH_DELTA", "abc");
    ScopedEnv lambda("AUTOCTS_STREAM_PH_LAMBDA", "0");
    ScopedEnv window("AUTOCTS_STREAM_ERROR_WINDOW", "nope");
    ScopedEnv retries("AUTOCTS_STREAM_RESEARCH_RETRIES", "-1");
    ScopedEnv backoff("AUTOCTS_STREAM_RESEARCH_BACKOFF", "0");
    ScopedEnv deadline("AUTOCTS_STREAM_RESEARCH_DEADLINE", "-7");
    ScopedEnv delay("AUTOCTS_STREAM_RESEARCH_DELAY", "-2");
    ScopedEnv no_recovery("AUTOCTS_STREAM_NO_RECOVERY", "0");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_EQ(cfg.stream_research_delay, 0);
    EXPECT_EQ(cfg.stream_warmup, 64);
    EXPECT_FLOAT_EQ(cfg.stream_ph_delta, 0.05f);
    EXPECT_FLOAT_EQ(cfg.stream_ph_lambda, 8.0f);
    EXPECT_EQ(cfg.stream_error_window, 128);
    EXPECT_EQ(cfg.stream_research_retries, 2);
    EXPECT_EQ(cfg.stream_research_backoff, 16);
    EXPECT_EQ(cfg.stream_research_deadline, 32);
    EXPECT_TRUE(cfg.stream_recovery);
  }
  // print-config surfaces the streaming knobs.
  RuntimeConfig cfg;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"stream_warmup\": 64"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream_ph_lambda\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream_recovery\": true"), std::string::npos) << json;
}

TEST(RuntimeConfigTest, ParsesBankKnobs) {
  {
    unsetenv("AUTOCTS_BANK_DISABLE");
    unsetenv("AUTOCTS_BANK_NO_MADVISE");
    unsetenv("AUTOCTS_BANK_VERIFY");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_TRUE(cfg.sample_bank);
    EXPECT_TRUE(cfg.bank_madvise);
    EXPECT_FALSE(cfg.bank_verify_on_open);
  }
  {
    ScopedEnv disable("AUTOCTS_BANK_DISABLE", "1");
    ScopedEnv no_madvise("AUTOCTS_BANK_NO_MADVISE", "1");
    ScopedEnv verify("AUTOCTS_BANK_VERIFY", "1");
    RuntimeConfig cfg = RuntimeConfig::FromEnv();
    EXPECT_FALSE(cfg.sample_bank);
    EXPECT_FALSE(cfg.bank_madvise);
    EXPECT_TRUE(cfg.bank_verify_on_open);
  }
  RuntimeConfig cfg;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"sample_bank\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bank_madvise\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bank_verify_on_open\": false"), std::string::npos)
      << json;
}

TEST(RuntimeConfigTest, DisableFlagTruthinessMatchesHistoricalGetenv) {
  {
    ScopedEnv off("AUTOCTS_NO_FUSED", "0");
    EXPECT_TRUE(RuntimeConfig::FromEnv().fused_kernels);
  }
  {
    ScopedEnv off("AUTOCTS_NO_FUSED", "");
    EXPECT_TRUE(RuntimeConfig::FromEnv().fused_kernels);
  }
  {
    ScopedEnv on("AUTOCTS_NO_FUSED", "yes");
    EXPECT_FALSE(RuntimeConfig::FromEnv().fused_kernels);
  }
}

TEST(RuntimeConfigTest, UnparseableValuesKeepDefaults) {
  ScopedEnv threads("AUTOCTS_NUM_THREADS", "-4");
  ScopedEnv precision("AUTOCTS_COMPARATOR_PRECISION", "fp8");
  RuntimeConfig cfg = RuntimeConfig::FromEnv();
  EXPECT_EQ(cfg.num_threads, 0);
  EXPECT_EQ(cfg.comparator_precision, ComparatorPrecision::kFp32);
}

TEST(RuntimeConfigTest, ToJsonListsEveryKnob) {
  RuntimeConfig cfg;
  cfg.backend = "avx2";
  cfg.comparator_precision = ComparatorPrecision::kBf16;
  const std::string json = cfg.ToJson();
  EXPECT_NE(json.find("\"num_threads\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fused_kernels\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"step_plans\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"guards\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"backend\": \"avx2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"comparator_precision\": \"bf16\""),
            std::string::npos)
      << json;
}

TEST(RuntimeConfigTest, ExecContextCarriesOverride) {
  RuntimeConfig cfg;
  cfg.comparator_precision = ComparatorPrecision::kInt8;
  cfg.backend = "scalar";
  ExecContext ctx;
  EXPECT_EQ(&ctx.effective_config(), &GlobalRuntimeConfig());
  ctx.config = &cfg;
  EXPECT_EQ(ctx.effective_config().comparator_precision,
            ComparatorPrecision::kInt8);
  EXPECT_EQ(ctx.effective_config().backend, "scalar");
  // WithSeed must preserve the override like every other context field.
  EXPECT_EQ(ctx.WithSeed(9).effective_config().backend, "scalar");
}

TEST(RuntimeStatsTest, SnapshotFoldsBackendCounters) {
  // Drive one dispatched kernel so the backend family is live.
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};
  float c[4] = {0, 0, 0, 0};
  GemmAcc(a, 2, false, b, 2, false, c, 2, 2, 2, 2);

  RuntimeStats stats = RuntimeStats::Snapshot();
  EXPECT_FALSE(stats.backend.active.empty());
  EXPECT_GT(stats.backend.gemm_small_calls + stats.backend.gemm_micro_calls,
            0u);
  const std::string json = stats.ToJson();
  for (const char* key :
       {"\"pool\"", "\"plan\"", "\"guard\"", "\"backend\"", "\"serve\"",
        "\"active\"", "\"hit_rate\"", "\"finite_checks\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << json;
  }
}

TEST(JsonWriterTest, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string("a\"b\\c\n"));
  w.Key("inner");
  w.BeginObject();
  w.Field("x", 1.5);
  w.Field("flag", false);
  w.EndObject();
  w.Key("list");
  w.BeginArray();
  w.Value(int64_t{-3});
  w.Value(uint64_t{7});
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\": \"a\\\"b\\\\c\\n\", \"inner\": {\"x\": 1.5, "
            "\"flag\": false}, \"list\": [-3, 7]}");
}

}  // namespace
}  // namespace autocts
