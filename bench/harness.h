#ifndef REPRO_BENCH_HARNESS_H_
#define REPRO_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/autocts.h"
#include "data/synthetic.h"

namespace autocts {
namespace bench {

/// Shared environment of the paper-table benchmark binaries. Scale knobs
/// come from ScaleConfig::Bench(); the seed count is REPRO_SEEDS (default 1;
/// the paper uses 5 — raise it when you have the minutes to spare).
struct BenchEnv {
  ScaleConfig scale;
  int seeds = 1;
  AutoCtsOptions autocts;

  static BenchEnv FromEnv();
};

/// The seven unseen target tasks of one forecasting setting (Table 3 order).
std::vector<ForecastTask> MakeTargetTasks(int p, int q, bool single_step,
                                          const ScaleConfig& scale);
ForecastTask MakeTargetTask(const std::string& dataset, int p, int q,
                            bool single_step, const ScaleConfig& scale);

/// Source tasks for pre-training: subsets of the eleven source datasets
/// under P-12/Q-12 and P-48/Q-48 (paper §4.1.1; 200 tasks there, scaled
/// here to `num_tasks`).
std::vector<ForecastTask> MakeSourceTasks(int num_tasks,
                                          const ScaleConfig& scale,
                                          uint64_t seed);

/// Mean/stddev of a metric across seeds.
struct Aggregate {
  double mean = 0.0;
  double std = 0.0;
};
Aggregate Aggregated(const std::vector<double>& values);

/// Result of evaluating one method on one task across seeds.
struct EvalResult {
  std::vector<ForecastMetrics> per_seed;
  Aggregate mae, rmse, mape, rrse, corr;
  double seconds = 0.0;  ///< Total wall time including any grid search.
};
EvalResult AggregateMetrics(const std::vector<ForecastMetrics>& per_seed);

/// Trains a named baseline on the task. When `grid_search` is set, first
/// picks H ∈ {32, 64} × I ∈ {64, 256} by one-epoch early validation — the
/// hyperparameter grid the paper grants the baselines at unseen settings.
EvalResult EvaluateBaseline(const std::string& name, const ForecastTask& task,
                            const BenchEnv& env, bool grid_search,
                            uint64_t seed);

/// Trains a fixed arch-hyper on the task across seeds.
EvalResult EvaluateArchHyper(const ArchHyper& ah, const ForecastTask& task,
                             const BenchEnv& env, uint64_t seed);

/// Trains the AutoCTS++ top-K candidates and reports the winner, per seed.
EvalResult EvaluateAutoCtsPlusPlus(AutoCtsPlusPlus* framework,
                                   const ForecastTask& task,
                                   const BenchEnv& env, uint64_t seed);

/// Builds and pre-trains an AutoCTS++ instance on the standard source-task
/// mix, logging progress to stdout. When `cache_tag` is non-empty the
/// pre-trained parameters are cached under
/// $REPRO_CKPT_DIR/autocts_<tag>.{encoder,tahc} (default dir ".") so sibling
/// bench binaries reuse one pre-training run; delete the files to retrain.
std::unique_ptr<AutoCtsPlusPlus> PretrainedFramework(
    const BenchEnv& env, const std::string& cache_tag = "default");
std::unique_ptr<AutoCtsPlusPlus> PretrainedFramework(
    const BenchEnv& env, AutoCtsOptions options,
    const std::string& cache_tag);

/// "1.234±0.010" cell (matching the paper's mean±std presentation).
std::string Cell(const Aggregate& agg, int precision = 3);

/// One machine-readable micro-benchmark measurement. bench_micro emits a
/// list of these as BENCH_PR2.json / BENCH_PR3.json so CI can archive
/// kernel throughput and allocator pressure per commit. Fields that do not
/// apply to a given op stay at their zero defaults.
struct MicroBenchRecord {
  std::string op;             ///< e.g. "matmul_blocked_512".
  int threads = 1;
  double gflops = 0.0;        ///< Arithmetic throughput (0 if not a kernel).
  double ns_per_iter = 0.0;   ///< Mean wall time per iteration.
  double pool_hit_rate = 0.0;  ///< Buffer-pool hit rate over the timed run.
  double allocs_per_step = 0.0;  ///< Heap allocations per iteration.
  double tape_nodes_per_step = 0.0;  ///< Autograd nodes taped per iteration.
  /// Buffer-pool acquires (hits + misses) per iteration — every one is an
  /// acquire/release round-trip once the step's tape is torn down.
  double pool_roundtrips_per_step = 0.0;
  /// For derived A/B records: percent cost of the "on" leg over the "off"
  /// leg (used by the BENCH_PR4.json guardrail-overhead records).
  double overhead_pct = 0.0;
  /// Fastest/slowest repetition (0 when only the mean was measured).
  double ns_min = 0.0;
  double ns_max = 0.0;
  /// For paired A/B records over >=5 repetitions: per-repetition speedup of
  /// the fast leg over the baseline leg (BENCH_PR5.json plan-vs-eager).
  double speedup_min = 0.0;
  double speedup_median = 0.0;
  double speedup_max = 0.0;
  /// Plan arena footprint (bytes) live during the timed run, if any.
  double arena_bytes = 0.0;
  /// Kernel backend active during the measurement ("" when the op does not
  /// dispatch through tensor/backend.h or the backend is irrelevant).
  std::string backend;
  /// For quantized-vs-fp32 comparator A/B records: fraction of pairwise
  /// verdicts agreeing with fp32 over the measured sweep (0 if unmeasured).
  double rank_agreement = 0.0;
  /// Latency-distribution fields for serving-style records (BENCH_PR7.json):
  /// per-request latency percentiles over the measured run (0 when only a
  /// mean was measured) and sustained request throughput.
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double qps = 0.0;
  /// Cache hit rate observed over the run (embed cache for serving records;
  /// 0 when the record has no cache axis).
  double cache_hit_rate = 0.0;
  /// Resident-set growth attributable to the measured resume path
  /// (BENCH_PR8.json bank records; /proc/self/statm delta, 0 elsewhere).
  double rss_bytes = 0.0;
  /// Checkpoint-resume latency: open the bank and make every persisted
  /// sample/embedding usable again (mean over repetitions, 0 elsewhere).
  double resume_ns = 0.0;
  /// Streaming-scenario fields (BENCH_PR9.json): online MAE before the
  /// fault onset, between onset and the first hot-swap (or to the end when
  /// the arm never recovers), and after the first swap; how many ticks and
  /// wall ns the first recovery took (0 when no swap happened); and the
  /// session's drift/swap counters. 0 on non-streaming records.
  double mae_pre = 0.0;
  double mae_degraded = 0.0;
  double mae_post = 0.0;
  double recovery_ticks = 0.0;
  double recovery_ns = 0.0;
  double drifts = 0.0;
  double swaps = 0.0;
};

/// Writes `records` to `path` as a JSON array of flat objects.
void WriteBenchJson(const std::string& path,
                    const std::vector<MicroBenchRecord>& records);

}  // namespace bench
}  // namespace autocts

#endif  // REPRO_BENCH_HARNESS_H_
