// Shared pieces of the end-to-end benchmark: the result record, the clocks
// and process counters every workload reads, and the three workload groups
// (pipeline, serving, streaming) that main.cc composes.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/runtime_stats.h"
#include "common/scale_config.h"
#include "comparator/comparator.h"
#include "core/autocts.h"
#include "searchspace/search_space.h"
#include "serve/service.h"

namespace perfbench {

/// Program compute lanes: AutoCtsOptions::num_threads and the serving
/// worker count. Half of a 4-core host, so the load generator and the
/// host's own work do not steal from the measured program.
inline constexpr int kLanes = 2;

/// Seed of the pipeline and stream inputs. What those workloads report
/// exactly (pair accuracy, test MAE, MAE ratio) and what they cost (which
/// arch-hypers top-K training trains) both follow the content, so they run
/// on one fixed corpus, as the paper runs on fixed datasets; the workload
/// seed draws the serving traffic.
inline constexpr uint64_t kCorpusSeed = 1;

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Process user+sys CPU seconds so far (getrusage).
double ProcessCpuSeconds();
/// Peak resident set size of the process in MB (ru_maxrss).
double PeakRssMb();

/// 64-bit mixing of two seeds (splitmix64 finalizer over a ^ rotated b).
uint64_t Mix(uint64_t a, uint64_t b);

/// FNV-1a digest of the generated inputs, so a changed input can be told
/// apart from a changed program.
class Digest {
 public:
  void Add(const float* values, size_t count);
  void Add(uint64_t word);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Ordered list of named measurements with units — the "metrics" object of
/// the result line.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds or overwrites `name`.
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Ops attempted and failed, with the first few failure reasons.
struct Tally {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;

  /// Counts one op; `ok` false records `what` as a failure.
  void Op(bool ok, const std::string& what);
  void Merge(const Tally& other);
};

/// What every workload group receives.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Every group at its small size (the self-test), not only the probes.
  bool tiny = false;
  /// Scratch directory inside the checkout (checkpoints).
  std::string work_dir;
};

/// What a group hands back. `e2e` holds the group's end-to-end metrics;
/// `layers` its per-layer metrics when traced. `setup_s` and `cpu_s` cover
/// the group's set-up and measured phase.
struct GroupResult {
  Metrics e2e;
  Metrics layers;
  double setup_s = 0.0;
  double cpu_s = 0.0;
  Tally tally;
  Digest digest;
};

/// The full pipeline's scale. Serving and streaming fixtures use its
/// AutoCtsOptions::ForScale geometry, so a request costs what it would
/// cost against the pipeline's pretrained model.
autocts::ScaleConfig PipelineScale();

/// Comparator, encoder and search space of the serving and streaming
/// fixtures: seeded weights at the pipeline's geometry (per-request cost
/// depends on the geometry, not on the weight values).
struct Fixture {
  autocts::AutoCtsOptions options =
      autocts::AutoCtsOptions::ForScale(PipelineScale());
  autocts::Rng rng{4242};
  autocts::Comparator comparator{options.comparator, 4343};
  autocts::Ts2Vec encoder{1, options.ts2vec, &rng};
  autocts::JointSearchSpace space;
};

/// Service knobs of both fixtures: ServeOptions::ForScale at the pipeline's
/// scale, kLanes workers, micro-batches of up to 8 requests.
autocts::serve::ServeOptions FixtureServeOptions();

/// A group runs at full size when `native` (it is the workload's subject)
/// and otherwise at the small probe size that keeps every end-to-end metric
/// present on every workload.
void RunPipeline(const RunConfig& config, bool native, GroupResult* out);
void RunServe(const RunConfig& config, bool cold, bool native,
              GroupResult* out);
void RunStream(const RunConfig& config, bool native, GroupResult* out);

/// Process-wide counter deltas the per-layer metrics share.
struct CounterDelta {
  autocts::RuntimeStats before;
  double cpu_before = 0.0;
  Clock::time_point wall_before;

  CounterDelta();
  /// tensor.* and common.* per-layer metrics over [construction, now);
  /// `ops` is the workload's op count (requests, ticks or targets).
  void Report(double ops, Metrics* layers) const;
};

/// Median wall time in microseconds of CompareLogits on `rows` random
/// duels with one task embedding broadcast across the rows.
double CompareLogitsMicros(const autocts::Comparator& comparator,
                           const autocts::JointSearchSpace& space,
                           const autocts::Tensor& task_embed, int rows,
                           uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
