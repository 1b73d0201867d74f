#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "perfbench.h"
#include "searchspace/encoding.h"
#include "tensor/tensor.h"

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ ((b << 29) | (b >> 35)) ^ 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::Add(const float* values, size_t count) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (size_t i = 0; i < count * sizeof(float); ++i) {
    hash_ ^= bytes[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Metrics::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double Metrics::Get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  CHECK(false) << "metric not recorded: " << name;
  return 0.0;
}

void Tally::Op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

CounterDelta::CounterDelta()
    : before(autocts::RuntimeStats::Snapshot()),
      cpu_before(ProcessCpuSeconds()),
      wall_before(Clock::now()) {}

void CounterDelta::Report(double ops, Metrics* layers) const {
  const autocts::RuntimeStats now = autocts::RuntimeStats::Snapshot();
  const double wall = SecondsSince(wall_before);
  const double cpu = ProcessCpuSeconds() - cpu_before;
  auto delta = [](uint64_t after, uint64_t before_value) {
    return static_cast<double>(after - before_value);
  };
  const double hits = delta(now.pool.hits, before.pool.hits);
  const double misses = delta(now.pool.misses, before.pool.misses);
  layers->Set("tensor.pool_hit_rate",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  layers->Set("tensor.allocations",
              misses + delta(now.pool.bypassed, before.pool.bypassed),
              "count");
  const double replays = delta(now.plan.replays, before.plan.replays);
  const double captures = delta(now.plan.captures, before.plan.captures);
  const double poisoned = delta(now.plan.poisoned, before.plan.poisoned);
  const double plan_steps = replays + captures + poisoned;
  layers->Set("tensor.plan_replay_ratio",
              plan_steps > 0.0 ? replays / plan_steps : 0.0, "ratio");
  layers->Set("tensor.plan_poisoned", poisoned, "count");
  layers->Set("tensor.plan_replays_per_req", ops > 0.0 ? replays / ops : 0.0,
              "count");
  layers->Set("tensor.plan_arena_mb",
              static_cast<double>(now.plan.arena_bytes) / (1024.0 * 1024.0),
              "MB");
  layers->Set("tensor.gemm_micro_calls",
              delta(now.backend.gemm_micro_calls,
                    before.backend.gemm_micro_calls),
              "count");
  layers->Set("tensor.gemm_small_calls",
              delta(now.backend.gemm_small_calls,
                    before.backend.gemm_small_calls),
              "count");
  layers->Set("common.lane_util",
              wall > 0.0 ? cpu / (wall * kLanes) : 0.0, "ratio");
  layers->Set("common.guard_checks",
              delta(now.guard.finite_checks, before.guard.finite_checks),
              "count");
  layers->Set("common.nonfinite",
              delta(now.guard.nonfinite_detected,
                    before.guard.nonfinite_detected),
              "count");
}

double CompareLogitsMicros(const autocts::Comparator& comparator,
                           const autocts::JointSearchSpace& space,
                           const autocts::Tensor& task_embed, int rows,
                           uint64_t seed) {
  autocts::Rng rng(seed);
  std::vector<autocts::ArchHyperEncoding> first, second;
  for (int i = 0; i < rows; ++i) {
    first.push_back(autocts::EncodeArchHyper(space.Sample(&rng)));
    second.push_back(autocts::EncodeArchHyper(space.Sample(&rng)));
  }
  const autocts::EncodingBatch a = autocts::StackEncodings(first);
  const autocts::EncodingBatch b = autocts::StackEncodings(second);
  const int width = static_cast<int>(task_embed.numel());
  std::vector<float> tiled;
  for (int i = 0; i < rows; ++i) {
    const float* src = task_embed.data().data();
    tiled.insert(tiled.end(), src, src + width);
  }
  const autocts::Tensor embeds =
      autocts::Tensor::FromVector({rows, width}, std::move(tiled));
  autocts::NoGradScope no_grad;
  std::vector<double> micros;
  for (int rep = 0; rep < 40; ++rep) {
    const Clock::time_point t0 = Clock::now();
    autocts::Tensor logits = comparator.CompareLogits(a, b, embeds);
    const double us = SecondsSince(t0) * 1e6;
    CHECK_EQ(logits.numel(), rows);
    if (rep >= 5) micros.push_back(us);  // The first calls warm the pool.
  }
  return Median(micros);
}

}  // namespace perfbench
