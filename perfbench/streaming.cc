// The streaming group: per-tenant stream sessions on a RecommendationService
// (StreamOpen / StreamPush / StreamStats), with staggered regime shifts that
// each trigger drift detection, background re-search, model training and a
// hot-swap.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using autocts::serve::RecommendationService;
using autocts::serve::RecommendRequest;

constexpr int kSeries = 2;
constexpr int kSeedSteps = 64;  ///< Seed window replayed at StreamOpen.
constexpr int kHorizon = 6;
constexpr float kShift = 6.0f;  ///< Regime-shift size in raw units.
/// Session-local ticks between two shifts: detection, the re-search delay
/// (one history length), the deadline and a post-swap stretch.
constexpr int kCycle = 160;
constexpr int kFirstOnset = 48;
/// Shift cycles per session per measured second at full size. The script is
/// fixed for a given --seconds, so the MAE ratio stays exact.
constexpr double kCyclesPerSecond = 2.0;

/// Detector and recovery knobs sized so onset -> detect -> swap fits inside
/// a cycle (the settings bench_streaming uses): lambda=6 keeps the
/// stationary seed replay and the pre-shift ticks trigger-free; the
/// re-search waits one history length so it trains on the new regime only.
autocts::stream::StreamOptions Knobs() {
  autocts::stream::StreamOptions k;
  k.warmup = 16;
  k.ph_delta = 0.05f;
  k.ph_lambda = 6.0f;
  k.error_window = 32;
  k.recovery = true;
  k.research_retries = 2;
  k.research_backoff = 8;
  k.research_deadline = 8;
  k.research_delay = kSeedSteps;
  return k;
}

/// One tenant's signal: a smooth two-tone per series with seeded phases.
struct Tenant {
  float phase[kSeries];

  float At(int series, int t) const {
    return std::sin(0.3f * static_cast<float>(t) + phase[series]) +
           0.1f * static_cast<float>(series);
  }
};

struct Script {
  int sessions = 0;
  int cycles = 0;         ///< Shift cycles per session.
  int live_ticks = 0;     ///< Ticks pushed per session after StreamOpen.
  std::vector<Tenant> tenants;

  /// Session-local tick of shift `k` for `session`: staggered by a quarter
  /// cycle so at most two sessions recover at once.
  int Onset(int session, int k) const {
    return kFirstOnset + session * (kCycle / 4) + k * kCycle;
  }
  /// Raw level added at session-local live tick `t`: shifts alternate up
  /// and back down.
  float Level(int session, int t) const {
    int shifts = 0;
    for (int k = 0; k < cycles && t >= Onset(session, k); ++k) ++shifts;
    return shifts % 2 == 1 ? kShift : 0.0f;
  }
};

Script MakeScript(int sessions, int cycles, uint64_t seed, Digest* digest) {
  Script s;
  s.sessions = sessions;
  s.cycles = cycles;
  s.live_ticks = s.Onset(sessions - 1, cycles - 1) + kCycle - kFirstOnset;
  autocts::Rng rng(Mix(seed, 0x57e));
  for (int i = 0; i < sessions; ++i) {
    Tenant t;
    for (float& p : t.phase) p = rng.Uniform(0.0f, 6.2831853f);
    digest->Add(t.phase, kSeries);
    s.tenants.push_back(t);
  }
  digest->Add(static_cast<uint64_t>(s.live_ticks));
  return s;
}

RecommendRequest SeedRequest(const Tenant& tenant) {
  RecommendRequest r;
  r.num_series = kSeries;
  r.num_steps = kSeedSteps;
  r.p = kHorizon;
  r.q = kHorizon;
  r.window.resize(static_cast<size_t>(kSeries * kSeedSteps));
  for (int n = 0; n < kSeries; ++n) {
    for (int t = 0; t < kSeedSteps; ++t) {
      r.window[static_cast<size_t>(n * kSeedSteps + t)] = tenant.At(n, t);
    }
  }
  return r;
}

/// Fixture + started service + one open session per tenant.
struct Stack {
  Fixture fixture;
  std::unique_ptr<RecommendationService> service;
  std::vector<uint64_t> ids;
  std::vector<double> open_ms;

  ~Stack() {
    if (!service) return;
    for (uint64_t id : ids) (void)service->StreamClose(id);
    service->Shutdown();
  }
};

std::unique_ptr<Stack> SetUp(const Script& script, Tally* tally) {
  auto stack = std::make_unique<Stack>();
  stack->service = std::make_unique<RecommendationService>(
      &stack->fixture.comparator, &stack->fixture.encoder,
      &stack->fixture.space, FixtureServeOptions());
  const autocts::Status started = stack->service->Start();
  tally->Op(started.ok(), "service start: " + started.message());
  if (!started.ok()) return nullptr;
  for (const Tenant& tenant : script.tenants) {
    const Clock::time_point t0 = Clock::now();
    autocts::StatusOr<uint64_t> id =
        stack->service->StreamOpen(SeedRequest(tenant), Knobs());
    stack->open_ms.push_back(SecondsSince(t0) * 1e3);
    tally->Op(id.ok(), id.ok() ? "" : "StreamOpen: " + id.status().message());
    if (!id.ok()) return nullptr;
    stack->ids.push_back(id.value());
  }
  return stack;
}

struct ScriptResult {
  double wall_s = 0.0;
  int64_t pushes = 0;
  double mae_ratio = 0.0;
  std::vector<double> push_us;       ///< Per push, when timed.
  std::vector<double> recovery_ms;   ///< Onset push -> swap push, per cycle.
  std::vector<double> recovery_ticks;
  /// Pushes per second over each whole stretch of kCycle ticks.
  std::vector<double> chunk_ticks_per_s;
  autocts::stream::StreamEngineStats totals;
};

/// One pusher thread round-robins the live ticks through the sessions.
ScriptResult Play(const Script& script, Stack* stack, bool time_pushes,
                  Tally* tally) {
  ScriptResult out;
  const int sessions = script.sessions;
  std::vector<double> pre_sum(sessions, 0.0), post_sum(sessions, 0.0);
  std::vector<int> pre_n(sessions, 0), post_n(sessions, 0);
  std::vector<bool> recovered(sessions, false), early_drift(sessions, false);
  std::vector<Clock::time_point> onset_at(sessions);
  std::vector<int> onset_tick(sessions, 0);
  std::vector<float> values(kSeries);
  Tally pushes;
  const Clock::time_point start = Clock::now();
  Clock::time_point chunk_start = start;
  for (int t = 0; t < script.live_ticks; ++t) {
    if (t > 0 && t % kCycle == 0) {
      out.chunk_ticks_per_s.push_back(kCycle * sessions /
                                      SecondsSince(chunk_start));
      chunk_start = Clock::now();
    }
    for (int s = 0; s < sessions; ++s) {
      const Tenant& tenant = script.tenants[static_cast<size_t>(s)];
      const float level = script.Level(s, t);
      for (int n = 0; n < kSeries; ++n) {
        values[static_cast<size_t>(n)] = tenant.At(n, kSeedSteps + t) + level;
      }
      const int since_first = t - script.Onset(s, 0);
      const bool onset = since_first >= 0 && since_first % kCycle == 0 &&
                         since_first / kCycle < script.cycles;
      if (onset) {
        onset_at[s] = Clock::now();
        onset_tick[s] = t;
        recovered[s] = false;
      }
      const Clock::time_point t0 = Clock::now();
      autocts::StatusOr<autocts::stream::TickResult> r =
          stack->service->StreamPush(stack->ids[static_cast<size_t>(s)], values);
      if (time_pushes) out.push_us.push_back(SecondsSince(t0) * 1e6);
      ++out.pushes;
      pushes.Op(r.ok(), r.ok() ? "" : "StreamPush: " + r.status().message());
      if (!r.ok()) continue;
      const autocts::stream::TickResult& tick = r.value();
      if (tick.drift && t < script.Onset(s, 0)) early_drift[s] = true;
      if (tick.swapped) {
        out.recovery_ms.push_back(SecondsSince(onset_at[s]) * 1e3);
        out.recovery_ticks.push_back(t - onset_tick[s]);
        recovered[s] = true;
        continue;  // The swap tick scored the old model's last forecast.
      }
      if (!tick.scored) continue;
      if (t < script.Onset(s, 0)) {
        pre_sum[s] += tick.error;
        ++pre_n[s];
      } else if (recovered[s]) {
        post_sum[s] += tick.error;
        ++post_n[s];
      }
    }
  }
  out.wall_s = SecondsSince(start);
  tally->Merge(pushes);

  double pre = 0.0, post = 0.0;
  for (int s = 0; s < sessions; ++s) {
    if (pre_n[s] > 0) pre += pre_sum[s] / pre_n[s];
    if (post_n[s] > 0) post += post_sum[s] / post_n[s];
    autocts::StatusOr<autocts::stream::StreamEngineStats> stats =
        stack->service->StreamStats(stack->ids[static_cast<size_t>(s)]);
    if (!stats.ok()) {
      tally->Op(false, "StreamStats: " + stats.status().message());
      continue;
    }
    const autocts::stream::StreamEngineStats& st = stats.value();
    tally->Op(!early_drift[s], "drift before the first shift");
    tally->Op(st.drifts == st.swaps && st.swaps >= 1 &&
                  st.research_failures == 0,
              "session " + std::to_string(s) + ": " +
                  std::to_string(st.drifts) + " drifts, " +
                  std::to_string(st.swaps) + " swaps, " +
                  std::to_string(st.research_failures) + " failed re-searches");
    out.totals.drifts += st.drifts;
    out.totals.swaps += st.swaps;
    out.totals.research_failures += st.research_failures;
    out.totals.swap_stalls += st.swap_stalls;
  }
  out.mae_ratio = pre > 0.0 ? post / pre : 0.0;
  return out;
}

}  // namespace

void RunStream(const RunConfig& config, bool native, GroupResult* out) {
  const bool full = native && !config.tiny;
  const int sessions = full ? 4 : 2;
  const int cycles =
      full ? std::max(1, static_cast<int>(std::lround(config.seconds *
                                                      kCyclesPerSecond)))
           : 10;
  Script script;
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (int rep = 0; rep < (full ? 3 : 1); ++rep) {
    stack.reset();
    Digest digest;
    Tally setup_tally;
    const Clock::time_point t0 = Clock::now();
    script = MakeScript(sessions, cycles, kCorpusSeed, &digest);
    stack = SetUp(script, &setup_tally);
    setups.push_back(SecondsSince(t0));
    out->digest = digest;
    if (rep == 0 || !stack) out->tally.Merge(setup_tally);
    if (!stack) return;
  }
  out->setup_s = Median(setups);

  const double cpu0 = ProcessCpuSeconds();
  const ScriptResult run = Play(script, stack.get(), false, &out->tally);
  out->cpu_s = ProcessCpuSeconds() - cpu0;
  // The script repeats every kCycle ticks; as with the serving figures, the
  // quicker half of the repetitions is pooled (their ticks over their
  // time), since other tenants of a shared host slow whole stretches.
  std::vector<double> rates = run.chunk_ticks_per_s;
  std::sort(rates.begin(), rates.end(), std::greater<double>());
  rates.resize((rates.size() + 1) / 2);
  // Each repetition pushes the same ticks, so the pooled rate is the
  // harmonic mean of the repetitions' rates.
  double seconds_per_tick = 0.0;
  for (double r : rates) seconds_per_tick += 1.0 / r;
  out->e2e.Set("ticks_per_s",
               rates.empty() ? 0.0
                             : static_cast<double>(rates.size()) /
                                   seconds_per_tick,
               "1/s");
  out->e2e.Set("stream_mae_ratio", run.mae_ratio, "ratio");

  if (!(config.trace && native)) return;

  // Traced pass: the same script on fresh sessions, each StreamPush timed.
  const std::vector<double> open_ms = stack->open_ms;
  stack.reset();
  Tally traced_tally;
  stack = SetUp(script, &traced_tally);
  if (!stack) {
    out->tally.Merge(traced_tally);
    return;
  }
  const autocts::ServeStats serve0 = stack->service->stats();
  CounterDelta counters;
  const ScriptResult traced = Play(script, stack.get(), true, &traced_tally);
  counters.Report(static_cast<double>(traced.pushes), &out->layers);
  const autocts::ServeStats serve1 = stack->service->stats();
  traced_tally.Op(traced.mae_ratio == run.mae_ratio,
                  "traced stream MAE ratio differs from the untraced run");
  out->tally.Merge(traced_tally);

  Metrics* layers = &out->layers;
  layers->Set("stream.push_us_p50", Quantile(traced.push_us, 0.5), "us");
  layers->Set("stream.push_us_p90", Quantile(traced.push_us, 0.9), "us");
  layers->Set("stream.recovery_ms", Mean(traced.recovery_ms), "ms");
  layers->Set("stream.open_ms", Mean(open_ms), "ms");
  layers->Set("stream.drifts", static_cast<double>(traced.totals.drifts),
              "count");
  layers->Set("stream.swaps", static_cast<double>(traced.totals.swaps),
              "count");
  layers->Set("stream.research_failures",
              static_cast<double>(traced.totals.research_failures), "count");
  layers->Set("stream.swap_stalls",
              static_cast<double>(traced.totals.swap_stalls), "count");
  layers->Set("stream.recovery_ticks", Mean(traced.recovery_ticks), "count");
  layers->Set("serve.models_trained",
              static_cast<double>(serve1.models_trained -
                                  serve0.models_trained),
              "count");

  // The op is one tick: pusher wall per push = StreamPush (timed) + the
  // pusher's own loop (the remainder).
  const double n = static_cast<double>(run.pushes);
  const double untraced_ms = run.wall_s * 1e3 / n;
  const double attributed_ms = Mean(traced.push_us) * 1e-3;
  layers->Set("trace.e2e_ms", untraced_ms, "ms");
  layers->Set("trace.attributed_ms", attributed_ms, "ms");
  layers->Set("trace.remainder_ms", untraced_ms - attributed_ms, "ms");
  layers->Set("trace.overhead_ms",
              traced.wall_s * 1e3 / static_cast<double>(traced.pushes) -
                  untraced_ms,
              "ms");
}

}  // namespace perfbench
