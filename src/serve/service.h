#ifndef REPRO_SERVE_SERVICE_H_
#define REPRO_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/runtime_config.h"
#include "common/runtime_stats.h"
#include "common/scale_config.h"
#include "common/status.h"
#include "comparator/comparator.h"
#include "comparator/quant.h"
#include "embedding/ts2vec.h"
#include "model/trainer.h"
#include "search/evolutionary.h"
#include "serve/embed_cache.h"
#include "stream/stream.h"

namespace autocts {
namespace serve {

/// Knobs of the long-lived recommendation server (see DESIGN.md "Serving
/// layer"). Every knob has an AUTOCTS_SERVE_* environment form parsed by
/// RuntimeConfig::FromEnv and a --flag on `autocts_cli serve`.
struct ServeOptions {
  /// Worker threads draining the request queue. Each worker runs tensor
  /// kernels inline on its own 1-lane pool — worker count, not kernel
  /// fan-out, is the serving concurrency axis.
  int workers = 2;
  /// Admission policy: a worker coalesces up to `max_batch` queued requests
  /// into one micro-batch, waiting at most `max_delay_us` after the first
  /// request for stragglers. max_batch=1 (or max_delay_us=0 under load)
  /// degenerates to one-request-at-a-time — the bench baseline.
  int max_batch = 8;
  int max_delay_us = 200;
  /// Bounded request queue; TrySubmit rejects when full (open-loop
  /// overload), Submit blocks (closed-loop clients).
  int queue_capacity = 256;
  /// Resident task embeddings (LRU, keyed by window signature).
  size_t embed_cache_entries = 64;
  /// Resident trained forecast models (LRU, keyed by task+arch signature).
  size_t model_cache_entries = 16;
  /// Zero-shot ranking knobs. Serving runs the rank-only mode — sparse
  /// tournament over `search.ranking_pool` candidates, then one final
  /// round-robin among the top `search.population` — i.e. SearchTopK with
  /// generations pinned to 0. Responses are identical to
  /// EvolutionarySearcher::SearchTopK at those options.
  SearchOptions search;
  /// Windows drawn per request for the preliminary task embedding.
  int windows_per_task = 8;
  /// Training budget for on-demand forecast models (want_forecast). Small
  /// by design: the trained model is cached per (window, arch) signature.
  TrainOptions forecast_train;
  /// Model-geometry scaling for forecast models.
  ScaleConfig scale;
  /// Comparator inference precision for this service (default: the process
  /// AUTOCTS_COMPARATOR_PRECISION). bf16/int8 take the off-tape quantized
  /// path; responses stay deterministic per precision.
  ComparatorPrecision precision = GlobalRuntimeConfig().comparator_precision;

  /// Serving defaults scaled to the preset (small ranking pool: the
  /// "seconds, not minutes" zero-shot promise).
  static ServeOptions ForScale(const ScaleConfig& scale);
};

/// One "here is my dataset window -> recommend an arch-hyper (+forecast)"
/// query. The window is a dense [num_series, num_steps] slab (feature dim 1,
/// series-major like CtsDataset). `adjacency` is optional ([N*N], row-major);
/// identity is assumed when empty — the comparator never reads it, only
/// forecast models do.
struct RecommendRequest {
  std::vector<float> window;
  int num_series = 0;
  int num_steps = 0;
  std::vector<float> adjacency;
  int p = 12;
  int q = 12;
  bool single_step = false;
  /// Ranked arch-hypers to return (clamped to the serving population).
  int top_k = 1;
  /// Also train (cold) / fetch (warm) a forecast model for the best
  /// arch-hyper and return its prediction for the q steps after the window.
  bool want_forecast = false;
};

/// The served answer. Bit-identical for a given (request bytes,
/// ServeOptions knobs, comparator weights) regardless of batch composition,
/// worker count, and cache state — see the determinism argument in
/// DESIGN.md "Serving layer".
struct Recommendation {
  /// Arch-hyper signatures, best-ranked first (parseable by ParseArchHyper).
  std::vector<std::string> ranked;
  /// [num_series * horizon] forecast (horizon = q, or 1 when single_step);
  /// empty unless want_forecast.
  std::vector<float> forecast;
  /// FNV-1a content signature of the request's window + geometry.
  uint64_t task_signature = 0;
  bool embed_cache_hit = false;
  bool model_cache_hit = false;
  /// Queue wait and in-worker service time of this request.
  double queue_us = 0.0;
  double service_us = 0.0;
  /// Requests coalesced into the micro-batch that served this one.
  int batch_size = 0;
};

/// The long-lived, in-process zero-shot serving core.
///
/// Keeps the pretrained T-AHC and the task-embedding encoder resident
/// across requests, and answers concurrent recommendation queries through a
/// bounded MPMC queue with micro-batching admission: workers coalesce up to
/// max_batch requests and pack their comparator duels (deduplicated by
/// content signature) into shared CompareLogits batches, each row carrying
/// its own task-embedding — the batching seam that amortizes fixed
/// per-batch cost across tenants.
///
/// Thread safety: Submit/TrySubmit/Recommend may be called from any number
/// of threads. Shutdown drains queued requests before returning; submissions
/// after Shutdown began are rejected with an error.
class RecommendationService {
 public:
  /// `comparator` and `encoder` must be pretrained and must outlive the
  /// service; the service puts the comparator into eval mode. `space` is
  /// the joint search space candidates are sampled from.
  RecommendationService(Comparator* comparator, const TaskEncoder* encoder,
                        const JointSearchSpace* space,
                        const ServeOptions& options);
  ~RecommendationService();

  RecommendationService(const RecommendationService&) = delete;
  RecommendationService& operator=(const RecommendationService&) = delete;

  /// Spawns the worker threads. Errors on invalid options.
  Status Start();

  /// Stops admission, drains every queued request, joins the workers.
  /// Idempotent.
  void Shutdown();

  /// Enqueues a request; blocks while the queue is full. The future errors
  /// (never dangles) if the service shuts down first.
  std::future<StatusOr<Recommendation>> Submit(RecommendRequest request);

  /// Non-blocking admission: kUnavailable-style error when the queue is
  /// full or the service is stopping (the open-loop overload policy).
  Status TrySubmit(RecommendRequest request,
                   std::future<StatusOr<Recommendation>>* result);

  /// Submit + wait. The blocking convenience used by the HTTP front end.
  StatusOr<Recommendation> Recommend(RecommendRequest request);

  /// The deterministic task embedding served for `request`'s window
  /// (content-seeded; cache state cannot change it). Exposed so equivalence
  /// tests can reproduce a serve response with EvolutionarySearcher.
  Tensor TaskEmbeddingFor(const RecommendRequest& request) const;

  /// ---- Streaming sessions (DESIGN.md "Streaming & drift-triggered
  /// re-search") -------------------------------------------------------

  /// Opens a per-tenant streaming session: zero-shot ranks an arch-hyper on
  /// the request window, trains the initial model on it (cached like any
  /// forecast model), replays the window through a fresh StreamEngine so
  /// forecasting and detector warm-up start hot, and returns the session
  /// id. Drift-triggered re-search re-enters this service's own rank+train
  /// pipeline on a background thread. The service must be Start()ed; the
  /// window must afford training (num_steps >= p + q + 19). Detector and
  /// recovery knobs come from the AUTOCTS_STREAM_* environment.
  StatusOr<uint64_t> StreamOpen(const RecommendRequest& request);
  /// Same, with explicit detector/recovery knobs (num_series, p, adjacency,
  /// history, and seed are still derived from the request). The CLI's
  /// --no-recovery / --ph-* flags and the degraded-baseline bench arm use
  /// this; the one-argument form reads the environment snapshot.
  StatusOr<uint64_t> StreamOpen(const RecommendRequest& request,
                                const stream::StreamOptions& knobs);

  /// Advances session `id` by one tick: `values[num_series]`, `missing`
  /// empty (fully observed) or per-series non-zero = did-not-report.
  /// Pushes on one session serialize; distinct sessions run concurrently.
  StatusOr<stream::TickResult> StreamPush(
      uint64_t id, const std::vector<float>& values,
      const std::vector<uint8_t>& missing = {});

  /// Counters of a live session (post-last-Push snapshot; never blocks on
  /// an in-flight Push).
  StatusOr<stream::StreamEngineStats> StreamStats(uint64_t id) const;

  /// Closes a session: waits out any in-flight Push and background
  /// re-search, folds the engine's counters into the service totals.
  Status StreamClose(uint64_t id);

  ServeStats stats() const;
  const ServeOptions& options() const { return options_; }

 private:
  struct Pending {
    RecommendRequest request;
    std::promise<StatusOr<Recommendation>> promise;
    std::chrono::steady_clock::time_point enqueued;
  };
  using PendingPtr = std::unique_ptr<Pending>;

  /// A cached forecast model entry (trained once per key, then resident).
  struct ModelEntry {
    std::string key;
    std::shared_ptr<const Forecaster> model;
    float mean = 0.0f;  ///< Scaler the model was trained with.
    float std = 1.0f;
    Status train_status;
    bool ready = false;
    uint64_t uses = 0;
  };
  using ModelEntryPtr = std::shared_ptr<ModelEntry>;

  /// In-worker state of one request while its micro-batch is processed.
  struct Active;
  /// One packed set of deduplicated comparator duels (declared in .cc).
  struct DuelSet;

  void WorkerLoop(int worker_index);
  /// Pops one micro-batch (admission policy); empty means "stopping and
  /// drained" and the worker should exit.
  std::vector<PendingPtr> PopBatch();
  /// Serves one micro-batch end to end and fulfills every promise.
  void ProcessBatch(std::vector<PendingPtr> batch, const ExecContext& ctx);

  Status Validate(const RecommendRequest& request) const;
  /// Builds the ForecastTask a request describes (dataset named by its
  /// signature so downstream seeds are content-derived).
  ForecastTask MakeTask(const RecommendRequest& request,
                        uint64_t signature) const;
  Tensor ComputeEmbedding(const ForecastTask& task, uint64_t signature) const;
  /// Evaluates every queued duel row (deduplicated) and scatters outcomes.
  void EvaluateDuels(DuelSet* duels) const;
  ArchHyperEncoding CachedEncoding(const ArchHyper& ah) const;
  const QuantizedComparator* Quantized(ComparatorPrecision precision) const;
  /// Trains (or fetches) the forecast model for (task, arch) and predicts
  /// the window's next horizon. Sets `model_hit`.
  StatusOr<std::vector<float>> Forecast(const ForecastTask& task,
                                        uint64_t signature,
                                        const ArchHyper& best,
                                        const ExecContext& ctx,
                                        bool* model_hit) const;
  /// The cache/train half of Forecast (also the streaming model source):
  /// returns the ready entry for (task, arch), training it here when cold.
  StatusOr<ModelEntryPtr> TrainedModel(const ForecastTask& task,
                                       uint64_t signature,
                                       const ArchHyper& best,
                                       const ExecContext& ctx,
                                       bool* model_hit) const;

  /// One per-tenant streaming session. `mu` serializes Push/Close (an
  /// engine tick is single-threaded by contract); `stats_mu` guards only
  /// the post-Push counter snapshot so stats() never waits out a tick.
  struct StreamSession {
    std::mutex mu;
    std::unique_ptr<stream::StreamEngine> engine;
    mutable std::mutex stats_mu;
    stream::StreamEngineStats snapshot;
  };

  /// The streaming Researcher: zero-shot ranks on `recent` via this
  /// service's own Recommend queue, then trains the winner (model cache
  /// shared with want_forecast requests). Used both to seed StreamOpen and
  /// as the drift-recovery hook.
  StatusOr<stream::StreamModel> ResearchModel(const CtsDatasetPtr& recent,
                                              int p, int q, bool single_step);
  /// Closes every live session (Shutdown runs this while workers are still
  /// serving, so in-flight re-searches can finish their Recommend calls).
  void CloseAllStreams();

  Comparator* comparator_;
  const TaskEncoder* encoder_;
  const JointSearchSpace* space_;
  ServeOptions options_;
  RuntimeConfig config_;  ///< Snapshot the workers' ExecContexts carry.

  mutable TaskEmbedCache embed_cache_;

  // Request queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<PendingPtr> queue_;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;

  // Encoding memo (signature -> encoding), shared across workers.
  mutable std::mutex encode_mu_;
  mutable std::unordered_map<std::string, ArchHyperEncoding> encode_cache_;

  // Quantized comparator snapshot, built lazily per precision.
  mutable std::mutex quant_mu_;
  mutable std::unique_ptr<QuantizedComparator> quant_;

  // Forecast model cache (LRU by key, in-flight dedup like the embed cache).
  mutable std::mutex model_mu_;
  mutable std::condition_variable model_ready_;
  mutable std::list<ModelEntryPtr> model_lru_;
  mutable std::unordered_map<std::string, std::list<ModelEntryPtr>::iterator>
      model_by_key_;

  // Counters (relaxed atomics; folded into ServeStats snapshots).
  mutable std::atomic<uint64_t> requests_{0};
  mutable std::atomic<uint64_t> rejected_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> batched_requests_{0};
  mutable std::atomic<uint64_t> queue_highwater_{0};
  mutable std::atomic<uint64_t> duel_rows_{0};
  mutable std::atomic<uint64_t> duel_rows_evaluated_{0};
  mutable std::atomic<uint64_t> models_trained_{0};
  mutable std::atomic<uint64_t> forecasts_{0};

  // Streaming sessions (per-tenant engines) + counters folded from closed
  // sessions into ServeStats.
  mutable std::mutex stream_mu_;
  uint64_t next_stream_id_ = 1;
  uint64_t streams_opened_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<StreamSession>> streams_;
  stream::StreamEngineStats closed_streams_;
};

}  // namespace serve
}  // namespace autocts

#endif  // REPRO_SERVE_SERVICE_H_
