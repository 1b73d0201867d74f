// The serving group: closed-loop POST /recommend over loopback to an
// in-process HttpServer in front of a RecommendationService. serve_hot
// cycles four windows (embed cache hits, duel dedup pays); serve_cold sends
// a new window every request (every request embeds).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/autocts.h"
#include "perfbench.h"
#include "serve/http.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using autocts::serve::HttpOptions;
using autocts::serve::HttpServer;
using autocts::serve::RecommendationService;
using autocts::serve::RecommendRequest;
using autocts::serve::ServeOptions;

constexpr int kClients = 4;
/// Clients of the probe: one more than the service workers. At 4 clients
/// the clients lock into the workers' micro-batches in patterns that hold
/// for seconds and set the tail, and a short probe samples only a few of
/// them; at one client per worker the round trips are so even that host
/// hiccups alone set the p90. With one request waiting at a time, the
/// tail is that wait.
constexpr int kProbeClients = kLanes + 1;
constexpr int kDistinctHotWindows = 4;
constexpr int kHotBlock = 8;  ///< Consecutive requests sharing a window.
constexpr int kNumSeries = 6;
constexpr int kNumSteps = 96;
constexpr int kHorizon = 12;
constexpr int kTopK = 4;
/// Requests of the probe (and of the self-test).
constexpr int kProbeRequests = 1500;
/// Requests per measured second at full size: about the closed loop's
/// throughput on a 4-core reference host.
constexpr double kHotRate = 250.0;
constexpr double kColdRate = 130.0;
/// Stretches the measured phase is cut into, how many of the quietest are
/// pooled for the figures, and the fewest requests the pool needs.
constexpr int kStretches = 10;
constexpr int kQuietStretches = 5;
constexpr size_t kMinPooledSamples = 100;
/// One cold response in this many is re-derived with the library searcher.
constexpr uint64_t kColdCheckEvery = 8;
const char kQuery[] = "/recommend?p=12&q=12&topk=4";

/// Window `index` of the workload: per-series daily cycle with a seeded
/// phase, level and noise, as CSV (one line per series).
std::string WindowCsv(uint64_t seed, uint64_t index, Digest* digest) {
  autocts::Rng rng(Mix(seed, index));
  std::vector<float> values(static_cast<size_t>(kNumSeries * kNumSteps));
  std::string csv;
  char cell[32];
  for (int n = 0; n < kNumSeries; ++n) {
    const float phase = rng.Uniform(0.0f, 6.2831853f);
    const float level = rng.Uniform(20.0f, 60.0f);
    for (int t = 0; t < kNumSteps; ++t) {
      const float v = level + 8.0f * std::sin(0.2618f * t + phase) +
                      rng.Normal(0.0f, 1.0f);
      values[static_cast<size_t>(n * kNumSteps + t)] = v;
      std::snprintf(cell, sizeof(cell), t == 0 ? "%.4f" : ",%.4f", v);
      csv += cell;
    }
    csv += '\n';
  }
  if (digest != nullptr) digest->Add(values.data(), values.size());
  return csv;
}

struct Reply {
  bool ok = false;
  std::string error;
  std::vector<std::string> ranked;
  std::string signature;
  double queue_us = 0.0;
  double service_us = 0.0;
};

/// Position just past `"key": ` in a JsonWriter object, or npos.
size_t ValueAt(const std::string& body, const std::string& key) {
  const std::string pattern = "\"" + key + "\": ";
  const size_t at = body.find(pattern);
  return at == std::string::npos ? at : at + pattern.size();
}

double JsonNumber(const std::string& body, const std::string& key) {
  const size_t at = ValueAt(body, key);
  return at == std::string::npos ? NAN
                                 : std::strtod(body.c_str() + at, nullptr);
}

/// Parses the /recommend JSON body (RecommendationToJson's layout; the
/// arch-hyper signatures hold no characters JSON escapes).
void ParseReply(const std::string& body, Reply* reply) {
  size_t at = ValueAt(body, "task_signature");
  if (at == std::string::npos || body[at] != '"') {
    reply->error = "response without task_signature";
    return;
  }
  reply->signature = body.substr(at + 1, body.find('"', at + 1) - at - 1);
  at = ValueAt(body, "ranked");
  if (at == std::string::npos || body[at] != '[') {
    reply->error = "response without ranked";
    return;
  }
  for (size_t pos = at + 1; pos < body.size() && body[pos] != ']';) {
    if (body[pos] != '"') {
      ++pos;  // ", " between entries.
      continue;
    }
    const size_t close = body.find('"', pos + 1);
    if (close == std::string::npos) break;
    reply->ranked.push_back(body.substr(pos + 1, close - pos - 1));
    pos = close + 1;
  }
  reply->queue_us = JsonNumber(body, "queue_us");
  reply->service_us = JsonNumber(body, "service_us");
  reply->ok = true;
}

/// One closed-loop POST over a fresh loopback connection (the server
/// answers with Connection: close). Network errors are returned, never
/// fatal.
Reply Post(int port, const std::string& body) {
  Reply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    reply.error = "socket() failed";
    return reply;
  }
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    reply.error = "connect failed";
    return reply;
  }
  const std::string request = std::string("POST ") + kQuery +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (sent < request.size()) {
    reply.error = "send failed";
  } else if (response.compare(0, 12, "HTTP/1.1 200") != 0) {
    reply.error = response.empty() ? "empty response"
                                   : response.substr(0, response.find('\r'));
  } else {
    const size_t body_at = response.find("\r\n\r\n");
    if (body_at == std::string::npos) {
      reply.error = "truncated response";
    } else {
      ParseReply(response.substr(body_at + 4), &reply);
    }
  }
  return reply;
}

/// Fixture + started service + started HTTP front end.
struct Stack {
  Fixture fixture;
  std::unique_ptr<RecommendationService> service;
  std::unique_ptr<HttpServer> http;

  ~Stack() {
    if (http) http->Stop();
    if (service) service->Shutdown();
  }
};

std::unique_ptr<Stack> StartStack(Tally* tally) {
  auto stack = std::make_unique<Stack>();
  stack->service = std::make_unique<RecommendationService>(
      &stack->fixture.comparator, &stack->fixture.encoder,
      &stack->fixture.space, FixtureServeOptions());
  autocts::Status s = stack->service->Start();
  if (s.ok()) {
    HttpOptions http;
    http.port = 0;
    stack->http = std::make_unique<HttpServer>(stack->service.get(), http);
    s = stack->http->Start();
  }
  tally->Op(s.ok(), "serve start: " + s.message());
  if (!s.ok()) return nullptr;
  return stack;
}

/// The answer the library gives for `body`: SearchTopK at generations=0
/// with the content-derived seed (serving_test
/// MatchesLibrarySearcherAtGenerationsZero proves the equivalence).
std::vector<std::string> LibraryAnswer(Stack* stack, const std::string& body,
                                       const std::string& signature_hex,
                                       double* rank_ms) {
  RecommendRequest req;
  if (!autocts::serve::ParseCsvWindow(body, &req).ok()) return {};
  req.p = kHorizon;
  req.q = kHorizon;
  req.top_k = kTopK;
  const autocts::Tensor embed = stack->service->TaskEmbeddingFor(req);
  autocts::SearchOptions search = stack->service->options().search;
  search.generations = 0;
  search.top_k = kTopK;
  search.seed ^= std::strtoull(signature_hex.c_str(), nullptr, 16);
  autocts::EvolutionarySearcher searcher(&stack->fixture.comparator,
                                         &stack->fixture.space);
  const Clock::time_point t0 = Clock::now();
  const std::vector<autocts::ArchHyper> top = searcher.SearchTopK(embed, search);
  if (rank_ms != nullptr) *rank_ms = SecondsSince(t0) * 1e3;
  std::vector<std::string> out;
  for (const autocts::ArchHyper& ah : top) out.push_back(ah.Signature());
  return out;
}

/// One measured request.
struct Sample {
  uint64_t index = 0;
  double rt_ms = 0.0;
  double done_s = 0.0;  ///< Completion time since the loop started.
  Reply reply;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< Successful requests.
  double wall_s = 0.0;
};

/// Closed loop: `clients` threads, each sending its next request when the
/// previous reply arrived, until `requests` were issued. Request indices
/// start at `first_index`.
LoadResult ClosedLoop(Stack* stack, bool cold, uint64_t seed,
                      const std::vector<std::string>& hot_bodies,
                      const std::vector<std::vector<std::string>>& hot_expected,
                      uint64_t first_index, int requests, int clients,
                      Tally* tally) {
  const int port = stack->http->port();
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  LoadResult result;
  Tally load_tally;
  const Clock::time_point start = Clock::now();
  auto client = [&] {
    std::vector<Sample> mine;
    Tally local;
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (i >= static_cast<uint64_t>(requests)) break;
      const uint64_t index = first_index + i;
      const size_t w = static_cast<size_t>((index / kHotBlock) %
                                           kDistinctHotWindows);
      const std::string body =
          cold ? WindowCsv(seed, index, nullptr) : hot_bodies[w];
      const Clock::time_point t0 = Clock::now();
      Sample s;
      s.reply = Post(port, body);
      s.rt_ms = SecondsSince(t0) * 1e3;
      s.done_s = SecondsSince(start);
      s.index = index;
      bool ok = s.reply.ok && s.reply.ranked.size() == kTopK;
      if (ok && !cold) ok = s.reply.ranked == hot_expected[w];
      local.Op(ok, s.reply.ok ? "served answer differs from the library"
                              : "request: " + s.reply.error);
      if (s.reply.ok) mine.push_back(std::move(s));
    }
    std::lock_guard<std::mutex> lock(mu);
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(mine.begin()),
                          std::make_move_iterator(mine.end()));
    load_tally.Merge(local);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(start);
  tally->Merge(load_tally);
  return result;
}

std::vector<double> RoundTrips(const LoadResult& load) {
  std::vector<double> rt;
  for (const Sample& s : load.samples) rt.push_back(s.rt_ms);
  return rt;
}

/// Set-up of one serving stack: fixture, service and HTTP start, and a
/// warm-up request per hot window (cold: four windows outside the measured
/// index range) that fills the embed cache and the workers' plans.
std::unique_ptr<Stack> SetUp(bool cold, uint64_t seed,
                             std::vector<std::string>* hot_bodies,
                             std::vector<Reply>* warm_replies, Tally* tally,
                             Digest* digest) {
  std::unique_ptr<Stack> stack = StartStack(tally);
  if (!stack) return nullptr;
  hot_bodies->clear();
  warm_replies->clear();
  for (int w = 0; w < kDistinctHotWindows; ++w) {
    const uint64_t index = cold ? (uint64_t{1} << 40) + w : w;
    hot_bodies->push_back(WindowCsv(seed, index, digest));
    warm_replies->push_back(Post(stack->http->port(), hot_bodies->back()));
  }
  return stack;
}

}  // namespace

ServeOptions FixtureServeOptions() {
  ServeOptions o = ServeOptions::ForScale(PipelineScale());
  o.workers = kLanes;
  o.max_batch = 8;
  return o;
}

void RunServe(const RunConfig& config, bool cold, bool native,
              GroupResult* out) {
  const bool full = native && !config.tiny;
  // Probes use the hot traffic shape at kProbeClients clients.
  cold = cold && native;
  const int clients = native ? kClients : kProbeClients;
  std::unique_ptr<Stack> stack;
  std::vector<std::string> hot_bodies;
  std::vector<Reply> warm;
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    stack.reset();
    Digest digest;
    Tally setup_tally;
    const Clock::time_point t0 = Clock::now();
    stack = SetUp(cold, config.seed, &hot_bodies, &warm, &setup_tally, &digest);
    setups.push_back(SecondsSince(t0));
    out->digest = digest;
    if (rep == 0 || !stack) out->tally.Merge(setup_tally);
    if (!stack) return;
  }
  out->setup_s = Median(setups);

  // Expected answers of the warm-up windows (untimed).
  std::vector<std::vector<std::string>> expected;
  std::vector<double> rank_ms;
  for (int w = 0; w < kDistinctHotWindows; ++w) {
    out->tally.Op(warm[static_cast<size_t>(w)].ok,
                  "warm-up: " + warm[static_cast<size_t>(w)].error);
    double ms = 0.0;
    expected.push_back(LibraryAnswer(stack.get(),
                                     hot_bodies[static_cast<size_t>(w)],
                                     warm[static_cast<size_t>(w)].signature,
                                     &ms));
    rank_ms.push_back(ms);
    out->tally.Op(expected.back() == warm[static_cast<size_t>(w)].ranked,
                  "warm-up answer differs from the library");
  }

  const double cpu0 = ProcessCpuSeconds();
  // A fixed number of requests, sized to take about --seconds on the
  // reference host, so cpu_s counts the CPU of a fixed amount of work.
  const int requests =
      full ? static_cast<int>(config.seconds * (cold ? kColdRate : kHotRate))
           : kProbeRequests;
  const LoadResult load =
      ClosedLoop(stack.get(), cold, config.seed, hot_bodies, expected, 0,
                 requests, clients, &out->tally);
  out->cpu_s = ProcessCpuSeconds() - cpu0;

  // Cold answers: a seeded one-in-kColdCheckEvery sample re-derived with
  // the library searcher (untimed).
  if (cold) {
    for (const Sample& s : load.samples) {
      if (Mix(config.seed, s.index) % kColdCheckEvery != 0) continue;
      double ms = 0.0;
      const std::vector<std::string> want =
          LibraryAnswer(stack.get(), WindowCsv(config.seed, s.index, nullptr),
                        s.reply.signature, &ms);
      rank_ms.push_back(ms);
      out->tally.Op(want == s.reply.ranked,
                    "cold answer differs from the library");
    }
  }

  // The figures are those of the quieter half of the measured phase: it is
  // cut into equal stretches by completion time, the stretches with the
  // lowest median round trip are pooled, and p50, p90 and qps are taken
  // over the pool. Other tenants of a shared host slow whole stretches, so
  // the quieter half is the program's own latency. Pooling, not one
  // stretch, because the tail is bimodal per stretch: the 4 clients lock
  // into the 2 workers' micro-batches so that in some stretches no request
  // waits out a whole batch, and one stretch's p90 lands in either mode.
  struct Stretch {
    double p50_ms = 0.0;
    double seconds = 0.0;
    std::vector<double> rt_ms;
  };
  std::vector<Stretch> stretches(kStretches);
  for (int k = 0; k < kStretches; ++k) {
    const double from = load.wall_s * k / kStretches;
    const double to = load.wall_s * (k + 1) / kStretches;
    Stretch& st = stretches[static_cast<size_t>(k)];
    st.seconds = to - from;
    for (const Sample& s : load.samples) {
      if (s.done_s >= from && s.done_s < to) st.rt_ms.push_back(s.rt_ms);
    }
    st.p50_ms = st.rt_ms.empty() ? INFINITY : Median(st.rt_ms);
  }
  std::sort(stretches.begin(), stretches.end(),
            [](const Stretch& a, const Stretch& b) {
              return a.p50_ms < b.p50_ms;
            });
  std::vector<double> pool;
  double pool_seconds = 0.0;
  for (int k = 0; k < kQuietStretches; ++k) {
    const Stretch& st = stretches[static_cast<size_t>(k)];
    pool.insert(pool.end(), st.rt_ms.begin(), st.rt_ms.end());
    pool_seconds += st.seconds;
  }
  out->tally.Op(pool.size() >= kMinPooledSamples,
                "too few requests in the quieter half of the run");
  out->e2e.Set("recommend_p50_ms", Quantile(pool, 0.5), "ms");
  out->e2e.Set("recommend_p90_ms", Quantile(pool, 0.9), "ms");
  out->e2e.Set("recommend_qps",
               pool_seconds > 0.0 ? static_cast<double>(pool.size()) /
                                        pool_seconds
                                  : 0.0,
               "1/s");
  const std::vector<double> rt = RoundTrips(load);

  if (!(config.trace && native)) return;

  // Traced pass: same traffic, fresh indices, with the per-request split
  // into queue, service and HTTP time, counter deltas, and the layer calls
  // timed one by one from outside.
  const autocts::ServeStats stats1 = stack->service->stats();
  CounterDelta counters;
  const double cpu1 = ProcessCpuSeconds();
  const LoadResult traced =
      ClosedLoop(stack.get(), cold, config.seed, hot_bodies, expected,
                 uint64_t{1} << 32, requests, clients, &out->tally);
  const double traced_cpu = ProcessCpuSeconds() - cpu1;
  const double n = static_cast<double>(traced.samples.size());
  counters.Report(n, &out->layers);
  const autocts::ServeStats stats2 = stack->service->stats();

  std::vector<double> queue_ms, service_ms, http_ms;
  for (const Sample& s : traced.samples) {
    queue_ms.push_back(s.reply.queue_us * 1e-3);
    service_ms.push_back(s.reply.service_us * 1e-3);
    http_ms.push_back(s.rt_ms - (s.reply.queue_us + s.reply.service_us) * 1e-3);
  }
  Metrics* layers = &out->layers;
  layers->Set("serve.queue_ms_p50", Quantile(queue_ms, 0.5), "ms");
  layers->Set("serve.queue_ms_p90", Quantile(queue_ms, 0.9), "ms");
  layers->Set("serve.queue_highwater",
              static_cast<double>(stats2.queue_highwater), "count");
  layers->Set("serve.service_ms_p50", Quantile(service_ms, 0.5), "ms");
  layers->Set("serve.service_ms_p90", Quantile(service_ms, 0.9), "ms");
  layers->Set("serve.http_ms_p50", Quantile(http_ms, 0.5), "ms");
  layers->Set("serve.rt_ms_p99", Quantile(RoundTrips(traced), 0.99), "ms");
  const double batches = static_cast<double>(stats2.batches - stats1.batches);
  layers->Set("serve.mean_batch",
              batches > 0.0 ? static_cast<double>(stats2.batched_requests -
                                                  stats1.batched_requests) /
                                  batches
                            : 0.0,
              "count");
  const double hits = static_cast<double>(stats2.embed_hits - stats1.embed_hits);
  const double lookups =
      hits + static_cast<double>(stats2.embed_misses - stats1.embed_misses);
  layers->Set("serve.embed_hit_rate", lookups > 0.0 ? hits / lookups : 0.0,
              "ratio");
  const double rows = static_cast<double>(stats2.duel_rows - stats1.duel_rows);
  const double evaluated = static_cast<double>(stats2.duel_rows_evaluated -
                                               stats1.duel_rows_evaluated);
  layers->Set("serve.dedup_saved_pct",
              rows > 0.0 ? 100.0 * (1.0 - evaluated / rows) : 0.0, "%");
  layers->Set("serve.cpu_ms_per_req", n > 0.0 ? traced_cpu * 1e3 / n : 0.0,
              "ms");
  layers->Set("serve.models_trained",
              static_cast<double>(stats2.models_trained - stats1.models_trained),
              "count");

  // Layer calls timed from outside on the first hot window.
  RecommendRequest req;
  (void)autocts::serve::ParseCsvWindow(hot_bodies[0], &req);
  req.p = kHorizon;
  req.q = kHorizon;
  req.top_k = kTopK;
  std::vector<double> parse_us, embed_ms;
  for (int rep = 0; rep < 50; ++rep) {
    RecommendRequest parsed;
    Clock::time_point t0 = Clock::now();
    (void)autocts::serve::ParseCsvWindow(hot_bodies[0], &parsed);
    parse_us.push_back(SecondsSince(t0) * 1e6);
    t0 = Clock::now();
    const autocts::Tensor e = stack->service->TaskEmbeddingFor(req);
    embed_ms.push_back(SecondsSince(t0) * 1e3);
  }
  for (int rep = 0; rep < 16; ++rep) {
    double ms = 0.0;
    (void)LibraryAnswer(stack.get(), hot_bodies[0], warm[0].signature, &ms);
    rank_ms.push_back(ms);
  }
  layers->Set("serve.http_parse_us", Median(parse_us), "us");
  layers->Set("embedding.request_embed_ms", Median(embed_ms), "ms");
  layers->Set("search.rank_only_ms", Median(rank_ms), "ms");
  layers->Set("comparator.compare_logits_us",
              CompareLogitsMicros(stack->fixture.comparator,
                                  stack->fixture.space,
                                  stack->service->TaskEmbeddingFor(req),
                                  stack->service->options().search.compare_batch,
                                  Mix(config.seed, 77)),
              "us");

  // The op is one request: client round trip = queue + service (timed in
  // the service) + HTTP (the remainder).
  const double untraced_rt = Mean(rt);
  const double traced_rt = Mean(RoundTrips(traced));
  const double attributed = Mean(queue_ms) + Mean(service_ms);
  layers->Set("trace.e2e_ms", untraced_rt, "ms");
  layers->Set("trace.attributed_ms", attributed, "ms");
  layers->Set("trace.remainder_ms", untraced_rt - attributed, "ms");
  layers->Set("trace.overhead_ms", traced_rt - untraced_rt, "ms");
  (void)traced_cpu;
}

}  // namespace perfbench
