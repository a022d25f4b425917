#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "context/author_similarity.h"
#include "context/text_prestige.h"
#include "corpus/full_text_search.h"
#include "eval/query_generator.h"
#include "graph/citation_graph.h"
#include "loadgen.h"
#include "serve/daemon.h"
#include "serve/mutable_index.h"
#include "serve/request_context.h"
#include "serve/shard_client.h"
#include "serve/sharded_engine.h"
#include "serve/snapshot.h"
#include "serve/supervisor.h"
#include "worlds.h"

namespace perfbench {
namespace {

namespace context = ctxrank::context;
namespace corpus = ctxrank::corpus;
namespace net = ctxrank::serve::net;
namespace ontology = ctxrank::ontology;
namespace serve = ctxrank::serve;
using ctxrank::Median;
using ctxrank::Percentile;
using ctxrank::Status;

constexpr size_t kSetupReps = 3;
constexpr size_t kRestartReps = 5;
constexpr size_t kCacheEntries = 8192;
constexpr size_t kHotQueries = 120;
constexpr uint32_t kGatewayShards = 2;
constexpr size_t kGateSample = 200;
constexpr size_t kReplaySample = 1000;
constexpr double kWarmupSeconds = 0.5;
/// Measurement runs in slices of this length: a closed loop over the
/// first kClosedShare of it, an open loop over the rest.
constexpr double kSliceSeconds = 1.0;
constexpr double kClosedShare = 0.4;
/// The cold stream is sent in order and wraps at this many distinct
/// queries; a query comes back only after 18x the cache's capacity of
/// other queries, so the LRU never holds it (cache_hit_ratio stays 0).
constexpr size_t kMaxColdStream = 150000;
constexpr double kMiB = 1024.0 * 1024.0;

// Open-loop offered rates (requests/s): fixed constants at about a
// twentieth (cold) and a fifteenth (hot) of each workload's closed-loop
// capacity, measured on the commit that introduced the benchmark (4 vCPU:
// cold ~22k/s, hot ~60k/s). In the shared host's stretches of heavy steal
// (13-17% of the machine's CPU time), hot at 12,000/s built backlogs in
// every slice of a run (p50 5-8x) and cold at 3,000/s in most slices; at
// these rates p50 rose 1.1-1.6x. Lower rates let the vCPUs halt between
// requests, and waking them then dominates p50 and follows the host's
// load (hot at 1,000/s and 2,000/s: p50 1.6x and 1.2x higher). The rates
// are never derived from the build under test, so a slower build meets
// the same offered load.
constexpr double kColdRate = 1000;
constexpr double kHotRate = 4000;
/// The live-index probe (cold-text's traced run): a twelfth of the corpus
/// arrives over the wire at a fixed AddPaper rate (about half of what one
/// connection sustains: an ingest takes ~10 ms), compacting after 3/5 of
/// it, beside a trickle of cold reads. Each ingest invalidates the
/// overlays of nearly every context, so a read during ingest costs up to
/// seconds; the trickle stays below that capacity.
constexpr double kIngestRate = 50;
constexpr double kIngestReadRate = 10;

struct Ctx {
  const Args& args;
  Report& report;
  SpanLog& spans;
  uint64_t next_request = 1;

  size_t reps() const { return args.trace ? 1 : kSetupReps; }
  std::string Path(const std::string& name) const {
    return args.workdir + "/" + name;
  }
};

bool Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return false;
}

/// Every set-up stage a workload may time, reported as 0 when it did not
/// run in this workload's set-up.
const char* const kStages[] = {
    "corpus.generate_s",      "corpus.analyze_s",
    "context.assign_text_s",  "context.assign_pattern_s",
    "context.prestige_s",     "context.engine_build_s",
    "serve.snapshot.save_s",  "serve.snapshot.load_s",
    "serve.mutable_index.build_s",
};

/// One search round trip on a fresh connection: the "first answered
/// query" that ends set-up and restart.
bool Probe(uint16_t port, const std::string& query, PhaseCounts* counts) {
  Client client(port);
  net::WireRequest req;
  req.query = query;
  req.options = RequestOptions();
  net::WireResponse resp;
  const bool ok = client.Search(net::EncodeSearchRequest(req), &resp);
  Count(ok, resp, counts);
  return ok && resp.code == ctxrank::StatusCode::kOk;
}

std::string ProbeQuery(const ontology::Ontology& onto) {
  return onto.term(static_cast<ontology::TermId>(onto.size() / 2)).name;
}

/// Word multiset of a query: the engine's result cache keys on analyzed
/// terms, so word order must not make two queries "distinct".
std::string CanonicalQuery(const std::string& text) {
  std::vector<std::string> words =
      ctxrank::SplitWhitespace(ctxrank::ToLower(text));
  std::sort(words.begin(), words.end());
  return ctxrank::Join(words, " ");
}

/// The cold stream: paraphrase queries from successive GenerateQueries
/// seeds derived from the workload seed, deduplicated, until `want`
/// distinct queries exist or the generator stops producing new ones (one
/// call gives up after four passes over its candidate contexts).
std::vector<std::string> ColdQueries(const ontology::Ontology& onto,
                                     const corpus::TokenizedCorpus& tc,
                                     const context::ContextAssignment& set,
                                     uint64_t seed, size_t want) {
  ctxrank::SplitMix64 seeds(seed);
  ctxrank::eval::QueryGeneratorOptions options;
  options.num_queries = want;
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  size_t idle = 0;
  while (out.size() < want && idle < 8) {
    options.seed = seeds.Next();
    const size_t before = out.size();
    for (auto& q : ctxrank::eval::GenerateQueries(onto, tc, set, options)) {
      if (out.size() >= want) break;
      if (seen.insert(CanonicalQuery(q.text)).second) {
        out.push_back(std::move(q.text));
      }
    }
    idle = out.size() == before ? idle + 1 : 0;
  }
  return out;
}

/// The hot stream: one GenerateQueries call of 120 queries.
std::vector<std::string> HotQueries(const ontology::Ontology& onto,
                                    const corpus::TokenizedCorpus& tc,
                                    const context::ContextAssignment& set,
                                    uint64_t seed) {
  ctxrank::eval::QueryGeneratorOptions options;
  options.seed = ctxrank::SplitMix64(seed).Next();
  options.num_queries = kHotQueries;
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  for (auto& q : ctxrank::eval::GenerateQueries(onto, tc, set, options)) {
    if (seen.insert(q.text).second) out.push_back(std::move(q.text));
  }
  return out;
}

/// Distinct queries of a cold stream: what the warm-ups, closed loops
/// (at up to 25k/s), open loops at `rate` and replays send, up to
/// kMaxColdStream.
size_t ColdStreamSize(const Args& args, double rate) {
  const double closed_s =
      kSetupReps * kWarmupSeconds + kClosedShare * args.seconds;
  const double open_s = (1.0 - kClosedShare) * args.seconds;
  return std::min(kMaxColdStream,
                  static_cast<size_t>(25000.0 * closed_s + rate * open_s) +
                      4 * kReplaySample + kGateSample);
}

/// `n` queries spread evenly over the stream.
std::vector<std::string> Sample(const Stream& stream, size_t n) {
  std::vector<std::string> out;
  n = std::min(n, stream.size());
  for (size_t i = 0; i < n; ++i) {
    out.push_back(stream.text(i * stream.size() / n));
  }
  return out;
}

/// The next `n` queries of the stream (fresh ones on a cold stream).
std::vector<std::string> Draw(Stream& stream, size_t n, uint64_t seed) {
  ctxrank::Rng rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.text(stream.Pick(rng)));
  return out;
}

context::SearchOptions ExactOptions() {
  context::SearchOptions options = RequestOptions();
  options.exact_scan = true;
  return options;
}

// ---------------------------------------------------------------------------
// Serving stacks.

/// Supervisor + daemon over one snapshot file.
struct MonoStack {
  std::unique_ptr<serve::SnapshotSupervisor> sup;
  std::unique_ptr<serve::Daemon> daemon;  // Declared last: stops first.

  void Stop() {
    daemon.reset();
    sup.reset();
  }
};

Status StartMono(const std::string& path, bool cache, bool inline_execution,
                 StageLog& log, MonoStack* out) {
  serve::SnapshotSupervisor::Options options;
  if (cache) {
    options.on_load = [](serve::ServingSnapshot& snap) {
      snap.mutable_engine().EnableQueryCache(kCacheEntries);
    };
  }
  out->sup = std::make_unique<serve::SnapshotSupervisor>(options);
  CTXRANK_RETURN_NOT_OK(log.Time("serve.snapshot.load_s",
                                 [&] { return out->sup->Reload(path); }));
  serve::Daemon::Options daemon_options;
  daemon_options.inline_execution = inline_execution;
  out->daemon = std::make_unique<serve::Daemon>(*out->sup, daemon_options);
  return out->daemon->Start();
}

/// Shard daemons plus a gateway (remote ShardedEngine behind a daemon).
struct GatewayStack {
  std::vector<std::unique_ptr<serve::SnapshotSupervisor>> shard_sups;
  std::vector<std::unique_ptr<serve::Daemon>> shard_daemons;
  std::vector<serve::ShardClient::Endpoint> endpoints;
  std::unique_ptr<serve::ShardedEngine> engine;
  std::unique_ptr<serve::Daemon> daemon;  // Declared last: stops first.

  void Stop() {
    daemon.reset();
    engine.reset();
    endpoints.clear();
    shard_daemons.clear();
    shard_sups.clear();
  }
};

Status StartGateway(const std::string& base, StageLog& log,
                    GatewayStack* out) {
  std::vector<serve::RemoteShardSpec> specs;
  for (uint32_t s = 0; s < kGatewayShards; ++s) {
    auto sup = std::make_unique<serve::SnapshotSupervisor>();
    CTXRANK_RETURN_NOT_OK(log.Time("serve.snapshot.load_s", [&] {
      return sup->Reload(serve::ShardPath(base, s, kGatewayShards));
    }));
    serve::Daemon::Options options;
    options.workers = 2;
    auto daemon = std::make_unique<serve::Daemon>(*sup, options);
    CTXRANK_RETURN_NOT_OK(daemon->Start());
    serve::RemoteShardSpec spec;
    spec.primary = {"127.0.0.1", daemon->port()};
    out->endpoints.push_back(spec.primary);
    specs.push_back(spec);
    out->shard_sups.push_back(std::move(sup));
    out->shard_daemons.push_back(std::move(daemon));
  }
  serve::ShardedEngine::Options options;
  options.cache_capacity = kCacheEntries;
  out->engine = std::make_unique<serve::ShardedEngine>(options);
  CTXRANK_RETURN_NOT_OK(log.Time("serve.snapshot.load_s", [&] {
    return out->engine->OpenRemote(serve::ShardPath(base, 0, kGatewayShards),
                                   specs);
  }));
  out->daemon =
      std::make_unique<serve::Daemon>(*out->engine, serve::Daemon::Options{});
  return out->daemon->Start();
}

// ---------------------------------------------------------------------------
// Measurement phases shared by the workloads.

Clock::time_point SoonOrigin() {
  return Clock::now() + std::chrono::milliseconds(5);
}

/// Load figures pooled over a run's measurement rounds (one per set-up).
/// Every slice of every round gives one sample of each figure. The host's
/// hypervisor steals CPU in stretches that last from seconds to minutes;
/// they only ever slow a slice down. So qps is reported as the 90th
/// percentile of its slices and p50 as the 10th: the figures of the
/// slices the host left alone, which a slower build moves as much as any
/// other. p99 and the generator's lateness are medians. Memory growth is
/// one sample per round.
struct Rounds {
  std::vector<double> qps, p50, p99, late, rss;
  size_t slices = 0;
  PhaseCounts closed{"closed"};
  PhaseCounts open{"open"};

  void Report(Report& report) const {
    report.AddPhase(closed);
    report.AddPhase(open);
    report.Set("qps", Percentile(qps, 90.0), "1/s");
    report.Set("p50_ms", Percentile(p50, 10.0), "ms");
    report.Set("p99_ms", Median(p99), "ms");
    report.Set("loadgen.late_p99_ms", Median(late), "ms");
    report.Set("serve_rss_mb", Median(rss), "MB");
  }
};

void Accumulate(const PhaseCounts& from, PhaseCounts* into) {
  into->sent += from.sent;
  into->succeeded += from.succeeded;
  into->failed += from.failed;
  into->shed += from.shed;
  into->degraded += from.degraded;
}

/// One round of `seconds` of load in slices of kSliceSeconds. Each slice
/// is a closed loop over kConnections connections (its answers per
/// second are one qps sample), then an open loop at `rate` over as many
/// connections, timed as OpenLoop describes (its p50, p99 and lateness
/// are one sample each; a slice holds hundreds of timed queries, a run
/// tens of thousands).
/// Interleaving the two spreads the samples of every figure over the
/// whole run.
void MeasureRound(Ctx& ctx, uint16_t port, Stream& stream, double rate,
                  double seconds, Rounds* rounds) {
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(seconds / kSliceSeconds + 0.5));
  const double slice_s = seconds / static_cast<double>(slices);
  const double closed_s = kClosedShare * slice_s;
  const double open_s = slice_s - closed_s;
  size_t timed = 0;
  std::vector<double> qps, p50, p99;
  for (size_t i = 0; i < slices; ++i) {
    const uint64_t seed = ctx.args.seed + 7919 * ++rounds->slices;
    const LoadResult closed = ClosedLoop("closed", port, stream, kConnections,
                                         closed_s, seed);
    Accumulate(closed.counts, &rounds->closed);
    qps.push_back(static_cast<double>(closed.counts.succeeded) /
                  closed.wall_s);
    const LoadResult open = OpenLoop("open", port, stream, kConnections,
                                     open_s, rate, seed, SoonOrigin());
    Accumulate(open.counts, &rounds->open);
    timed += open.latency_ms.size();
    p50.push_back(Percentile(open.latency_ms, 50.0));
    p99.push_back(Percentile(open.latency_ms, 99.0));
    rounds->late.push_back(Percentile(open.late_ms, 99.0));
  }
  const auto ms = [](double v) { return ctxrank::FormatDouble(v, 3); };
  ctx.report.Note(
      "round of " + std::to_string(slices) + " slices: closed loop " +
      ctxrank::FormatDouble(Median(qps), 0) + "/s; open loop at " +
      ctxrank::FormatDouble(rate, 0) + "/s over " + std::to_string(timed) +
      " timed queries, p50 " + ms(Median(p50)) + " ms, p99 " +
      ms(Median(p99)) + " ms (slice medians)");
  for (auto [from, to] : {std::pair{&qps, &rounds->qps},
                          std::pair{&p50, &rounds->p50},
                          std::pair{&p99, &rounds->p99}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
}

/// Correctness gate: sends `queries` over one connection and requires
/// every answer to equal `expected(query)` bitwise.
template <typename Expected>
void WireGate(Ctx& ctx, const std::string& name, uint16_t port,
              const std::vector<std::string>& queries, Expected expected) {
  PhaseCounts counts{name};
  Client client(port);
  size_t equal = 0;
  std::string first_bad;
  for (const std::string& q : queries) {
    net::WireRequest req;
    req.query = q;
    req.options = RequestOptions();
    net::WireResponse got;
    const bool ok = client.Search(net::EncodeSearchRequest(req), &got);
    Count(ok, got, &counts);
    const context::SearchResponse want = expected(q);
    if (ok && got.code == want.status.code() &&
        got.degraded == want.degraded && SameHits(got.hits, want.hits)) {
      ++equal;
    } else if (first_bad.empty()) {
      first_bad = q;
    }
  }
  ctx.report.AddPhase(counts);
  std::string detail = std::to_string(equal) + "/" +
                       std::to_string(queries.size()) + " bitwise equal";
  if (!first_bad.empty()) detail += "; first mismatch: \"" + first_bad + "\"";
  ctx.report.Gate(name, !queries.empty() && equal == queries.size(), detail);
}

/// Restart: `start` brings a fresh stack up from the written snapshot(s)
/// and returns its port (0 on failure); timed to the first answer.
template <typename Start>
bool MeasureRestart(Ctx& ctx, const std::string& probe, Start start) {
  PhaseCounts counts{"restart"};
  std::vector<double> secs;
  StageLog log(nullptr);
  for (size_t r = 0; r < kRestartReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    start(log, [&](uint16_t port) {
      ok = port != 0 && Probe(port, probe, &counts);
      secs.push_back(SecondsSince(t0));
    });
    if (!ok) {
      ctx.report.AddPhase(counts);
      std::fprintf(stderr, "perfbench: restart %zu failed\n", r);
      return false;
    }
  }
  ctx.report.AddPhase(counts);
  ctx.report.Set("restart_s", Median(secs), "s");
  // The load one restart pays, in place of the set-up stage of that name.
  ctx.report.Set("serve.snapshot.load_s",
                 log.seconds("serve.snapshot.load_s") / kRestartReps, "s");
  return true;
}

void ReportSetup(Ctx& ctx, const std::vector<double>& setup_s,
                 const PhaseCounts& counts, const StageLog& stages) {
  ctx.report.AddPhase(counts);
  ctx.report.Set("setup_s", Median(setup_s), "s");
  for (const char* stage : kStages) {
    ctx.report.Set(stage, stages.seconds(stage), "s");
  }
}

// ---------------------------------------------------------------------------
// Per-layer measurements (traced runs).

/// In-process replay with SearchOptions::trace: analysis, routing and
/// scan times plus the context and block funnels; then the same sample
/// with tracing off and on, alternately, for the tracing overhead.
void QueryPathLayers(Ctx& ctx, const context::ContextSearchEngine& engine,
                     const std::vector<std::string>& sample,
                     bool bypass_cache) {
  std::vector<double> analyze, route, scan;
  double scanned = 0, pruned = 0, blocks_scanned = 0, blocks_skipped = 0;
  for (const std::string& q : sample) {
    context::SearchOptions options = RequestOptions();
    options.trace = true;
    const Clock::time_point t0 = Clock::now();
    const context::SearchResponse r = engine.SearchEx(q, options);
    ctx.spans.Add("context.search", t0, Clock::now(), 0,
                  ctx.next_request++);
    if (r.trace == nullptr) continue;
    const ctxrank::obs::QueryTrace& t = *r.trace;
    analyze.push_back(t.analyze_us);
    route.push_back(t.route_us);
    scan.push_back(t.scan_us);
    scanned += static_cast<double>(t.contexts_scanned);
    pruned += static_cast<double>(t.contexts_pruned);
    blocks_scanned += static_cast<double>(t.blocks_scanned);
    blocks_skipped += static_cast<double>(t.blocks_skipped);
  }
  const double n = std::max<double>(1.0, static_cast<double>(analyze.size()));
  Report& rep = ctx.report;
  rep.Set("text.analyze_us.p50", Percentile(analyze, 50.0), "us");
  rep.Set("text.analyze_us.p99", Percentile(analyze, 99.0), "us");
  rep.Set("context.route_us.p50", Percentile(route, 50.0), "us");
  rep.Set("context.route_us.p99", Percentile(route, 99.0), "us");
  rep.Set("context.scan_us.p50", Percentile(scan, 50.0), "us");
  rep.Set("context.scan_us.p99", Percentile(scan, 99.0), "us");
  rep.Set("context.contexts_scanned", scanned / n, "count");
  rep.Set("context.contexts_pruned", pruned / n, "count");
  rep.Set("context.blocks_scanned", blocks_scanned / n, "count");
  rep.Set("context.blocks_skipped", blocks_skipped / n, "count");
  const double visited = blocks_scanned + blocks_skipped;
  rep.Set("context.block_skip_ratio",
          visited > 0 ? blocks_skipped / visited : 0.0, "ratio");

  double off_s = 0, on_s = 0;
  for (int round = 0; round < 2; ++round) {
    for (const bool trace : {false, true}) {
      context::SearchOptions options = RequestOptions();
      options.trace = trace;
      options.bypass_cache = bypass_cache;
      const Clock::time_point t0 = Clock::now();
      for (const std::string& q : sample) {
        const context::SearchResponse r = engine.SearchEx(q, options);
        (void)r;
      }
      (trace ? on_s : off_s) += SecondsSince(t0);
    }
  }
  rep.Set("tracing.overhead_pct", off_s > 0 ? (on_s / off_s - 1.0) * 100 : 0,
          "%");
}

/// Wire-path layers: per query, the in-process serving spine
/// (RequestContext::Run via `run`), each codec call, and the CTXQ1 round
/// trip of the same request; daemon overhead is the difference of the
/// round-trip and spine medians.
template <typename RunSpine>
void WireLayers(Ctx& ctx, uint16_t port, const std::vector<std::string>& sample,
                bool bypass_cache, RunSpine run) {
  context::SearchOptions options = RequestOptions();
  options.bypass_cache = bypass_cache;
  PhaseCounts counts{"wire-layers"};
  Client client(port);
  std::vector<double> run_us, wire_us, encode_us, decode_us;
  for (const std::string& q : sample) {
    const uint64_t request = ctx.next_request++;
    Clock::time_point t0 = Clock::now();
    const context::SearchResponse response = run(q, options);
    run_us.push_back(UsSince(t0));
    ctx.spans.Add("serve.request_context.run", t0, Clock::now(), 0, request);

    net::WireRequest req;
    req.query = q;
    req.options = options;
    t0 = Clock::now();
    const std::string frame = net::EncodeSearchRequest(req);
    encode_us.push_back(UsSince(t0));
    t0 = Clock::now();
    const auto decoded_req = net::DecodeSearchRequestBody(
        std::string_view(frame).substr(net::kFrameHeaderBytes));
    decode_us.push_back(UsSince(t0));
    t0 = Clock::now();
    const std::string reply = net::EncodeSearchResponse(response);
    encode_us.push_back(UsSince(t0));
    t0 = Clock::now();
    const auto decoded_reply = net::DecodeSearchResponseBody(
        std::string_view(reply).substr(net::kFrameHeaderBytes));
    decode_us.push_back(UsSince(t0));
    (void)decoded_req;
    (void)decoded_reply;

    net::WireResponse got;
    t0 = Clock::now();
    const bool ok = client.Search(frame, &got);
    wire_us.push_back(UsSince(t0));
    ctx.spans.Add("serve.daemon.round_trip", t0, Clock::now(), 0, request);
    Count(ok, got, &counts);
  }
  ctx.report.AddPhase(counts);
  ctx.report.Set("serve.request_context.run_us", Percentile(run_us, 50.0),
                 "us");
  ctx.report.Set("serve.net.encode_us", Percentile(encode_us, 50.0), "us");
  ctx.report.Set("serve.net.decode_us", Percentile(decode_us, 50.0), "us");
  ctx.report.Set("serve.daemon.overhead_us",
                 Percentile(wire_us, 50.0) - Percentile(run_us, 50.0), "us");
}

/// Gateway layers: each scatter leg re-run through a ShardClient of our
/// own against the same shard daemons, and the gateway search of the same
/// query; merge time is the gateway search minus its slowest leg.
void GatewayLayers(Ctx& ctx, const std::string& base, const GatewayStack& gw,
                   const std::vector<std::string>& sample) {
  auto router = serve::ServingSnapshot::Load(
      serve::ShardPath(base, 0, kGatewayShards), 1);
  if (!router.ok()) {
    ctx.report.Gate("gateway-layers-router", false,
                    router.status().ToString());
    return;
  }
  const serve::ServingSnapshot& snap = *router.value();
  std::vector<std::unique_ptr<serve::ShardClient>> clients;
  for (uint32_t s = 0; s < kGatewayShards; ++s) {
    clients.push_back(std::make_unique<serve::ShardClient>(
        s, gw.endpoints[s], serve::ShardClient::Endpoint{},
        serve::ShardClient::Options{}));
  }
  context::SearchOptions options = RequestOptions();
  options.bypass_cache = true;
  std::vector<double> leg_us, merge_us;
  PhaseCounts legs{"shard-legs"};
  PhaseCounts searches{"gateway-layers"};
  for (const std::string& q : sample) {
    const uint64_t request = ctx.next_request++;
    const auto routed = snap.engine().RouteQueryText(q, options);
    std::vector<std::vector<context::ContextMatch>> per_shard(kGatewayShards);
    for (const context::ContextMatch& m : routed) {
      const uint32_t owner = snap.shard_owners()[m.term];
      if (owner < kGatewayShards) per_shard[owner].push_back(m);
    }
    double slowest = 0;
    for (uint32_t s = 0; s < kGatewayShards; ++s) {
      if (per_shard[s].empty()) continue;
      const Clock::time_point t0 = Clock::now();
      const auto r = clients[s]->ShardSearch(q, per_shard[s], options,
                                             ctxrank::Deadline());
      const double us = UsSince(t0);
      ctx.spans.Add("serve.shard_client.leg", t0, Clock::now(), 0, request);
      leg_us.push_back(us);
      slowest = std::max(slowest, us);
      Count(r.ok(), r.ok() ? r.value() : net::WireResponse{}, &legs);
    }
    const Clock::time_point t0 = Clock::now();
    const context::SearchResponse r = gw.engine->SearchEx(q, options);
    const double us = UsSince(t0);
    ctx.spans.Add("serve.sharded_engine.search", t0, Clock::now(), 0, request);
    merge_us.push_back(us - slowest);
    net::WireResponse outcome;
    outcome.code = r.status.code();
    outcome.degraded = r.degraded;
    Count(true, outcome, &searches);
  }
  ctx.report.AddPhase(legs);
  ctx.report.AddPhase(searches);
  ctx.report.Set("serve.shard_client.leg_us.p50", Percentile(leg_us, 50.0),
                 "us");
  ctx.report.Set("serve.shard_client.leg_us.p99", Percentile(leg_us, 99.0),
                 "us");
  ctx.report.Set("serve.sharded_engine.merge_us", Percentile(merge_us, 50.0),
                 "us");
}

/// The gateway engine's client counters, summed over shards.
void ReportClientStats(Ctx& ctx, const serve::ShardedEngine& engine) {
  double requests = 0, retries = 0, reuses = 0;
  for (const serve::ShardClient::Stats& s : engine.client_stats()) {
    requests += static_cast<double>(s.requests);
    retries += static_cast<double>(s.retries);
    reuses += static_cast<double>(s.pool_reuses);
  }
  ctx.report.Set("serve.shard_client.retries", retries, "count");
  ctx.report.Set("serve.shard_client.pool_reuse_ratio",
                 requests > 0 ? reuses / requests : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// Probes of cold-text's traced run: the layers no end-to-end path of the
// two workloads crosses.

/// The gateway: the cold-text world saved as kGatewayShards shards, each
/// served by a shard daemon, behind a remote ShardedEngine gateway daemon.
/// Its answers must equal the monolithic engine's; each leg and the merge
/// are timed.
bool GatewayProbe(Ctx& ctx, const ServingWorld& world, Stream& stream) {
  const std::string base = ctx.Path("gateway.snap");
  const auto remove_shards = [&] {
    for (uint32_t s = 0; s < kGatewayShards; ++s) {
      std::remove(serve::ShardPath(base, s, kGatewayShards).c_str());
    }
  };
  const Status saved = serve::SaveShardedSnapshot(
      *world.tc, world.in->onto, world.assignment(), *world.prestige,
      world.in->corpus, base, kGatewayShards);
  if (!saved.ok()) return Fail("shard save", saved);
  GatewayStack stack;
  StageLog log(nullptr);
  if (Status st = StartGateway(base, log, &stack); !st.ok()) {
    remove_shards();
    return Fail("gateway start", st);
  }
  WireGate(ctx, "gateway-vs-monolithic", stack.daemon->port(),
           Sample(stream, kGateSample), [&](const std::string& q) {
             return world.engine->SearchEx(q, ExactOptions());
           });
  GatewayLayers(ctx, base, stack,
                Draw(stream, kReplaySample, ctx.args.seed + 2));
  ReportClientStats(ctx, *stack.engine);
  stack.Stop();
  remove_shards();
  return true;
}

/// The corpus a mutable index holds after ingesting papers [base_n, upto)
/// of `full`: base papers verbatim, ingested papers with their author
/// lists canonicalized (as Ingest stores them), evidence in base-then-
/// ingest order.
corpus::Corpus MergedCorpus(const corpus::Corpus& full,
                            const std::vector<std::vector<ontology::TermId>>&
                                evidence_of,
                            size_t num_terms, size_t base_n, size_t upto) {
  corpus::Corpus c;
  for (corpus::PaperId p = 0; p < upto; ++p) {
    corpus::Paper paper = full.paper(p);
    if (p >= base_n) {
      std::sort(paper.authors.begin(), paper.authors.end());
      paper.authors.erase(
          std::unique(paper.authors.begin(), paper.authors.end()),
          paper.authors.end());
    }
    (void)c.Add(std::move(paper));
  }
  c.set_num_authors(full.num_authors());
  for (ontology::TermId t = 0; t < num_terms; ++t) {
    for (corpus::PaperId p : full.Evidence(t)) {
      if (p < base_n) c.AddEvidence(t, p);
    }
  }
  for (corpus::PaperId p = static_cast<corpus::PaperId>(base_n); p < upto;
       ++p) {
    for (ontology::TermId t : evidence_of[p]) c.AddEvidence(t, p);
  }
  return c;
}

/// From-scratch pipeline over the merged corpus with the index's frozen
/// statistics prefix: what every answer of the live index must equal.
/// (MutableIndex::Build over the merged corpus would refit the TF-IDF
/// statistics over all papers, which the live index never does.)
struct Reference {
  corpus::Corpus corpus;
  std::unique_ptr<corpus::TokenizedCorpus> tc;
  std::unique_ptr<context::ContextAssignment> assignment;
  std::unique_ptr<context::PrestigeScores> prestige;
  std::unique_ptr<context::ContextSearchEngine> engine;
};

ctxrank::Result<std::unique_ptr<Reference>> BuildReference(
    corpus::Corpus merged, const ontology::Ontology& onto, size_t base_n,
    const serve::MutableIndex::Options& o) {
  auto r = std::make_unique<Reference>();
  r->corpus = std::move(merged);
  r->tc = std::make_unique<corpus::TokenizedCorpus>(r->corpus, o.analyzer,
                                                    base_n);
  const corpus::FullTextSearch fts(*r->tc);
  const ctxrank::graph::CitationGraph graph(r->corpus);
  const context::AuthorSimilarity authors(r->corpus, o.prestige.author);
  auto set = context::BuildTextBasedAssignment(*r->tc, onto, fts,
                                               o.assignment);
  if (!set.ok()) return set.status();
  r->assignment =
      std::make_unique<context::ContextAssignment>(std::move(set).value());
  auto prestige = context::ComputeTextPrestige(onto, *r->assignment, *r->tc,
                                               graph, authors, o.prestige);
  if (!prestige.ok()) return prestige.status();
  r->prestige =
      std::make_unique<context::PrestigeScores>(std::move(prestige).value());
  r->engine = std::make_unique<context::ContextSearchEngine>(
      *r->tc, onto, *r->assignment, *r->prestige, o.engine);
  return r;
}

/// Compaction durations and their windows (seconds after the load origin).
struct Compactions {
  std::mutex mu;
  std::vector<double> seconds;
  std::vector<std::pair<double, double>> windows;
  Status status;
};

/// The live index: a MutableIndex over the Default ontology and
/// IngestConfig's corpus less its last twelfth, which arrives over the
/// wire at kIngestRate beside a trickle of cold reads and one compaction
/// that publishes a snapshot. The final answers must equal the
/// from-scratch pipeline's over the merged corpus.
bool IngestProbe(Ctx& ctx) {
  const Args& a = ctx.args;
  const auto config = IngestConfig(a.small);
  const size_t total_papers = config.corpus.num_papers;
  const size_t ingest_n = total_papers / 12;
  const size_t base_n = total_papers - ingest_n;
  const size_t compact_every = ingest_n * 3 / 5;

  StageLog inputs_log(nullptr);  // Not the workload's corpus stages.
  auto generated = GenerateInputs(config, inputs_log);
  if (!generated.ok()) return Fail("corpus", generated.status());
  const std::unique_ptr<Inputs> in = std::move(generated).value();
  const corpus::Corpus& full = in->corpus;
  std::vector<std::vector<ontology::TermId>> evidence_of(full.size());
  for (ontology::TermId t = 0; t < in->onto.size(); ++t) {
    for (corpus::PaperId p : full.Evidence(t)) evidence_of[p].push_back(t);
  }
  std::vector<std::string> ingest_frames;
  for (size_t p = base_n; p < base_n + ingest_n; ++p) {
    const corpus::Paper& paper = full.paper(static_cast<corpus::PaperId>(p));
    net::WireAddPaper w;
    w.title = paper.title;
    w.abstract_text = paper.abstract_text;
    w.body = paper.body;
    w.index_terms = paper.index_terms;
    w.authors.assign(paper.authors.begin(), paper.authors.end());
    w.references.assign(paper.references.begin(), paper.references.end());
    w.evidence_terms.assign(evidence_of[p].begin(), evidence_of[p].end());
    ingest_frames.push_back(net::EncodeAddPaperRequest(w));
  }
  serve::MutableIndex::Options options;
  options.snapshot_path = ctx.Path("ingest.snap");
  auto built = BuildReference(MergedCorpus(full, evidence_of, in->onto.size(),
                                           base_n, base_n + ingest_n),
                              in->onto, base_n, options);
  if (!built.ok()) return Fail("reference build", built.status());
  const std::unique_ptr<Reference> ref = std::move(built).value();
  Stream s(ColdQueries(in->onto, *ref->tc, *ref->assignment, a.seed,
                       kGateSample + 2 * kReplaySample),
           false);

  StageLog log(&ctx.spans);
  auto idx = log.Time("serve.mutable_index.build_s", [&] {
    return serve::MutableIndex::Build(
        MergedCorpus(full, evidence_of, in->onto.size(), base_n, base_n),
        in->onto, options);
  });
  if (!idx.ok()) return Fail("mutable index build", idx.status());
  const std::unique_ptr<serve::MutableIndex> index = std::move(idx).value();
  ctx.report.Set("serve.mutable_index.build_s",
                 log.seconds("serve.mutable_index.build_s"), "s");
  serve::Daemon daemon(*index, serve::Daemon::Options{});
  if (Status st = daemon.Start(); !st.ok()) return Fail("daemon", st);
  const uint16_t port = daemon.port();
  ctx.report.Note(std::to_string(ingest_n) + " papers ingested onto " +
                  std::to_string(base_n) + ", compaction every " +
                  std::to_string(compact_every));

  // Writes: ingest at a fixed rate over one connection (every other paper
  // goes through Ingest() in-process, to time the index alone),
  // compaction on a background thread, and the read trickle over the
  // other three connections.
  const Clock::time_point origin = SoonOrigin();
  size_t ingested = 0;  // Guarded by ingest_mu.
  std::mutex ingest_mu;
  std::condition_variable ingest_cv;
  Compactions compactions;
  PhaseCounts ingest_counts{"ingest"};
  std::vector<double> wire_ingest_ms, local_ingest_us;
  std::thread ingester([&] {
    Client client(port);
    for (size_t i = 0; i < ingest_n; ++i) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / kIngestRate)));
      ++ingest_counts.sent;
      bool ok = false;
      const Clock::time_point t0 = Clock::now();
      if (i % 2 == 1) {
        serve::MutableIndex::IngestPaper paper;
        paper.paper =
            ref->corpus.paper(static_cast<corpus::PaperId>(base_n + i));
        paper.evidence_terms = evidence_of[base_n + i];
        ok = index->Ingest(std::move(paper)).ok();
        local_ingest_us.push_back(UsSince(t0));
      } else {
        net::WireAddPaperResponse reply;
        ok = client.AddPaper(ingest_frames[i], &reply) &&
             reply.code == ctxrank::StatusCode::kOk &&
             reply.paper_id == base_n + i;
        wire_ingest_ms.push_back(MsSince(t0));
      }
      ctx.spans.Add("serve.mutable_index.ingest", t0, Clock::now());
      if (!ok) {
        ++ingest_counts.failed;
        break;
      }
      ++ingest_counts.succeeded;
      {
        std::lock_guard<std::mutex> lock(ingest_mu);
        ingested = i + 1;
      }
      ingest_cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(ingest_mu);
      ingested = ingest_n + 1;  // Done: releases every pending compaction.
    }
    ingest_cv.notify_all();
  });
  std::thread compactor([&] {
    for (size_t c = 1; c * compact_every <= ingest_n; ++c) {
      {
        std::unique_lock<std::mutex> lock(ingest_mu);
        ingest_cv.wait(lock, [&] { return ingested >= c * compact_every; });
      }
      const double start = SecondsSince(origin);
      const Clock::time_point t0 = Clock::now();
      const Status st = index->Compact();
      ctx.spans.Add("serve.mutable_index.compact", t0, Clock::now());
      std::lock_guard<std::mutex> lock(compactions.mu);
      compactions.seconds.push_back(SecondsSince(t0));
      compactions.windows.emplace_back(start, SecondsSince(origin));
      if (!st.ok()) {
        compactions.status = st;
        return;
      }
    }
  });
  const LoadResult reads =
      OpenLoop("ingest-reads", port, s, kConnections - 1,
               static_cast<double>(ingest_n) / kIngestRate, kIngestReadRate,
               a.seed ^ 0x494e4753, origin);
  ingester.join();
  compactor.join();
  ctx.report.AddPhase(reads.counts);
  ctx.report.AddPhase(ingest_counts);
  if (!compactions.status.ok()) return Fail("compaction", compactions.status);

  Report& rep = ctx.report;
  rep.Set("ingest_p50_ms", Percentile(wire_ingest_ms, 50.0), "ms");
  rep.Set("ingest_p99_ms", Percentile(wire_ingest_ms, 99.0), "ms");
  rep.Set("compact_s", Median(compactions.seconds), "s");
  rep.Set("serve.mutable_index.ingest_us", Percentile(local_ingest_us, 50.0),
          "us");
  rep.Set("serve.mutable_index.affected_contexts",
          static_cast<double>(index->affected_contexts().size()), "count");
  rep.Set("serve.mutable_index.ingest_read_p50_ms",
          Percentile(reads.latency_ms, 50.0), "ms");
  rep.Set("serve.mutable_index.ingest_read_p99_ms",
          Percentile(reads.latency_ms, 99.0), "ms");
  std::vector<double> inside, outside;
  for (size_t i = 0; i < reads.latency_ms.size(); ++i) {
    bool in_window = false;
    for (const auto& [lo, hi] : compactions.windows) {
      in_window |= reads.at_s[i] >= lo && reads.at_s[i] < hi;
    }
    (in_window ? inside : outside).push_back(reads.latency_ms[i]);
  }
  rep.Set("serve.mutable_index.compact_stall_p99_ms",
          inside.empty() || outside.empty()
              ? 0.0
              : Percentile(inside, 99.0) - Percentile(outside, 99.0),
          "ms");
  rep.Note(std::to_string(compactions.seconds.size()) + " compactions; " +
           std::to_string(inside.size()) +
           " of the reads beside ingest fell inside a compaction window");

  // Two-leg reads on the final state, after the lazily computed context
  // overlays (tens of milliseconds each) are all built: one query per
  // term name first.
  const ontology::Ontology& onto = index->onto();
  for (ontology::TermId t = 0; t < onto.size(); ++t) {
    const auto r = index->SearchEx(onto.term(t).name, RequestOptions());
    (void)r;
  }
  std::vector<double> search_us;
  for (const std::string& q : Draw(s, kReplaySample, a.seed + 3)) {
    const Clock::time_point t0 = Clock::now();
    const auto r = index->SearchEx(q, RequestOptions());
    (void)r;
    search_us.push_back(UsSince(t0));
    ctx.spans.Add("serve.mutable_index.search", t0, Clock::now(), 0,
                  ctx.next_request++);
  }
  rep.Set("serve.mutable_index.search_us", Percentile(search_us, 50.0), "us");

  WireGate(ctx, "live-vs-rebuild", port, Sample(s, kGateSample),
           [&](const std::string& q) {
             return ref->engine->SearchEx(q, ExactOptions());
           });
  // The merged index must also hold exactly the papers it was sent.
  rep.Gate("ingested-paper-count", index->num_papers() == base_n + ingest_n,
           std::to_string(index->num_papers()) + " papers served");
  std::remove(options.snapshot_path.c_str());
  return true;
}

// ---------------------------------------------------------------------------
// The workloads: one snapshot behind one daemon.

bool RunMonolithic(Ctx& ctx, bool pattern) {
  const Args& a = ctx.args;
  const auto config = pattern ? PatternConfig() : TextConfig(a.small);
  const std::string tag = pattern ? "hot" : "cold";
  const double rate = pattern ? kHotRate : kColdRate;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<ServingWorld> world;
  MonoStack stack;
  StageLog stages(nullptr);
  std::string path;
  std::string probe;
  std::vector<double> setup_s;
  PhaseCounts setup_counts{"setup"};
  PhaseCounts warmup_counts{"warmup"};
  Rounds rounds;
  ctxrank::LruCacheStats measured;  // Lookups of the measured rounds.
  for (size_t rep = 0; rep < ctx.reps(); ++rep) {
    const bool last = rep + 1 == ctx.reps();
    stack.Stop();
    if (!path.empty()) std::remove(path.c_str());
    world.reset();
    stages = StageLog(last ? &ctx.spans : nullptr);
    const Clock::time_point t0 = rep == 0 ? ProcessStart() : Clock::now();
    auto built = pattern ? BuildPatternWorld(config, stages)
                         : BuildTextWorld(config, stages);
    if (!built.ok()) return Fail("world build", built.status());
    world = std::move(built).value();
    path = ctx.Path(tag + "-" + std::to_string(rep) + ".snap");
    if (Status st = SaveWorld(*world, path, stages); !st.ok()) {
      return Fail("snapshot save", st);
    }
    double excluded = 0;  // Stream generation is the load generator's.
    if (stream == nullptr) {
      const Clock::time_point g0 = Clock::now();
      const auto& onto = world->in->onto;
      stream = std::make_unique<Stream>(
          pattern ? HotQueries(onto, *world->tc, world->assignment(), a.seed)
                  : ColdQueries(onto, *world->tc, world->assignment(), a.seed,
                                ColdStreamSize(a, rate)),
          pattern);
      probe = ProbeQuery(onto);
      excluded = SecondsSince(g0);
      ctx.report.Note("load generator inputs made in " +
                      ctxrank::FormatDouble(excluded, 2) +
                      " s, excluded from setup_s");
    }
    TrimHeap();
    const double rss0 = RssMb();
    if (Status st = StartMono(path, true, pattern, stages, &stack); !st.ok()) {
      return Fail("serving start", st);
    }
    const uint16_t port = stack.daemon->port();
    if (!Probe(port, probe, &setup_counts)) {
      return Fail("first query", Status::Internal("probe failed"));
    }
    setup_s.push_back(SecondsSince(t0) - excluded);

    const auto snap = stack.sup->current();
    if (pattern) {
      // Fill the cache with the whole hot set before timing.
      WireGate(ctx, "warm-gate", port, Sample(*stream, stream->size()),
               [&](const std::string& q) {
                 return snap->engine().SearchEx(q, ExactOptions());
               });
    }
    // Closed-loop warm-up: lets caches fill and lazy set-up finish.
    Accumulate(ClosedLoop("warmup", port, *stream, kConnections,
                          kWarmupSeconds, a.seed ^ 0x5741524d)
                   .counts,
               &warmup_counts);
    const ctxrank::LruCacheStats before = snap->engine().query_cache_stats();
    MeasureRound(ctx, port, *stream, rate,
                 a.seconds / static_cast<double>(ctx.reps()), &rounds);
    const ctxrank::LruCacheStats after = snap->engine().query_cache_stats();
    measured.hits += after.hits - before.hits;
    measured.misses += after.misses - before.misses;
    rounds.rss.push_back(RssMb() - rss0);
  }
  ReportSetup(ctx, setup_s, setup_counts, stages);
  ctx.report.AddPhase(warmup_counts);
  rounds.Report(ctx.report);
  ctx.report.Set("serve.snapshot.size_mb",
                 static_cast<double>(FileBytes(path)) / kMiB, "MB");
  ctx.report.Note(std::to_string(stream->size()) + " distinct queries in the " +
                  (pattern ? "Zipf(1.1) hot" : "cold") + " stream");
  if (stream->wraps() > 0) {
    ctx.report.Note("cold stream sent " + std::to_string(stream->wraps()) +
                    " times over, in order");
  }

  const double hits = static_cast<double>(measured.hits);
  const double lookups = hits + static_cast<double>(measured.misses);
  ctx.report.Set("context.cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
                 "ratio");

  const auto snap = stack.sup->current();
  const uint16_t port = stack.daemon->port();
  WireGate(ctx, "wire-vs-exact-scan", port, Sample(*stream, kGateSample),
           [&](const std::string& q) {
             return snap->engine().SearchEx(q, ExactOptions());
           });

  if (!MeasureRestart(ctx, probe, [&](StageLog& log, auto answered) {
        MonoStack fresh;
        const Status st = StartMono(path, true, pattern, log, &fresh);
        answered(st.ok() ? fresh.daemon->port() : 0);
      })) {
    return false;
  }

  bool ok = true;
  if (a.trace) {
    QueryPathLayers(ctx, snap->engine(), Draw(*stream, kReplaySample, a.seed),
                    !pattern);
    WireLayers(ctx, port, Draw(*stream, kReplaySample, a.seed + 1), !pattern,
               [&](const std::string& q, const context::SearchOptions& o) {
                 serve::RequestContext rc(q, o);
                 return rc.Run(snap->engine());
               });
    if (!pattern) ok = GatewayProbe(ctx, *world, *stream);
  }
  stack.Stop();
  std::remove(path.c_str());
  if (ok && a.trace && !pattern) {
    world.reset();
    ok = IngestProbe(ctx);
  }
  return ok;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto& kNames =
      *new std::vector<std::string>{"cold-text", "hot-pattern"};
  return kNames;
}

bool RunWorkload(const Args& args, Report& report, SpanLog& spans) {
  Ctx ctx{args, report, spans};
  bool ok = false;
  if (args.workload == "cold-text") ok = RunMonolithic(ctx, false);
  if (args.workload == "hot-pattern") ok = RunMonolithic(ctx, true);
  const double bad = static_cast<double>(report.bad());
  const double attempted = static_cast<double>(report.attempted());
  report.Set("failed_frac", attempted > 0 ? bad / attempted : 0.0, "ratio");
  return ok;
}

}  // namespace perfbench
