// Load generator: a blocking CTXQ1 client, the query streams, and the
// closed- and open-loop generators. Every loop uses one thread per
// connection and at most four connections.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "context/search_engine.h"
#include "report.h"
#include "serve/net.h"

namespace perfbench {

inline constexpr size_t kTopK = 20;
inline constexpr size_t kConnections = 4;

/// Blocking CTXQ1 client over one loopback connection. Reads time out
/// after 10 s, so a stuck daemon fails the run instead of hanging it.
class Client {
 public:
  explicit Client(uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return fd_ >= 0; }
  /// One search round trip; `frame` is an encoded SearchRequest.
  bool Search(std::string_view frame, ctxrank::serve::net::WireResponse* out);
  /// One ingest round trip; `frame` is an encoded AddPaperRequest.
  bool AddPaper(std::string_view frame,
                ctxrank::serve::net::WireAddPaperResponse* out);

 private:
  bool Send(std::string_view bytes);
  /// Blocks for the next complete frame and returns its body.
  bool Read(uint8_t want_type, std::string* body);

  int fd_ = -1;
  std::string buf_;
};

/// The search options every request of every workload carries.
ctxrank::context::SearchOptions RequestOptions();

/// A query stream: pre-encoded requests plus their text. A cold stream
/// hands out each query once, in order (wrapping only if a run outlasts
/// it, which `wraps()` reports); a hot stream draws with Zipf popularity.
class Stream {
 public:
  Stream(std::vector<std::string> texts, bool zipf);

  size_t size() const { return texts_.size(); }
  const std::string& text(size_t i) const { return texts_[i]; }
  const std::string& frame(size_t i) const { return frames_[i]; }
  /// Index of the next query to send.
  size_t Pick(ctxrank::Rng& rng);
  /// Times a cold stream ran out and restarted from its head.
  size_t wraps() const { return cursor_.load() / texts_.size(); }

 private:
  std::vector<std::string> texts_;
  std::vector<std::string> frames_;
  bool zipf_;
  std::atomic<size_t> cursor_{0};
};

/// Outcome counting shared by every phase: transport errors and non-OK
/// answers fail, kResourceExhausted is shed, a degraded answer is counted
/// as degraded.
void Count(bool transport_ok, const ctxrank::serve::net::WireResponse& r,
           PhaseCounts* counts);

struct LoadResult {
  PhaseCounts counts;
  double wall_s = 0.0;
  /// Per request: latency (open loop: see OpenLoop), and
  /// its place in time, in seconds after the phase start: when the answer
  /// arrived (closed loop) or when the request was due (open loop).
  std::vector<double> latency_ms;
  std::vector<double> at_s;
  /// Open loop only: how late each send actually started.
  std::vector<double> late_ms;
};

/// Closed loop: `conns` connections, depth 1, each sending its next
/// request when the previous answer arrives, for `seconds`.
LoadResult ClosedLoop(const std::string& name, uint16_t port, Stream& stream,
                      size_t conns, double seconds, uint64_t seed);

/// Open loop at a fixed offered `rate` (requests/s) over `conns`
/// connections for `seconds`, starting at `origin`. A request that was
/// due while its connection still waited for an earlier answer is timed
/// from its due time, so a stall is charged to every request it delays;
/// any other request is timed from its send.
LoadResult OpenLoop(const std::string& name, uint16_t port, Stream& stream,
                    size_t conns, double seconds, double rate, uint64_t seed,
                    Clock::time_point origin);

/// Bitwise equality of two hit lists (ids and raw double bits).
bool SameHits(const std::vector<ctxrank::context::SearchHit>& a,
              const std::vector<ctxrank::context::SearchHit>& b);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
