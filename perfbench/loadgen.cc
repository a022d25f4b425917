#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <bit>
#include <mutex>
#include <thread>

namespace perfbench {

namespace net = ctxrank::serve::net;

Client::Client(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Send(std::string_view bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Client::Read(uint8_t want_type, std::string* body) {
  for (;;) {
    const net::Frame f = net::NextFrame(buf_, 64u << 20);
    if (f.state == net::FrameState::kReady) {
      if (f.type != want_type) return false;
      body->assign(f.body);
      buf_.erase(0, f.consumed);
      return true;
    }
    if (f.state != net::FrameState::kNeedMore) return false;
    char tmp[16384];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
  }
}

bool Client::Search(std::string_view frame, net::WireResponse* out) {
  std::string body;
  if (!ok() || !Send(frame) || !Read(net::kFrameSearchResponse, &body)) {
    return false;
  }
  auto decoded = net::DecodeSearchResponseBody(body);
  if (!decoded.ok()) return false;
  *out = std::move(decoded).value();
  return true;
}

bool Client::AddPaper(std::string_view frame,
                      net::WireAddPaperResponse* out) {
  std::string body;
  if (!ok() || !Send(frame) || !Read(net::kFrameAddPaperResponse, &body)) {
    return false;
  }
  auto decoded = net::DecodeAddPaperResponseBody(body);
  if (!decoded.ok()) return false;
  *out = std::move(decoded).value();
  return true;
}

ctxrank::context::SearchOptions RequestOptions() {
  ctxrank::context::SearchOptions options;
  options.top_k = kTopK;
  return options;
}

Stream::Stream(std::vector<std::string> texts, bool zipf)
    : texts_(std::move(texts)), zipf_(zipf) {
  frames_.reserve(texts_.size());
  for (const std::string& t : texts_) {
    net::WireRequest req;
    req.query = t;
    req.options = RequestOptions();
    frames_.push_back(net::EncodeSearchRequest(req));
  }
}

size_t Stream::Pick(ctxrank::Rng& rng) {
  if (zipf_) return rng.NextZipf(texts_.size(), 1.1);
  return cursor_.fetch_add(1) % texts_.size();
}

void Count(bool transport_ok, const net::WireResponse& r,
           PhaseCounts* counts) {
  ++counts->sent;
  if (!transport_ok) {
    ++counts->failed;
  } else if (r.code == ctxrank::StatusCode::kResourceExhausted) {
    ++counts->shed;
  } else if (r.code != ctxrank::StatusCode::kOk) {
    ++counts->failed;
  } else if (r.degraded) {
    ++counts->degraded;
  } else {
    ++counts->succeeded;
  }
}

namespace {

/// Folds per-thread results into one (counts summed, samples appended).
class Merger {
 public:
  explicit Merger(const std::string& name) { total_.counts.name = name; }

  void Add(const LoadResult& part) {
    std::lock_guard<std::mutex> lock(mu_);
    PhaseCounts& c = total_.counts;
    c.sent += part.counts.sent;
    c.succeeded += part.counts.succeeded;
    c.failed += part.counts.failed;
    c.shed += part.counts.shed;
    c.degraded += part.counts.degraded;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(total_.latency_ms, part.latency_ms);
    append(total_.at_s, part.at_s);
    append(total_.late_ms, part.late_ms);
  }

  LoadResult Take(double wall_s) {
    total_.wall_s = wall_s;
    return std::move(total_);
  }

 private:
  std::mutex mu_;
  LoadResult total_;
};

}  // namespace

LoadResult ClosedLoop(const std::string& name, uint16_t port, Stream& stream,
                      size_t conns, double seconds, uint64_t seed) {
  Merger merger(name);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop_at =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      ctxrank::Rng rng = ctxrank::Rng(seed).Fork(t);
      LoadResult mine;
      mine.latency_ms.reserve(1 << 16);
      mine.at_s.reserve(1 << 16);
      Client client(port);
      net::WireResponse resp;
      while (Clock::now() < stop_at) {
        const size_t q = stream.Pick(rng);
        const Clock::time_point s = Clock::now();
        const bool ok = client.Search(stream.frame(q), &resp);
        mine.latency_ms.push_back(MsSince(s));
        mine.at_s.push_back(SecondsSince(t0));
        Count(ok, resp, &mine.counts);
        if (!ok) break;
      }
      merger.Add(mine);
    });
  }
  for (std::thread& th : threads) th.join();
  return merger.Take(SecondsSince(t0));
}

LoadResult OpenLoop(const std::string& name, uint16_t port, Stream& stream,
                    size_t conns, double seconds, double rate, uint64_t seed,
                    Clock::time_point origin) {
  Merger merger(name);
  const auto total = static_cast<uint64_t>(seconds * rate);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      ctxrank::Rng rng = ctxrank::Rng(seed).Fork(1000 + t);
      LoadResult mine;
      mine.latency_ms.reserve(total / conns + 1);
      mine.at_s.reserve(total / conns + 1);
      mine.late_ms.reserve(total / conns + 1);
      Client client(port);
      net::WireResponse resp;
      Clock::time_point prev_done = origin;
      for (uint64_t k = t; k < total; k += conns) {
        const double due_s = static_cast<double>(k) / rate;
        const Clock::time_point due =
            origin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(due);
        const size_t q = stream.Pick(rng);
        const Clock::time_point sent = Clock::now();
        const bool ok = client.Search(stream.frame(q), &resp);
        const Clock::time_point done = Clock::now();
        // Still waiting for the previous answer at the due time: the
        // system held this request back, so it is timed from the due time.
        // Otherwise from the send, so the generator's own wake-up delay is
        // not charged to the system.
        const Clock::time_point start = prev_done > due ? due : sent;
        prev_done = done;
        mine.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(done - start).count());
        mine.at_s.push_back(due_s);
        mine.late_ms.push_back(
            std::chrono::duration<double, std::milli>(sent - due).count());
        Count(ok, resp, &mine.counts);
        if (!ok) break;
      }
      merger.Add(mine);
    });
  }
  for (std::thread& th : threads) th.join();
  return merger.Take(SecondsSince(origin));
}

bool SameHits(const std::vector<ctxrank::context::SearchHit>& a,
              const std::vector<ctxrank::context::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].paper != b[i].paper || a[i].context != b[i].context ||
        std::bit_cast<uint64_t>(a[i].relevancy) !=
            std::bit_cast<uint64_t>(b[i].relevancy) ||
        std::bit_cast<uint64_t>(a[i].prestige) !=
            std::bit_cast<uint64_t>(b[i].prestige) ||
        std::bit_cast<uint64_t>(a[i].match) !=
            std::bit_cast<uint64_t>(b[i].match)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
