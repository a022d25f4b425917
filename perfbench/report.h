// Run configuration, timing helpers, the metric report and the span log
// shared by every workload of the benchmark.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Instant the process started (static initialization): the origin of the
/// first set-up repetition's `setup_s`.
Clock::time_point ProcessStart();

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }
inline double UsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e6; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured load phases, in seconds.
  double seconds = 10.0;
  /// Traced run: one set-up, per-layer spans and replays.
  bool trace = false;
  /// WorldConfig::Small() worlds everywhere (the smoke self-test).
  bool small = false;
  /// Run-unique scratch directory for snapshots; created and removed by
  /// the caller (perfbench/run.py).
  std::string workdir;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string spans_path;
  /// Identity of the code under test (commit or source hash).
  std::string commit = "unknown";
};

/// Sent/succeeded/failed/shed/degraded counts of one phase of a run.
struct PhaseCounts {
  std::string name;
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;

  uint64_t bad() const { return failed + shed + degraded; }
};

/// Named metrics with units, phase counts and correctness-gate verdicts.
/// Print() writes human-readable lines, then one JSON line holding every
/// measured metric; perfbench/run.py selects from it the metrics
/// BENCHMARK.json names.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void AddPhase(const PhaseCounts& phase);
  /// Records one correctness gate; any failed gate makes the run incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail);
  void Note(const std::string& line);

  bool correct() const;
  uint64_t attempted() const;
  uint64_t bad() const;

  void Print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct GateResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<PhaseCounts> phases_;
  std::vector<GateResult> gates_;
  std::vector<std::string> notes_;
};

/// In-memory spans of a traced run, written out once at the end. Spans
/// are recorded by the benchmark around its calls into each layer; spans
/// of one request share `request`.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;  // 0 = root.
    uint64_t request;  // 0 = not part of a request (set-up stages).
    std::string name;
    double start_us;
    double end_us;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Records a finished span; returns its id (0 when disabled).
  /// Thread-safe.
  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent = 0,
               uint64_t request = 0);
  /// Writes one JSON object per line, preceded by a stamp line.
  bool Write(const std::string& path, const Args& args) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Host/CPU/build stamp as one JSON object (no trailing newline).
std::string StampJson(const Args& args);

/// Share of CPU time the host's hypervisor took from this machine (steal)
/// since the process started, in percent: a stretch of it shows up as
/// slow slices in every load phase.
double StealPercent();

/// Resident set size of this process in MiB, now and at its peak.
double RssMb();
double PeakRssMb();
/// Returns freed heap pages to the kernel so RSS deltas measure live
/// memory only.
void TrimHeap();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
