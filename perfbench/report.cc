#include "report.h"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "serve/net.h"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// {steal, total} jiffies of all CPUs from /proc/stat.
std::pair<double, double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

const std::pair<double, double> kJiffiesAtStart = CpuJiffies();

std::string Json(const std::string& s) {
  return "\"" + ctxrank::serve::net::JsonEscape(s) + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string HostName() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::AddPhase(const PhaseCounts& phase) { phases_.push_back(phase); }

void Report::Gate(const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back({name, ok, detail});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::correct() const {
  if (gates_.empty()) return false;
  for (const GateResult& g : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

uint64_t Report::attempted() const {
  uint64_t n = 0;
  for (const PhaseCounts& p : phases_) n += p.sent;
  return n;
}

uint64_t Report::bad() const {
  uint64_t n = 0;
  for (const PhaseCounts& p : phases_) n += p.bad();
  return n;
}

void Report::Print(const Args& args) const {
  std::printf("# stamp %s\n", StampJson(args).c_str());
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const PhaseCounts& p : phases_) {
    std::printf(
        "# phase %-22s sent %8llu  succeeded %8llu  failed %llu  shed %llu  "
        "degraded %llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.sent),
        static_cast<unsigned long long>(p.succeeded),
        static_cast<unsigned long long>(p.failed),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.degraded));
  }
  for (const Metric& m : metrics_) {
    std::printf("# metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const GateResult& g : gates_) {
    std::printf("# gate %-28s %s  %s\n", g.name.c_str(),
                g.ok ? "PASS" : "FAIL", g.detail.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(bad());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += Json(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Json(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

uint64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      uint64_t request) {
  if (!enabled_) return 0;
  const auto us = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - kProcessStart)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, request, name, us(start), us(end)});
  return id;
}

bool SpanLog::Write(const std::string& path, const Args& args) const {
  if (!enabled_ || path.empty()) return true;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"stamp\": " << StampJson(args) << "}\n";
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": " << Json(s.name)
        << ", \"start_us\": " << Number(s.start_us)
        << ", \"end_us\": " << Number(s.end_us) << "}\n";
  }
  return static_cast<bool>(out);
}

std::string StampJson(const Args& args) {
  std::string s = "{";
  s += "\"host\": " + Json(HostName());
  s += ", \"cpu\": " + Json(CpuModel());
  s += ", \"nproc\": " +
       std::to_string(std::thread::hardware_concurrency());
  s += ", \"simd\": " + Json(ctxrank::simd::ActiveLevelName());
  s += ", \"build_type\": " + Json(PERFBENCH_BUILD_TYPE);
  s += ", \"commit\": " + Json(args.commit);
  s += ", \"workload\": " + Json(args.workload);
  s += ", \"seed\": " + std::to_string(args.seed);
  s += ", \"seconds\": " + Number(args.seconds);
  s += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  s += ", \"scale\": " + Json(args.small ? "small" : "default");
  s += "}";
  return s;
}

double RssMb() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double StealPercent() {
  const auto [steal, total] = CpuJiffies();
  const double dt = total - kJiffiesAtStart.second;
  return dt > 0 ? (steal - kJiffiesAtStart.first) / dt * 100.0 : 0.0;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void TrimHeap() { ::malloc_trim(0); }

}  // namespace perfbench
