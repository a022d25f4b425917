// perfbench — the ctxrank benchmark binary. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--scale default|small] [--spans FILE]
//             [--commit ID]
//
// and prints human-readable '#' lines followed by one JSON line holding
// every metric it measured. perfbench/run.py builds this binary, runs it
// and reduces that line to the metrics BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--scale default|small] "
               "[--spans FILE] [--commit ID]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0 && args.seconds <= 600)) {
        return Usage("--seconds needs a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "default" && value != "small") {
        return Usage("--scale takes default or small");
      }
      args.small = value == "small";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.workdir.empty()) return Usage("--workdir is required");
  bool known = false;
  for (const std::string& name : WorkloadNames()) {
    known |= name == args.workload;
  }
  if (!known) return Usage("unknown --workload");

  Report report;
  SpanLog spans(args.trace);
  const bool completed = RunWorkload(args, report, spans);
  if (!spans.Write(args.spans_path, args)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
  }
  if (!completed) return 1;
  report.Note("peak resident memory " + std::to_string(PeakRssMb()) +
              " MB; process wall " +
              std::to_string(SecondsSince(ProcessStart())) + " s; host steal " +
              std::to_string(StealPercent()) + "%");
  report.Print(args);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
