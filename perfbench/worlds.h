// The offline half of each workload's set-up, built from the public API of
// each layer (corpus -> text -> graph -> pattern/context) with every stage
// timed: a world holds exactly what its serving snapshot needs.
#ifndef PERFBENCH_WORLDS_H_
#define PERFBENCH_WORLDS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "context/assignment_builders.h"
#include "context/prestige.h"
#include "context/search_engine.h"
#include "corpus/corpus.h"
#include "corpus/tokenized_corpus.h"
#include "eval/experiment.h"
#include "ontology/ontology.h"
#include "report.h"

namespace perfbench {

/// Accumulates per-stage wall seconds (and spans, on traced runs).
class StageLog {
 public:
  explicit StageLog(SpanLog* spans) : spans_(spans) {}

  template <typename Fn>
  auto Time(const std::string& stage, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Finish {
      StageLog* log;
      const std::string& stage;
      Clock::time_point t0;
      ~Finish() { log->Record(stage, t0, Clock::now()); }
    } finish{this, stage, t0};
    return std::forward<Fn>(fn)();
  }

  void Record(const std::string& stage, Clock::time_point t0,
              Clock::time_point t1);
  /// Total seconds recorded under `stage` (0 if never timed).
  double seconds(const std::string& stage) const;

 private:
  SpanLog* spans_;
  std::vector<std::pair<std::string, double>> seconds_;
};

/// World configuration of a workload; `small` selects WorldConfig::Small()
/// (the smoke self-test). Set-up runs three times per run and a run must
/// stay near a minute, so only cold-text uses the Default experiment
/// scale (6,000 papers, 450 terms): task 1b alone takes ~31 s at that
/// scale, and at 6,000 papers the live-index probe's ingests and
/// compactions outlast the run.
ctxrank::eval::WorldConfig TextConfig(bool small);
/// WorldConfig::Small() with 800 papers, at either scale.
ctxrank::eval::WorldConfig PatternConfig();
/// The Default ontology (450 terms) with 3,000 papers.
ctxrank::eval::WorldConfig IngestConfig(bool small);

/// Ontology plus generated corpus (stage corpus.generate_s).
struct Inputs {
  ctxrank::ontology::Ontology onto;
  ctxrank::corpus::Corpus corpus;
};
ctxrank::Result<std::unique_ptr<Inputs>> GenerateInputs(
    const ctxrank::eval::WorldConfig& config, StageLog& log);

/// One context paper set with its prestige scores and search engine.
struct ServingWorld {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<ctxrank::corpus::TokenizedCorpus> tc;
  std::unique_ptr<ctxrank::context::ContextAssignment> text_set;
  std::unique_ptr<ctxrank::context::PatternAssignmentResult> pattern_set;
  std::unique_ptr<ctxrank::context::PrestigeScores> prestige;
  std::unique_ptr<ctxrank::context::ContextSearchEngine> engine;

  const ctxrank::context::ContextAssignment& assignment() const {
    return pattern_set != nullptr ? pattern_set->assignment : *text_set;
  }
};

/// Text-based set with text prestige (tasks 1a + 2b) and its engine.
ctxrank::Result<std::unique_ptr<ServingWorld>> BuildTextWorld(
    const ctxrank::eval::WorldConfig& config, StageLog& log);
/// Pattern-based set with pattern prestige (tasks 1b + 2c) and its engine.
ctxrank::Result<std::unique_ptr<ServingWorld>> BuildPatternWorld(
    const ctxrank::eval::WorldConfig& config, StageLog& log);

/// Saves the world's monolithic snapshot (stage serve.snapshot.save_s).
ctxrank::Status SaveWorld(const ServingWorld& world, const std::string& path,
                          StageLog& log);

/// Size of a file in bytes (0 if absent).
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H_
