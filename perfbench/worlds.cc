#include "worlds.h"

#include <sys/stat.h>

#include "context/author_similarity.h"
#include "context/pattern_prestige.h"
#include "context/text_prestige.h"
#include "corpus/corpus_generator.h"
#include "corpus/full_text_search.h"
#include "graph/citation_graph.h"
#include "ontology/ontology_generator.h"
#include "serve/snapshot.h"

namespace perfbench {

using ctxrank::Result;
using ctxrank::Status;
namespace context = ctxrank::context;
namespace corpus = ctxrank::corpus;

void StageLog::Record(const std::string& stage, Clock::time_point t0,
                      Clock::time_point t1) {
  const double s = std::chrono::duration<double>(t1 - t0).count();
  if (spans_ != nullptr) spans_->Add(stage, t0, t1);
  for (auto& [name, total] : seconds_) {
    if (name == stage) {
      total += s;
      return;
    }
  }
  seconds_.emplace_back(stage, s);
}

double StageLog::seconds(const std::string& stage) const {
  for (const auto& [name, total] : seconds_) {
    if (name == stage) return total;
  }
  return 0.0;
}

ctxrank::eval::WorldConfig TextConfig(bool small) {
  return small ? ctxrank::eval::WorldConfig::Small()
               : ctxrank::eval::WorldConfig::Default();
}

ctxrank::eval::WorldConfig PatternConfig() {
  ctxrank::eval::WorldConfig c = ctxrank::eval::WorldConfig::Small();
  c.corpus.num_papers = 800;
  return c;
}

ctxrank::eval::WorldConfig IngestConfig(bool small) {
  ctxrank::eval::WorldConfig c = TextConfig(small);
  if (!small) c.corpus.num_papers = 3000;
  return c;
}

Result<std::unique_ptr<Inputs>> GenerateInputs(
    const ctxrank::eval::WorldConfig& config, StageLog& log) {
  return log.Time("corpus.generate_s",
                  [&]() -> Result<std::unique_ptr<Inputs>> {
                    auto in = std::make_unique<Inputs>();
                    auto onto =
                        ctxrank::ontology::GenerateOntology(config.ontology);
                    if (!onto.ok()) return onto.status();
                    in->onto = std::move(onto).value();
                    auto c = corpus::GenerateCorpus(in->onto, config.corpus);
                    if (!c.ok()) return c.status();
                    in->corpus = std::move(c).value();
                    return in;
                  });
}

namespace {

void BuildEngine(ServingWorld& w, StageLog& log) {
  log.Time("context.engine_build_s", [&] {
    w.engine = std::make_unique<context::ContextSearchEngine>(
        *w.tc, w.in->onto, w.assignment(), *w.prestige);
  });
}

}  // namespace

Result<std::unique_ptr<ServingWorld>> BuildTextWorld(
    const ctxrank::eval::WorldConfig& config, StageLog& log) {
  auto w = std::make_unique<ServingWorld>();
  auto in = GenerateInputs(config, log);
  if (!in.ok()) return in.status();
  w->in = std::move(in).value();
  const corpus::Corpus& c = w->in->corpus;
  // Tokenize, full-text index, citation graph and co-authorship: the
  // analyzed views the text-based set and text prestige read.
  std::unique_ptr<corpus::FullTextSearch> fts;
  std::unique_ptr<ctxrank::graph::CitationGraph> graph;
  std::unique_ptr<context::AuthorSimilarity> authors;
  log.Time("corpus.analyze_s", [&] {
    w->tc = std::make_unique<corpus::TokenizedCorpus>(c);
    fts = std::make_unique<corpus::FullTextSearch>(*w->tc);
    graph = std::make_unique<ctxrank::graph::CitationGraph>(c);
    authors = std::make_unique<context::AuthorSimilarity>(c);
  });
  auto set = log.Time("context.assign_text_s", [&] {
    return context::BuildTextBasedAssignment(*w->tc, w->in->onto, *fts,
                                             config.text_assignment);
  });
  if (!set.ok()) return set.status();
  w->text_set =
      std::make_unique<context::ContextAssignment>(std::move(set).value());
  auto prestige = log.Time("context.prestige_s", [&] {
    return context::ComputeTextPrestige(w->in->onto, *w->text_set, *w->tc,
                                        *graph, *authors, config.text);
  });
  if (!prestige.ok()) return prestige.status();
  w->prestige =
      std::make_unique<context::PrestigeScores>(std::move(prestige).value());
  BuildEngine(*w, log);
  return w;
}

Result<std::unique_ptr<ServingWorld>> BuildPatternWorld(
    const ctxrank::eval::WorldConfig& config, StageLog& log) {
  auto w = std::make_unique<ServingWorld>();
  auto in = GenerateInputs(config, log);
  if (!in.ok()) return in.status();
  w->in = std::move(in).value();
  log.Time("corpus.analyze_s", [&] {
    w->tc = std::make_unique<corpus::TokenizedCorpus>(w->in->corpus);
  });
  auto set = log.Time("context.assign_pattern_s", [&] {
    return context::BuildPatternBasedAssignment(*w->tc, w->in->onto,
                                                config.pattern_assignment);
  });
  if (!set.ok()) return set.status();
  w->pattern_set = std::make_unique<context::PatternAssignmentResult>(
      std::move(set).value());
  auto prestige = log.Time("context.prestige_s", [&] {
    return context::ComputePatternPrestige(w->in->onto, *w->pattern_set,
                                           config.pattern);
  });
  if (!prestige.ok()) return prestige.status();
  w->prestige =
      std::make_unique<context::PrestigeScores>(std::move(prestige).value());
  BuildEngine(*w, log);
  return w;
}

Status SaveWorld(const ServingWorld& world, const std::string& path,
                 StageLog& log) {
  ctxrank::serve::SnapshotInputs inputs;
  inputs.tc = world.tc.get();
  inputs.onto = &world.in->onto;
  inputs.assignment = &world.assignment();
  inputs.prestige = world.prestige.get();
  inputs.engine = world.engine.get();
  inputs.corpus = &world.in->corpus;
  return log.Time("serve.snapshot.save_s", [&] {
    return ctxrank::serve::SaveSnapshot(inputs, path);
  });
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace perfbench
