// Head-to-head comparison of all four protection schemes discussed by the
// paper, at a matched budget of ~4 queries (or 4x terms) per user query:
//
//   TrackMeNot [9]        random ghost queries           (Sec II)
//   Murugesan-Clifton [10] canonical-query substitution  (Sec II)
//   PDX [11]              query embellishment            (Sec V-C)
//   TopPriv               topic-cognizant ghost queries  (this paper)
//
// Metrics: topical exposure of the intention, ghost/cover realism
// (coherence, Def. 3), and retrieval fidelity against the genuine query on
// an UNMODIFIED engine. This is the paper's qualitative Section II
// argument, made quantitative.

#include <cstdio>
#include <memory>

#include "baselines/canonical.h"
#include "baselines/trackmenot.h"
#include "experiments/fixture.h"
#include "pdx/embellisher.h"
#include "pdx/thesaurus.h"
#include "search/engine.h"
#include "search/eval.h"
#include "search/scorer.h"
#include "topicmodel/inference.h"
#include "topicmodel/lsa.h"
#include "toppriv/belief.h"
#include "toppriv/ghost_generator.h"
#include "util/stats.h"
#include "util/table.h"

using namespace toppriv;
using experiments::ExperimentFixture;

namespace {

struct SchemeResult {
  util::OnlineStats exposure_pct;
  util::OnlineStats coherence;
  util::OnlineStats fidelity;  // nDCG@20 of delivered vs genuine results
  util::OnlineStats queries_sent;
};

}  // namespace

int main() {
  ExperimentFixture fixture;
  const size_t num_topics = 50;  // near the corpus's true coverage
  const topicmodel::LdaModel& model = fixture.model(num_topics);
  topicmodel::LdaInferencer inferencer(model);
  const double eps1 = 0.05;
  const size_t budget = 4;  // cycle length / expansion factor

  std::unique_ptr<search::QueryEngine> engine_owner =
      fixture.MakeEngine(search::MakeBm25Scorer());
  search::QueryEngine& engine = *engine_owner;

  // Scheme machinery.
  baselines::TrackMeNot trackmenot(fixture.corpus(),
                                   baselines::TrackMeNotMode::kUniformRandom);
  topicmodel::LsaOptions lsa_options;
  lsa_options.num_factors = 30;  // [10] uses a 30-factor LSI space
  topicmodel::LsaModel lsa =
      topicmodel::LsaTrainer(lsa_options).Train(fixture.corpus());
  baselines::CanonicalOptions canonical_options;
  canonical_options.group_size = budget;
  baselines::CanonicalQueryScheme canonical(fixture.corpus(), lsa,
                                            canonical_options);
  pdx::Thesaurus thesaurus(fixture.corpus(), model);
  pdx::PdxEmbellisher embellisher(thesaurus);
  core::PrivacySpec spec;
  spec.epsilon1 = eps1;
  spec.epsilon2 = eps1;
  spec.fixed_ghost_count = budget - 1;
  core::GhostQueryGenerator toppriv_generator(model, inferencer, spec);

  SchemeResult results[4];
  const char* names[4] = {"TrackMeNot [9]", "Murugesan-Clifton [10]",
                          "PDX [11]", "TopPriv (paper)"};

  util::Rng rng(20260613);
  const size_t k = 20;
  size_t evaluated = 0;

  auto coherence_of = [&](const std::vector<text::TermId>& q) {
    std::vector<double> posterior = inferencer.InferQuery(q);
    double top = 0.0;
    for (double p : posterior) top = std::max(top, p);
    return top;
  };
  auto exposure_of = [&](const std::vector<std::vector<text::TermId>>& cycle,
                         const std::vector<topicmodel::TopicId>& intention) {
    std::vector<std::vector<double>> posteriors;
    for (const auto& q : cycle) posteriors.push_back(inferencer.InferQuery(q));
    std::vector<double> mix =
        topicmodel::LdaInferencer::CyclePosterior(posteriors);
    core::BeliefProfile profile = core::MakeBeliefProfile(model, std::move(mix));
    return core::Exposure(profile.boost, intention) * 100.0;
  };

  for (const corpus::BenchmarkQuery& q : fixture.workload()) {
    // Shared ground: the intention at eps1 on the raw query.
    core::BeliefProfile raw = core::MakeBeliefProfile(
        model, inferencer.InferQuery(q.term_ids));
    std::vector<topicmodel::TopicId> intention =
        core::ExtractIntention(raw, eps1);
    if (intention.empty()) continue;
    ++evaluated;

    std::vector<search::ScoredDoc> genuine_results =
        engine.Evaluate(q.term_ids, k);
    std::vector<corpus::DocId> genuine_docs;
    for (const auto& sd : genuine_results) genuine_docs.push_back(sd.doc);

    // --- TrackMeNot: random ghosts; user query submitted verbatim.
    {
      size_t user_index = 0;
      auto cycle = trackmenot.MakeCycle(q.term_ids, budget - 1, &rng,
                                        &user_index);
      results[0].exposure_pct.Add(exposure_of(cycle, intention));
      for (size_t i = 0; i < cycle.size(); ++i) {
        if (i != user_index) results[0].coherence.Add(coherence_of(cycle[i]));
      }
      results[0].fidelity.Add(1.0);  // genuine query still sent verbatim
      results[0].queries_sent.Add(static_cast<double>(cycle.size()));
    }

    // --- Murugesan-Clifton: the query is REPLACED by a canonical one.
    {
      size_t position = 0;
      auto cycle = canonical.Substitute(q.term_ids, &rng, &position);
      results[1].exposure_pct.Add(exposure_of(cycle, intention));
      for (size_t i = 0; i < cycle.size(); ++i) {
        if (i != position) results[1].coherence.Add(coherence_of(cycle[i]));
      }
      // Fidelity: the engine answers the canonical query, not the user's.
      std::vector<search::ScoredDoc> delivered =
          engine.Evaluate(cycle[position], k);
      results[1].fidelity.Add(search::NdcgAtK(delivered, genuine_docs, k));
      results[1].queries_sent.Add(static_cast<double>(cycle.size()));
    }

    // --- PDX: one embellished query; unmodified engine scores it.
    {
      pdx::EmbellishedQuery embellished = embellisher.Embellish(
          q.term_ids, static_cast<double>(budget), &rng);
      results[2].exposure_pct.Add(
          exposure_of({embellished.terms}, intention));
      results[2].coherence.Add(coherence_of(embellished.terms));
      std::vector<search::ScoredDoc> delivered =
          engine.Evaluate(embellished.terms, k);
      results[2].fidelity.Add(search::NdcgAtK(delivered, genuine_docs, k));
      results[2].queries_sent.Add(1.0);
    }

    // --- TopPriv.
    {
      core::QueryCycle cycle = toppriv_generator.Protect(q.term_ids, &rng);
      results[3].exposure_pct.Add(cycle.exposure_after * 100.0);
      for (size_t i = 0; i < cycle.queries.size(); ++i) {
        if (i != cycle.user_index) {
          results[3].coherence.Add(coherence_of(cycle.queries[i]));
        }
      }
      results[3].fidelity.Add(1.0);  // exact results, ghosts filtered
      results[3].queries_sent.Add(static_cast<double>(cycle.length()));
    }
  }

  double genuine_coherence = 0.0;
  {
    util::OnlineStats stats;
    for (const corpus::BenchmarkQuery& q : fixture.workload()) {
      stats.Add(coherence_of(q.term_ids));
    }
    genuine_coherence = stats.mean();
  }

  std::printf("\nBaseline comparison at matched budget (%zu queries / %zux "
              "terms), LDA%03zu, eps1=%.0f%%, %zu topical queries\n",
              budget, budget, num_topics, eps1 * 100, evaluated);
  util::TablePrinter table({"scheme", "exposure(%)", "cover coherence",
                            "fidelity nDCG@20", "queries/req"});
  for (int s = 0; s < 4; ++s) {
    table.AddRow({names[s], util::FormatDouble(results[s].exposure_pct.mean(), 3),
                  util::FormatDouble(results[s].coherence.mean(), 3),
                  util::FormatDouble(results[s].fidelity.mean(), 3),
                  util::FormatDouble(results[s].queries_sent.mean(), 2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\ngenuine-query coherence yardstick: %.3f.\n"
      "paper claims to check: TrackMeNot's random ghosts are incoherent\n"
      "(dismissible, Def. 3); Murugesan-Clifton perturbs retrieval quality\n"
      "(fidelity < 1); PDX leaves high exposure on an unmodified engine and\n"
      "also perturbs its results; TopPriv alone combines low exposure,\n"
      "realistic ghosts and exact results.\n",
      genuine_coherence);
  return 0;
}
