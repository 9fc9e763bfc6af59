// Validates the paper's usability claim (Section V intro, Fig. 1): the
// trusted client returns the EXACT results of the genuine query — ghost
// results are discarded client-side, so precision/recall are untouched.
// This is the property that distinguishes TopPriv from query-substitution
// (Murugesan-Clifton) and embellishment (PDX) schemes, which perturb the
// query the engine actually scores.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "experiments/fixture.h"
#include "pdx/embellisher.h"
#include "pdx/thesaurus.h"
#include "search/engine.h"
#include "search/eval.h"
#include "search/scorer.h"
#include "topicmodel/inference.h"
#include "toppriv/client.h"
#include "util/io.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/table.h"

using namespace toppriv;
using experiments::ExperimentFixture;

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  ExperimentFixture fixture;
  const size_t k = 20;
  const size_t num_topics = 200;
  const topicmodel::LdaModel& model = fixture.model(num_topics);

  std::unique_ptr<search::QueryEngine> engine_owner =
      fixture.MakeEngine(search::MakeBm25Scorer());
  search::QueryEngine& engine = *engine_owner;
  topicmodel::LdaInferencer inferencer(model);
  core::PrivacySpec spec;
  core::GhostQueryGenerator generator(model, inferencer, spec);
  core::TrustedClient client(&engine, &generator, util::Rng(99));

  pdx::Thesaurus thesaurus(fixture.corpus(), model);
  pdx::PdxEmbellisher embellisher(thesaurus);
  util::Rng pdx_rng(98);

  size_t queries = 0, toppriv_identical = 0;
  double pdx_overlap_sum = 0.0, pdx_ndcg_sum = 0.0;
  for (const corpus::BenchmarkQuery& q : fixture.workload()) {
    std::vector<search::ScoredDoc> plain = engine.Evaluate(q.term_ids, k);
    if (plain.empty()) continue;
    ++queries;

    // TopPriv: protected search must be bit-identical.
    core::ProtectedSearchResult ours = client.Search(q.term_ids, k);
    if (search::SameRanking(ours.results, plain, 1e-9)) ++toppriv_identical;

    // PDX WITHOUT its homomorphic server modification: the engine scores
    // the embellished query, so results drift. (PDX's fix is precisely the
    // engine change TopPriv avoids.)
    pdx::EmbellishedQuery embellished =
        embellisher.Embellish(q.term_ids, 4.0, &pdx_rng);
    std::vector<search::ScoredDoc> drifted =
        engine.Evaluate(embellished.terms, k);
    std::vector<corpus::DocId> plain_docs;
    for (const auto& sd : plain) plain_docs.push_back(sd.doc);
    pdx_overlap_sum += search::PrecisionAtK(drifted, plain_docs, k);
    pdx_ndcg_sum += search::NdcgAtK(drifted, plain_docs, k);
  }

  util::TablePrinter table({"scheme", "metric", "value"});
  table.AddRow({"TopPriv", "queries with identical top-20",
                util::StrFormat("%zu / %zu", toppriv_identical, queries)});
  table.AddRow({"PDX (4x, unmodified engine)", "top-20 overlap vs genuine",
                util::FormatDouble(pdx_overlap_sum / queries, 3)});
  table.AddRow({"PDX (4x, unmodified engine)", "nDCG@20 vs genuine",
                util::FormatDouble(pdx_ndcg_sum / queries, 3)});

  std::printf(
      "\nRetrieval fidelity under privacy protection (k=%zu)\n", k);
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\npaper claim check: TopPriv preserves results exactly (%zu/%zu);\n"
      "an embellished query handed to an unmodified engine does not, which\n"
      "is why PDX needs the engine re-engineered and TopPriv does not.\n",
      toppriv_identical, queries);

  if (!json_path.empty()) {
    util::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "retrieval_fidelity");
    // Bumped when the emitted fields change; bench_compare.py warns (never
    // fails) when baseline and current disagree.
    json.Field("schema_version", static_cast<uint64_t>(4));
    json.Field("k", static_cast<uint64_t>(k));
    json.Field("num_topics", static_cast<uint64_t>(num_topics));
    json.Field("queries", static_cast<uint64_t>(queries));
    json.Field("toppriv_identical", static_cast<uint64_t>(toppriv_identical));
    json.Field("pdx_topk_overlap", pdx_overlap_sum / queries);
    json.Field("pdx_ndcg", pdx_ndcg_sum / queries);
    json.EndObject();
    util::Status status = util::WriteFile(json_path, json.str() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return toppriv_identical == queries ? 0 : 1;
}
