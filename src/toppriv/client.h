// The trusted client module (paper Fig. 1, steps 1-2 and 4-5): formulates
// the cycle, submits it to the unmodified search engine, and filters out the
// ghost results so the user sees exactly the genuine query's results.
#ifndef TOPPRIV_TOPPRIV_CLIENT_H_
#define TOPPRIV_TOPPRIV_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "search/engine.h"
#include "text/analyzer.h"
#include "toppriv/ghost_generator.h"
#include "util/rng.h"

namespace toppriv::core {

/// Result of a protected search.
struct ProtectedSearchResult {
  /// Top-k results of the *genuine* query only (ghost results discarded).
  std::vector<search::ScoredDoc> results;
  /// The full cycle that was submitted (diagnostics; a real client would
  /// not surface this).
  QueryCycle cycle;
  /// Cycle id under which the engine logged the queries.
  uint64_t cycle_id = 0;
};

/// Client-side privacy proxy in front of a query engine (monolithic or
/// live — the client is agnostic, as the paper's design demands: the
/// server side stays unmodified whatever its internal architecture).
class TrustedClient {
 public:
  /// Borrows everything; all referents must outlive the client.
  TrustedClient(search::QueryEngine* engine, GhostQueryGenerator* generator,
                util::Rng rng)
      : engine_(engine), generator_(generator), rng_(rng) {}

  /// Protects and executes a query given as term ids.
  ProtectedSearchResult Search(const std::vector<text::TermId>& user_query,
                               size_t k);

  /// Convenience: analyzes raw text against the engine's vocabulary first.
  ProtectedSearchResult SearchText(const std::string& raw_query, size_t k,
                                   const text::Analyzer& analyzer);

  /// Executes the same query WITHOUT protection (baseline for the
  /// result-fidelity check; also logs to the engine).
  std::vector<search::ScoredDoc> UnprotectedSearch(
      const std::vector<text::TermId>& user_query, size_t k);

 private:
  search::QueryEngine* engine_;
  GhostQueryGenerator* generator_;
  util::Rng rng_;
  uint64_t next_cycle_id_ = 1;
};

}  // namespace toppriv::core

#endif  // TOPPRIV_TOPPRIV_CLIENT_H_
