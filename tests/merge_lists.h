// Test-side merges of whole lists of shard results: fold loops over the
// production folds (inject::fold_campaign_result, explore::fold_ledger),
// which `clear merge`, `clear explore merge` and the fleet drivers apply
// one arrival at a time.
#ifndef CLEAR_TESTS_MERGE_LISTS_H
#define CLEAR_TESTS_MERGE_LISTS_H

#include <stdexcept>
#include <vector>

#include "explore/ledger.h"
#include "inject/campaign.h"

namespace clear::inject {

// Folds shard results (any order, any partition sizes) into the result of
// the unsharded campaign; throws std::invalid_argument on an empty list
// or on shards of different campaigns.
inline CampaignResult merge_campaign_results(
    const std::vector<CampaignResult>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("merge_campaign_results: no shards");
  }
  CampaignResult out = empty_result_like(shards.front());
  for (const CampaignResult& s : shards) fold_campaign_result(&out, s);
  return out;
}

}  // namespace clear::inject

namespace clear::explore {

// fold_ledger over any partition of mergeable ledgers (any order, any
// subset sizes), from the empty merge; also throws on an empty list.
inline Ledger merge_ledger_files(const std::vector<Ledger>& ledgers) {
  if (ledgers.empty()) {
    throw std::invalid_argument("merge_ledger_files: no ledgers");
  }
  Ledger merged;
  for (const Ledger& l : ledgers) fold_ledger(&merged, l);
  return merged;
}

}  // namespace clear::explore

#endif  // CLEAR_TESTS_MERGE_LISTS_H
