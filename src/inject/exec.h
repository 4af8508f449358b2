// Internal campaign-batch executor: the blocking simulation core behind
// the asynchronous job engine (engine/engine.h).
//
// The public execution API is the engine -- engine::run_campaign(s) are
// thin submit-and-wait wrappers over it -- but the simulation itself
// (golden recording, checkpoint/fork faulty runs, cache probe/fill) stays
// in inject/campaign.cpp where the per-worker core instances live.  This
// header is the seam between the two layers, and dependencies cross it
// downward only: the engine calls execute_campaigns() on its dispatcher
// thread and hands it the cancel flag of the job handle it returned to
// the caller; nothing in inject/ calls up into the engine.
//
// Cancellation contract: the job's cancel flag is polled cooperatively at every
// checkpoint boundary of every simulated run (golden snapshots and forked
// faulty runs) and before every sample; when it flips, workers stop at
// the next check and the executor throws CampaignCancelled.  A cancelled
// batch writes NOTHING to the campaign cache pack -- entries are appended
// only after the whole batch finished, so cancellation can never leave a
// partial result under a valid fingerprint.
//
// This header is internal to the library (the engine and tests); the
// stable surface is inject/campaign.h + engine/engine.h.
#ifndef CLEAR_INJECT_EXEC_H
#define CLEAR_INJECT_EXEC_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "inject/campaign.h"

namespace clear::inject::detail {

// Thrown by execute_campaigns() when its cancel flag was observed set.
// Derives from std::runtime_error so a stray escape still surfaces as a
// normal error; the engine catches it by type and marks the job
// kCancelled instead of kFailed.
class CampaignCancelled : public std::runtime_error {
 public:
  CampaignCancelled() : std::runtime_error("campaign batch cancelled") {}
};

// Runs a batch of campaigns to completion on the process-wide worker
// pool, blocking the calling thread.  Bit-identical results for a given
// spec across runs, hosts, thread counts and batch compositions, and
// bit-identical to simulating every faulty run from cycle 0.  Throws
// CampaignCancelled once `cancel` (optional; it must outlive the call) is
// seen set, std::invalid_argument on a bad spec, and std::runtime_error
// when a golden run does not halt.
[[nodiscard]] std::vector<CampaignResult> execute_campaigns(
    const std::vector<CampaignSpec>& specs,
    const std::atomic<bool>* cancel);

// Test seam: the global indices of `spec`'s samples that the executor
// ends as golden's Vanished without forking, because the strike lands in
// an FF slot that is dead at its cycle (docs/ARCHITECTURE.md, "FF
// liveness"), ascending.  Records the golden run exactly as
// execute_campaigns() does; the cache is not consulted.
[[nodiscard]] std::vector<std::uint64_t> dead_at_flip_samples(
    const CampaignSpec& spec);

// The campaign-cache payload codec (the text stored in each CPK1 record,
// docs/FORMATS.md).  parse_result() fails closed: unless the payload
// decodes field for field as serialize_result() output for a result with
// fingerprint `fp`, `expected_ffs` flip-flops and the given adaptivity, it
// leaves *out untouched and returns false, and the executor re-runs the
// campaign (rewriting the entry).
[[nodiscard]] bool parse_result(std::string_view payload, std::uint64_t fp,
                                std::uint32_t expected_ffs, bool adaptive,
                                CampaignResult* out);
[[nodiscard]] std::string serialize_result(std::uint64_t fp,
                                           const CampaignResult& r);

}  // namespace clear::inject::detail

#endif  // CLEAR_INJECT_EXEC_H
