/**
 * @file
 * Authentication queue and verification engine (paper Section 4.1).
 *
 * Every fetched line posts a request to the queue; the engine verifies
 * requests strictly in order and broadcasts completion. The index of
 * the most recent request is the *LastRequest register*; pipeline
 * gates compare an instruction's recorded tag against the verified
 * watermark. Because completion is in order, "request @c seq verified"
 * implies all earlier requests are verified too — the property the
 * paper's tag mechanism relies on.
 */

#ifndef ACP_SECMEM_AUTH_ENGINE_HH
#define ACP_SECMEM_AUTH_ENGINE_HH

#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace acp::secmem
{

/** Serial (optionally pipelined) MAC verification engine. */
class AuthEngine
{
  public:
    /**
     * @param latency cycles from data-ready to verdict for one request
     * @param occupancy cycles the engine is busy per request (equal to
     *        latency for a serial engine; smaller when pipelined)
     * @param clients number of cores posting requests (client ids
     *        0 .. clients - 1). Every client gets its
     *        own pending-queue view and failure latch; with two or
     *        more, per-client attribution stats (cpu<i>_requests,
     *        cpu<i>_failures, cpu<i>_queue_delay) are registered too.
     */
    AuthEngine(unsigned latency, unsigned occupancy, unsigned clients = 1);

    /**
     * Post a verification request.
     * @param ready_at cycle the decrypted line and its MAC are on-chip
     * @param extra_latency additional per-request cycles (hash-tree
     *        path verification beyond the base MAC check)
     * @param mac_ok functional verdict (false == tampered line)
     * @param client requesting core id
     * @return the request's sequence number (new LastRequest value)
     *
     * Sequence numbers, engine occupancy and the completion order stay
     * global — the shared engine serializes every core's requests
     * through one LastRequest register, which is exactly the shared-
     * bandwidth effect the multi-core experiments measure.
     */
    AuthSeq post(Cycle ready_at, Cycle extra_latency, bool mac_ok,
                 unsigned client = 0);

    /** Value of the LastRequest register (0 before any request). */
    AuthSeq lastRequest() const { return lastRequest_; }

    /**
     * The LastRequest value as *architecturally visible* to @p client
     * at @p cycle: the most recent of the client's own requests whose
     * data had arrived on-chip (and was therefore enqueued) by then.
     * The timing oracle posts requests at fetch initiation, but
     * outstanding fetches are not yet in the queue — the paper is
     * explicit that they have no latency impact on a new gated fetch
     * (Section 4.2.4). Cores gate on their own fetch stream
     * (base-offset isolation means no core ever consumes a line
     * another core fetched), so tagging with the global register
     * would over-serialize.
     *
     * Read through a per-client cursor that moves from the previous
     * query's answer: O(1) amortised for nondecreasing @p cycle (the
     * core's clock), and right for any query order.
     */
    AuthSeq lastArrivedBy(Cycle cycle, unsigned client);

    /**
     * Cycle at which request @p seq completes verification.
     * seq == kNoAuthSeq (or an anciently pruned seq) returns 0,
     * meaning "verified in the distant past".
     */
    Cycle doneCycle(AuthSeq seq) const;

    /** True once @p seq has completed by cycle @p now. */
    bool
    verifiedBy(AuthSeq seq, Cycle now) const
    {
        return doneCycle(seq) <= now;
    }

    /** Whether request @p seq itself failed verification (precise
     *  per-line taint source for the empirical Table-2 counters). */
    bool requestFailed(AuthSeq seq) const;

    // Per-client failure views: a core squashes and raises only on
    // failures of its *own* requests — a tampered line fetched by a
    // neighbour core must not fault this one.

    /** Whether any of @p client's requests had a failing MAC. */
    bool anyFailure(unsigned client) const
    {
        return firstFailedSeq(client) != kNoAuthSeq;
    }
    /** @p client's first failing request (kNoAuthSeq when none). */
    AuthSeq firstFailedSeq(unsigned client) const
    {
        return clients_[client].firstFailedSeq;
    }
    /** Whether gate tag @p tag can never verify for @p client: it
     *  covers the client's first failing request or a later one (no
     *  tag always verifies). The commit, write and fetch gates all
     *  ask this. */
    bool neverVerifies(AuthSeq tag, unsigned client) const
    {
        return anyFailure(client) && tag >= firstFailedSeq(client);
    }
    /** Completion cycle of @p client's first failing request. */
    Cycle firstFailureCycle(unsigned client) const
    {
        return clients_[client].firstFailureCycle;
    }

    StatGroup &stats() { return stats_; }

  private:
    /** One client's pending-queue view and failure latch. */
    struct ClientState
    {
        /** Monotonic running max of this client's arrival cycles. */
        std::deque<Cycle> arrivals;
        /** Global sequence number of each entry (same indexing). */
        std::deque<AuthSeq> seqs;
        /** lastArrivedBy's cursor: the number of entries arrived at or
         *  before the cycle queried last. */
        std::size_t cursor = 0;
        /** Most recently pruned sequence (kNoAuthSeq when none):
         *  the "verified in the distant past" fallback. */
        AuthSeq lastPruned = kNoAuthSeq;
        AuthSeq firstFailedSeq = kNoAuthSeq;
        Cycle firstFailureCycle = 0;
        StatCounter requests;
        StatCounter failures;
        StatAverage queueDelay;
    };

    void prune();

    unsigned latency_;
    unsigned occupancy_;
    AuthSeq lastRequest_ = 0;
    Cycle engineFreeAt_ = 0;

    /** doneCycles_[i] is completion of request baseSeq_ + i. */
    AuthSeq baseSeq_ = 1;
    std::deque<Cycle> doneCycles_;
    /** Per-request functional verdict (same indexing). */
    std::deque<bool> failed_;

    /** Indexed by client id; sized once, so stat pointers stay valid. */
    std::vector<ClientState> clients_;

    StatGroup stats_;
    StatCounter requests_;
    StatCounter failures_;
    StatAverage queueDelay_;
    StatAverage verifyLatency_;
    StatDistribution verifyLatencyHist_;
    StatDistribution queueDepth_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_AUTH_ENGINE_HH
