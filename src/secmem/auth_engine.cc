#include "secmem/auth_engine.hh"
#include <string>

namespace acp::secmem
{

namespace
{

/** Completion history kept before pruning (old entries read as 0). */
constexpr std::size_t kHistoryWindow = 1 << 16;

/** Append @p value to a history ring, doubling the ring when it is
 *  full. No history holds more than kHistoryWindow requests, so from
 *  the first-slot count the doubling stops at exactly that bound. */
template <typename T>
void
remember(Ring<T> &ring, T value)
{
    if (ring.full())
        ring.grow(2 * ring.capacity());
    ring.push_back() = value;
}

} // namespace

AuthEngine::AuthEngine(unsigned latency, unsigned occupancy,
                       unsigned clients)
    : latency_(latency), occupancy_(occupancy),
      clients_(clients), stats_("auth")
{
    stats_.addCounter("requests", &requests_);
    stats_.addCounter("failures", &failures_);
    stats_.addAverage("queue_delay", &queueDelay_);
    stats_.addAverage("verify_latency", &verifyLatency_);
    stats_.addDistribution("verify_latency_hist", &verifyLatencyHist_);
    stats_.addDistribution("queue_depth", &queueDepth_);
    // A single client's view repeats the global counters: no
    // per-client stats, so a single-core dump keeps its classic shape.
    if (clients_.size() < 2)
        return;
    for (unsigned i = 0; i < clients_.size(); ++i) {
        ClientState &cs = clients_[i];
        const std::string prefix = "cpu" + std::to_string(i) + "_";
        stats_.addCounter(prefix + "requests", &cs.requests);
        stats_.addCounter(prefix + "failures", &cs.failures);
        stats_.addAverage(prefix + "queue_delay", &cs.queueDelay);
    }
}

AuthSeq
AuthEngine::post(Cycle ready_at, Cycle extra_latency, bool mac_ok,
                 unsigned client)
{
    ++requests_;
    Cycle start = ready_at > engineFreeAt_ ? ready_at : engineFreeAt_;
    Cycle done = start + latency_ + extra_latency;
    engineFreeAt_ = start + occupancy_ + extra_latency;

    queueDelay_.sample(double(start - ready_at));
    verifyLatency_.sample(double(done - ready_at));
    verifyLatencyHist_.sample(done - ready_at);

    // Engine backlog seen by this request: earlier requests still
    // unfinished when its data arrived. Completion cycles never fall
    // with the sequence number: a request starts no earlier than the
    // engine frees up after the one before it, so done[i + 1] >=
    // done[i] + occupancy + extra[i + 1] (the in-order property the
    // tag argument in auth_engine.hh relies on). Scanning back stops
    // at the first finished request: every earlier one is finished.
    std::uint64_t depth = 0;
    for (std::size_t i = doneCycles_.size(); i-- > 0;) {
        if (doneCycles_[i] > ready_at)
            ++depth;
        else
            break;
    }
    queueDepth_.sample(depth);

    ClientState &cs = clients_[client];
    ++cs.requests;
    cs.queueDelay.sample(double(start - ready_at));
    Cycle arrival = ready_at;
    if (!cs.arrivals.empty() && cs.arrivals.back() > arrival)
        arrival = cs.arrivals.back(); // monotonicize for the cursor

    // Forget the oldest request before remembering this one, so no
    // ring ever holds more than the window and each stops growing at
    // it. (The arrival above was read first: it may be the one the
    // forget drops.)
    if (doneCycles_.size() == kHistoryWindow)
        forgetOldest();
    ++lastRequest_;
    remember(doneCycles_, done);
    remember(failed_, !mac_ok);
    remember(cs.arrivals, arrival);
    remember(cs.seqs, lastRequest_);

    if (!mac_ok) {
        ++failures_;
        ++cs.failures;
        if (cs.firstFailedSeq == kNoAuthSeq) {
            cs.firstFailedSeq = lastRequest_;
            cs.firstFailureCycle = done;
        }
    }
    return lastRequest_;
}

AuthSeq
AuthEngine::lastArrivedBy(Cycle cycle, unsigned client) const
{
    // The client's arrivals are nondecreasing: step the cursor forward
    // over arrivals at or before cycle, or back over later ones.
    const ClientState &cs = clients_[client];
    std::size_t &n = cs.cursor;
    while (n < cs.arrivals.size() && cs.arrivals[n] <= cycle)
        ++n;
    while (n > 0 && cs.arrivals[n - 1] > cycle)
        --n;
    if (n == 0)
        return cs.lastPruned; // kNoAuthSeq before the first request
    return cs.seqs[n - 1];
}

void
AuthEngine::forgetOldest()
{
    doneCycles_.pop_front();
    failed_.pop_front();
    ++baseSeq_;
    // The forgotten request is one client's oldest.
    for (ClientState &cs : clients_) {
        if (!cs.seqs.empty() && cs.seqs.front() < baseSeq_) {
            cs.lastPruned = cs.seqs.front();
            cs.seqs.pop_front();
            cs.arrivals.pop_front();
            if (cs.cursor > 0)
                --cs.cursor;
            break;
        }
    }
}

} // namespace acp::secmem
