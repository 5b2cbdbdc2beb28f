#include "obs/path_profiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace acp::obs
{

SegmentArray
PathProfiler::decompose(const mem::Txn &txn, std::uint64_t *latency_out)
{
    SegmentArray segs{};
    if (txn.path.size() < 2) {
        if (latency_out)
            *latency_out = 0;
        return segs;
    }
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < txn.path.size(); ++i) {
        const mem::TxnStep &prev = txn.path[i - 1];
        const mem::TxnStep &cur = txn.path[i];
        if (cur.cycle < prev.cycle)
            acp_panic("txn %llu timeline not sorted",
                      (unsigned long long)txn.id);
        const PathSegment seg = segmentOfEvent(cur.event);
        if (seg == PathSegment::kNumSegments)
            acp_panic("txn %llu: %s is not its first step",
                      (unsigned long long)txn.id,
                      mem::pathEventName(cur.event));
        std::uint64_t delta = cur.cycle - prev.cycle;
        segs[unsigned(seg)] += delta;
        total += delta;
    }
    // The charges telescope, so this holds by construction; a failure
    // means the timeline invariant broke upstream.
    if (total != txn.path.back().cycle - txn.path.front().cycle)
        acp_panic("txn %llu segment sum %llu != end-to-end latency %llu",
                  (unsigned long long)txn.id, (unsigned long long)total,
                  (unsigned long long)(txn.path.back().cycle -
                                       txn.path.front().cycle));
    if (latency_out)
        *latency_out = total;
    return segs;
}

std::string
PathProfiler::shapeSignature(const mem::Txn &txn)
{
    std::string sig;
    const mem::PathEvent *last = nullptr;
    for (const mem::TxnStep &s : txn.path) {
        if (last && *last == s.event)
            continue; // collapse consecutive repeats (overlapping transfers)
        if (!sig.empty())
            sig += '>';
        sig += mem::pathEventName(s.event);
        last = &s.event;
    }
    return sig;
}

void
PathProfiler::record(const mem::Txn &txn)
{
    ++txns_;

    std::uint64_t latency = 0;
    SegmentArray segs = decompose(txn, &latency);
    if (txn.path.size() < 2)
        ++degenerate_;

    KindAgg &agg = kinds_[unsigned(txn.kind)];
    ++agg.count;
    agg.latencyTotal += latency;
    agg.latency.sample(latency);
    // Zero-cycle charges (equal-cycle events) carry no latency and
    // would only flatten the distributions' minima; skip them.
    for (unsigned s = 0; s < kNumPathSegments; ++s)
        if (segs[s] != 0)
            agg.segs[s].sample(segs[s]);

    ShapeAgg &shape = shapes_[shapeSignature(txn)];
    if (shape.count == 0)
        shape.exampleId = txn.id;
    ++shape.count;
    shape.latencyTotal += latency;

    if (txn.origin != 0) {
        ++demandTxns_;
        for (unsigned s = 0; s < kNumPathSegments; ++s)
            demandSeg_[s] += segs[s];
    }

    if (topN_ == 0)
        return;
    // Keep the slowest list sorted: latency desc, then id asc so the
    // report is deterministic across identical runs.
    auto slower = [](const SlowTxn &a, const SlowTxn &b) {
        if (a.latency != b.latency)
            return a.latency > b.latency;
        return a.id < b.id;
    };
    if (slowest_.size() >= topN_ && latency <= slowest_.back().latency &&
        !(latency == slowest_.back().latency && txn.id < slowest_.back().id))
        return;
    SlowTxn entry;
    entry.id = txn.id;
    entry.origin = txn.origin;
    entry.addr = txn.addr;
    entry.kind = unsigned(txn.kind);
    entry.reqCycle = txn.reqCycle;
    entry.latency = latency;
    entry.macOk = txn.macOk;
    // The profile outlives the transaction: keep a copy of its
    // timeline.
    entry.path.assign(txn.path.begin(), txn.path.end());
    auto pos = std::lower_bound(slowest_.begin(), slowest_.end(), entry,
                                slower);
    slowest_.insert(pos, std::move(entry));
    if (slowest_.size() > topN_)
        slowest_.pop_back();
}

PathProfile
PathProfiler::finalize(const StallArray *stalls, const char *policy) const
{
    PathProfile profile;
    profile.policy = policy ? policy : "";
    profile.txns = txns_;
    profile.degenerate = degenerate_;

    for (const auto &[kind, agg] : kinds_) {
        SegmentRow row;
        row.kind = kind;
        row.count = agg.count;
        row.latencyTotal = agg.latencyTotal;
        row.latencyMin = agg.latency.min();
        row.latencyMax = agg.latency.max();
        row.latencyBuckets = agg.latency.buckets();
        for (unsigned s = 0; s < kNumPathSegments; ++s) {
            const StatDistribution &d = agg.segs[s];
            row.segs[s] = SegmentStat{d.count(), d.sum(), d.min(), d.max()};
        }
        profile.kinds.push_back(std::move(row));
    }

    for (const auto &[sig, agg] : shapes_)
        profile.shapes.push_back(
            PathShape{sig, agg.count, agg.latencyTotal, agg.exampleId});

    profile.slowest = slowest_;
    profile.demandSegCycles = demandSeg_;
    profile.demandTxns = demandTxns_;

    if (stalls) {
        profile.stalls = *stalls;
        profile.hasStalls = true;
    }
    return profile;
}

} // namespace acp::obs
