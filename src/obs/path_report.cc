#include "obs/path_report.hh"

#include <cinttypes>

namespace acp::obs
{

namespace
{

const char *
kindName(unsigned kind)
{
    return mem::busTxnKindName(mem::BusTxnKind(kind));
}

} // namespace

void
writePathProfileText(std::FILE *out, const PathProfile &profile)
{
    std::fprintf(out,
                 "=== transaction path profile (policy %s) ===\n"
                 "txns %" PRIu64 "  (degenerate %" PRIu64
                 ", demand %" PRIu64 ")\n",
                 profile.policy.c_str(), profile.txns, profile.degenerate,
                 profile.demandTxns);

    std::fputs("\n-- where the cycles went (per bus-txn kind) --\n", out);
    for (const SegmentRow &row : profile.kinds) {
        double mean = row.count ? double(row.latencyTotal) /
                                      double(row.count)
                                : 0.0;
        std::fprintf(out,
                     "%-15s txns %-8" PRIu64 " latency sum %-10" PRIu64
                     " mean %7.1f  min %" PRIu64 "  max %" PRIu64 "\n",
                     kindName(row.kind), row.count, row.latencyTotal,
                     mean, row.latencyMin, row.latencyMax);
        for (unsigned s = 0; s < kNumPathSegments; ++s) {
            const SegmentStat &seg = row.segs[s];
            if (seg.count == 0)
                continue;
            double pct = row.latencyTotal
                             ? 100.0 * double(seg.sum) /
                                   double(row.latencyTotal)
                             : 0.0;
            std::fprintf(out,
                         "    %-12s %10" PRIu64 " cyc  %5.1f%%  "
                         "(n %" PRIu64 ", mean %.1f, min %" PRIu64
                         ", max %" PRIu64 ")\n",
                         pathSegmentName(PathSegment(s)), seg.sum, pct,
                         seg.count,
                         double(seg.sum) / double(seg.count), seg.min,
                         seg.max);
        }
    }

    std::fputs("\n-- path-shape census --\n", out);
    for (const PathShape &shape : profile.shapes)
        std::fprintf(out, "%8" PRIu64 "x  %s\n", shape.count,
                     shape.signature.c_str());

    if (!profile.slowest.empty()) {
        std::fputs("\n-- slowest transactions --\n", out);
        for (const SlowTxn &txn : profile.slowest) {
            std::fprintf(out,
                         "txn %-6" PRIu64 " %-13s addr 0x%08" PRIx64
                         " req %-8" PRIu64 " latency %-6" PRIu64 "%s\n",
                         txn.id, kindName(txn.kind), txn.addr,
                         txn.reqCycle, txn.latency,
                         txn.macOk ? "" : "  MAC-FAIL");
            Cycle prev = txn.path.empty() ? 0 : txn.path.front().cycle;
            for (const mem::TxnStep &s : txn.path) {
                std::fprintf(out, "    +%-8" PRIu64 " %s\n",
                             s.cycle - prev, mem::pathEventName(s.event));
                prev = s.cycle;
            }
        }
    }

    if (profile.hasStalls) {
        std::fputs("\n-- stall join (demand-txn segments vs core stalls)"
                   " --\n",
                   out);
        std::uint64_t demand_total = 0;
        for (std::uint64_t v : profile.demandSegCycles)
            demand_total += v;
        std::fprintf(out,
                     "demand txns %" PRIu64 ", segment cycles %" PRIu64
                     "\n",
                     profile.demandTxns, demand_total);
        for (unsigned s = 0; s < kNumPathSegments; ++s)
            if (profile.demandSegCycles[s] != 0)
                std::fprintf(out, "    demand.%-12s %10" PRIu64 " cyc\n",
                             pathSegmentName(PathSegment(s)),
                             profile.demandSegCycles[s]);
        for (unsigned c = 0; c < kNumStallCauses; ++c)
            if (profile.stalls[c] != 0)
                std::fprintf(out,
                             "    core.stall.%-12s %10" PRIu64 " cyc\n",
                             stallCauseName(StallCause(c)),
                             profile.stalls[c]);
    }

    const core::LeakAudit &a = profile.audit;
    std::fputs("\n-- leak audit (adversary bus view) --\n", out);
    std::fprintf(out,
                 "bus txns %" PRIu64 "  demand fetches %" PRIu64
                 "  tamper %s\n",
                 a.busTxnsScanned, a.demandFetches,
                 a.tamperDetected ? "DETECTED" : "none");
    if (a.tamperDetected) {
        auto cycle = [out](const char *label, Cycle c) {
            std::fputs(label, out);
            if (c == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, c);
        };
        cycle("first bad txn: req ", a.firstBadReq);
        cycle("  usable ", a.firstBadUsable);
        cycle("  verdict ", a.firstBadVerdict);
        std::fprintf(out,
                     "\nnovel addrs exposed in window %" PRIu64
                     "  after verdict %" PRIu64 "\n"
                     "classification: %s\n",
                     a.novelExposuresInGap, a.exposuresAfterVerdict,
                     a.leakWindowOpen
                         ? "LEAKED before exception (Table 2 \"leak\")"
                         : "no leak before exception");
    }
    std::fputc('\n', out);
}

void
writePathProfile(json::Writer &w, const PathProfile &profile)
{
    w.beginObject();
    w.key("policy").value(profile.policy);
    w.key("txns").value(profile.txns);
    w.key("degenerate").value(profile.degenerate);
    w.key("demandTxns").value(profile.demandTxns);
    w.key("kinds").beginArray();
    for (const SegmentRow &row : profile.kinds) {
        w.beginObject();
        w.key("kind").value(kindName(row.kind));
        w.key("count").value(row.count);
        w.key("latencyTotal").value(row.latencyTotal);
        w.key("latencyMin").value(row.latencyMin);
        w.key("latencyMax").value(row.latencyMax);
        w.key("latencyBuckets").beginArray(json::kOneLine);
        for (std::uint64_t n : row.latencyBuckets)
            w.value(n);
        w.endArray();
        w.key("segments").beginObject();
        for (unsigned s = 0; s < kNumPathSegments; ++s) {
            const SegmentStat &seg = row.segs[s];
            if (seg.count == 0)
                continue;
            w.key(pathSegmentName(PathSegment(s)))
                .beginObject(json::kOneLine);
            w.key("count").value(seg.count).key("sum").value(seg.sum);
            w.key("min").value(seg.min).key("max").value(seg.max);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("shapes").beginArray();
    for (const PathShape &shape : profile.shapes) {
        w.beginObject(json::kOneLine);
        w.key("signature").value(shape.signature);
        w.key("count").value(shape.count);
        w.key("latencyTotal").value(shape.latencyTotal);
        w.key("exampleId").value(shape.exampleId).endObject();
    }
    w.endArray();
    w.key("slowest").beginArray();
    for (const SlowTxn &txn : profile.slowest) {
        w.beginObject(json::kOneLine);
        w.key("id").value(txn.id).key("kind").value(kindName(txn.kind));
        w.key("addr").value(txn.addr).key("origin").value(txn.origin);
        w.key("reqCycle").value(txn.reqCycle);
        w.key("latency").value(txn.latency).key("macOk").value(txn.macOk);
        w.key("path").beginArray();
        for (const mem::TxnStep &step : txn.path)
            w.beginObject()
                .key("event").value(mem::pathEventName(step.event))
                .key("cycle").value(step.cycle)
                .endObject();
        w.endArray().endObject();
    }
    w.endArray();
    w.key("demandSegCycles").beginObject(json::kOneLine);
    for (unsigned s = 0; s < kNumPathSegments; ++s)
        if (profile.demandSegCycles[s] != 0)
            w.key(pathSegmentName(PathSegment(s)))
                .value(profile.demandSegCycles[s]);
    w.endObject();
    if (profile.hasStalls) {
        w.key("stalls").beginObject(json::kOneLine);
        for (unsigned c = 0; c < kNumStallCauses; ++c)
            if (profile.stalls[c] != 0)
                w.key(stallCauseName(StallCause(c)))
                    .value(profile.stalls[c]);
        w.endObject();
    }
    // A cycle that never happened (kCycleNever) is -1.
    auto cycle = [](Cycle c) {
        return c == kCycleNever ? std::int64_t(-1) : std::int64_t(c);
    };
    const core::LeakAudit &a = profile.audit;
    w.key("audit").beginObject();
    w.key("busTxnsScanned").value(a.busTxnsScanned);
    w.key("demandFetches").value(a.demandFetches);
    w.key("tamperDetected").value(a.tamperDetected);
    w.key("firstBadReq").value(cycle(a.firstBadReq));
    w.key("firstBadUsable").value(cycle(a.firstBadUsable));
    w.key("firstBadVerdict").value(cycle(a.firstBadVerdict));
    w.key("novelExposuresInGap").value(a.novelExposuresInGap);
    w.key("exposuresAfterVerdict").value(a.exposuresAfterVerdict);
    w.key("leakWindowOpen").value(a.leakWindowOpen);
    w.endObject();
    w.endObject();
}

} // namespace acp::obs
