#include "obs/path_report.hh"

#include <cinttypes>

#include "common/json.hh"

namespace acp::obs
{

namespace
{

const char *
kindName(unsigned kind)
{
    return mem::busTxnKindName(mem::BusTxnKind(kind));
}

/** kCycleNever prints as -1 in JSON (a cycle that never happened). */
void
jsonCycle(std::FILE *f, Cycle c)
{
    if (c == kCycleNever)
        std::fputs("-1", f);
    else
        std::fprintf(f, "%" PRIu64, c);
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

    if (profile.hasAudit) {
        const LeakAudit &a = profile.audit;
        std::fputs("\n-- leak audit (adversary bus view) --\n", out);
        std::fprintf(out,
                     "bus txns %" PRIu64 "  demand fetches %" PRIu64
                     "  tamper %s\n",
                     a.busTxnsScanned, a.demandFetches,
                     a.tamperDetected ? "DETECTED" : "none");
        if (a.tamperDetected) {
            std::fprintf(out, "first bad txn: req ");
            if (a.firstBadReq == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, a.firstBadReq);
            std::fputs("  usable ", out);
            if (a.firstBadUsable == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, a.firstBadUsable);
            std::fputs("  verdict ", out);
            if (a.firstBadVerdict == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, a.firstBadVerdict);
            std::fprintf(out,
                         "\nnovel addrs exposed in window %" PRIu64
                         "  after verdict %" PRIu64 "\n"
                         "classification: %s\n",
                         a.novelExposuresInGap, a.exposuresAfterVerdict,
                         a.leakWindowOpen
                             ? "LEAKED before exception (Table 2 \"leak\")"
                             : "no leak before exception");
        }
        for (const LeakAudit::CoreWindow &cw : a.cores) {
            std::fprintf(out,
                         "victim cpu%u: usable ", cw.core);
            if (cw.firstBadUsable == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, cw.firstBadUsable);
            std::fputs("  verdict ", out);
            if (cw.firstBadVerdict == kCycleNever)
                std::fputs("-", out);
            else
                std::fprintf(out, "%" PRIu64, cw.firstBadVerdict);
            std::fprintf(out,
                         "  own fetches %" PRIu64
                         "  novel in window %" PRIu64
                         "  after verdict %" PRIu64 "  %s\n",
                         cw.demandFetches, cw.novelExposuresInGap,
                         cw.exposuresAfterVerdict,
                         cw.leakWindowOpen ? "LEAKED" : "no leak");
        }
    }
    std::fputc('\n', out);
}

void
writePathProfileJson(std::FILE *out, const PathProfile &profile,
                     const char *indent)
{
    std::fputs("{", out);
    std::fprintf(out, "\n%s  \"policy\": \"", indent);
    std::fputs(json::escape(profile.policy).c_str(), out);
    std::fprintf(out,
                 "\",\n%s  \"txns\": %" PRIu64
                 ",\n%s  \"degenerate\": %" PRIu64
                 ",\n%s  \"demandTxns\": %" PRIu64 ",\n%s  \"kinds\": [",
                 indent, profile.txns, indent, profile.degenerate, indent,
                 profile.demandTxns, indent);
    bool first = true;
    for (const SegmentRow &row : profile.kinds) {
        std::fprintf(out,
                     "%s\n%s    {\"kind\": \"%s\", \"count\": %" PRIu64
                     ", \"latencyTotal\": %" PRIu64 ", \"latencyMin\": %"
                     PRIu64 ", \"latencyMax\": %" PRIu64
                     ", \"latencyBuckets\": [",
                     first ? "" : ",", indent, kindName(row.kind),
                     row.count, row.latencyTotal, row.latencyMin,
                     row.latencyMax);
        for (std::size_t b = 0; b < row.latencyBuckets.size(); ++b)
            std::fprintf(out, "%s%" PRIu64, b ? ", " : "",
                         row.latencyBuckets[b]);
        std::fputs("], \"segments\": {", out);
        bool first_seg = true;
        for (unsigned s = 0; s < kNumPathSegments; ++s) {
            const SegmentStat &seg = row.segs[s];
            if (seg.count == 0)
                continue;
            std::fprintf(out,
                         "%s\n%s      \"%s\": {\"count\": %" PRIu64
                         ", \"sum\": %" PRIu64 ", \"min\": %" PRIu64
                         ", \"max\": %" PRIu64 "}",
                         first_seg ? "" : ",", indent,
                         pathSegmentName(PathSegment(s)), seg.count,
                         seg.sum, seg.min, seg.max);
            first_seg = false;
        }
        std::fprintf(out, "%s%s    }}", first_seg ? "" : "\n",
                     first_seg ? "" : indent);
        first = false;
    }
    std::fprintf(out, "%s%s  ],\n%s  \"shapes\": [", first ? "" : "\n",
                 first ? "" : indent, indent);
    first = true;
    for (const PathShape &shape : profile.shapes) {
        std::fprintf(out, "%s\n%s    {\"signature\": \"",
                     first ? "" : ",", indent);
        std::fputs(json::escape(shape.signature).c_str(), out);
        std::fprintf(out,
                     "\", \"count\": %" PRIu64 ", \"latencyTotal\": %"
                     PRIu64 ", \"exampleId\": %" PRIu64 "}",
                     shape.count, shape.latencyTotal, shape.exampleId);
        first = false;
    }
    std::fprintf(out, "%s%s  ],\n%s  \"slowest\": [", first ? "" : "\n",
                 first ? "" : indent, indent);
    first = true;
    for (const SlowTxn &txn : profile.slowest) {
        std::fprintf(out,
                     "%s\n%s    {\"id\": %" PRIu64 ", \"kind\": \"%s\", "
                     "\"addr\": %" PRIu64 ", \"origin\": %" PRIu64
                     ", \"reqCycle\": %" PRIu64 ", \"latency\": %" PRIu64
                     ", \"macOk\": %s, \"path\": [",
                     first ? "" : ",", indent, txn.id, kindName(txn.kind),
                     txn.addr, txn.origin, txn.reqCycle, txn.latency,
                     txn.macOk ? "true" : "false");
        for (std::size_t s = 0; s < txn.path.size(); ++s)
            std::fprintf(out,
                         "%s{\"event\": \"%s\", \"cycle\": %" PRIu64 "}",
                         s ? ", " : "",
                         mem::pathEventName(txn.path[s].event),
                         txn.path[s].cycle);
        std::fputs("]}", out);
        first = false;
    }
    std::fprintf(out, "%s%s  ],\n%s  \"demandSegCycles\": {",
                 first ? "" : "\n", first ? "" : indent, indent);
    first = true;
    for (unsigned s = 0; s < kNumPathSegments; ++s) {
        if (profile.demandSegCycles[s] == 0)
            continue;
        std::fprintf(out, "%s\"%s\": %" PRIu64, first ? "" : ", ",
                     pathSegmentName(PathSegment(s)),
                     profile.demandSegCycles[s]);
        first = false;
    }
    std::fputs("}", out);
    if (profile.hasStalls) {
        std::fprintf(out, ",\n%s  \"stalls\": {", indent);
        first = true;
        for (unsigned c = 0; c < kNumStallCauses; ++c) {
            if (profile.stalls[c] == 0)
                continue;
            std::fprintf(out, "%s\"%s\": %" PRIu64, first ? "" : ", ",
                         stallCauseName(StallCause(c)),
                         profile.stalls[c]);
            first = false;
        }
        std::fputs("}", out);
    }
    if (profile.hasAudit) {
        const LeakAudit &a = profile.audit;
        std::fprintf(out,
                     ",\n%s  \"audit\": {\n%s    \"busTxnsScanned\": %"
                     PRIu64 ",\n%s    \"demandFetches\": %" PRIu64
                     ",\n%s    \"tamperDetected\": %s,\n"
                     "%s    \"firstBadReq\": ",
                     indent, indent, a.busTxnsScanned, indent,
                     a.demandFetches, indent,
                     a.tamperDetected ? "true" : "false", indent);
        jsonCycle(out, a.firstBadReq);
        std::fprintf(out, ",\n%s    \"firstBadUsable\": ", indent);
        jsonCycle(out, a.firstBadUsable);
        std::fprintf(out, ",\n%s    \"firstBadVerdict\": ", indent);
        jsonCycle(out, a.firstBadVerdict);
        std::fprintf(out,
                     ",\n%s    \"novelExposuresInGap\": %" PRIu64
                     ",\n%s    \"exposuresAfterVerdict\": %" PRIu64
                     ",\n%s    \"leakWindowOpen\": %s",
                     indent, a.novelExposuresInGap, indent,
                     a.exposuresAfterVerdict, indent,
                     a.leakWindowOpen ? "true" : "false");
        if (!a.cores.empty()) {
            std::fprintf(out, ",\n%s    \"cores\": [", indent);
            bool first_core = true;
            for (const LeakAudit::CoreWindow &cw : a.cores) {
                std::fprintf(out,
                             "%s\n%s      {\"core\": %u, "
                             "\"firstBadReq\": ",
                             first_core ? "" : ",", indent, cw.core);
                jsonCycle(out, cw.firstBadReq);
                std::fputs(", \"firstBadUsable\": ", out);
                jsonCycle(out, cw.firstBadUsable);
                std::fputs(", \"firstBadVerdict\": ", out);
                jsonCycle(out, cw.firstBadVerdict);
                std::fprintf(out,
                             ", \"demandFetches\": %" PRIu64
                             ", \"novelExposuresInGap\": %" PRIu64
                             ", \"exposuresAfterVerdict\": %" PRIu64
                             ", \"leakWindowOpen\": %s}",
                             cw.demandFetches, cw.novelExposuresInGap,
                             cw.exposuresAfterVerdict,
                             cw.leakWindowOpen ? "true" : "false");
                first_core = false;
            }
            std::fprintf(out, "\n%s    ]", indent);
        }
        std::fprintf(out, "\n%s  }", indent);
    }
    std::fprintf(out, "\n%s}", indent);
}

} // namespace acp::obs
