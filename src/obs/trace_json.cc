#include "obs/trace_json.hh"

#include <cinttypes>

#include "common/json.hh"
#include "obs/path_profiler.hh"

namespace acp::obs
{

namespace
{

/** Streams comma-separated trace-event objects. */
struct EventWriter
{
    std::FILE *out;
    bool first = true;

    /**
     * One event on track @p tid. Instants ("i") get thread scope;
     * async begin/end ("b"/"e") carry @p id, by which viewers pair
     * them within @p cat. @p args_fmt formats up to two arguments.
     */
    void
    operator()(const char *ph, const char *cat, const char *name, Cycle ts,
               unsigned tid, std::uint64_t id,
               const char *args_fmt = nullptr, std::uint64_t arg0 = 0,
               std::uint64_t arg1 = 0)
    {
        std::fprintf(out, "%s\n    {\"ph\":\"%s\",\"cat\":\"%s\","
                     "\"name\":\"%s\",\"ts\":%llu,\"pid\":0,\"tid\":%u",
                     first ? "" : ",", ph, cat, name,
                     (unsigned long long)ts, tid);
        first = false;
        if (ph[0] == 'i')
            std::fputs(",\"s\":\"t\"", out);
        else
            std::fprintf(out, ",\"id\":\"%llu\"", (unsigned long long)id);
        if (args_fmt != nullptr) {
            std::fputs(",\"args\":{", out);
            std::fprintf(out, args_fmt, (unsigned long long)arg0,
                         (unsigned long long)arg1);
            std::fputc('}', out);
        }
        std::fputc('}', out);
    }
};

/** Category, name and argument format of each PipelineEvent::Kind. */
struct PipelineFormat
{
    const char *cat;
    const char *name;
    const char *args;
};
constexpr PipelineFormat kPipelineFormats[] = {
    {"pipeline", "fetch", "\"pc\":%llu"},
    {"pipeline", "issue", "\"pc\":%llu,\"seq\":%llu"},
    {"pipeline", "commit", "\"pc\":%llu,\"seq\":%llu"},
    {"pipeline", "squash", "\"pc\":%llu,\"squashed\":%llu"},
    {"auth", "auth.gate_release", "\"auth_seq\":%llu,\"pc\":%llu"},
};

/** Every event one retired transaction's timeline yields. */
void
writeTxn(EventWriter &emit, const mem::Txn &txn, unsigned tid)
{
    using mem::PathEvent;
    const std::uint64_t line = txn.addr / kExtLineBytes;
    Cycle admitted = 0;
    Cycle decrypted = 0;
    const mem::TxnStep *prev = nullptr;
    for (const mem::TxnStep &s : txn.path) {
        switch (s.event) {
          case PathEvent::kRequest:
            if (txn.authSeq != kNoAuthSeq)
                emit("i", "auth", "auth.request", s.cycle, tid, 0,
                     "\"auth_seq\":%llu,\"line\":%llu", txn.authSeq, line);
            break;
          case PathEvent::kMshrAdmit:
            admitted = s.cycle;
            break;
          case PathEvent::kFetchGateRelease:
            emit("b", "gate", "fetch_gate", admitted, tid, txn.id,
                 "\"tag\":%llu,\"line\":%llu", txn.gateTag, line);
            emit("e", "gate", "fetch_gate", s.cycle, tid, txn.id,
                 "\"tag\":%llu,\"line\":%llu", txn.gateTag, line);
            break;
          case PathEvent::kBusGrant:
            emit("i", "bus", "bus.grant", s.cycle, tid, 0,
                 "\"txn\":%llu,\"line\":%llu", txn.id,
                 s.addr / kExtLineBytes);
            break;
          case PathEvent::kDecryptDone:
            decrypted = s.cycle;
            break;
          case PathEvent::kVerifyDone:
            // The request was posted at decrypt completion: the span
            // is this request's auth.verify_latency sample.
            emit("b", "auth", "auth.verify", decrypted, tid, txn.authSeq,
                 "\"auth_seq\":%llu,\"line\":%llu", txn.authSeq, line);
            emit("e", "auth", "auth.verify", s.cycle, tid, txn.authSeq,
                 "\"auth_seq\":%llu,\"ok\":%llu", txn.authSeq,
                 txn.macOk ? 1 : 0);
            break;
          default:
            break;
        }
        // Consecutive steps become sequential spans named by the
        // segment the delta is charged to; viewers group one
        // transaction's spans into a track keyed by (cat "txn", id).
        if (prev != nullptr && s.cycle > prev->cycle) {
            const char *seg = pathSegmentName(segmentOfEvent(s.event));
            emit("b", "txn", seg, prev->cycle, tid, txn.id,
                 "\"kind\":%llu,\"addr\":%llu",
                 static_cast<unsigned>(txn.kind), s.addr);
            emit("e", "txn", seg, s.cycle, tid, txn.id);
        }
        prev = &s;
    }
}

} // namespace

void
writeChromeTrace(const std::vector<mem::Txn> &txns,
                 const std::vector<PipelineTrack> &cores, std::FILE *out)
{
    std::fputs("{\n  \"traceEvents\": [", out);
    EventWriter emit{out};

    // Tracks: one per core (tid = core id), then the memory side.
    const unsigned secmem = unsigned(cores.size());
    for (unsigned tid = 0; tid <= secmem; ++tid)
        std::fprintf(out, "%s\n    {\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                     "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                     tid ? "," : "", tid,
                     tid < secmem ? json::escape(cores[tid].name).c_str()
                                  : "secmem");
    emit.first = false;

    std::uint64_t pipeline_events = 0;
    for (unsigned tid = 0; tid < secmem; ++tid) {
        for (const PipelineEvent &ev : *cores[tid].events) {
            const PipelineFormat &f = kPipelineFormats[unsigned(ev.kind)];
            emit("i", f.cat, f.name, ev.cycle, tid, 0, f.args, ev.a, ev.b);
        }
        pipeline_events += cores[tid].events->size();
    }
    for (const mem::Txn &txn : txns)
        writeTxn(emit, txn, secmem);

    std::fprintf(out, "\n  ],\n"
                 "  \"displayTimeUnit\": \"ms\",\n"
                 "  \"otherData\": {\n"
                 "    \"generator\": \"acpsim\",\n"
                 "    \"timeUnit\": \"core cycles\",\n"
                 "    \"txns\": %zu,\n"
                 "    \"pipelineEvents\": %" PRIu64 "\n"
                 "  }\n}\n",
                 txns.size(), pipeline_events);
}

bool
writeChromeTrace(const std::vector<mem::Txn> &txns,
                 const std::vector<PipelineTrack> &cores,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    writeChromeTrace(txns, cores, f);
    std::fclose(f);
    return true;
}

} // namespace acp::obs
