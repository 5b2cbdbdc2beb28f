#include "obs/trace_json.hh"

#include <initializer_list>
#include <utility>

#include "common/json.hh"
#include "obs/path_profiler.hh"

namespace acp::obs
{

namespace
{

/** An event's arguments: (name, value) pairs; a pair with no name is
 *  left out. */
using Args = std::initializer_list<std::pair<const char *, std::uint64_t>>;

/**
 * One event on track @p tid, on a line of its own. Instants ("i")
 * get thread scope; async begin/end ("b"/"e") carry @p id, by which
 * viewers pair them within @p cat.
 */
void
emit(json::Writer &w, const char *ph, const char *cat, const char *name,
     Cycle ts, unsigned tid, std::uint64_t id, Args args = {})
{
    w.beginObject(json::kOneLine);
    w.key("ph").value(ph).key("cat").value(cat).key("name").value(name);
    w.key("ts").value(ts).key("pid").value(0).key("tid").value(tid);
    if (ph[0] == 'i')
        w.key("s").value("t");
    else
        w.key("id").value(std::to_string(id));
    if (args.size() != 0) {
        w.key("args").beginObject();
        for (const auto &[arg, value] : args)
            if (arg != nullptr)
                w.key(arg).value(value);
        w.endObject();
    }
    w.endObject();
}

/** Category, name and argument names of each PipelineEvent::Kind
 *  (fetch has no b). */
struct PipelineFormat
{
    const char *cat;
    const char *name;
    const char *a;
    const char *b;
};
constexpr PipelineFormat kPipelineFormats[] = {
    {"pipeline", "fetch", "pc", nullptr},
    {"pipeline", "issue", "pc", "seq"},
    {"pipeline", "commit", "pc", "seq"},
    {"pipeline", "squash", "pc", "squashed"},
    {"auth", "auth.gate_release", "auth_seq", "pc"},
};

/** Every event one retired transaction's timeline yields. */
void
writeTxn(json::Writer &w, const mem::Txn &txn, unsigned tid)
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
                emit(w, "i", "auth", "auth.request", s.cycle, tid, 0,
                     {{"auth_seq", txn.authSeq}, {"line", line}});
            break;
          case PathEvent::kMshrAdmit:
            admitted = s.cycle;
            break;
          case PathEvent::kFetchGateRelease:
            emit(w, "b", "gate", "fetch_gate", admitted, tid, txn.id,
                 {{"tag", txn.gateTag}, {"line", line}});
            emit(w, "e", "gate", "fetch_gate", s.cycle, tid, txn.id,
                 {{"tag", txn.gateTag}, {"line", line}});
            break;
          case PathEvent::kBusGrant:
            emit(w, "i", "bus", "bus.grant", s.cycle, tid, 0,
                 {{"txn", txn.id}, {"line", s.addr / kExtLineBytes}});
            break;
          case PathEvent::kDecryptDone:
            decrypted = s.cycle;
            break;
          case PathEvent::kVerifyDone:
            // The request was posted at decrypt completion: the span
            // is this request's auth.verify_latency sample.
            emit(w, "b", "auth", "auth.verify", decrypted, tid,
                 txn.authSeq, {{"auth_seq", txn.authSeq}, {"line", line}});
            emit(w, "e", "auth", "auth.verify", s.cycle, tid, txn.authSeq,
                 {{"auth_seq", txn.authSeq}, {"ok", txn.macOk ? 1u : 0u}});
            break;
          default:
            break;
        }
        // Consecutive steps become sequential spans named by the
        // segment the delta is charged to; viewers group one
        // transaction's spans into a track keyed by (cat "txn", id).
        if (prev != nullptr && s.cycle > prev->cycle) {
            const char *seg = pathSegmentName(segmentOfEvent(s.event));
            emit(w, "b", "txn", seg, prev->cycle, tid, txn.id,
                 {{"kind", unsigned(txn.kind)}, {"addr", s.addr}});
            emit(w, "e", "txn", seg, s.cycle, tid, txn.id);
        }
        prev = &s;
    }
}

} // namespace

bool
writeChromeTrace(const std::vector<mem::Txn> &txns,
                 const std::vector<PipelineTrack> &cores,
                 const std::string &path)
{
    return json::writeFile(path, [&](json::Writer &w) {
        w.beginObject();
        w.key("traceEvents").beginArray();

        // Tracks: one per core (tid = core id), then the memory side.
        const unsigned secmem = unsigned(cores.size());
        for (unsigned tid = 0; tid <= secmem; ++tid) {
            w.beginObject(json::kOneLine);
            w.key("ph").value("M").key("pid").value(0).key("tid").value(tid);
            w.key("name").value("thread_name").key("args").beginObject();
            w.key("name").value(tid < secmem ? cores[tid].name
                                             : std::string("secmem"));
            w.endObject().endObject();
        }

        std::uint64_t pipeline_events = 0;
        for (unsigned tid = 0; tid < secmem; ++tid) {
            for (const PipelineEvent &ev : *cores[tid].events) {
                const PipelineFormat &f =
                    kPipelineFormats[unsigned(ev.kind)];
                emit(w, "i", f.cat, f.name, ev.cycle, tid, 0,
                     {{f.a, ev.a}, {f.b, ev.b}});
            }
            pipeline_events += cores[tid].events->size();
        }
        for (const mem::Txn &txn : txns)
            writeTxn(w, txn, secmem);
        w.endArray();

        w.key("displayTimeUnit").value("ms");
        w.key("otherData").beginObject();
        w.key("generator").value("acpsim");
        w.key("timeUnit").value("core cycles");
        w.key("txns").value(txns.size());
        w.key("pipelineEvents").value(pipeline_events);
        w.endObject();
        w.endObject();
    });
}

} // namespace acp::obs
