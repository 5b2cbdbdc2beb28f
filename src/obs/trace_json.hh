/**
 * @file
 * Chrome trace-event JSON of a traced window (sim::System::
 * enableTrace). The output loads in Perfetto (https://ui.perfetto.dev)
 * or chrome://tracing, with the simulated cycle count as the timestamp
 * unit (1 "us" == 1 cycle). Every event is derived from two lists:
 *
 *   - the controller's retired mem::Txn timelines, on the "secmem"
 *     track: the "auth.request" instant (kRequest of a verified
 *     fetch), the "auth.verify" span (kDecryptDone -> kVerifyDone —
 *     the span's length IS the paper's authentication latency gap),
 *     the "fetch_gate" span (kMshrAdmit -> kFetchGateRelease), one
 *     "bus.grant" instant per kBusGrant step, and the "txn" segment
 *     spans (one per nonzero timeline delta, named by the path
 *     segment it is charged to);
 *   - each core's pipeline instants (fetch / issue / commit / squash
 *     and the commit gate's "auth.gate_release"), one track per core.
 */

#ifndef ACP_OBS_TRACE_JSON_HH
#define ACP_OBS_TRACE_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/txn.hh"

namespace acp::obs
{

/** One pipeline instant a traced core records. */
struct PipelineEvent
{
    enum class Kind : std::uint8_t
    {
        kFetch,       // a=pc
        kIssue,       // a=pc, b=dynamic seq
        kCommit,      // a=pc, b=dynamic seq
        kSquash,      // a=mispredicting pc, b=instructions squashed
        kGateRelease, // a=auth seq the commit gate waited on, b=pc
    };

    Cycle cycle = 0;
    Kind kind = Kind::kFetch;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** One core's pipeline track: its name and its instants. */
struct PipelineTrack
{
    std::string name;
    const std::vector<PipelineEvent> *events = nullptr;
};

/**
 * Write @p txns and @p cores to @p path as one Chrome trace-event
 * document, one event per line. False when the file could not be
 * written (json::writeFile).
 */
bool writeChromeTrace(const std::vector<mem::Txn> &txns,
                      const std::vector<PipelineTrack> &cores,
                      const std::string &path);

} // namespace acp::obs

#endif // ACP_OBS_TRACE_JSON_HH
