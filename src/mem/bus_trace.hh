/**
 * @file
 * Front-side-bus address trace: the *side channel*. Every address that
 * is granted a bus cycle is visible in plaintext to a physical
 * adversary (paper Section 3). The security monitor's two judges
 * read only this trace (and the first bad fill's cycles) to decide
 * whether an exploit leaked a secret before the authentication
 * exception fired.
 */

#ifndef ACP_MEM_BUS_TRACE_HH
#define ACP_MEM_BUS_TRACE_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace acp::mem
{

/** Kind of bus transaction observed by the adversary. */
enum class BusTxnKind
{
    kInstrFetch,
    kDataFetch,
    kWriteback,
    kCounterFetch,
    kTreeNodeFetch,
    kRemapFetch,
    kIoOut, // value written to an output port (addr field holds value)
};

/** Stable stat/display name of a bus transaction kind. */
constexpr const char *
busTxnKindName(BusTxnKind kind)
{
    switch (kind) {
      case BusTxnKind::kInstrFetch:    return "instr_fetch";
      case BusTxnKind::kDataFetch:     return "data_fetch";
      case BusTxnKind::kWriteback:     return "writeback";
      case BusTxnKind::kCounterFetch:  return "counter_fetch";
      case BusTxnKind::kTreeNodeFetch: return "tree_node_fetch";
      case BusTxnKind::kRemapFetch:    return "remap_fetch";
      case BusTxnKind::kIoOut:         return "io_out";
    }
    return "?";
}

/** One observed transaction. */
struct BusTxn
{
    Cycle cycle = 0;
    Addr addr = 0;
    BusTxnKind kind = BusTxnKind::kDataFetch;
    /** Requesting client (core) id; the adversary can tell requests
     *  apart by which core's traffic stream they ride on. */
    unsigned client = 0;
};

/**
 * Trace recorder. Disabled (zero-cost) by default for performance
 * runs; exploit runs and profiled runs enable capture.
 */
class BusTrace
{
  public:
    void enable(bool on) { enabled_ = on; }

    void
    record(Cycle cycle, Addr addr, BusTxnKind kind, unsigned client = 0)
    {
        if (enabled_)
            txns_.push_back({cycle, addr, kind, client});
    }

    const std::vector<BusTxn> &txns() const { return txns_; }

  private:
    bool enabled_ = false;
    std::vector<BusTxn> txns_;
};

} // namespace acp::mem

#endif // ACP_MEM_BUS_TRACE_HH
