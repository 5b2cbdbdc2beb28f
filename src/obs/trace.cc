#include "obs/trace.hh"

namespace acp::obs
{

TraceBuffer::TraceBuffer(std::uint32_t mask, std::size_t capacity)
    : mask_(mask), ring_(capacity ? capacity : 1)
{
}

std::vector<TraceEvent>
TraceBuffer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    forEach([&out](const TraceEvent &ev) { out.push_back(ev); });
    return out;
}

} // namespace acp::obs
