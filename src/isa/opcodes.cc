#include "isa/opcodes.hh"

#include "common/logging.hh"

namespace acp::isa
{

void
detail::badOpcode(unsigned idx)
{
    acp_panic("opInfo: invalid opcode %u", idx);
}

unsigned
memAccessBytes(Op op)
{
    switch (op) {
      case Op::kLd:
      case Op::kSd:
        return 8;
      case Op::kLw:
      case Op::kSw:
        return 4;
      case Op::kLb:
      case Op::kSb:
        return 1;
      default:
        return 0;
    }
}

} // namespace acp::isa
