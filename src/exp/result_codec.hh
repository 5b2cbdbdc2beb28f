/**
 * @file
 * The one text codec for a cacheable Result: the payload of each line
 * of the content-addressed result store (exp/result_store.hh). A
 * result read back from the store decodes bit-identically to the one
 * that was put:
 *
 *   ipc=<%.17g> insts=<u> cycles=<u> reason=<u> \
 *       [<group.stat>=<u> ...] \
 *       [avg:<group.stat>=<count>:<sum>:<min>:<max> ...] \
 *       [dist:<group.stat>=<count>:<sum>:<min>:<max>:<b0,b1,...> ...]
 *
 * Doubles are rendered with %.17g, which round-trips IEEE-754
 * binary64 exactly; maps are std::map, so token order is
 * deterministic and encode(decode(line)) == line.
 *
 * Only the cacheable subset is carried: interval series and path
 * profiles never enter the codec (points producing them are
 * uncacheable by design), and fromCache/wallSeconds are execution
 * provenance, not results.
 */

#ifndef ACP_EXP_RESULT_CODEC_HH
#define ACP_EXP_RESULT_CODEC_HH

#include <string>

#include "exp/result.hh"

namespace acp::exp
{

/** Render @p result as one codec line (no digest, no newline). */
std::string encodeResultTokens(const Result &result);

/**
 * Parse a codec line into @p out (starting from a default Result,
 * fromCache left false). Unknown "key=value" tokens are counters —
 * the same forward-compatibility rule the old cache format had.
 */
void decodeResultTokens(const std::string &line, Result &out);

} // namespace acp::exp

#endif // ACP_EXP_RESULT_CODEC_HH
