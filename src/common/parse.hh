/**
 * @file
 * Strict number parsing for command-line options and environment
 * variables (acpsim's options, ACP_JOBS, the bench REPRO_* knobs).
 * The whole text must be a value the target can hold; anything else
 * is fatal and names the option or variable, so a typo never runs an
 * experiment at a silently different scale.
 */

#ifndef ACP_COMMON_PARSE_HH
#define ACP_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace acp
{

/**
 * Parse the whole of @p text as an unsigned count (decimal, 0x hex or
 * 0 octal) into @p out. A sign, any trailing character, or a value
 * @p out cannot hold is fatal, naming @p option: bare strtoull would
 * wrap "-1" to 2^64 - 1 and stop silently at "12abc".
 */
template <typename T>
void
parseCount(const std::string &option, const char *text, T &out)
{
    const unsigned long long max = std::numeric_limits<T>::max();
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 0);
    if (!std::isdigit((unsigned char)text[0]) || *end != '\0' ||
        errno == ERANGE || value > max)
        acp_fatal("%s: '%s' is not a count in [0, %llu]", option.c_str(),
                  text, max);
    out = T(value);
}

/** A byte size with an optional K/M/G suffix, e.g. 256K or 1.5M. */
inline std::uint64_t
parseSize(const std::string &option, const char *text)
{
    char *end = nullptr;
    double value = std::strtod(text, &end);
    if (end == text || !std::isfinite(value) || std::signbit(value))
        acp_fatal("%s: bad size '%s'", option.c_str(), text);
    switch (*end) {
      case 'k': case 'K': value *= 1024; ++end; break;
      case 'm': case 'M': value *= 1024 * 1024; ++end; break;
      case 'g': case 'G': value *= 1024 * 1024 * 1024; ++end; break;
    }
    if (*end != '\0')
        acp_fatal("%s: bad size suffix in '%s'", option.c_str(), text);
    // 2^64: the first double a uint64_t cannot hold.
    if (value >= 18446744073709551616.0)
        acp_fatal("%s: size '%s' does not fit in 64 bits", option.c_str(),
                  text);
    return std::uint64_t(value);
}

} // namespace acp

#endif // ACP_COMMON_PARSE_HH
