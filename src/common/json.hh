/**
 * @file
 * The JSON string escaper every hand-rolled JSON writer in this repo
 * shares (sweep JSON, manifest, path profile). Quote and
 * backslash get their two-character escapes, as do newline and tab;
 * every other control byte, carriage return included, becomes a
 * four-hex-digit unicode escape.
 */

#ifndef ACP_COMMON_JSON_HH
#define ACP_COMMON_JSON_HH

#include <string>

namespace acp::json
{

/** JSON string-escape @p text (no surrounding quotes). */
std::string escape(const std::string &text);

} // namespace acp::json

#endif // ACP_COMMON_JSON_HH
