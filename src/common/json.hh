/**
 * @file
 * The one JSON writer behind every machine-readable artifact: the
 * sweep JSON of acpsim --json with its path profiles, the run
 * manifest, the Chrome trace and the BENCH_*.json recordings. A Writer
 * keeps nesting, commas, indentation and string escaping to itself;
 * callers only name keys and values. Layout: two-space indentation,
 * one element per line, `"key": value`; a container opened kOneLine
 * puts itself and all inside it on one line, elements joined by ", ".
 *
 * writeFile() is the only way to put a document in a file: it streams
 * the text out as it grows (a long-window Chrome trace is never held
 * in memory whole) and reports a failed open, a short write or a
 * failed close, so a caller never claims a file it did not write.
 */

#ifndef ACP_COMMON_JSON_HH
#define ACP_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace acp::json
{

/** How a container lays out its elements. */
enum Layout
{
    kIndented, ///< one element per line (unless inside a kOneLine one)
    kOneLine,  ///< the whole container on one line
};

/** Streaming JSON writer (see the file comment). */
class Writer
{
  public:
    /** A writer that builds its document in str(). */
    Writer() = default;

    Writer &beginObject(Layout layout = kIndented)
    {
        return open('{', layout);
    }
    Writer &endObject() { return close('}'); }
    Writer &beginArray(Layout layout = kIndented)
    {
        return open('[', layout);
    }
    Writer &endArray() { return close(']'); }

    /** Name the next value of the enclosing object. */
    Writer &key(std::string_view name);

    /** A string, quoted. Quote and backslash get their two-character
     *  escapes, as do newline and tab; every other control byte,
     *  carriage return included, a four-hex-digit unicode escape. */
    Writer &value(std::string_view text);
    Writer &value(const char *text) { return value(std::string_view(text)); }
    Writer &value(bool flag) { return literal(flag ? "true" : "false"); }
    /** A double with 17 significant digits ("%.17g"): round-trips. */
    Writer &value(double number);

    /** An integer, signed or unsigned, in full. */
    template <std::integral T>
    Writer &
    value(T number)
    {
        char digits[24]; // every 64-bit integer fits
        const char *end =
            std::to_chars(digits, digits + sizeof(digits), number).ptr;
        return literal(std::string_view(digits, end - digits));
    }

    /** A double with @p decimals digits after the point ("%.6f"). */
    Writer &fixed(double number, int decimals);

    /** The document so far (complete once every container closed). */
    const std::string &str() const { return text_; }

  private:
    friend bool writeFile(const std::string &path,
                          const std::function<void(Writer &)> &body);

    struct Frame
    {
        bool oneLine;
        bool empty;
    };

    explicit Writer(std::FILE *out) : out_(out) {}

    Writer &open(char bracket, Layout layout);
    Writer &close(char bracket);
    /** Separate the next element from the one before it. */
    void element();
    void newline();
    /** A value whose text needs no escaping. */
    Writer &
    literal(std::string_view text)
    {
        element();
        text_ += text;
        return *this;
    }
    /** Move what is buffered to the file. */
    void flush();

    std::FILE *out_ = nullptr;
    std::string text_;
    std::vector<Frame> frames_;
    bool afterKey_ = false;
};

/**
 * Write one JSON document to @p path: create the file, let @p body
 * fill a Writer streaming into it, end the document with a newline
 * and close the file. Returns false when the open, any write or the
 * close failed (errno says why).
 */
bool writeFile(const std::string &path,
               const std::function<void(Writer &)> &body);

} // namespace acp::json

#endif // ACP_COMMON_JSON_HH
