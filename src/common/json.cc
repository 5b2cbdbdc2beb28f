#include "common/json.hh"

#include <cassert>
#include <memory>
#include <utility>

namespace acp::json
{

namespace
{

/** Text buffered before it is written out to the file. */
constexpr std::size_t kFlushBytes = 1 << 16;

void
appendEscaped(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
            } else {
                out += c;
            }
        }
    }
}

} // namespace

void
Writer::newline()
{
    text_ += '\n';
    text_.append(2 * frames_.size(), ' ');
}

void
Writer::element()
{
    if (out_ != nullptr && text_.size() >= kFlushBytes)
        flush();
    if (std::exchange(afterKey_, false) || frames_.empty())
        return;
    Frame &frame = frames_.back();
    if (!frame.empty)
        text_ += frame.oneLine ? ", " : ",";
    if (!frame.oneLine)
        newline();
    frame.empty = false;
}

Writer &
Writer::open(char bracket, Layout layout)
{
    element();
    text_ += bracket;
    bool inside_one_line = !frames_.empty() && frames_.back().oneLine;
    frames_.push_back({layout == kOneLine || inside_one_line, true});
    return *this;
}

Writer &
Writer::close(char bracket)
{
    assert(!frames_.empty() && !afterKey_);
    Frame frame = frames_.back();
    frames_.pop_back();
    if (!frame.oneLine && !frame.empty)
        newline();
    text_ += bracket;
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    assert(!frames_.empty() && !afterKey_);
    value(name);
    text_ += ": ";
    afterKey_ = true;
    return *this;
}

Writer &
Writer::value(std::string_view text)
{
    element();
    text_ += '"';
    appendEscaped(text_, text);
    text_ += '"';
    return *this;
}

Writer &
Writer::value(double number)
{
    char digits[32];
    std::snprintf(digits, sizeof(digits), "%.17g", number);
    return literal(digits);
}

Writer &
Writer::fixed(double number, int decimals)
{
    char digits[64];
    std::snprintf(digits, sizeof(digits), "%.*f", decimals, number);
    return literal(digits);
}

void
Writer::flush()
{
    std::fwrite(text_.data(), 1, text_.size(), out_);
    text_.clear();
}

bool
writeFile(const std::string &path,
          const std::function<void(Writer &)> &body)
{
    struct Closer
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, Closer> file(std::fopen(path.c_str(), "w"));
    if (file == nullptr)
        return false;
    Writer writer(file.get());
    body(writer);
    writer.text_ += '\n';
    writer.flush();
    // A short write sets the stream's error indicator; fclose writes
    // out stdio's own buffer, so a full disk may only show there.
    bool written = !std::ferror(file.get());
    return std::fclose(file.release()) == 0 && written;
}

} // namespace acp::json
