#include "secmem/external_memory.hh"

#include <cstring>

#include "common/logging.hh"

namespace acp::secmem
{

namespace
{

/** Derive a 16-byte key from a seed and a domain label. */
std::array<std::uint8_t, 16>
deriveKey(std::uint64_t seed, std::uint8_t domain)
{
    std::array<std::uint8_t, 16> key{};
    // splitmix-style whitening; functional keys need no real KDF here.
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ULL * (domain + 1));
    for (int i = 0; i < 2; ++i) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        std::memcpy(key.data() + 8 * i, &x, 8);
        x += 0x9e3779b97f4a7c15ULL;
    }
    return key;
}

} // namespace

ExternalMemory::ExternalMemory(std::uint64_t master_seed)
    : ctr_(deriveKey(master_seed, 0).data(), 16),
      mac_(deriveKey(master_seed, 1).data(), 16), stats_("extmem")
{
    stats_.addCounter("fetches", &fetches_);
    stats_.addCounter("stores", &stores_);
    stats_.addCounter("mac_failures", &macFailures_);
    stats_.addCounter("tamper_events", &tamperEvents_);
}

ExternalMemory::LineRec &
ExternalMemory::materialize(Addr addr)
{
    // A line never written reads as all-zero plaintext, counter 0:
    // its page was zero-filled when first touched.
    Page &page = pages_.touch(addr);
    unsigned i = lineIndex(addr);
    std::uint64_t bit = std::uint64_t(1) << i;
    if (!(page.touched & bit)) {
        page.touched |= bit;
        ++linesTouched_;
    }
    return page.lines[i];
}

ExternalMemory::LineRec &
ExternalMemory::sealedLine(Addr addr)
{
    Addr line_addr = align(addr);
    LineRec &rec = materialize(line_addr);
    if (!rec.sealed) {
        rec.mac = mac_.compute(line_addr, rec.counter, rec.bytes.data(),
                               kExtLineBytes);
        ctr_.transcode(line_addr, rec.counter, rec.bytes.data(),
                       rec.bytes.data(), kExtLineBytes);
        rec.sealed = true;
    }
    return rec;
}

FetchedLine
ExternalMemory::fetchLine(Addr line_addr)
{
    line_addr = align(line_addr);
    ++fetches_;
    LineRec &rec = materialize(line_addr);

    FetchedLine out;
    out.counter = rec.counter;
    if (!rec.sealed) {
        out.plain = rec.bytes;
        return out;
    }
    ctr_.transcode(line_addr, rec.counter, rec.bytes.data(),
                   out.plain.data(), kExtLineBytes);
    std::uint64_t mac = mac_.compute(line_addr, rec.counter,
                                     out.plain.data(), kExtLineBytes);
    out.macOk = (mac == rec.mac);
    if (!out.macOk)
        ++macFailures_;
    return out;
}

void
ExternalMemory::storeLine(Addr line_addr, const std::uint8_t *plain)
{
    ++stores_;
    LineRec &rec = materialize(line_addr);
    ++rec.counter; // new version: fresh pad, replay protection
    std::memcpy(rec.bytes.data(), plain, kExtLineBytes);
    rec.sealed = false;
}

void
ExternalMemory::provision(Addr addr, const std::uint8_t *bytes,
                          std::size_t len)
{
    forEachChunk(addr, len, kExtLineBytes,
                 [&](Addr chunk_addr, std::size_t done, std::size_t n) {
                     Addr line_addr = align(chunk_addr);
                     LineRec &rec = materialize(line_addr);
                     if (rec.sealed) {
                         ctr_.transcode(line_addr, rec.counter,
                                        rec.bytes.data(), rec.bytes.data(),
                                        kExtLineBytes);
                         rec.sealed = false;
                     }
                     std::memcpy(rec.bytes.data() + (chunk_addr - line_addr),
                                 bytes + done, n);
                 });
}

std::uint64_t
ExternalMemory::counterOf(Addr line_addr) const
{
    const Page *page = pages_.find(line_addr);
    return page ? page->lines[lineIndex(line_addr)].counter : 0;
}

void
ExternalMemory::tamper(Addr addr, const std::uint8_t *mask,
                       std::size_t mask_len)
{
    ++tamperEvents_;
    forEachChunk(addr, mask_len, kExtLineBytes,
                 [&](Addr chunk_addr, std::size_t done, std::size_t n) {
                     std::uint8_t *p = sealedLine(chunk_addr).bytes.data() +
                                       (chunk_addr - align(chunk_addr));
                     for (std::size_t i = 0; i < n; ++i)
                         p[i] ^= mask[done + i];
                 });
}

std::vector<std::uint8_t>
ExternalMemory::readCiphertext(Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    forEachChunk(addr, len, kExtLineBytes,
                 [&](Addr chunk_addr, std::size_t done, std::size_t n) {
                     std::memcpy(out.data() + done,
                                 sealedLine(chunk_addr).bytes.data() +
                                     (chunk_addr - align(chunk_addr)),
                                 n);
                 });
    return out;
}

} // namespace acp::secmem
