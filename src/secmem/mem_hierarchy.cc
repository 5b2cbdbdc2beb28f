#include "secmem/mem_hierarchy.hh"

#include <algorithm>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/auth_policy.hh"

namespace acp::secmem
{

MemHierarchy::CoreCaches::CoreCaches(const sim::SimConfig &cfg,
                                     unsigned client,
                                     const std::string &prefix)
    : client(client), l1i(prefix + "l1i", kL1iCache),
      l1d(prefix + "l1d", cfg.l1d), l2(prefix + "l2", cfg.l2),
      itlb(prefix + "itlb", kTlbEntries, kTlbAssoc, kPageBytes,
           kTlbMissPenalty),
      dtlb(prefix + "dtlb", kTlbEntries, kTlbAssoc, kPageBytes,
           kTlbMissPenalty)
{
}

MemHierarchy::MemHierarchy(const sim::SimConfig &cfg)
    : cfg_(cfg), ctrl_(cfg, cfg.rngSeed), stats_("hier")
{
    if (!isPowerOfTwo(cfg.memoryBytes))
        acp_fatal("memory size must be a power of two");
    if (cfg.l2.lineBytes != kExtLineBytes)
        acp_fatal("L2 line size must match external line size (%u)",
                  kExtLineBytes);
    if (cfg.l1d.lineBytes > cfg.l2.lineBytes)
        acp_fatal("L1 lines must not exceed the L2 line size");

    stats_.addCounter("translation_faults", &faults_);
    stats_.addCounter("cross_line_accesses", &crossLineAccesses_);

    // One private cache stack per client. A single-core system keeps
    // the classic unprefixed stat names; multi-core stacks are
    // "cpuN."-prefixed.
    cores_.reserve(cfg.numCores);
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        std::string prefix =
            cfg.numCores > 1 ? "cpu" + std::to_string(i) + "." : "";
        cores_.push_back(std::make_unique<CoreCaches>(cfg, i, prefix));
    }

    // Carve the address space into power-of-two per-client slices. One
    // client keeps the whole space (stride == memoryBytes, base 0).
    Addr slots = 1;
    while (slots < cfg.numCores)
        slots <<= 1;
    stride_ = cfg.memoryBytes / slots;
}

std::vector<StatGroup *>
MemHierarchy::statGroups()
{
    std::vector<StatGroup *> groups = {&stats_};
    for (auto &c : cores_)
        groups.insert(groups.end(),
                      {&c->l1i.stats(), &c->l1d.stats(), &c->l2.stats(),
                       &c->itlb.stats(), &c->dtlb.stats()});
    for (StatGroup *g : ctrl_.statGroups())
        groups.push_back(g);
    return groups;
}

Addr
MemHierarchy::translate(Addr addr)
{
    if (addr >= cfg_.memoryBytes) {
        ++faults_;
        addr &= (cfg_.memoryBytes - 1);
    }
    return addr;
}

void
MemHierarchy::handleL2Eviction(CoreCaches &c, cache::Eviction &evicted,
                               Cycle cycle, bool warm)
{
    if (!evicted.valid)
        return;

    // Back-invalidate L1 copies (inclusive hierarchy), merging dirty
    // sublines into the outgoing data.
    for (cache::Cache *l1 : {&c.l1i, &c.l1d}) {
        for (Addr sub = evicted.addr;
             sub < evicted.addr + c.l2.lineBytes(); sub += l1->lineBytes()) {
            cache::Eviction sub_ev;
            if (l1->invalidate(sub, sub_ev) && sub_ev.dirty) {
                std::memcpy(evicted.data.data() + (sub - evicted.addr),
                            sub_ev.data.data(), l1->lineBytes());
                evicted.dirty = true;
            }
        }
    }

    if (evicted.dirty)
        ctrl_.writebackLine(evicted.addr, evicted.data.data(), cycle, warm,
                            c.client);
}

void
MemHierarchy::foldLine(Access &acc, Cycle lookup_done,
                       const cache::CacheLine &line)
{
    acc.ready = std::max({acc.ready, lookup_done, line.usableAt});
    acc.dataReady = std::max({acc.dataReady, lookup_done, line.dataReadyAt});
    acc.authSeq = std::max(acc.authSeq, line.authSeq);
}

cache::CacheLine *
MemHierarchy::ensureL2(CoreCaches &c, Addr line_addr, Cycle cycle,
                       mem::BusTxnKind kind, Access *acc)
{
    cache::CacheLine *line = c.l2.lookup(line_addr);
    if (line != nullptr)
        return line;

    // A warm fill takes the controller's untimed branch, which moves
    // the data and warms the metadata caches but touches no bus,
    // DRAM, auth engine, trace or profiler.
    const bool warm = acc == nullptr;
    const Cycle lookup_done = cycle + c.l2.hitLatency();
    mem::Txn fill =
        warm ? ctrl_.fetchLine(line_addr, 0, kNoAuthSeq, kind, true)
             : ctrl_.fetchLine(line_addr, lookup_done, acc->gateTag, kind,
                               false, acc->origin, c.client);

    cache::Eviction evicted;
    line = c.l2.allocate(line_addr, evicted);
    handleL2Eviction(c, evicted, lookup_done, warm);

    std::memcpy(line->data.data(), fill.data.data(), kExtLineBytes);
    if (warm)
        return line; // allocate() left the line's timing at zero
    // The controller already applied the policy's usability decision
    // (verification under authen-then-issue; kCycleNever on failure).
    // The access reads this timing from its L1 line; it takes here
    // only what no line carries.
    line->usableAt = fill.ready;
    line->authSeq = fill.authSeq;
    line->dataReadyAt = fill.dataReady;
    acc->gateDelayed = acc->gateDelayed || fill.gateDelayed;
    if (acc->busGrantAt == kCycleNever) { // the first fill's window wins
        acc->busRequestAt = fill.busRequestAt;
        acc->busGrantAt = fill.busGrantAt;
    }
    return line;
}

cache::CacheLine *
MemHierarchy::ensureL1(CoreCaches &c, Addr line_addr, Cycle cycle,
                       bool is_instr, Access *acc)
{
    cache::Cache &l1 = is_instr ? c.l1i : c.l1d;
    cache::CacheLine *line = l1.lookup(line_addr);
    const Cycle lookup_done = cycle + l1.hitLatency();
    if (line == nullptr) {
        cache::CacheLine *l2line =
            ensureL2(c, c.l2.lineAlign(line_addr), lookup_done,
                     is_instr ? mem::BusTxnKind::kInstrFetch
                              : mem::BusTxnKind::kDataFetch,
                     acc);

        cache::Eviction evicted;
        line = l1.allocate(line_addr, evicted);
        if (evicted.valid && evicted.dirty) {
            // Inclusive hierarchy: the parent line must still be in L2.
            cache::CacheLine *parent = c.l2.lookup(
                c.l2.lineAlign(evicted.addr), /*touch=*/false);
            if (parent == nullptr)
                acp_panic("inclusion violated: dirty L1 victim 0x%llx "
                          "not in L2",
                          (unsigned long long)evicted.addr);
            std::memcpy(parent->data.data() +
                            (evicted.addr & (c.l2.lineBytes() - 1)),
                        evicted.data.data(), l1.lineBytes());
            parent->dirty = true;
        }

        std::memcpy(line->data.data(),
                    l2line->data.data() +
                        (line_addr & (c.l2.lineBytes() - 1)),
                    l1.lineBytes());
        if (acc != nullptr) {
            // A timed fill takes its L2 line's timing as of the L2
            // lookup, not the whole access's.
            const Cycle l2_done = lookup_done + c.l2.hitLatency();
            line->usableAt = std::max(l2_done, l2line->usableAt);
            line->dataReadyAt = std::max(l2_done, l2line->dataReadyAt);
            line->authSeq = l2line->authSeq;
        }
    }
    if (acc != nullptr)
        foldLine(*acc, lookup_done, *line);
    return line;
}

inline std::uint64_t
MemHierarchy::walkData(unsigned client, Addr addr, unsigned bytes,
                       bool write, std::uint64_t value, Cycle cycle,
                       Access *acc)
{
    CoreCaches &c = cc(client);
    addr = translate(clientBase(client) + addr);
    cycle += c.dtlb.access(addr);
    // hier.cross_line_accesses counts timed loads only, not stores or
    // warm accesses (docs/MEMORY_MODEL.md).
    if (acc != nullptr && !write &&
        (addr & (c.l1d.lineBytes() - 1)) + bytes > c.l1d.lineBytes())
        ++crossLineAccesses_;

    std::uint64_t read = 0;
    unsigned done = 0;
    while (done < bytes) {
        Addr byte_addr = translate(addr + done);
        Addr line_addr = c.l1d.lineAlign(byte_addr);
        unsigned in_line = unsigned(
            std::min<std::uint64_t>(bytes - done,
                                    line_addr + c.l1d.lineBytes() -
                                        byte_addr));

        cache::CacheLine *line = ensureL1(c, line_addr, cycle, false, acc);
        std::uint8_t *data = line->data.data() + (byte_addr - line_addr);
        if (write) {
            for (unsigned i = 0; i < in_line; ++i)
                data[i] = std::uint8_t(value >> (8 * (done + i)));
            line->dirty = true;
        } else {
            for (unsigned i = 0; i < in_line; ++i)
                read |= std::uint64_t(data[i]) << (8 * (done + i));
        }
        done += in_line;
    }
    return read;
}

inline const std::uint8_t *
MemHierarchy::walkFetch(unsigned client, Addr pc, Cycle cycle,
                        std::uint32_t &word, Access *acc)
{
    CoreCaches &c = cc(client);
    const Addr addr = clientBase(client) + pc;
    pc = translate(addr);
    cycle += c.itlb.access(pc);
    const std::uint8_t *bytes =
        ensureL1(c, c.l1i.lineAlign(pc), cycle, true, acc)->data.data();
    word = lineWord(bytes, pc);
    return pc == addr ? bytes : nullptr;
}

Access
MemHierarchy::readTimed(Addr addr, unsigned bytes, Cycle cycle,
                        AuthSeq gate_tag, std::uint64_t &value,
                        std::uint64_t origin, unsigned client)
{
    Access acc{gate_tag, origin};
    value = walkData(client, addr, bytes, false, 0, cycle, &acc);
    return acc;
}

Access
MemHierarchy::writeTimed(Addr addr, unsigned bytes, std::uint64_t value,
                         Cycle cycle, AuthSeq gate_tag, unsigned client)
{
    Access acc{gate_tag};
    walkData(client, addr, bytes, true, value, cycle, &acc);
    return acc;
}

Access
MemHierarchy::fetchTimed(Addr pc, Cycle cycle, AuthSeq gate_tag,
                         std::uint32_t &word, const std::uint8_t *&line,
                         unsigned client)
{
    Access acc{gate_tag};
    line = walkFetch(client, pc, cycle, word, &acc);
    return acc;
}

void
MemHierarchy::countFetchHits(unsigned n, unsigned client)
{
    CoreCaches &c = cc(client);
    c.itlb.countHits(n);
    c.l1i.countHits(n);
}

std::uint64_t
MemHierarchy::readWarm(Addr addr, unsigned bytes, unsigned client)
{
    return walkData(client, addr, bytes, false, 0, 0, nullptr);
}

void
MemHierarchy::writeWarm(Addr addr, unsigned bytes, std::uint64_t value,
                        unsigned client)
{
    walkData(client, addr, bytes, true, value, 0, nullptr);
}

std::uint32_t
MemHierarchy::fetchWarm(Addr pc, unsigned client)
{
    std::uint32_t word = 0;
    walkFetch(client, pc, 0, word, nullptr);
    return word;
}

void
MemHierarchy::loadProgram(const isa::Program &prog, Addr base)
{
    ExternalMemory &ext = ctrl_.externalMemory();
    std::vector<std::uint8_t> code_bytes(prog.code.size() * 4);
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        for (unsigned b = 0; b < 4; ++b)
            code_bytes[4 * i + b] = std::uint8_t(prog.code[i] >> (8 * b));
    ext.provision(base + prog.codeBase, code_bytes.data(), code_bytes.size());

    for (const isa::DataSegment &seg : prog.data)
        ext.provision(base + seg.base, seg.bytes.data(), seg.bytes.size());
}

} // namespace acp::secmem
