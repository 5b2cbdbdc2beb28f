#include "secmem/mem_hierarchy.hh"

#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/auth_policy.hh"

namespace acp::secmem
{

MemHierarchy::CoreCaches::CoreCaches(const sim::SimConfig &cfg,
                                     const std::string &prefix)
    : l1i(prefix + "l1i", cfg.l1i), l1d(prefix + "l1d", cfg.l1d),
      l2(prefix + "l2", cfg.l2),
      itlb(prefix + "itlb", cfg.tlbEntries, cfg.tlbAssoc, cfg.pageBytes,
           cfg.tlbMissPenalty),
      dtlb(prefix + "dtlb", cfg.tlbEntries, cfg.tlbAssoc, cfg.pageBytes,
           cfg.tlbMissPenalty)
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
    if (cfg.l1d.lineBytes > cfg.l2.lineBytes ||
        cfg.l1i.lineBytes > cfg.l2.lineBytes)
        acp_fatal("L1 lines must not exceed the L2 line size");

    stats_.addCounter("translation_faults", &faults_);
    stats_.addCounter("cross_line_accesses", &crossLineAccesses_);

    // One private cache stack per client. A single-core system keeps
    // the classic unprefixed stat names; multi-core stacks are
    // "cpuN."-prefixed.
    unsigned n = cfg.numCores > 1 ? cfg.numCores : 1;
    cores_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        std::string prefix =
            cfg.numCores > 1 ? "cpu" + std::to_string(i) + "." : "";
        cores_.push_back(std::make_unique<CoreCaches>(cfg, prefix));
    }

    // Carve the address space into power-of-two per-client slices and
    // declare the shared backend multi-client. One client keeps the
    // whole space (stride == memoryBytes, base 0) and registers no
    // per-client state anywhere — the classic single-core shape.
    Addr slots = 1;
    while (slots < cfg.numCores)
        slots <<= 1;
    stride_ = cfg.memoryBytes / slots;
    ctrl_.registerClients(cfg.numCores);
}

unsigned
MemHierarchy::registerClient()
{
    if (nextClient_ >= cfg_.numCores)
        acp_fatal("registerClient: %u clients exceed numCores=%u",
                  nextClient_ + 1, cfg_.numCores);
    return nextClient_++;
}

void
MemHierarchy::visitStats(StatGroupVisitor &v)
{
    v.group(stats_);
    for (auto &c : cores_) {
        v.group(c->l1i.stats());
        v.group(c->l1d.stats());
        v.group(c->l2.stats());
        v.group(c->itlb.stats());
        v.group(c->dtlb.stats());
    }
    ctrl_.visitStats(v);
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
                               Cycle cycle, bool warm, unsigned client)
{
    if (!evicted.valid)
        return;

    // Back-invalidate L1 copies (inclusive hierarchy), merging dirty
    // sublines into the outgoing data.
    for (cache::Cache *l1 : {&c.l1i, &c.l1d}) {
        for (Addr sub = evicted.addr;
             sub < evicted.addr + c.l2.lineBytes(); sub += l1->lineBytes()) {
            cache::Eviction sub_ev;
            if (l1->invalidate(sub, &sub_ev) && sub_ev.dirty) {
                std::memcpy(evicted.data.data() + (sub - evicted.addr),
                            sub_ev.data.data(), l1->lineBytes());
                evicted.dirty = true;
            }
        }
    }

    if (evicted.dirty)
        ctrl_.writebackLine(evicted.addr, evicted.data.data(), cycle, warm,
                            /*origin=*/0, client);
}

void
MemHierarchy::foldLine(mem::Txn &acc, Cycle lookup_done,
                       const cache::CacheLine &line)
{
    Cycle usable = lookup_done > line.usableAt ? lookup_done
                                               : line.usableAt;
    Cycle data = lookup_done > line.dataReadyAt ? lookup_done
                                                : line.dataReadyAt;
    if (usable > acc.ready)
        acc.ready = usable;
    if (data > acc.dataReady)
        acc.dataReady = data;
    if (line.authSeq > acc.authSeq)
        acc.authSeq = line.authSeq;
}

cache::CacheLine *
MemHierarchy::ensureL2(CoreCaches &c, Addr line_addr, Cycle cycle,
                       AuthSeq gate_tag, mem::BusTxnKind kind, mem::Txn &acc)
{
    cache::CacheLine *line = c.l2.lookup(line_addr);
    Cycle lookup_done = cycle + c.l2.hitLatency();
    if (line != nullptr) {
        foldLine(acc, lookup_done, *line);
        return line;
    }

    mem::Txn fill = ctrl_.fetchLine(line_addr, lookup_done, gate_tag,
                                    kind, false, acc.origin, acc.client);

    cache::Eviction evicted;
    line = c.l2.allocate(line_addr, &evicted);
    handleL2Eviction(c, evicted, lookup_done, false, acc.client);

    std::memcpy(line->data.data(), fill.data.data(), kExtLineBytes);
    // The controller already applied the policy's usability decision
    // (verification under authen-then-issue; kCycleNever on failure).
    line->usableAt = fill.ready;
    line->authSeq = fill.authSeq;
    line->dataReadyAt = fill.dataReady;

    acc.merge(fill);
    return line;
}

cache::CacheLine *
MemHierarchy::ensureL1(CoreCaches &c, Addr line_addr, Cycle cycle,
                       AuthSeq gate_tag, bool is_instr, mem::Txn &acc)
{
    cache::Cache &l1 = is_instr ? c.l1i : c.l1d;
    cache::CacheLine *line = l1.lookup(line_addr);
    Cycle lookup_done = cycle + l1.hitLatency();
    if (line != nullptr) {
        foldLine(acc, lookup_done, *line);
        return line;
    }

    Addr l2_line = c.l2.lineAlign(line_addr);
    mem::Txn sub;
    sub.addr = l2_line;
    sub.gateTag = gate_tag;
    sub.reqCycle = lookup_done;
    sub.origin = acc.origin;
    sub.client = acc.client;
    cache::CacheLine *l2line =
        ensureL2(c, l2_line, lookup_done, gate_tag,
                 is_instr ? mem::BusTxnKind::kInstrFetch
                          : mem::BusTxnKind::kDataFetch,
                 sub);

    cache::Eviction evicted;
    line = l1.allocate(line_addr, &evicted);
    if (evicted.valid && evicted.dirty) {
        // Inclusive hierarchy: the parent line must still be in L2.
        cache::CacheLine *parent = c.l2.lookup(c.l2.lineAlign(evicted.addr),
                                               /*touch=*/false);
        if (parent == nullptr)
            acp_panic("inclusion violated: dirty L1 victim 0x%llx not in L2",
                      (unsigned long long)evicted.addr);
        std::memcpy(parent->data.data() +
                        (evicted.addr & (c.l2.lineBytes() - 1)),
                    evicted.data.data(), l1.lineBytes());
        parent->dirty = true;
    }

    std::memcpy(line->data.data(),
                l2line->data.data() + (line_addr & (c.l2.lineBytes() - 1)),
                l1.lineBytes());
    line->usableAt = sub.ready;
    line->authSeq = sub.authSeq;
    line->dataReadyAt = sub.dataReady;

    acc.merge(sub);
    return line;
}

mem::Txn
MemHierarchy::readTimed(Addr addr, unsigned bytes, Cycle cycle,
                        AuthSeq gate_tag, std::uint64_t &value,
                        std::uint64_t origin, unsigned client)
{
    CoreCaches &c = cc(client);
    addr = translate(clientBase(client) + addr);
    cycle += c.dtlb.access(addr);

    mem::Txn out;
    out.addr = addr;
    out.gateTag = gate_tag;
    out.reqCycle = cycle;
    out.origin = origin;
    out.client = client;

    value = 0;
    unsigned done = 0;
    while (done < bytes) {
        Addr byte_addr = translate(addr + done);
        Addr line_addr = c.l1d.lineAlign(byte_addr);
        unsigned in_line = unsigned(
            std::min<std::uint64_t>(bytes - done,
                                    line_addr + c.l1d.lineBytes() -
                                        byte_addr));
        if (done == 0 && in_line < bytes)
            ++crossLineAccesses_;

        cache::CacheLine *line =
            ensureL1(c, line_addr, cycle, gate_tag, false, out);
        for (unsigned i = 0; i < in_line; ++i) {
            value |= std::uint64_t(line->data[byte_addr - line_addr + i])
                     << (8 * (done + i));
        }
        done += in_line;
    }
    return out;
}

mem::Txn
MemHierarchy::writeTimed(Addr addr, unsigned bytes, std::uint64_t value,
                         Cycle cycle, AuthSeq gate_tag,
                         std::uint64_t origin, unsigned client)
{
    CoreCaches &c = cc(client);
    addr = translate(clientBase(client) + addr);
    cycle += c.dtlb.access(addr);

    mem::Txn out;
    out.addr = addr;
    out.gateTag = gate_tag;
    out.reqCycle = cycle;
    out.origin = origin;
    out.client = client;

    unsigned done = 0;
    while (done < bytes) {
        Addr byte_addr = translate(addr + done);
        Addr line_addr = c.l1d.lineAlign(byte_addr);
        unsigned in_line = unsigned(
            std::min<std::uint64_t>(bytes - done,
                                    line_addr + c.l1d.lineBytes() -
                                        byte_addr));

        cache::CacheLine *line =
            ensureL1(c, line_addr, cycle, gate_tag, false, out);
        for (unsigned i = 0; i < in_line; ++i) {
            line->data[byte_addr - line_addr + i] =
                std::uint8_t(value >> (8 * (done + i)));
        }
        line->dirty = true;
        done += in_line;
    }
    return out;
}

mem::Txn
MemHierarchy::fetchTimed(Addr pc, Cycle cycle, AuthSeq gate_tag,
                         std::uint32_t &word, unsigned client)
{
    CoreCaches &c = cc(client);
    pc = translate(clientBase(client) + pc);
    cycle += c.itlb.access(pc);

    mem::Txn out;
    out.addr = pc;
    out.kind = mem::BusTxnKind::kInstrFetch;
    out.gateTag = gate_tag;
    out.reqCycle = cycle;
    out.client = client;

    Addr line_addr = c.l1i.lineAlign(pc);
    cache::CacheLine *line =
        ensureL1(c, line_addr, cycle, gate_tag, true, out);

    word = 0;
    for (unsigned i = 0; i < 4; ++i)
        word |= std::uint32_t(line->data[pc - line_addr + i]) << (8 * i);
    return out;
}

cache::CacheLine *
MemHierarchy::funcEnsureL2(CoreCaches &c, Addr line_addr, bool warm_tags)
{
    cache::CacheLine *line = c.l2.lookup(line_addr, /*touch=*/warm_tags);
    if (line != nullptr)
        return line;
    if (!warm_tags)
        return nullptr;

    mem::Txn fill = ctrl_.fetchLine(line_addr, 0, kNoAuthSeq,
                                    mem::BusTxnKind::kDataFetch,
                                    /*warm=*/true);
    cache::Eviction evicted;
    line = c.l2.allocate(line_addr, &evicted);
    handleL2Eviction(c, evicted, 0, /*warm=*/true);
    std::memcpy(line->data.data(), fill.data.data(), kExtLineBytes);
    return line;
}

cache::CacheLine *
MemHierarchy::funcEnsureL1(CoreCaches &c, Addr line_addr, bool warm_tags,
                           bool is_instr)
{
    cache::Cache &l1 = is_instr ? c.l1i : c.l1d;
    cache::CacheLine *line = l1.lookup(line_addr, /*touch=*/warm_tags);
    if (line != nullptr)
        return line;
    if (!warm_tags)
        return nullptr;

    cache::CacheLine *l2line = funcEnsureL2(c, c.l2.lineAlign(line_addr),
                                            warm_tags);
    cache::Eviction evicted;
    line = l1.allocate(line_addr, &evicted);
    if (evicted.valid && evicted.dirty) {
        cache::CacheLine *parent = c.l2.lookup(c.l2.lineAlign(evicted.addr),
                                               /*touch=*/false);
        if (parent == nullptr)
            acp_panic("inclusion violated during warm access");
        std::memcpy(parent->data.data() +
                        (evicted.addr & (c.l2.lineBytes() - 1)),
                    evicted.data.data(), l1.lineBytes());
        parent->dirty = true;
    }
    std::memcpy(line->data.data(),
                l2line->data.data() + (line_addr & (c.l2.lineBytes() - 1)),
                l1.lineBytes());
    return line;
}

std::uint64_t
MemHierarchy::funcRead(Addr addr, unsigned bytes, bool warm_tags,
                       unsigned client)
{
    CoreCaches &c = cc(client);
    addr += clientBase(client);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        Addr byte_addr = translate(addr + i);
        std::uint8_t byte_val;
        Addr l1_line = c.l1d.lineAlign(byte_addr);
        cache::CacheLine *line = funcEnsureL1(c, l1_line, warm_tags,
                                              false);
        if (line != nullptr) {
            byte_val = line->data[byte_addr - l1_line];
        } else {
            Addr l2_line = c.l2.lineAlign(byte_addr);
            cache::CacheLine *l2line = c.l2.lookup(l2_line, false);
            if (l2line != nullptr) {
                byte_val = l2line->data[byte_addr - l2_line];
            } else {
                FetchedLine f = ctrl_.externalMemory().fetchLine(l2_line);
                byte_val = f.plain[byte_addr - l2_line];
            }
        }
        value |= std::uint64_t(byte_val) << (8 * i);
    }
    if (warm_tags)
        c.dtlb.access(translate(addr));
    return value;
}

void
MemHierarchy::funcWrite(Addr addr, unsigned bytes, std::uint64_t value,
                        bool warm_tags, unsigned client)
{
    CoreCaches &c = cc(client);
    addr += clientBase(client);
    for (unsigned i = 0; i < bytes; ++i) {
        Addr byte_addr = translate(addr + i);
        std::uint8_t byte_val = std::uint8_t(value >> (8 * i));
        Addr l1_line = c.l1d.lineAlign(byte_addr);
        // Writes always allocate so the dirty byte has a home.
        cache::CacheLine *line = funcEnsureL1(c, l1_line, true, false);
        line->data[byte_addr - l1_line] = byte_val;
        line->dirty = true;
    }
    if (warm_tags)
        c.dtlb.access(translate(addr));
}

std::uint32_t
MemHierarchy::funcFetch(Addr pc, bool warm_tags, unsigned client)
{
    CoreCaches &c = cc(client);
    pc = translate(clientBase(client) + pc);
    Addr line_addr = c.l1i.lineAlign(pc);
    std::uint32_t word = 0;
    cache::CacheLine *line = funcEnsureL1(c, line_addr, warm_tags, true);
    if (line != nullptr) {
        for (unsigned i = 0; i < 4; ++i)
            word |= std::uint32_t(line->data[pc - line_addr + i]) << (8 * i);
    } else {
        Addr l2_line = c.l2.lineAlign(pc);
        cache::CacheLine *l2line = c.l2.lookup(l2_line, false);
        if (l2line != nullptr) {
            for (unsigned i = 0; i < 4; ++i)
                word |= std::uint32_t(l2line->data[pc - l2_line + i])
                        << (8 * i);
        } else {
            FetchedLine f = ctrl_.externalMemory().fetchLine(l2_line);
            for (unsigned i = 0; i < 4; ++i)
                word |= std::uint32_t(f.plain[pc - l2_line + i]) << (8 * i);
        }
    }
    if (warm_tags)
        c.itlb.access(pc);
    return word;
}

void
MemHierarchy::loadProgram(const isa::Program &prog, Addr base)
{
    auto provision = [this](Addr base, const std::uint8_t *bytes,
                            std::size_t len) {
        std::size_t done = 0;
        while (done < len) {
            Addr byte_addr = base + done;
            Addr line_addr = byte_addr & ~Addr(kExtLineBytes - 1);
            std::size_t in_line =
                std::min<std::size_t>(len - done,
                                      line_addr + kExtLineBytes - byte_addr);
            if (in_line == kExtLineBytes) {
                // Full line: no need to fetch-decrypt what is about to
                // be overwritten wholesale.
                ctrl_.externalMemory().provisionLine(line_addr,
                                                     bytes + done);
            } else {
                FetchedLine cur = ctrl_.externalMemory().fetchLine(line_addr);
                std::memcpy(cur.plain.data() + (byte_addr - line_addr),
                            bytes + done, in_line);
                ctrl_.externalMemory().provisionLine(line_addr,
                                                     cur.plain.data());
            }
            done += in_line;
        }
    };

    std::vector<std::uint8_t> code_bytes(prog.code.size() * 4);
    for (std::size_t i = 0; i < prog.code.size(); ++i)
        for (unsigned b = 0; b < 4; ++b)
            code_bytes[4 * i + b] = std::uint8_t(prog.code[i] >> (8 * b));
    provision(base + prog.codeBase, code_bytes.data(), code_bytes.size());

    for (const isa::DataSegment &seg : prog.data)
        provision(base + seg.base, seg.bytes.data(), seg.bytes.size());
}

void
MemHierarchy::flushCaches()
{
    // Per client: merge dirty L1 lines into its L2, then push dirty L2
    // lines out through the shared controller.
    for (unsigned ci = 0; ci < cores_.size(); ++ci) {
        CoreCaches &c = *cores_[ci];
        for (cache::Cache *l1 : {&c.l1d, &c.l1i}) {
            std::vector<std::pair<Addr, std::vector<std::uint8_t>>> dirty;
            l1->forEachLineAddr([&](Addr addr, cache::CacheLine &line) {
                if (line.dirty)
                    dirty.emplace_back(addr, line.data);
            });
            for (auto &[addr, data] : dirty) {
                cache::CacheLine *parent = c.l2.lookup(c.l2.lineAlign(addr),
                                                       false);
                if (parent == nullptr)
                    acp_panic("inclusion violated in flush");
                std::memcpy(parent->data.data() +
                                (addr & (c.l2.lineBytes() - 1)),
                            data.data(), l1->lineBytes());
                parent->dirty = true;
            }
            l1->flushAll();
        }

        std::vector<std::pair<Addr, std::vector<std::uint8_t>>> l2_dirty;
        c.l2.forEachLineAddr([&](Addr addr, cache::CacheLine &line) {
            if (line.dirty)
                l2_dirty.emplace_back(addr, line.data);
        });
        for (auto &[addr, data] : l2_dirty)
            ctrl_.writebackLine(addr, data.data(), 0, /*warm=*/true,
                                /*origin=*/0, ci);
        c.l2.flushAll();
    }
}

} // namespace acp::secmem
