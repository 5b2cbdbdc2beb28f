#include "secmem/secure_memctrl.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/auth_policy.hh"
#include "obs/path_profiler.hh"

namespace acp::secmem
{

SecureMemCtrl::SecureMemCtrl(const sim::SimConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), layout_(cfg.memoryBytes), ext_(seed), bus_(cfg.numCores),
      dram_(bus_),
      engine_(cfg.authLatency, cfg.authEngineInterval, cfg.numCores),
      counterCache_("counter_cache", cfg.counterCache), stats_("memctrl")
{
    if (core::verifies(cfg.policy) && cfg.hashTreeEnabled)
        tree_ = std::make_unique<HashTree>(cfg, ext_);
    if (core::obfuscates(cfg.policy))
        remap_ = std::make_unique<RemapLayer>(cfg);
    if (cfg.counterPrediction &&
        cfg.encryptionMode == sim::EncryptionMode::kCounterMode)
        predictor_ = std::make_unique<CounterPredictor>();

    stats_.addCounter("fetches", &fetches_);
    stats_.addCounter("writebacks", &writebacks_);
    stats_.addCounter("counter_misses", &counterMisses_);
    stats_.addCounter("fetch_gate_stalls", &fetchGateStalls_);
    stats_.addAverage("fetch_gate_delay", &fetchGateDelay_);
    stats_.addAverage("decrypt_verify_gap", &decryptGap_);
    stats_.addAverage("fill_latency", &fillLatency_);
    stats_.addDistribution("decrypt_verify_gap_hist", &decryptGapHist_);
    stats_.addDistribution("fill_latency_hist", &fillLatencyHist_);
}

std::vector<StatGroup *>
SecureMemCtrl::statGroups()
{
    std::vector<StatGroup *> groups = {&stats_, &engine_.stats(),
                                       &bus_.stats(), &dram_.stats(),
                                       &counterCache_.stats(),
                                       &ext_.stats()};
    if (tree_)
        groups.push_back(&tree_->stats());
    if (remap_)
        groups.push_back(&remap_->stats());
    if (predictor_)
        groups.push_back(&predictor_->stats());
    return groups;
}

Cycle
SecureMemCtrl::dramAccess(Addr addr, Cycle cycle, unsigned bytes,
                          bool is_write, mem::BusTxnKind kind,
                          mem::Txn &txn)
{
    mem::DramResult res = dram_.access(addr, cycle, bytes, is_write,
                                       txn.client);
    // Latch the bus-queueing window of the transaction's *primary*
    // transfer (its own line, not metadata). The first one wins, as a
    // cross-line access keeps its first fill's (MemHierarchy::ensureL2).
    if (kind == txn.kind && txn.busGrantAt == kCycleNever) {
        txn.busRequestAt = res.busRequest;
        txn.busGrantAt = res.busGrant;
    }
    // Adversary model: the address is exposed when the request enters
    // the off-chip queue (conservative — an attacker on the DIMM
    // interface sees it before the bank/bus grant it waits for). The
    // Txn timeline separately records the actual grant cycle.
    trace_.record(cycle, addr, kind, txn.client);
    note(txn, mem::PathEvent::kBusGrant, res.busGrant, addr);
    note(txn, mem::PathEvent::kDramFirstBeat, res.firstBeat, addr);
    note(txn, mem::PathEvent::kDramComplete, res.complete, addr);
    return res.complete;
}

void
SecureMemCtrl::retire(const mem::Txn &txn)
{
    if (!txn.macOk && !firstBadFill_)
        firstBadFill_ =
            core::BadFill{txn.reqCycle, txn.dataReady, txn.verifyDone};
    if (profiler_)
        profiler_->record(txn);
    if (keepRetired_)
        retired_.push_back(txn);
}

Cycle
SecureMemCtrl::admit(Cycle req_cycle)
{
    // Drop completed entries.
    std::erase_if(inflight_, [&](Cycle c) { return c <= req_cycle; });
    if (inflight_.size() < cfg_.maxOutstandingFetches)
        return req_cycle;
    // Full: wait for the earliest outstanding fill to complete.
    auto min_it = std::min_element(inflight_.begin(), inflight_.end());
    Cycle start = *min_it;
    inflight_.erase(min_it);
    return start;
}

MetaAccess
SecureMemCtrl::touchCounter(Addr line_addr, Cycle cycle, bool make_dirty,
                            const MetaPort &port)
{
    MetaAccess ctr =
        touchMetaLine(counterCache_, layout_.counterLine(line_addr), cycle,
                      port, make_dirty);
    if (ctr.missed)
        ++counterMisses_;
    return ctr;
}

mem::Txn
SecureMemCtrl::fetchLine(Addr line_addr, Cycle req_cycle, AuthSeq gate_tag,
                         mem::BusTxnKind kind, bool warm,
                         std::uint64_t origin, unsigned client)
{
    ++fetches_;
    mem::Txn txn;
    txn.id = ++txnSeq_;
    txn.addr = line_addr;
    txn.kind = kind;
    txn.gateTag = gate_tag;
    txn.reqCycle = req_cycle;
    txn.origin = origin;
    txn.client = client;

    // Functional transfer first (always happens).
    FetchedLine fetched = ext_.fetchLine(line_addr);
    txn.data = fetched.plain;
    txn.macOk = fetched.macOk;

    const core::AuthPolicy policy = cfg_.policy;
    bool verify = core::verifies(policy);

    if (warm) {
        // Warm the metadata caches too, but no timing.
        MetaPort warm_port(*this, txn, kind, true);
        touchCounter(line_addr, 0, false, warm_port);
        if (remap_)
            remap_->translate(line_addr, 0, warm_port);
        return txn;
    }

    note(txn, mem::PathEvent::kRequest, req_cycle, line_addr);

    // 1. MSHR admission.
    Cycle start = admit(req_cycle);
    note(txn, mem::PathEvent::kMshrAdmit, start, line_addr);

    // 2. authen-then-fetch gate.
    if (core::gatesFetch(policy)) {
        AuthSeq tag = cfg_.fetchGateDrain ? engine_.lastRequest() : gate_tag;
        txn.gateTag = tag; // the tag the gate actually waits on
        // A fetch whose gate tag covers a *failed* verification is
        // never granted: the security exception squashes it. Return a
        // never-ready fill without touching the bus (no address leak).
        // The failure view is the requesting client's own: a tampered
        // line on a neighbour core does not squash this core's fetch.
        if (engine_.neverVerifies(tag, client)) {
            txn.ready = kCycleNever;
            txn.dataReady = kCycleNever;
            txn.verifyDone = kCycleNever;
            txn.authSeq = kNoAuthSeq;
            txn.data.fill(0);
            retire(txn);
            return txn;
        }
        Cycle gate_done = engine_.doneCycle(tag);
        if (gate_done > start) {
            ++fetchGateStalls_;
            fetchGateDelay_.sample(double(gate_done - start));
            txn.gateDelayed = true;
            note(txn, mem::PathEvent::kFetchGateRelease, gate_done,
                 line_addr);
            start = gate_done;
        }
    }

    MetaPort tree_port(*this, txn, mem::BusTxnKind::kTreeNodeFetch,
                       false);

    // 3. Address obfuscation.
    Addr phys = line_addr;
    if (remap_) {
        MetaPort remap_port(*this, txn, mem::BusTxnKind::kRemapFetch,
                            false);
        RemapResult tr = remap_->translate(line_addr, start, remap_port);
        phys = tr.physAddr;
        start = tr.readyAt;
        note(txn, mem::PathEvent::kRemapTranslate, start, phys);
    }

    // 4-6. Counter lookup, pad generation and decrypt timing.
    Cycle data_arrive;
    Cycle mac_ready; // when the integrity check's inputs are complete
    if (cfg_.encryptionMode == sim::EncryptionMode::kCounterMode) {
        // Counter lookup; pad generation overlaps the data fetch.
        MetaPort ctr_port(*this, txn, mem::BusTxnKind::kCounterFetch,
                          false);
        MetaAccess ctr = touchCounter(line_addr, start, false, ctr_port);
        note(txn, mem::PathEvent::kCounterReady, ctr.ready,
             layout_.counterLine(line_addr));
        Cycle pad_ready = ctr.ready + kDecryptLatency;

        // [19]: on a counter-cache miss, predicted pads are computed
        // in parallel with the fetch; a window hit removes the counter
        // fetch from the decryption critical path entirely.
        if (ctr.missed && predictor_ &&
            predictor_->predictAndResolve(line_addr, fetched.counter))
            pad_ready = start + kDecryptLatency;

        data_arrive = dramAccess(phys, start, kLineTransferBytes, false,
                                 kind, txn);
        // Decrypt: max(fetch, pad) — Table 1, counter mode.
        txn.dataReady = std::max(data_arrive, pad_ready);
        mac_ready = txn.dataReady;
    } else {
        // CBC: decryption is serial per 16-byte chunk and can only
        // start once the ciphertext arrives (Table 1, second row).
        // Critical-word delivery: the consumer's chunk is ready after
        // (chunks+1)/2 serial passes on average; CBC-MAC needs the
        // full line plus a final chaining pass.
        data_arrive = dramAccess(phys, start, kLineTransferBytes, false,
                                 kind, txn);
        unsigned chunks = kExtLineBytes / 16;
        txn.dataReady = data_arrive +
                        Cycle((chunks + 1) / 2) * kDecryptLatency;
        mac_ready = data_arrive + Cycle(chunks + 1) * kDecryptLatency;
    }
    note(txn, mem::PathEvent::kDecryptDone, txn.dataReady, line_addr);
    fillLatency_.sample(double(txn.dataReady - req_cycle));
    fillLatencyHist_.sample(txn.dataReady - req_cycle);

    // 7. Authentication.
    if (verify) {
        Cycle extra = mac_ready > txn.dataReady
                          ? mac_ready - txn.dataReady
                          : 0;
        if (tree_) {
            TreeTiming tt = tree_->verify(line_addr, data_arrive,
                                          tree_port);
            if (!tt.ok)
                txn.macOk = false;
            if (tt.readyAt > txn.dataReady &&
                tt.readyAt - txn.dataReady > extra)
                extra = tt.readyAt - txn.dataReady;
        }
        txn.authSeq = engine_.post(txn.dataReady, extra, txn.macOk,
                                   client);
        txn.verifyDone = engine_.doneCycle(txn.authSeq);
        // The request was posted at dataReady (kDecryptDone), so the
        // kDecryptDone -> kVerifyDone delta is this request's
        // auth.verify_latency sample.
        note(txn, mem::PathEvent::kVerifyDone, txn.verifyDone, line_addr);
        decryptGap_.sample(double(txn.verifyDone - txn.dataReady));
        decryptGapHist_.sample(txn.verifyDone - txn.dataReady);
    } else {
        txn.authSeq = kNoAuthSeq;
        txn.verifyDone = txn.dataReady;
    }

    // Usability is the controller's call: under an issue-gating policy
    // the line is not pipeline-usable until the verdict (and never, if
    // the verdict is a failure — the exception fires first).
    txn.ready = core::gatesIssue(policy) ? txn.verifyDone : txn.dataReady;
    if (core::gatesIssue(policy) && !txn.macOk)
        txn.ready = kCycleNever;

    inflight_.push_back(txn.dataReady);
    retire(txn);
    return txn;
}

mem::Txn
SecureMemCtrl::writebackLine(Addr line_addr, const std::uint8_t *data,
                             Cycle cycle, bool warm, unsigned client)
{
    ++writebacks_;
    mem::Txn txn;
    txn.id = ++txnSeq_;
    txn.addr = line_addr;
    txn.kind = mem::BusTxnKind::kWriteback;
    txn.reqCycle = cycle;
    txn.client = client;

    // Functional: store the new line version (counter bump).
    ext_.storeLine(line_addr, data);
    if (predictor_)
        predictor_->onWriteback(line_addr, ext_.counterOf(line_addr));

    if (warm) {
        MetaPort warm_port(*this, txn, txn.kind, true);
        touchCounter(line_addr, 0, true, warm_port);
        if (tree_)
            tree_->update(line_addr, 0, warm_port);
        return txn;
    }

    note(txn, mem::PathEvent::kRequest, cycle, line_addr);

    // Counter line is written (dirty in the counter cache).
    MetaPort ctr_port(*this, txn, mem::BusTxnKind::kCounterFetch, false);
    Cycle ready = touchCounter(line_addr, cycle, true, ctr_port).ready;
    note(txn, mem::PathEvent::kCounterReady, ready,
         layout_.counterLine(line_addr));

    // Tree path update (timing + functional).
    if (tree_) {
        MetaPort tree_port(*this, txn, mem::BusTxnKind::kTreeNodeFetch,
                           false);
        TreeTiming tt = tree_->update(line_addr, ready, tree_port);
        ready = tt.readyAt;
    }

    // Re-shuffle under obfuscation.
    Addr phys = line_addr;
    if (remap_) {
        MetaPort remap_port(*this, txn, mem::BusTxnKind::kRemapFetch,
                            false);
        RemapResult sh = remap_->shuffle(line_addr, ready, remap_port);
        phys = sh.physAddr;
        ready = sh.readyAt;
        note(txn, mem::PathEvent::kRemapTranslate, ready, phys);
    }

    Cycle complete = dramAccess(phys, ready, kLineTransferBytes, true,
                                mem::BusTxnKind::kWriteback, txn);
    note(txn, mem::PathEvent::kWriteback, complete, phys);
    txn.ready = complete;
    txn.dataReady = complete;
    txn.verifyDone = complete;
    retire(txn);
    return txn;
}

} // namespace acp::secmem
