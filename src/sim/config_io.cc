#include "sim/config_io.hh"

#include <cstdio>

namespace acp::sim
{

namespace
{

/** Stands in for any one member's initializer. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

/** How many initializers the aggregate @p T accepts, i.e. its direct
 *  members (a member aggregate counts once: AnyField converts to it
 *  whole, so no brace elision splits it). */
template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

} // namespace

// Tripwire: if this fires you added/removed/resized a SimConfig
// field. Add it to serializeConfig() below (new fields invalidate
// every cached experiment result, which is exactly the point) and
// update the expected count and size. The count catches what the size
// alone misses: a 4-byte field that padding absorbs (deleting lsqSize
// left the size at 400). Exceptions: the observability fields
// (statsInterval, profileEnabled, hostStats) are deliberately NOT
// serialized — interval stats and path profiling are strictly
// passive, so an observed run is bit-identical to (and shares its
// cached result with) the unobserved one. Runs with observability
// enabled are made uncacheable at the exp::Point level instead.
// hostStats is excluded for the same reason: sim.host.* self-metrics
// measure the simulator, never the simulated machine. (--trace is no
// config field at all: System::enableTrace arms it.)
static_assert(fieldCount<SimConfig>() == 55,
              "SimConfig gained or lost a field: update serializeConfig() "
              "in config_io.cc, then the expected count here");
static_assert(fieldCount<CacheConfig>() == 4,
              "CacheConfig gained or lost a field: update emitCache() in "
              "config_io.cc, then the expected count here");
#if defined(__x86_64__) && defined(__linux__)
static_assert(sizeof(SimConfig) == 400,
              "SimConfig layout changed: update serializeConfig() in "
              "config_io.cc, then the expected size here");
#endif

const char *
encryptionModeName(EncryptionMode mode)
{
    switch (mode) {
      case EncryptionMode::kCounterMode: return "counter";
      case EncryptionMode::kCbc:         return "cbc";
    }
    return "?";
}

namespace
{

void
emit(std::string &out, const char *key, std::uint64_t value)
{
    char line[96];
    std::snprintf(line, sizeof(line), "%s=%llu\n", key,
                  (unsigned long long)value);
    out += line;
}

void
emit(std::string &out, const char *key, const char *value)
{
    out += key;
    out += '=';
    out += value;
    out += '\n';
}

void
emitCache(std::string &out, const char *prefix, const CacheConfig &c)
{
    char key[64];
    std::snprintf(key, sizeof(key), "%s.sizeBytes", prefix);
    emit(out, key, c.sizeBytes);
    std::snprintf(key, sizeof(key), "%s.assoc", prefix);
    emit(out, key, c.assoc);
    std::snprintf(key, sizeof(key), "%s.lineBytes", prefix);
    emit(out, key, c.lineBytes);
    std::snprintf(key, sizeof(key), "%s.hitLatency", prefix);
    emit(out, key, c.hitLatency);
}

} // namespace

std::string
serializeConfig(const SimConfig &cfg)
{
    std::string out;
    out.reserve(1536);
    out += "acp-config-v2\n";

    // pipeline
    emit(out, "fetchWidth", cfg.fetchWidth);
    emit(out, "decodeWidth", cfg.decodeWidth);
    emit(out, "issueWidth", cfg.issueWidth);
    emit(out, "commitWidth", cfg.commitWidth);
    emit(out, "ruuSize", cfg.ruuSize);
    emit(out, "lsqSize", cfg.ruuSize / 2); // derived; digests include it
    emit(out, "storeBufferSize", cfg.storeBufferSize);

    // functional units
    emit(out, "intAluUnits", cfg.intAluUnits);
    emit(out, "intMulUnits", cfg.intMulUnits);
    emit(out, "memPorts", cfg.memPorts);
    emit(out, "fpAddUnits", cfg.fpAddUnits);
    emit(out, "fpMulUnits", cfg.fpMulUnits);

    // branch prediction
    emit(out, "bimodalEntries", cfg.bimodalEntries);
    emit(out, "btbEntries", cfg.btbEntries);
    emit(out, "rasEntries", cfg.rasEntries);
    emit(out, "mispredictPenalty", cfg.mispredictPenalty);

    // caches
    emitCache(out, "l1i", cfg.l1i);
    emitCache(out, "l1d", cfg.l1d);
    emitCache(out, "l2", cfg.l2);

    // TLBs
    emit(out, "tlbEntries", cfg.tlbEntries);
    emit(out, "tlbAssoc", cfg.tlbAssoc);
    emit(out, "pageBytes", cfg.pageBytes);
    emit(out, "tlbMissPenalty", cfg.tlbMissPenalty);

    // DRAM / bus
    emit(out, "busClockRatio", cfg.busClockRatio);
    emit(out, "busWidthBytes", cfg.busWidthBytes);
    emit(out, "casLatency", cfg.casLatency);
    emit(out, "prechargeLatency", cfg.prechargeLatency);
    emit(out, "rasToCasLatency", cfg.rasToCasLatency);
    emit(out, "dramBanks", cfg.dramBanks);
    emit(out, "dramRowBytes", cfg.dramRowBytes);
    emit(out, "maxOutstandingFetches", cfg.maxOutstandingFetches);
    emit(out, "macTransferBeats", cfg.macTransferBeats);

    // secure memory
    emit(out, "decryptLatency", cfg.decryptLatency);
    emit(out, "authLatency", cfg.authLatency);
    emit(out, "authEngineInterval", cfg.authEngineInterval);
    emitCache(out, "counterCache", cfg.counterCache);
    emit(out, "counterBytes", cfg.counterBytes);
    emit(out, "encryptionMode", encryptionModeName(cfg.encryptionMode));
    emit(out, "counterPrediction", cfg.counterPrediction ? 1 : 0);
    emit(out, "counterPredictRegionBytes", cfg.counterPredictRegionBytes);
    emit(out, "counterPredictWindow", cfg.counterPredictWindow);

    // hash tree
    emit(out, "hashTreeEnabled", cfg.hashTreeEnabled ? 1 : 0);
    emitCache(out, "hashTreeCache", cfg.hashTreeCache);
    emit(out, "treeHashLatency", cfg.treeHashLatency);
    emit(out, "protectedBytes", cfg.protectedBytes);

    // address obfuscation
    emitCache(out, "remapCache", cfg.remapCache);
    emit(out, "remapEntryBytes", cfg.remapEntryBytes);

    // policy / run control
    emit(out, "policy", core::policyName(cfg.policy));
    emit(out, "fetchGateDrain", cfg.fetchGateDrain ? 1 : 0);
    emit(out, "memoryBytes", cfg.memoryBytes);
    emit(out, "rngSeed", cfg.rngSeed);

    // multi-core
    emit(out, "numCores", cfg.numCores);
    // Every core runs cfg.policy, so there is no per-core policy
    // list. Its key stays, always empty: dropping it would re-key
    // every point digest and orphan every stored result.
    emit(out, "corePolicies", "");
    {
        std::string workloads;
        for (const std::string &w : cfg.coreWorkloads) {
            if (!workloads.empty())
                workloads += ',';
            workloads += w;
        }
        emit(out, "coreWorkloads", workloads.c_str());
    }

    return out;
}

} // namespace acp::sim
