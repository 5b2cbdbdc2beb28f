/**
 * @file
 * Simulation configuration: the parameters of the paper's Table 3 and
 * Section 5.2 that some experiment varies, plus the observability
 * switches. Those every experiment holds fixed are constants next to
 * the code that reads them (serializeConfig() still prints each).
 * All latencies are in core cycles; the reference core runs at 1 GHz
 * so 1 cycle == 1 ns and the paper's nanosecond figures map directly.
 */

#ifndef ACP_SIM_CONFIG_HH
#define ACP_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/auth_policy.hh"

namespace acp::sim
{

/** Memory encryption timing mode (paper Table 1). */
enum class EncryptionMode
{
    /** Counter mode: pad precomputation overlaps the fetch. */
    kCounterMode,
    /** CBC: serial per-chunk decryption after the data arrives. */
    kCbc,
};

/** Cache geometry for one level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned assoc = 1;
    unsigned lineBytes = 64;
    unsigned hitLatency = 1;
};

/** What an experiment may vary (defaults = paper Table 3, 256KB L2,
 *  on a 256 MiB memory; paperConfig() is the paper's 64 MiB machine). */
struct SimConfig
{
    // ----- pipeline ---------------------------------------------------
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    /** Register Update Unit entries (128 default; 64 in Fig. 10/11).
     *  The load/store queue holds ruuSize / 2, so ruuSize >= 2. */
    unsigned ruuSize = 128;
    /** Post-commit store buffer entries (authen-then-write parking). */
    unsigned storeBufferSize = 32;

    // ----- caches -------------------------------------------------------
    CacheConfig l1d{16 * 1024, 1, 32, 1};
    CacheConfig l2{256 * 1024, 4, 64, 4};
    /** Max outstanding external fetches (MSHR-limited MLP). */
    unsigned maxOutstandingFetches = 16;

    // ----- secure memory --------------------------------------------------
    /**
     * Line-MAC verification latency once ciphertext and pad are
     * available: two SHA-256 compression passes at 74 ns with
     * precomputed ipad state and truncated output.
     */
    unsigned authLatency = 148;
    /**
     * Engine initiation interval: cycles between accepted requests.
     * The reference engine is pipelined and sized to match memory
     * bandwidth (one 64B line per bus burst = 40 ns), so verification
     * adds latency but never throttles fill bandwidth — consistent
     * with the paper's results where even authen-then-write stays
     * within 2% of baseline. Set equal to authLatency to model a
     * fully serial engine (ablation).
     */
    unsigned authEngineInterval = 40;
    /** Counter cache (sequence-number cache of [19]). */
    CacheConfig counterCache{32 * 1024, 8, 64, 1};
    /** Encryption timing mode (Table 1 comparison). */
    EncryptionMode encryptionMode = EncryptionMode::kCounterMode;
    /**
     * Counter prediction + pad precomputation ([19], the paper's
     * reference implementation): on a counter-cache miss, pads for a
     * window of predicted counters are computed in parallel with the
     * data fetch, keeping decryption at MAX(fetch, decrypt) when the
     * prediction hits.
     */
    bool counterPrediction = true;

    // ----- hash tree (CHTree, Section 5.2.3 / Fig. 12) ---------------------
    bool hashTreeEnabled = false;
    /** Size of the tree-protected memory region. */
    std::uint64_t protectedBytes = 256ULL * 1024 * 1024;

    // ----- address obfuscation (Section 4.3 / Fig. 9) ----------------------
    /**
     * The paper's 256 KB re-map cache covers ~10% of the remap table
     * for SPEC-sized (100s of MB) footprints; with our laptop-scale
     * working sets the table itself is ~256 KB, so the default cache
     * is scaled to 32 KB to preserve the coverage ratio (Fig. 9
     * sweeps this).
     */
    CacheConfig remapCache{32 * 1024, 4, 64, 1};

    // ----- policy / run control --------------------------------------------
    core::AuthPolicy policy = core::AuthPolicy::kBaseline;
    /**
     * Drain-authen-then-fetch variant (Section 4.2.4 ablation): the
     * bus grant waits for the whole authentication queue instead of
     * the triggering instruction's LastRequest tag. Part of the
     * config so experiment digests capture it.
     */
    bool fetchGateDrain = false;
    std::uint64_t memoryBytes = 256ULL * 1024 * 1024;
    std::uint64_t rngSeed = 12345;

    // ----- multi-core ------------------------------------------------------
    /**
     * Cores registered against the one shared SecureMemCtrl /
     * MemHierarchy / BusArbiter / Dram backend. Each core gets a
     * power-of-two slice of the address space (MemHierarchy::
     * clientStride), its own OooCore pipeline and stall taxonomy, and
     * contends with its neighbours for the bus, the MAC engine and
     * the shared metadata caches. 1 = the classic single-core system.
     * Every core runs @ref policy.
     */
    unsigned numCores = 1;
    /**
     * Per-core workload names, indexed by core id. Empty = every core
     * runs the harness-selected workload. Serialized into the config
     * digest so multi-core points cache correctly.
     */
    std::vector<std::string> coreWorkloads;

    // ----- observability ---------------------------------------------------
    // Observability is strictly passive — it never changes simulation
    // results — so these fields are deliberately NOT part of
    // serializeConfig()/pointDigest(): an observed run shares its
    // digest with the unobserved one, and is uncacheable at the
    // exp::Point level instead.
    /** Interval-statistics period in cycles (0 = disabled). */
    std::uint64_t statsInterval = 0;
    /** Transaction path profiler (PathProfiler sink; its profile also
     *  reports the leak audit). */
    bool profileEnabled = false;
    /**
     * Collect sim.host.* self-metrics (event-loop wake counts and
     * jump-length histograms per core). These measure the
     * *simulator*, not the simulated machine.
     */
    bool hostStats = false;

    /** Convenience: apply the paper's 1MB L2 configuration. */
    void
    useLargeL2()
    {
        l2.sizeBytes = 1024 * 1024;
        l2.hitLatency = 8;
    }
};

/** The machine every paper figure, table and exploit runs: Table 3
 *  (the defaults above) with a 64 MiB memory, all of it protected. */
inline SimConfig
paperConfig()
{
    SimConfig cfg;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

} // namespace acp::sim

#endif // ACP_SIM_CONFIG_HH
