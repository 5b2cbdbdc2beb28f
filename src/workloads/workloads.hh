/**
 * @file
 * Synthetic SPEC2000-class workloads (DESIGN.md substitution: SPEC2000
 * is licensed, so each of the paper's 18 benchmarks is replaced by a
 * kernel in the mini-ISA matched to its *memory behaviour class* —
 * pointer chasing, streaming, stencils, random access, indirection —
 * with working sets sized well beyond the L2 so the runs are memory
 * bound, as the paper's selection criterion requires).
 *
 * Every kernel runs forever (outer loop); the harness fast-forwards a
 * warmup window and then measures a fixed instruction count, mirroring
 * the paper's SimPoint + 400M-instruction methodology at laptop scale.
 */

#ifndef ACP_WORKLOADS_WORKLOADS_HH
#define ACP_WORKLOADS_WORKLOADS_HH

#include <compare>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace acp::workloads
{

/** Tuning knobs shared by all kernels. */
struct WorkloadParams
{
    /** Primary array size; default 4 MB ≫ 256 KB/1 MB L2. */
    std::uint64_t workingSetBytes = 4ULL << 20;
    /** Seed for data initialization (layout randomization). */
    std::uint64_t seed = 42;

    /** Field by field: equal params build equal programs. */
    auto operator<=>(const WorkloadParams &) const = default;
};

/** Catalog entry. */
struct WorkloadInfo
{
    const char *name;
    bool isFp;
    const char *behaviour; // memory-behaviour class it models
};

/** All 18 workloads (9 INT + 9 FP), in the paper's naming. */
const std::vector<WorkloadInfo> &catalog();

/** Names of the integer / floating-point subsets. */
std::vector<std::string> intNames();
std::vector<std::string> fpNames();
/** Every name in catalog order: the integer subset, then the
 *  floating-point one. */
std::vector<std::string> allNames();

/** Build a workload by name; acp_fatal on unknown names and on a
 *  working set below 64 bytes. */
isa::Program build(const std::string &name,
                   const WorkloadParams &params = {});

} // namespace acp::workloads

#endif // ACP_WORKLOADS_WORKLOADS_HH
