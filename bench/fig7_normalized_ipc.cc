/**
 * @file
 * Reproduces Figure 7 (a-d): normalized IPC of the six authentication
 * schemes against the decryption-only baseline, for SPEC2000-class INT
 * and FP workloads under 256KB and 1MB L2 caches.
 *
 * Expected shape (paper): authen-then-issue and commit+obfuscation are
 * the slowest (~86-87% average), authen-then-write the fastest (>98%),
 * commit ~96%, fetch ~92%, commit+fetch ~90%; the spread narrows with
 * the 1MB L2.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    std::printf("Figure 7: Normalized IPC under different authentication "
                "schemes\n");
    std::printf("(window: %llu measured instructions, %llu warmup, "
                "%lluKB working set per array)\n",
                (unsigned long long)bench::measureInsts(),
                (unsigned long long)bench::warmupInsts(),
                (unsigned long long)bench::workingSetBytes() / 1024);

    sim::SimConfig small_l2 = sim::paperConfig();
    bench::normalizedIpcTable("Fig 7(a) SPEC2000 INT, 256KB L2",
                              workloads::intNames(), bench::fig7Schemes(),
                              small_l2);
    bench::normalizedIpcTable("Fig 7(b) SPEC2000 FP, 256KB L2",
                              workloads::fpNames(), bench::fig7Schemes(),
                              small_l2);

    sim::SimConfig large_l2 = sim::paperConfig();
    large_l2.useLargeL2();
    bench::normalizedIpcTable("Fig 7(c) SPEC2000 INT, 1MB L2",
                              workloads::intNames(), bench::fig7Schemes(),
                              large_l2);
    bench::normalizedIpcTable("Fig 7(d) SPEC2000 FP, 1MB L2",
                              workloads::fpNames(), bench::fig7Schemes(),
                              large_l2);
    return 0;
}
