/**
 * @file
 * Reproduces Table 3: the processor model parameters, printed from the
 * live SimConfig so the table can never drift from what the simulator
 * actually uses.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace acp;

int
main()
{
    sim::SimConfig cfg = bench::paperConfig();

    std::printf("Table 3: Processor model parameters (live config)\n");
    bench::rule('=');
    std::printf("%-28s %s\n", "Parameter", "Value");
    bench::rule();
    std::printf("%-28s %s\n", "Frequency", "1.0 GHz (1 cycle = 1 ns)");
    std::printf("%-28s %u\n", "Fetch/Decode width", cfg.fetchWidth);
    std::printf("%-28s %u\n", "Issue/Commit width", cfg.issueWidth);
    std::printf("%-28s DM, %lluKB, %uB line\n", "L1 I-Cache",
                (unsigned long long)cfg.l1i.sizeBytes / 1024,
                cfg.l1i.lineBytes);
    std::printf("%-28s DM, %lluKB, %uB line\n", "L1 D-Cache",
                (unsigned long long)cfg.l1d.sizeBytes / 1024,
                cfg.l1d.lineBytes);
    std::printf("%-28s %u-way, unified, %uB line, write-back, "
                "%lluKB (1MB variant: useLargeL2())\n",
                "L2 Cache", cfg.l2.assoc, cfg.l2.lineBytes,
                (unsigned long long)cfg.l2.sizeBytes / 1024);
    std::printf("%-28s %u cycle\n", "L1 latency", cfg.l1d.hitLatency);
    std::printf("%-28s %u cycles (256KB), 8 cycles (1MB)\n", "L2 latency",
                cfg.l2.hitLatency);
    std::printf("%-28s %u-way, %u entries\n", "I-TLB / D-TLB",
                cfg.tlbAssoc, cfg.tlbEntries);
    std::printf("%-28s %u, 64 entries (Fig. 10/11)\n", "RUU",
                cfg.ruuSize);
    std::printf("%-28s %u entries\n", "LSQ", cfg.ruuSize / 2);
    std::printf("%-28s 200MHz, %uB wide (1:%u core clocks)\n",
                "Memory bus", cfg.busWidthBytes, cfg.busClockRatio);
    std::printf("%-28s X-5-5-5 core clocks, X per page status\n",
                "Memory latency");
    std::printf("%-28s %u mem bus clocks\n", "CAS latency",
                cfg.casLatency);
    std::printf("%-28s %u mem bus clocks\n", "Precharge (RP)",
                cfg.prechargeLatency);
    std::printf("%-28s %u mem bus clocks\n", "RAS-to-CAS (RCD)",
                cfg.rasToCasLatency);
    std::printf("%-28s %u banks, %uB rows\n", "DRAM organization",
                cfg.dramBanks, cfg.dramRowBytes);
    std::printf("%-28s %u ns\n", "Decryption latency",
                cfg.decryptLatency);
    std::printf("%-28s %u ns (interval %u ns)\n",
                "Authentication latency", cfg.authLatency,
                cfg.authEngineInterval);
    std::printf("%-28s %lluKB, %u-way\n", "Counter cache",
                (unsigned long long)cfg.counterCache.sizeBytes / 1024,
                cfg.counterCache.assoc);
    std::printf("%-28s %lluKB (Fig. 12/13), hash %u ns\n",
                "Hash-tree node cache",
                (unsigned long long)cfg.hashTreeCache.sizeBytes / 1024,
                cfg.treeHashLatency);
    std::printf("%-28s %lluKB (Fig. 9 sweeps)\n", "Re-map cache",
                (unsigned long long)cfg.remapCache.sizeBytes / 1024);
    bench::rule('=');
    std::printf("\nRun-scale knobs: REPRO_MEASURE_INSTS=%llu "
                "REPRO_WARMUP_INSTS=%llu REPRO_WS_BYTES=%llu\n",
                (unsigned long long)bench::measureInsts(),
                (unsigned long long)bench::warmupInsts(),
                (unsigned long long)bench::workingSetBytes());
    return 0;
}
