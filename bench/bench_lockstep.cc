/**
 * @file
 * Lockstep divergence-on-demand speedup bench (DESIGN.md §15).
 *
 * Runs the same L1D 2-bit injection campaign three times — straight
 * (the reference: cohort batching and early exit off, every run
 * restores its ladder checkpoint and simulates alone), lockstep
 * (overlay riding on, early exit off), and lockstep + early exit (the
 * default engine) — as google-benchmark cases. The first two arms
 * isolate the lockstep gain: identical semantics, so their RunRecords
 * must match field for field (fatal otherwise), and runs that never
 * fork simulate zero private cycles instead of a full golden tail
 * each. The third arm shows the shipped composition.
 *
 * A fourth case microbenches the BitArray hot-path cost the tracking
 * machinery adds to *non-injected* accesses: reads against an array
 * with no tracked flips (one empty-vector test) and against one with
 * flips tracked in a different row (one extra bitmap load through the
 * per-row guard). The golden cursor spends the whole campaign on this
 * path, so it must stay flat.
 *
 * Knobs: MBUSIM_WORKLOAD (default qsort), MBUSIM_INJECTIONS (default
 * 120), MBUSIM_THREADS; plus the usual --benchmark_* flags.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "core/campaign.hh"
#include "sim/bitarray.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "util/table.hh"

using namespace mbusim;

namespace {

struct Arm
{
    const char* name;
    bool lockstep;
    bool earlyExit;
};

constexpr Arm Arms[] = {
    {"straight", false, false},
    {"lockstep", true, false},
    {"lockstep + early exit", true, true},
};
constexpr int ArmCount = static_cast<int>(std::size(Arms));

/** Last campaign result, wall time and overlay stats per arm. */
struct ArmOutcome
{
    bool measured = false;
    core::CampaignResult result;
    double seconds = 0.0;
    uint64_t forks = 0;
    uint64_t neverForked = 0;
    uint64_t overlayCycles = 0;
};
ArmOutcome outcomes[ArmCount];

core::CampaignConfig
benchConfig(const Arm& arm)
{
    core::CampaignConfig config;
    config.component = core::Component::L1D;
    config.faults = 2;
    config.injections =
        static_cast<uint32_t>(envInt("MBUSIM_INJECTIONS", 120));
    config.cohortBatching = arm.lockstep;
    config.earlyExit = arm.earlyExit;
    if (!arm.earlyExit)
        config.digestPoints = 0;
    return config;
}

/** Cycles actually simulated by the injected runs: golden plus every
 *  faulty segment, net of skipped prefixes and early-exit savings. */
uint64_t
simulatedCycles(const core::CampaignResult& result)
{
    uint64_t cycles = result.goldenCycles;
    for (const core::RunRecord& run : result.runs)
        cycles += run.cycles - run.restoredFrom - run.cyclesSaved;
    return cycles;
}

void
BM_Campaign(benchmark::State& state, int arm_index)
{
    const Arm& arm = Arms[arm_index];
    const auto& workload = workloads::workloadByName(
        envString("MBUSIM_WORKLOAD", "qsort"));
    core::CampaignConfig config = benchConfig(arm);
    ArmOutcome& out = outcomes[arm_index];
    Counter& forks = metrics().counter("campaign.forks");
    Counter& retired = metrics().counter("campaign.never_forked");
    Counter& overlay = metrics().counter("campaign.overlay_cycles");
    for (auto _ : state) {
        core::Campaign campaign(workload, config);
        const uint64_t f0 = forks.value();
        const uint64_t r0 = retired.value();
        const uint64_t o0 = overlay.value();
        auto start = std::chrono::steady_clock::now();
        out.result = campaign.run(true);
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        out.forks = forks.value() - f0;
        out.neverForked = retired.value() - r0;
        out.overlayCycles = overlay.value() - o0;
        out.measured = true;
    }
    state.counters["sim_cycles"] =
        static_cast<double>(simulatedCycles(out.result));
    state.counters["forks"] = static_cast<double>(out.forks);
    state.counters["never_forked"] =
        static_cast<double>(out.neverForked);
}

/** Non-injected-path cost of the tracking machinery: field reads
 *  against an untracked array vs one whose tracked flips live in a
 *  different row (the guard bitmap turns the scan into one load). */
void
BM_BitArrayReads(benchmark::State& state, bool tracked)
{
    sim::BitArray array(256, 512);
    for (uint32_t row = 0; row < 256; ++row)
        array.write(row, 0, 64, 0x0123456789abcdefULL *
                                    (row + 1));
    uint32_t overlay = 0;
    if (tracked) {
        overlay = array.beginOverlay();
        array.trackFlipIn(overlay, 255, 3);
        array.trackFlipIn(overlay, 255, 4);
    }
    uint64_t sink = 0;
    for (auto _ : state) {
        // 255 rows with no tracked bit: the path the golden cursor
        // rides for every access of every workload.
        for (uint32_t row = 0; row < 255; ++row)
            sink += array.read(row, (row * 8) % 448, 64);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            255);
    if (tracked)
        array.dropOverlay(overlay);
}

void
report()
{
    const ArmOutcome& base = outcomes[0];
    if (!base.measured)
        return;   // filtered out: no baseline to compare against

    TextTable table({"Execution", "Cycles simulated", "Overlay cycles",
                     "Wall time", "Speedup", "Forks", "Never forked"});
    table.title("Campaign cost by execution strategy");
    for (int i = 0; i < ArmCount; ++i) {
        const ArmOutcome& arm = outcomes[i];
        if (!arm.measured)
            continue;
        if (arm.result.counts.counts != base.result.counts.counts)
            fatal("lockstep changed campaign outcomes (arm '%s')",
                  Arms[i].name);
        table.addRow({Arms[i].name,
                      fmtGrouped(simulatedCycles(arm.result)),
                      fmtGrouped(arm.overlayCycles),
                      strprintf("%.3f s", arm.seconds),
                      strprintf("%.2fx", base.seconds / arm.seconds),
                      strprintf("%llu",
                                static_cast<unsigned long long>(
                                    arm.forks)),
                      strprintf("%llu",
                                static_cast<unsigned long long>(
                                    arm.neverForked))});
    }
    std::printf("\n");
    table.print();

    // The straight and lockstep arms share semantics exactly
    // (early exit off in both): their records must be bit-identical,
    // not merely count-identical — the whole §15 guarantee.
    const ArmOutcome& lockstep = outcomes[1];
    if (lockstep.measured) {
        const auto& a = base.result.runs;
        const auto& b = lockstep.result.runs;
        if (a.size() != b.size())
            fatal("lockstep arm ran %zu records vs %zu", b.size(),
                  a.size());
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].index != b[i].index || a[i].cycle != b[i].cycle ||
                a[i].outcome != b[i].outcome ||
                a[i].cycles != b[i].cycles ||
                a[i].restoredFrom != b[i].restoredFrom ||
                a[i].exitReason != b[i].exitReason ||
                a[i].cyclesSaved != b[i].cyclesSaved) {
                fatal("lockstep record %zu differs from straight "
                      "record", i);
            }
        }
        std::printf("\nrecords bit-identical across straight and "
                    "lockstep arms (%zu runs)\n", a.size());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    // The arms own these knobs; keep the environment from skewing them.
    unsetenv("MBUSIM_COHORT");
    unsetenv("MBUSIM_EARLY_EXIT");
    unsetenv("MBUSIM_DIGEST_POINTS");
    unsetenv("MBUSIM_CHECKPOINTS");

    std::printf("mbusim lockstep speedup (workload %s, "
                "%lld injections, L1D 2-bit campaign)\n",
                envString("MBUSIM_WORKLOAD", "qsort").c_str(),
                static_cast<long long>(envInt("MBUSIM_INJECTIONS",
                                              120)));

    for (int i = 0; i < ArmCount; ++i) {
        benchmark::RegisterBenchmark(
            strprintf("BM_Campaign/%s", Arms[i].name).c_str(),
            BM_Campaign, i)
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark("BM_BitArrayReads/untracked",
                                 BM_BitArrayReads, false);
    benchmark::RegisterBenchmark("BM_BitArrayReads/guarded_other_row",
                                 BM_BitArrayReads, true);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    report();
    return 0;
}
