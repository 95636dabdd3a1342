/**
 * @file
 * Hot-path kernel optimization bench (DESIGN.md §16).
 *
 * The A/B half runs the same L1D 2-bit injection campaign four times —
 * both kernel fast paths off (baseline), decode memoization alone,
 * delta snapshots alone, and both on (the shipped default) — toggling
 * the MBUSIM_DECODE_CACHE / MBUSIM_DELTA_SNAPSHOTS knobs between
 * Campaign constructions. Both optimizations are outcome-neutral by
 * construction, so every arm must produce identical outcome counts AND
 * field-for-field identical RunRecords (fatal otherwise); the arms
 * exist to price each fast path end to end and to enforce that
 * neutrality on every bench run.
 *
 * The microbench half prices the individual kernel changes in
 * isolation: decode() vs the memoized lookup, a bulk BitArray line
 * transfer vs the per-byte field loop it replaced, and a full
 * checkpoint() vs a deltaCheckpoint() fold of an unchanged machine.
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
#include <vector>

#include "core/campaign.hh"
#include "sim/bitarray.hh"
#include "sim/isa.hh"
#include "sim/simulator.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "util/table.hh"

using namespace mbusim;

namespace {

struct Arm
{
    const char* name;
    bool decodeMemo;
    bool deltaSnapshots;
};

constexpr Arm Arms[] = {
    {"baseline (both off)", false, false},
    {"decode memo", true, false},
    {"delta snapshots", false, true},
    {"decode memo + delta", true, true},
};
constexpr int ArmCount = static_cast<int>(std::size(Arms));

/** Last campaign result, wall time and fast-path stats per arm. */
struct ArmOutcome
{
    bool measured = false;
    core::CampaignResult result;
    double seconds = 0.0;
    uint64_t decodeHits = 0;
    uint64_t snapshotBytes = 0;
};
ArmOutcome outcomes[ArmCount];

core::CampaignConfig
benchConfig()
{
    core::CampaignConfig config;
    config.component = core::Component::L1D;
    config.faults = 2;
    config.injections =
        static_cast<uint32_t>(envInt("MBUSIM_INJECTIONS", 120));
    return config;
}

void
BM_Campaign(benchmark::State& state, int arm_index)
{
    const Arm& arm = Arms[arm_index];
    const auto& workload = workloads::workloadByName(
        envString("MBUSIM_WORKLOAD", "qsort"));
    core::CampaignConfig config = benchConfig();
    ArmOutcome& out = outcomes[arm_index];
    Counter& hits = metrics().counter("campaign.decode_hits");
    Counter& bytes = metrics().counter("snapshot.bytes_copied");
    for (auto _ : state) {
        // The knobs are resolved once, at Campaign construction; no
        // campaign is running while they change.
        setenv("MBUSIM_DECODE_CACHE", arm.decodeMemo ? "1" : "0", 1);
        setenv("MBUSIM_DELTA_SNAPSHOTS",
               arm.deltaSnapshots ? "1" : "0", 1);
        core::Campaign campaign(workload, config);
        const uint64_t h0 = hits.value();
        const uint64_t b0 = bytes.value();
        auto start = std::chrono::steady_clock::now();
        out.result = campaign.run(true);
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        out.decodeHits = hits.value() - h0;
        out.snapshotBytes = bytes.value() - b0;
        out.measured = true;
    }
    state.counters["decode_hits"] =
        static_cast<double>(out.decodeHits);
    state.counters["snapshot_bytes"] =
        static_cast<double>(out.snapshotBytes);
}

/** decode() per word vs the memoized lookup on a real program's
 *  instruction stream (every word hits after the first pass). */
void
BM_Decode(benchmark::State& state, bool memoized)
{
    sim::Program program = workloads::workloadByName(
        envString("MBUSIM_WORKLOAD", "qsort")).assemble();
    sim::DecodeCache cache;
    uint64_t sink = 0;
    for (auto _ : state) {
        if (memoized) {
            for (uint32_t word : program.code)
                sink += cache.lookup(word).rd;
        } else {
            for (uint32_t word : program.code)
                sink += sim::decode(word).rd;
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(program.code.size()));
}

/** One 64-byte line transfer: bulk readBytes/writeBytes vs the
 *  per-byte field loop the cache fill path used to run. */
void
BM_LineTransfer(benchmark::State& state, bool bulk)
{
    sim::BitArray array(64, 512);
    uint8_t line[64];
    for (uint32_t i = 0; i < 64; ++i)
        line[i] = static_cast<uint8_t>(i * 37);
    uint64_t sink = 0;
    for (auto _ : state) {
        for (uint32_t row = 0; row < 64; ++row) {
            if (bulk) {
                array.writeBytes(row, 0, 64, line);
                array.readBytes(row, 0, 64, line);
            } else {
                for (uint32_t b = 0; b < 64; ++b)
                    array.write(row, b * 8, 8, line[b]);
                for (uint32_t b = 0; b < 64; ++b)
                    line[b] = static_cast<uint8_t>(
                        array.read(row, b * 8, 8));
            }
        }
        sink += line[0];
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            64 * 64);
}

/** Whole-machine checkpoint of a parked mid-execution simulator: the
 *  deep copy vs the delta fold (everything clean after the first
 *  call — the golden cursor's steady state between nearby snapshots
 *  lies between the two). */
void
BM_Checkpoint(benchmark::State& state, bool delta)
{
    sim::Program program = workloads::workloadByName(
        envString("MBUSIM_WORKLOAD", "qsort")).assemble();
    sim::CpuConfig config;
    sim::Simulator probe(program, config);
    const uint64_t cycles = probe.run(0).cycles;
    sim::Simulator simulator(program, config);
    simulator.advanceTo(cycles / 2);
    sim::Snapshot full;
    uint64_t bytes = 0;
    uint64_t copied = 0;
    for (auto _ : state) {
        if (delta) {
            copied += simulator.deltaCheckpoint(&bytes).cycle;
            copied += bytes;
        } else {
            full = simulator.checkpoint();
            copied += full.cycle;
        }
        benchmark::DoNotOptimize(copied);
    }
}

void
report()
{
    const ArmOutcome& base = outcomes[0];
    if (!base.measured)
        return;   // filtered out: no baseline to compare against

    TextTable table({"Kernel", "Wall time", "Speedup", "Decode hits",
                     "Snapshot bytes"});
    table.title("Campaign cost by kernel fast-path configuration");
    for (int i = 0; i < ArmCount; ++i) {
        const ArmOutcome& arm = outcomes[i];
        if (!arm.measured)
            continue;
        if (arm.result.counts.counts != base.result.counts.counts)
            fatal("kernel fast paths changed campaign outcomes "
                  "(arm '%s')", Arms[i].name);
        // Field-for-field record equality against the baseline arm:
        // the optimizations must be invisible in everything but wall
        // time (host bookkeeping aside — wallMicros, cohort fields
        // and forkedAt are excluded from determinism by contract).
        const auto& a = base.result.runs;
        const auto& b = arm.result.runs;
        if (a.size() != b.size())
            fatal("arm '%s' ran %zu records vs %zu", Arms[i].name,
                  b.size(), a.size());
        for (size_t r = 0; r < a.size(); ++r) {
            if (a[r].index != b[r].index || a[r].cycle != b[r].cycle ||
                a[r].outcome != b[r].outcome ||
                a[r].cycles != b[r].cycles ||
                a[r].restoredFrom != b[r].restoredFrom ||
                a[r].exitReason != b[r].exitReason ||
                a[r].cyclesSaved != b[r].cyclesSaved) {
                fatal("arm '%s' record %zu differs from baseline",
                      Arms[i].name, r);
            }
        }
        table.addRow({Arms[i].name, strprintf("%.3f s", arm.seconds),
                      strprintf("%.2fx", base.seconds / arm.seconds),
                      fmtGrouped(arm.decodeHits),
                      fmtGrouped(arm.snapshotBytes)});
    }
    std::printf("\n");
    table.print();
    std::printf("\nrecords bit-identical across all kernel "
                "configurations (%zu runs per arm)\n",
                base.result.runs.size());
}

} // namespace

int
main(int argc, char** argv)
{
    // The arms own these knobs; keep the environment from skewing the
    // comparison (the execution-strategy knobs stay at their shipped
    // defaults in every arm).
    unsetenv("MBUSIM_DECODE_CACHE");
    unsetenv("MBUSIM_DELTA_SNAPSHOTS");
    unsetenv("MBUSIM_COHORT");
    unsetenv("MBUSIM_EARLY_EXIT");
    unsetenv("MBUSIM_DIGEST_POINTS");
    unsetenv("MBUSIM_CHECKPOINTS");

    std::printf("mbusim hot-path kernel bench (workload %s, "
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
    benchmark::RegisterBenchmark("BM_Decode/raw", BM_Decode, false);
    benchmark::RegisterBenchmark("BM_Decode/memoized", BM_Decode, true);
    benchmark::RegisterBenchmark("BM_LineTransfer/per_byte",
                                 BM_LineTransfer, false);
    benchmark::RegisterBenchmark("BM_LineTransfer/bulk",
                                 BM_LineTransfer, true);
    benchmark::RegisterBenchmark("BM_Checkpoint/full", BM_Checkpoint,
                                 false);
    benchmark::RegisterBenchmark("BM_Checkpoint/delta", BM_Checkpoint,
                                 true);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    report();
    return 0;
}
