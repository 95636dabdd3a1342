/**
 * @file
 * Sweep-scheduler speedup bench (DESIGN.md §11).
 *
 * Runs the same (2 workloads x 6 components x 3 cardinalities) study
 * grid three ways — one pre-scheduler campaign per cell with a private
 * golden run, the shared GoldenStore with the serial per-campaign
 * loop, and the full sweep scheduler (shared goldens + one global
 * queue of lockstep units, each cursor carrying every cell of a
 * program; DESIGN.md §15) — as google-benchmark cases, then verifies
 * that every arm produced bit-identical per-cell outcome counts and
 * prints an A/B/C table of golden simulations, golden cycles the
 * cursors replayed (campaign.cursor_cycles), private cycles simulated
 * (campaign.cycles_simulated), wall time and speedup. The shared arms
 * must report exactly one golden simulation per workload (2 for the
 * default grid, down 18x from the baseline's 36), and the queue arm's
 * shared cursors must replay fewer golden cycles than the per-cell
 * cursors of the serial loop.
 *
 * The default per-cell sample is deliberately small (5 injections):
 * the bench isolates the sweep-orchestration cost that the scheduler
 * removes, which is the dominant cost in the pilot-sweep regime where
 * configurations are iterated. At paper-scale samples the golden share
 * shrinks and the scheduler's win shifts to keeping every worker busy
 * across cell boundaries (visible on multi-core hosts).
 *
 * Knobs: MBUSIM_WORKLOADS (default stringsearch,susan_s),
 * MBUSIM_INJECTIONS (default 5), MBUSIM_THREADS; plus the usual
 * --benchmark_* flags.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/golden_store.hh"
#include "core/study.hh"
#include "util/env.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "util/table.hh"

using namespace mbusim;

namespace {

struct Arm
{
    const char* name;
    bool sharedGolden;   ///< golden artifacts through a GoldenStore
    bool globalQueue;    ///< one sweep-wide worker pool + task queue
};

constexpr Arm Arms[] = {
    {"serial baseline", false, false},
    {"shared golden", true, false},
    {"shared golden + global queue", true, true},
};
constexpr int ArmCount = static_cast<int>(std::size(Arms));

/** Per-cell outcome counts, keyed "workload_component_fN". */
using CellCounts = std::map<std::string, std::array<uint64_t, 6>>;

struct ArmOutcome
{
    bool measured = false;
    CellCounts cells;
    uint64_t goldenSims = 0;
    uint64_t cursorCycles = 0;      ///< campaign.cursor_cycles delta
    uint64_t cyclesSimulated = 0;   ///< campaign.cycles_simulated delta
    double seconds = 0.0;
};
ArmOutcome outcomes[ArmCount];

std::vector<std::string>
benchWorkloads()
{
    std::vector<std::string> names = envList("MBUSIM_WORKLOADS");
    if (names.empty())
        names = {"stringsearch", "susan_s"};
    return names;
}

uint32_t
benchInjections()
{
    return static_cast<uint32_t>(envInt("MBUSIM_INJECTIONS", 5));
}

core::StudyConfig
benchStudyConfig(bool global_queue)
{
    core::StudyConfig config;
    config.workloads = benchWorkloads();
    config.injections = benchInjections();
    config.sweepScheduler = global_queue;
    return config;
}

std::string
cellName(const std::string& workload, core::Component component,
         uint32_t faults)
{
    return strprintf("%s_%s_f%u", workload.c_str(),
                     core::componentShortName(component), faults);
}

/** Arm A: the pre-scheduler shape — every cell is an independent
 *  campaign that simulates its own golden run and spawns its own
 *  worker pool. */
CellCounts
runBaseline()
{
    CellCounts cells;
    for (const std::string& name : benchWorkloads()) {
        const auto& w = workloads::workloadByName(name);
        for (core::Component component : core::AllComponents) {
            for (uint32_t faults = 1; faults <= 3; ++faults) {
                core::CampaignConfig config;
                config.component = component;
                config.faults = faults;
                config.injections = benchInjections();
                core::CampaignResult r =
                    core::Campaign(w, config).run();
                cells[cellName(name, component, faults)] =
                    r.counts.counts;
            }
        }
    }
    return cells;
}

/** Arms B and C: one Study; the sweepScheduler switch picks the serial
 *  per-campaign loop or the global-queue scheduler. */
CellCounts
runStudy(bool global_queue)
{
    core::Study study(benchStudyConfig(global_queue));
    study.runSweep();
    CellCounts cells;
    for (const auto* w : study.workloadSet()) {
        for (core::Component component : core::AllComponents) {
            for (uint32_t faults = 1; faults <= 3; ++faults) {
                cells[cellName(w->name, component, faults)] =
                    study.campaign(w->name, component, faults)
                        .counts.counts;
            }
        }
    }
    return cells;
}

void
BM_Sweep(benchmark::State& state, int arm_index)
{
    const Arm& arm = Arms[arm_index];
    ArmOutcome& out = outcomes[arm_index];
    Counter& cursor = metrics().counter("campaign.cursor_cycles");
    Counter& simulated = metrics().counter("campaign.cycles_simulated");
    for (auto _ : state) {
        uint64_t golden_before = core::goldenSimulationCount();
        const uint64_t cursor_before = cursor.value();
        const uint64_t simulated_before = simulated.value();
        auto start = std::chrono::steady_clock::now();
        out.cells = arm.sharedGolden ? runStudy(arm.globalQueue)
                                     : runBaseline();
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        out.goldenSims =
            core::goldenSimulationCount() - golden_before;
        out.cursorCycles = cursor.value() - cursor_before;
        out.cyclesSimulated = simulated.value() - simulated_before;
        out.measured = true;
    }
    state.counters["golden_sims"] =
        static_cast<double>(out.goldenSims);
    state.counters["cursor_cycles"] =
        static_cast<double>(out.cursorCycles);
    state.counters["cycles_simulated"] =
        static_cast<double>(out.cyclesSimulated);
}

void
report()
{
    const ArmOutcome& base = outcomes[0];
    if (!base.measured)
        return;   // filtered out: no baseline to compare against

    size_t n_workloads = benchWorkloads().size();
    TextTable table({"Sweep execution", "Golden sims", "Cursor cycles",
                     "Cycles simulated", "Wall time", "Speedup"});
    table.title("Study sweep cost by scheduler configuration");
    for (int i = 0; i < ArmCount; ++i) {
        const ArmOutcome& arm = outcomes[i];
        if (!arm.measured)
            continue;
        if (arm.cells != base.cells)
            fatal("sweep scheduler changed campaign outcomes "
                  "(arm '%s')", Arms[i].name);
        if (Arms[i].sharedGolden && arm.goldenSims != n_workloads)
            fatal("arm '%s' simulated %llu goldens for %zu workloads "
                  "(expected exactly one per workload)", Arms[i].name,
                  static_cast<unsigned long long>(arm.goldenSims),
                  n_workloads);
        table.addRow({Arms[i].name,
                      strprintf("%llu", static_cast<unsigned long long>(
                                            arm.goldenSims)),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            arm.cursorCycles)),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            arm.cyclesSimulated)),
                      strprintf("%.3f s", arm.seconds),
                      strprintf("%.2fx", base.seconds / arm.seconds)});
    }
    // The queue arm's lockstep units carry every cell of a program on
    // one cursor per checkpoint interval; the serial loop runs one
    // cursor per cell and interval. Fewer replayed golden cycles is
    // the point of the shared cursors — equal would mean they never
    // formed.
    const ArmOutcome& per_cell = outcomes[1];
    const ArmOutcome& queue = outcomes[2];
    if (per_cell.measured && queue.measured &&
        queue.cursorCycles >= per_cell.cursorCycles) {
        fatal("queue arm replayed %llu cursor cycles, not below the "
              "per-cell arm's %llu: shared lockstep cursors did not "
              "form",
              static_cast<unsigned long long>(queue.cursorCycles),
              static_cast<unsigned long long>(per_cell.cursorCycles));
    }
    std::printf("\n");
    table.print();
    std::printf("\nper-cell outcome counts identical across measured "
                "arms; shared arms simulate one golden per workload\n");
}

} // namespace

int
main(int argc, char** argv)
{
    // The arms own these knobs; keep the environment from skewing them.
    unsetenv("MBUSIM_SWEEP_SCHEDULER");
    unsetenv("MBUSIM_CACHE_DIR");
    unsetenv("MBUSIM_JOURNAL_DIR");
    unsetenv("MBUSIM_DEADLINE_S");

    std::string names;
    for (const std::string& w : benchWorkloads())
        names += (names.empty() ? "" : ",") + w;
    std::printf("mbusim sweep-scheduler speedup (workloads %s, 6 "
                "components x 3 cardinalities, %u injections/cell)\n",
                names.c_str(), benchInjections());

    for (int i = 0; i < ArmCount; ++i) {
        benchmark::RegisterBenchmark(
            strprintf("BM_Sweep/%s", Arms[i].name).c_str(), BM_Sweep, i)
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    report();
    return 0;
}
