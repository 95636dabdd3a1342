/**
 * @file
 * Sweep-scheduler equivalence and safety tests (DESIGN.md §11).
 *
 * The scheduler is a pure host-side reorganization — shared golden
 * artifacts plus a global (cell, run) queue — so the acceptance bar is
 * the same as for the other engines: per-cell outcome counts must be
 * bit-identical to campaigns run the pre-scheduler way, at any thread
 * count; golden runs must be simulated exactly once per workload; and
 * a cancelled sweep must never cache a partially finished cell while
 * still resuming bit-identically from its journals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <thread>
#include <vector>

#include "core/golden_store.hh"
#include "core/study.hh"
#include "util/interrupt.hh"
#include "util/log.hh"
#include "util/metrics.hh"

namespace mbusim::core {
namespace {

class SweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The tests control everything through StudyConfig alone.
        for (const char* knob :
             {"MBUSIM_INJECTIONS", "MBUSIM_SEED", "MBUSIM_THREADS",
              "MBUSIM_CACHE_DIR", "MBUSIM_JOURNAL_DIR",
              "MBUSIM_WORKLOADS", "MBUSIM_SWEEP_SCHEDULER",
              "MBUSIM_DEADLINE_S", "MBUSIM_HEARTBEAT_S",
              "MBUSIM_EARLY_EXIT", "MBUSIM_DIGEST_POINTS",
              "MBUSIM_CHECKPOINTS", "MBUSIM_COHORT"}) {
            unsetenv(knob);
        }
        clearInterrupt();
    }

    void TearDown() override { clearInterrupt(); }
};

std::string
freshDir(const std::string& name)
{
    std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

size_t
fileCount(const std::string& dir)
{
    if (!std::filesystem::exists(dir))
        return 0;
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        ++n;
    }
    return n;
}

/**
 * The deterministic part of every record in a --trace-out file,
 * sorted: run, workload, component, faults, mask, cycle, outcome,
 * exit reason, cycles, cycles saved and restored-from. The host
 * bookkeeping tail (cohort, replayed, wall_us, forked_at) starts at
 * the cohort field and is cut off.
 */
std::vector<std::string>
traceRecords(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> records;
    std::string line;
    while (std::getline(in, line))
        records.push_back(line.substr(0, line.find(",\"cohort\":")));
    std::sort(records.begin(), records.end());
    return records;
}

/** Run one sweep with a trace; returns its records. */
std::vector<std::string>
tracedSweep(StudyConfig config, const std::string& path)
{
    config.trace = std::make_shared<JsonlWriter>(path);
    {
        Study study(config);
        EXPECT_FALSE(study.runSweep().cancelled);
    }
    config.trace->close();
    return traceRecords(path);
}

StudyConfig
sweepConfig(uint32_t threads)
{
    StudyConfig config;
    config.workloads = {"stringsearch", "susan_s"};
    config.injections = 5;
    config.threads = threads;
    return config;
}

TEST_F(SweepTest, SchedulerMatchesSerialPath)
{
    // Reference: each cell as its own pre-scheduler campaign — private
    // golden run, private worker pool.
    std::map<std::string, std::array<uint64_t, 6>> reference;
    {
        Study ref(sweepConfig(1));
        for (const auto* w : ref.workloadSet()) {
            for (Component component : AllComponents) {
                for (uint32_t faults = 1; faults <= 3; ++faults) {
                    CampaignConfig cc;
                    cc.component = component;
                    cc.faults = faults;
                    cc.injections = 5;
                    cc.threads = 1;
                    CampaignResult r = Campaign(*w, cc).run();
                    reference[strprintf("%s_%s_f%u", w->name.c_str(),
                                        componentShortName(component),
                                        faults)] = r.counts.counts;
                }
            }
        }
    }

    for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(strprintf("threads=%u", threads));
        Study study(sweepConfig(threads));
        SweepReport report = study.runSweep();
        EXPECT_EQ(report.cells, 36u);
        EXPECT_EQ(report.simulatedCells, 36u);
        EXPECT_EQ(report.cachedCells, 0u);
        EXPECT_FALSE(report.cancelled);
        for (const auto* w : study.workloadSet()) {
            for (Component component : AllComponents) {
                for (uint32_t faults = 1; faults <= 3; ++faults) {
                    const CampaignResult& r =
                        study.campaign(w->name, component, faults);
                    EXPECT_EQ(r.counts.counts,
                              reference[strprintf(
                                  "%s_%s_f%u", w->name.c_str(),
                                  componentShortName(component),
                                  faults)])
                        << w->name << " "
                        << componentShortName(component) << " f"
                        << faults;
                }
            }
        }
    }
}

TEST_F(SweepTest, GoldenSimulatedOncePerWorkload)
{
    Study study(sweepConfig(4));
    uint64_t before = goldenSimulationCount();
    SweepReport report = study.runSweep();
    // 36 cells, 2 workloads: the shared store collapses what used to be
    // 36 golden simulations into exactly 2.
    EXPECT_EQ(report.goldenSimulations, 2u);
    EXPECT_EQ(goldenSimulationCount() - before, 2u);
}

TEST_F(SweepTest, GoldenCyclesDoesNotResimulate)
{
    StudyConfig config = sweepConfig(1);
    config.workloads = {"stringsearch"};
    Study study(config);

    uint64_t before = goldenSimulationCount();
    uint64_t cycles = study.goldenCycles("stringsearch");
    EXPECT_GT(cycles, 0u);
    EXPECT_EQ(goldenSimulationCount() - before, 1u);

    // A later campaign of the same workload reuses the store entry,
    // and a later goldenCycles() is a memo hit: still one simulation.
    const CampaignResult& r =
        study.campaign("stringsearch", Component::L1D, 1);
    EXPECT_EQ(r.goldenCycles, cycles);
    EXPECT_EQ(study.goldenCycles("stringsearch"), cycles);
    EXPECT_EQ(goldenSimulationCount() - before, 1u);
}

TEST_F(SweepTest, ConcurrentStudyAccessIsRaceFree)
{
    // campaign() and goldenCycles() are documented thread-safe; hammer
    // them from four threads over the same grid so TSan (the CI tsan
    // job runs test_core) can see any unguarded access to the memo
    // maps. Duplicated work on a shared miss is allowed; torn state is
    // not.
    StudyConfig config = sweepConfig(1);
    config.workloads = {"stringsearch"};
    config.injections = 3;
    Study study(config);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&study] {
            for (Component component : AllComponents) {
                for (uint32_t faults = 1; faults <= 3; ++faults) {
                    const CampaignResult& r = study.campaign(
                        "stringsearch", component, faults);
                    EXPECT_EQ(r.completed, 3u);
                    EXPECT_EQ(study.goldenCycles("stringsearch"),
                              r.goldenCycles);
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();
}

TEST_F(SweepTest, CancelledSweepCachesNoPartialCellAndResumes)
{
    std::string cache_dir = freshDir("mbusim_sweep_cache");
    std::string journal_dir = freshDir("mbusim_sweep_journal");

    StudyConfig config = sweepConfig(2);
    config.cacheDir = cache_dir;
    config.journalDir = journal_dir;
    // As if ^C arrived mid-sweep: the 13th simulation attempt raises
    // the interrupt flag. 13 is not a multiple of the 5-run cell size,
    // so at least one cell is always left partially finished.
    std::atomic<uint32_t> attempts{0};
    config.hostFaultHook = [&attempts](uint32_t, uint32_t) {
        if (attempts.fetch_add(1) + 1 == 13)
            requestInterrupt();
    };

    SweepReport report;
    {
        Study study(config);
        report = study.runSweep();
    }
    clearInterrupt();
    EXPECT_TRUE(report.cancelled);
    EXPECT_LT(report.simulatedCells, report.cells);
    // Only fully finished cells may reach the disk cache.
    EXPECT_EQ(fileCount(cache_dir), report.simulatedCells);

    // Rerun with the interrupt gone: cached cells are reused, the
    // partial cell's journal is replayed, and the final grid matches a
    // pristine uninterrupted sweep bit for bit.
    config.hostFaultHook = nullptr;
    Study resumed(config);
    SweepReport second = resumed.runSweep();
    EXPECT_FALSE(second.cancelled);
    EXPECT_EQ(second.cachedCells, report.simulatedCells);
    EXPECT_EQ(second.cachedCells + second.simulatedCells, second.cells);
    EXPECT_GT(second.runsResumed, 0u);

    Study pristine(sweepConfig(2));
    pristine.runSweep();
    for (const auto* w : pristine.workloadSet()) {
        for (Component component : AllComponents) {
            for (uint32_t faults = 1; faults <= 3; ++faults) {
                SCOPED_TRACE(strprintf(
                    "%s %s f%u", w->name.c_str(),
                    componentShortName(component), faults));
                const CampaignResult& a =
                    resumed.campaign(w->name, component, faults);
                const CampaignResult& b =
                    pristine.campaign(w->name, component, faults);
                EXPECT_EQ(a.counts.counts, b.counts.counts);
                EXPECT_EQ(a.goldenCycles, b.goldenCycles);
            }
        }
    }

    std::filesystem::remove_all(cache_dir);
    std::filesystem::remove_all(journal_dir);
}

TEST_F(SweepTest, SerialFallbackMatchesScheduler)
{
    StudyConfig config = sweepConfig(2);
    config.workloads = {"stringsearch"};
    config.sweepScheduler = false;
    Study serial(config);
    SweepReport report = serial.runSweep();
    EXPECT_EQ(report.cells, 18u);
    EXPECT_EQ(report.simulatedCells, 18u);
    EXPECT_EQ(report.goldenSimulations, 1u);

    config.sweepScheduler = true;
    Study scheduled(config);
    scheduled.runSweep();
    for (Component component : AllComponents) {
        for (uint32_t faults = 1; faults <= 3; ++faults) {
            EXPECT_EQ(serial.campaign("stringsearch", component, faults)
                          .counts.counts,
                      scheduled
                          .campaign("stringsearch", component, faults)
                          .counts.counts);
        }
    }
}

TEST_F(SweepTest, SharedCursorsMatchPerCellAndPerRunRecords)
{
    // The in-process sweep rides every cell of a program on one
    // lockstep cursor per checkpoint interval. Records must equal,
    // field for field, both the serial loop's per-cell lockstep
    // cursors and per-run execution with no cursor at all.
    std::string dir = freshDir("mbusim_sweep_shared");
    std::filesystem::create_directories(dir);
    StudyConfig config = sweepConfig(1);
    config.injections = 12;
    Counter& cursor = metrics().counter("campaign.cursor_cycles");
    Counter& forks = metrics().counter("campaign.forks");
    Counter& never = metrics().counter("campaign.never_forked");

    config.sweepScheduler = false;
    uint64_t before = cursor.value();
    const std::vector<std::string> per_cell =
        tracedSweep(config, dir + "/serial.jsonl");
    const uint64_t per_cell_cursor = cursor.value() - before;
    ASSERT_EQ(per_cell.size(), 36u * 12u);

    config.sweepScheduler = true;
    config.threads = 4;
    setenv("MBUSIM_COHORT", "0", 1);
    const std::vector<std::string> per_run =
        tracedSweep(config, dir + "/per_run.jsonl");
    unsetenv("MBUSIM_COHORT");
    EXPECT_EQ(per_run, per_cell);

    for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(strprintf("threads=%u", threads));
        config.threads = threads;
        const std::string path =
            dir + strprintf("/shared%u.jsonl", threads);
        before = cursor.value();
        const uint64_t forks_before = forks.value();
        const uint64_t never_before = never.value();
        EXPECT_EQ(tracedSweep(config, path), per_cell);

        // Vacuity guards: the shared path forked and retired runs
        // straight from overlays, its cursors replayed fewer golden
        // cycles than the per-cell ones, and some cursor carried two
        // cells with different fault targets.
        EXPECT_GT(forks.value() - forks_before, 0u);
        EXPECT_GT(never.value() - never_before, 0u);
        EXPECT_LT(cursor.value() - before, per_cell_cursor);
        static const std::regex fields(
            "\"workload\":\"([^\"]+)\",\"component\":\"([^\"]+)\","
            "\"faults\":([0-9]+).*\"cohort\":\\[([0-9]+),");
        std::map<std::string, std::set<std::string>> cells, targets;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            std::smatch m;
            ASSERT_TRUE(std::regex_search(line, m, fields)) << line;
            cells[m[4]].insert(m[1].str() + m[2].str() + m[3].str());
            targets[m[4]].insert(m[2]);
        }
        size_t widest = 0;
        for (const auto& [unit, components] : targets)
            widest = std::max(widest, std::min(components.size(),
                                               cells[unit].size()));
        EXPECT_GE(widest, 2u);
    }
    std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, ShallowQueueSplitsSharedUnitsCycleContiguously)
{
    // Without checkpoints a program has a single interval, so two
    // programs give two shared units — fewer than two per worker at 4
    // threads. They are split into cycle-contiguous chunks of at most
    // runs/(2 x threads) runs, queued largest first, and the records
    // still equal the serial loop's.
    setenv("MBUSIM_CHECKPOINTS", "0", 1);
    StudyConfig config = sweepConfig(4);
    config.injections = 8;
    {
        Study study(config);
        SweepReport report;
        std::vector<std::string> cached;
        auto cells = study.prepareSweepCells(report, cached, 4);
        const std::vector<SweepUnit> units = fuseSweepUnits(cells, 4);
        const uint64_t runs = 36u * 8u;
        const uint64_t max_chunk = (runs + 7) / 8;
        EXPECT_GT(units.size(), 2u);
        uint64_t total = 0;
        bool spans_cells = false;
        // Cycle-contiguous: per program, the chunks' injection-cycle
        // windows [first, last] do not overlap.
        std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>>
            windows;
        for (size_t u = 0; u < units.size(); ++u) {
            EXPECT_LE(units[u].runs, max_chunk);
            if (u > 0) {
                EXPECT_LE(units[u].cost, units[u - 1].cost);
            }
            total += units[u].runs;
            spans_cells |= units[u].cells.size() >= 2;
            std::pair<uint64_t, uint64_t> window{UINT64_MAX, 0};
            for (size_t i = 0; i < units[u].cells.size(); ++i) {
                for (uint32_t index : units[u].cohorts[i].indices) {
                    const uint64_t cycle =
                        units[u].cells[i]->exec->injectionCycle(index);
                    window.first = std::min(window.first, cycle);
                    window.second = std::max(window.second, cycle);
                }
            }
            windows[units[u].cells.front()->workload->name].push_back(
                window);
        }
        for (auto& [workload, spans] : windows) {
            std::sort(spans.begin(), spans.end());
            for (size_t j = 1; j < spans.size(); ++j)
                EXPECT_LE(spans[j - 1].second, spans[j].first) << workload;
        }
        EXPECT_EQ(total, runs);
        EXPECT_TRUE(spans_cells);
    }

    std::string dir = freshDir("mbusim_sweep_split");
    std::filesystem::create_directories(dir);
    const std::vector<std::string> split =
        tracedSweep(config, dir + "/split.jsonl");
    config.sweepScheduler = false;
    EXPECT_EQ(split, tracedSweep(config, dir + "/serial.jsonl"));
    unsetenv("MBUSIM_CHECKPOINTS");
    std::filesystem::remove_all(dir);
}

TEST_F(SweepTest, EnvKnobDisablesScheduler)
{
    StudyConfig config = sweepConfig(1);
    config.workloads = {"stringsearch"};
    setenv("MBUSIM_SWEEP_SCHEDULER", "0", 1);
    Study study(config);
    unsetenv("MBUSIM_SWEEP_SCHEDULER");
    // The escape hatch must fold into the resolved config so the
    // serial loop runs, and still produce a complete grid.
    EXPECT_FALSE(study.config().sweepScheduler);
    SweepReport report = study.runSweep();
    EXPECT_EQ(report.simulatedCells, 18u);
}

} // namespace
} // namespace mbusim::core
