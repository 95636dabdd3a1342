/**
 * @file
 * Tests for the campaign resilience layer: fault-isolated workers with
 * deterministic retry, the Error outcome bucket, journal-based resume,
 * and the hardened Study disk cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>

#include "core/study.hh"
#include "util/interrupt.hh"
#include "util/metrics.hh"

namespace mbusim::core {
namespace {

CampaignConfig
smallConfig(Component component, uint32_t faults, uint32_t injections)
{
    CampaignConfig config;
    config.component = component;
    config.faults = faults;
    config.injections = injections;
    config.threads = 1;
    return config;
}

std::string
freshDir(const std::string& name)
{
    std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The one journal file a single-campaign directory holds. */
std::string
journalFile(const std::string& dir)
{
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        return entry.path().string();
    ADD_FAILURE() << "no journal written in " << dir;
    return "";
}

TEST(ResilienceTest, TransientHostFaultRetriedWithoutTrace)
{
    // Runs are deterministic in (seed, index): a retry replays the
    // identical injection, so one transient host fault must leave no
    // mark on the campaign at all.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::RegFile, 1, 30);
    CampaignResult baseline = Campaign(w, config).run(true);

    config.hostFaultHook = [](uint32_t index, uint32_t attempt) {
        if (index == 7 && attempt == 0)
            throw std::runtime_error("transient host fault");
    };
    CampaignResult retried = Campaign(w, config).run(true);

    EXPECT_EQ(retried.counts.counts, baseline.counts.counts);
    EXPECT_EQ(retried.counts.count(Outcome::Error), 0u);
    ASSERT_EQ(retried.runs.size(), baseline.runs.size());
    for (size_t i = 0; i < baseline.runs.size(); ++i) {
        EXPECT_EQ(retried.runs[i].outcome, baseline.runs[i].outcome);
        EXPECT_EQ(retried.runs[i].cycle, baseline.runs[i].cycle);
        EXPECT_EQ(retried.runs[i].cycles, baseline.runs[i].cycles);
    }
}

TEST(ResilienceTest, PersistentHostFaultBecomesErrorBucket)
{
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::RegFile, 1, 25);
    CampaignResult baseline = Campaign(w, config).run();

    config.hostFaultHook = [](uint32_t index, uint32_t) {
        if (index == 3)
            throw std::runtime_error("persistent host fault");
        if (index == 11)
            throw std::bad_alloc();   // non-runtime_error path
    };
    CampaignResult result = Campaign(w, config).run();

    // The campaign survives, every run is accounted for, and the two
    // poisoned runs land in Error — which the AVF denominator excludes
    // (infrastructure failures must not masquerade as vulnerability).
    EXPECT_EQ(result.counts.total(), 25u);
    EXPECT_EQ(result.counts.count(Outcome::Error), 2u);
    EXPECT_EQ(result.counts.classified(), 23u);
    EXPECT_EQ(result.completed, 25u);
    EXPECT_FALSE(result.cancelled);
    // Unaffected runs classify exactly as before: every non-Error
    // bucket can only have shrunk by what moved into Error.
    for (Outcome o : {Outcome::Masked, Outcome::Sdc, Outcome::Crash,
                      Outcome::Timeout, Outcome::Assert}) {
        EXPECT_LE(result.counts.count(o), baseline.counts.count(o));
    }
}

TEST(ResilienceTest, InterruptedCampaignResumesBitIdentical)
{
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::L1D, 2, 30);
    CampaignResult baseline = Campaign(w, config).run(true);

    std::string dir = freshDir("mbusim_journal_resume");
    config.journalDir = dir;
    config.hostFaultHook = [](uint32_t index, uint32_t) {
        if (index == 12)
            requestInterrupt();   // as if ^C arrived mid-campaign
    };
    CampaignResult partial = Campaign(w, config).run();
    clearInterrupt();
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed, 30u);
    EXPECT_GT(partial.completed, 0u);

    // A fresh Campaign over the same journal replays the finished runs
    // and simulates only the remainder — ending bit-identical to the
    // never-interrupted baseline.
    config.hostFaultHook = nullptr;
    CampaignResult resumed = Campaign(w, config).run(true);
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.resumed, partial.completed);
    EXPECT_EQ(resumed.completed, 30u);
    EXPECT_EQ(resumed.counts.counts, baseline.counts.counts);
    ASSERT_EQ(resumed.runs.size(), baseline.runs.size());
    for (size_t i = 0; i < baseline.runs.size(); ++i) {
        EXPECT_EQ(resumed.runs[i].index, baseline.runs[i].index);
        EXPECT_EQ(resumed.runs[i].cycle, baseline.runs[i].cycle);
        EXPECT_EQ(resumed.runs[i].outcome, baseline.runs[i].outcome);
        EXPECT_EQ(resumed.runs[i].cycles, baseline.runs[i].cycles);
        ASSERT_EQ(resumed.runs[i].mask.flips.size(),
                  baseline.runs[i].mask.flips.size());
        for (size_t f = 0; f < baseline.runs[i].mask.flips.size(); ++f) {
            EXPECT_EQ(resumed.runs[i].mask.flips[f].row,
                      baseline.runs[i].mask.flips[f].row);
            EXPECT_EQ(resumed.runs[i].mask.flips[f].col,
                      baseline.runs[i].mask.flips[f].col);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, MidCohortInterruptResumesBitIdentical)
{
    // Interrupt in the middle of a cohort (the attempt counter fires
    // mid-campaign regardless of which cohort serves which index): the
    // cohort's retired runs are journalled, its abandoned tail stays
    // pending, and the resumed campaign — whose replayed runs drop out
    // of their re-planned cohorts — must end bit-identical to a
    // straight baseline.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::L1D, 2, 30);
    config.cohortBatching = false;
    CampaignResult baseline = Campaign(w, config).run(true);

    std::string dir = freshDir("mbusim_journal_midcohort");
    config.cohortBatching = true;
    config.journalDir = dir;
    auto attempts = std::make_shared<std::atomic<uint32_t>>(0);
    config.hostFaultHook = [attempts](uint32_t, uint32_t) {
        if (attempts->fetch_add(1) + 1 == 11)
            requestInterrupt();   // as if ^C arrived mid-cohort
    };
    CampaignResult partial = Campaign(w, config).run();
    clearInterrupt();
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed, 30u);
    EXPECT_GT(partial.completed, 0u);

    config.hostFaultHook = nullptr;
    CampaignResult resumed = Campaign(w, config).run(true);
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.resumed, partial.completed);
    EXPECT_EQ(resumed.completed, 30u);
    EXPECT_EQ(resumed.counts.counts, baseline.counts.counts);
    ASSERT_EQ(resumed.runs.size(), baseline.runs.size());
    for (size_t i = 0; i < baseline.runs.size(); ++i) {
        EXPECT_EQ(resumed.runs[i].index, baseline.runs[i].index);
        EXPECT_EQ(resumed.runs[i].cycle, baseline.runs[i].cycle);
        EXPECT_EQ(resumed.runs[i].outcome, baseline.runs[i].outcome);
        EXPECT_EQ(resumed.runs[i].cycles, baseline.runs[i].cycles);
        EXPECT_EQ(resumed.runs[i].restoredFrom,
                  baseline.runs[i].restoredFrom);
        EXPECT_EQ(resumed.runs[i].exitReason,
                  baseline.runs[i].exitReason);
        EXPECT_EQ(resumed.runs[i].cyclesSaved,
                  baseline.runs[i].cyclesSaved);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, MidLockstepInterruptResumesBitIdentical)
{
    // Interrupt while a lockstep cohort is riding the shared cursor
    // (the attach-time hook fires mid-cohort, and the interrupt is
    // noticed at the cursor's next stop poll): attached-but-unfinished
    // overlays are abandoned without a journal entry, and the resumed
    // campaign — still on the lockstep path — must end bit-identical
    // to a straight baseline. This pins the journal discipline of the
    // overlay shortcuts: a run is recorded only when it retires or its
    // fork finishes, never when it merely attaches.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::L1D, 2, 30);
    config.cohortBatching = false;
    CampaignResult baseline = Campaign(w, config).run(true);

    std::string dir = freshDir("mbusim_journal_midlockstep");
    config.cohortBatching = true;
    config.lockstep = true;
    config.journalDir = dir;
    auto attempts = std::make_shared<std::atomic<uint32_t>>(0);
    config.hostFaultHook = [attempts](uint32_t, uint32_t) {
        if (attempts->fetch_add(1) + 1 == 11)
            requestInterrupt();   // as if ^C arrived mid-lockstep
    };
    CampaignResult partial = Campaign(w, config).run();
    clearInterrupt();
    EXPECT_TRUE(partial.cancelled);
    EXPECT_LT(partial.completed, 30u);
    EXPECT_GT(partial.completed, 0u);

    config.hostFaultHook = nullptr;
    CampaignResult resumed = Campaign(w, config).run(true);
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.resumed, partial.completed);
    EXPECT_EQ(resumed.completed, 30u);
    EXPECT_EQ(resumed.counts.counts, baseline.counts.counts);
    ASSERT_EQ(resumed.runs.size(), baseline.runs.size());
    for (size_t i = 0; i < baseline.runs.size(); ++i) {
        EXPECT_EQ(resumed.runs[i].index, baseline.runs[i].index);
        EXPECT_EQ(resumed.runs[i].cycle, baseline.runs[i].cycle);
        EXPECT_EQ(resumed.runs[i].outcome, baseline.runs[i].outcome);
        EXPECT_EQ(resumed.runs[i].cycles, baseline.runs[i].cycles);
        EXPECT_EQ(resumed.runs[i].restoredFrom,
                  baseline.runs[i].restoredFrom);
        EXPECT_EQ(resumed.runs[i].exitReason,
                  baseline.runs[i].exitReason);
        EXPECT_EQ(resumed.runs[i].cyclesSaved,
                  baseline.runs[i].cyclesSaved);
    }
    std::filesystem::remove_all(dir);
}

/** Trace records of @p paths without the host-bookkeeping tail that
 *  starts at the cohort field, sorted. */
std::vector<std::string>
traceRecords(const std::vector<std::string>& paths)
{
    std::vector<std::string> records;
    for (const std::string& path : paths) {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            records.push_back(line.substr(0, line.find(",\"cohort\":")));
    }
    std::sort(records.begin(), records.end());
    return records;
}

/** Run records a journal file holds. */
uint32_t
journalRuns(const std::string& path)
{
    std::ifstream in(path);
    std::string line;
    uint32_t runs = 0;
    while (std::getline(in, line))
        runs += line.rfind("run ", 0) == 0;
    return runs;
}

TEST(ResilienceTest, InterruptInSharedCursorUnitResumesBitIdentical)
{
    // The in-process sweep rides all 18 cells of a program on one
    // lockstep cursor per checkpoint interval. An interrupt inside
    // such a unit leaves several cells part-done at once: none of them
    // may reach the disk cache, every cell finished before it must,
    // and the resumed sweep must end record-identical to an
    // uninterrupted one.
    const std::string cache_dir = freshDir("mbusim_shared_cache");
    const std::string journal_dir = freshDir("mbusim_shared_journal");
    const std::string trace_dir = freshDir("mbusim_shared_trace");
    std::filesystem::create_directories(trace_dir);
    constexpr uint32_t Injections = 10;

    StudyConfig config;
    config.workloads = {"stringsearch"};
    config.injections = Injections;
    config.threads = 1;
    config.cacheDir = cache_dir;
    config.journalDir = journal_dir;
    // As if ^C arrived once 150 of the 180 runs are done: late enough
    // that some cells have finished, inside a unit that still carries
    // runs of several others.
    Counter& simulated = metrics().counter("campaign.runs_simulated");
    const uint64_t start = simulated.value();
    config.hostFaultHook = [&simulated, start](uint32_t, uint32_t) {
        if (simulated.value() - start >= 150)
            requestInterrupt();
    };
    config.trace =
        std::make_shared<JsonlWriter>(trace_dir + "/first.jsonl");
    SweepReport first;
    {
        Study study(config);
        first = study.runSweep();
    }
    config.trace->close();
    clearInterrupt();
    ASSERT_TRUE(first.cancelled);
    EXPECT_GT(first.simulatedCells, 0u);

    // A cell is in the cache exactly when its journal holds every run.
    uint32_t partial = 0, complete = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(journal_dir)) {
        const std::string name = entry.path().filename().string();
        const std::string key = name.substr(0, name.find(".journal"));
        const uint32_t runs = journalRuns(entry.path().string());
        const bool cached =
            std::filesystem::exists(cache_dir + "/" + key + ".txt");
        EXPECT_EQ(cached, runs == Injections) << key << ": " << runs;
        partial += runs > 0 && runs < Injections;
        complete += runs == Injections;
    }
    EXPECT_EQ(complete, first.simulatedCells);
    // The interrupted unit spanned cells: several are part-done.
    EXPECT_GE(partial, 2u);

    config.hostFaultHook = nullptr;
    config.trace =
        std::make_shared<JsonlWriter>(trace_dir + "/second.jsonl");
    SweepReport second;
    {
        Study study(config);
        second = study.runSweep();
    }
    config.trace->close();
    EXPECT_FALSE(second.cancelled);
    EXPECT_EQ(second.cachedCells, first.simulatedCells);
    EXPECT_EQ(second.cachedCells + second.simulatedCells, 18u);
    EXPECT_GT(second.runsResumed, 0u);

    // Finished cells were traced by the first sweep, the rest (with
    // their replayed runs) by the second: together, every run once,
    // identical to a sweep that was never interrupted.
    StudyConfig pristine;
    pristine.workloads = config.workloads;
    pristine.injections = Injections;
    pristine.threads = 1;
    pristine.trace =
        std::make_shared<JsonlWriter>(trace_dir + "/pristine.jsonl");
    Study(pristine).runSweep();
    pristine.trace->close();
    const std::vector<std::string> expected =
        traceRecords({trace_dir + "/pristine.jsonl"});
    EXPECT_EQ(expected.size(), 18u * Injections);
    EXPECT_EQ(traceRecords({trace_dir + "/first.jsonl",
                            trace_dir + "/second.jsonl"}),
              expected);

    std::filesystem::remove_all(cache_dir);
    std::filesystem::remove_all(journal_dir);
    std::filesystem::remove_all(trace_dir);
}

TEST(ResilienceTest, CorruptJournalRecordIsResimulated)
{
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::RegFile, 1, 20);
    CampaignResult baseline = Campaign(w, config).run();

    std::string dir = freshDir("mbusim_journal_corrupt");
    config.journalDir = dir;
    Campaign(w, config).run();   // completes; journal holds all 20 runs

    // Mangle one record byte: its checksum now fails, so replay must
    // drop exactly that run and the next invocation re-simulates it.
    std::string path = journalFile(dir);
    ASSERT_FALSE(path.empty());
    std::string contents;
    {
        std::ifstream in(path);
        contents.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    size_t pos = contents.find("\nrun 5 ");
    ASSERT_NE(pos, std::string::npos);
    contents[pos + 5] = 'x';
    {
        std::ofstream out(path, std::ios::trunc);
        out << contents;
    }

    CampaignResult healed = Campaign(w, config).run();
    EXPECT_EQ(healed.resumed, 19u);
    EXPECT_EQ(healed.counts.counts, baseline.counts.counts);
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, JournalKeyedToCampaignParameters)
{
    // A journal from one parameter set must never leak runs into a
    // campaign with a different seed.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::RegFile, 1, 15);
    std::string dir = freshDir("mbusim_journal_keyed");
    config.journalDir = dir;
    Campaign(w, config).run();

    config.seed = 999;
    CampaignResult other = Campaign(w, config).run();
    EXPECT_EQ(other.resumed, 0u);
    EXPECT_EQ(other.completed, 15u);
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, EnvironmentKnobsResolvedAtConstruction)
{
    // The thread count is resolved once in the constructor; a garbage
    // value that appears later must not be re-read (and fatal) in run().
    setenv("MBUSIM_THREADS", "1", 1);
    CampaignConfig config = smallConfig(Component::RegFile, 1, 10);
    config.threads = 0;   // defer to the environment
    Campaign campaign(workloads::workloadByName("stringsearch"), config);
    setenv("MBUSIM_THREADS", "garbage", 1);
    CampaignResult result = campaign.run();
    unsetenv("MBUSIM_THREADS");
    EXPECT_EQ(result.counts.total(), 10u);
}

TEST(ResilienceTest, StudyCacheCorruptionRegenerates)
{
    std::string dir = freshDir("mbusim_cache_corrupt");
    StudyConfig config;
    config.injections = 12;
    config.threads = 1;
    config.workloads = {"stringsearch"};
    config.cacheDir = dir;

    OutcomeCounts first;
    std::string path;
    {
        Study study(config);
        first = study.campaign("stringsearch", Component::L1D, 1).counts;
        for (const auto& e : std::filesystem::directory_iterator(dir))
            path = e.path().string();
    }
    ASSERT_FALSE(path.empty());

    auto reloadWith = [&](const std::string& contents) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << contents;
        }
        Study study(config);
        return study.campaign("stringsearch", Component::L1D, 1).counts;
    };

    // Truncated, garbage and checksum-corrupted entries must all be
    // treated as misses and regenerated with identical counts...
    EXPECT_EQ(reloadWith("").counts, first.counts);
    EXPECT_EQ(reloadWith("mbusim-cache v2 partial").counts, first.counts);
    std::string valid;
    {
        std::ifstream in(path);
        valid.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    std::string flipped = valid;
    size_t digit = flipped.find_first_of("0123456789", flipped.find('\n'));
    ASSERT_NE(digit, std::string::npos);
    flipped[digit] = flipped[digit] == '9' ? '8' : '9';
    EXPECT_EQ(reloadWith(flipped).counts, first.counts);

    // ...and the regenerated entry on disk is valid again: a fresh
    // Study loads it without re-running (goldenCycles comes from the
    // entry, not a simulation, when the load hits).
    {
        Study study(config);
        EXPECT_EQ(study.campaign("stringsearch", Component::L1D, 1)
                      .counts.counts,
                  first.counts);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, StaleCacheVersionRegenerates)
{
    std::string dir = freshDir("mbusim_cache_stale");
    StudyConfig config;
    config.injections = 10;
    config.threads = 1;
    config.workloads = {"stringsearch"};
    config.cacheDir = dir;

    OutcomeCounts first;
    std::string path;
    {
        Study study(config);
        first = study.campaign("stringsearch", Component::DTLB, 1).counts;
        for (const auto& e : std::filesystem::directory_iterator(dir))
            path = e.path().string();
    }
    // Rewrite the entry under the v2-era format tag (pre early-exit):
    // the versioned header check must reject it even though the
    // checksum line is intact.
    std::string contents;
    {
        std::ifstream in(path);
        contents.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    }
    size_t v = contents.find("v3");
    ASSERT_NE(v, std::string::npos);
    contents[v + 1] = '2';
    {
        std::ofstream out(path, std::ios::trunc);
        out << contents;
    }
    Study study(config);
    EXPECT_EQ(study.campaign("stringsearch", Component::DTLB, 1)
                  .counts.counts,
              first.counts);
    std::filesystem::remove_all(dir);
}

TEST(ResilienceTest, DeadlineCancelsGracefully)
{
    // An already-expired deadline stops the campaign before any run is
    // claimed; the result reports the cancellation instead of dying.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignConfig config = smallConfig(Component::RegFile, 1, 20);
    config.deadlineSeconds = 0;   // resolved below via the hook instead
    config.hostFaultHook = [](uint32_t, uint32_t) {
        requestInterrupt();
    };
    CampaignResult result = Campaign(w, config).run();
    clearInterrupt();
    EXPECT_TRUE(result.cancelled);
    EXPECT_LE(result.completed, 1u);
}

} // namespace
} // namespace mbusim::core
