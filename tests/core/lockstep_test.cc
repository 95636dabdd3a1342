/**
 * @file
 * Lockstep cohort equivalence sweep (DESIGN.md §13, §15). A cohort's
 * runs ride one shared golden cursor as flip overlays and only
 * materialize a private simulator when a flip propagates; runs whose
 * flips all die retire with zero private simulation. That is a pure
 * host-side scheduling change: against the straight path (cohort
 * batching off — every run restores its ladder checkpoint and
 * simulates alone) every campaign must produce identical outcome
 * counts and field-for-field identical RunRecords, including the
 * early-exit bookkeeping (exitReason, cyclesSaved, restoredFrom) that
 * the retire/fork shortcuts reconstruct without simulating. And the
 * sweep must demonstrably exercise both shortcut paths (forks and
 * never-forked retirements), or the proof is vacuous.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/campaign.hh"
#include "util/log.hh"
#include "util/metrics.hh"

namespace mbusim::core {
namespace {

class LockstepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The sweep controls both arms through CampaignConfig alone.
        unsetenv("MBUSIM_EARLY_EXIT");
        unsetenv("MBUSIM_DIGEST_POINTS");
        unsetenv("MBUSIM_CHECKPOINTS");
        unsetenv("MBUSIM_COHORT");
        unsetenv("MBUSIM_JOURNAL_DIR");
    }
};

/** @p lockstep = false selects the straight reference path. */
CampaignConfig
armConfig(Component component, uint32_t faults, bool lockstep,
          uint32_t injections = 6, uint32_t threads = 1)
{
    CampaignConfig config;
    config.component = component;
    config.faults = faults;
    config.injections = injections;
    config.threads = threads;
    config.cohortBatching = lockstep;
    return config;
}

/** Field-for-field equality of the deterministic RunRecord fields
 *  (everything but wallMicros, the cohort assignment and the fork
 *  cycle, which are host-side). */
void
expectSameRuns(const CampaignResult& a, const CampaignResult& b)
{
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        SCOPED_TRACE(strprintf("run %zu", i));
        EXPECT_EQ(a.runs[i].index, b.runs[i].index);
        EXPECT_EQ(a.runs[i].cycle, b.runs[i].cycle);
        EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome);
        EXPECT_EQ(a.runs[i].cycles, b.runs[i].cycles);
        EXPECT_EQ(a.runs[i].restoredFrom, b.runs[i].restoredFrom);
        EXPECT_EQ(a.runs[i].exitReason, b.runs[i].exitReason);
        EXPECT_EQ(a.runs[i].cyclesSaved, b.runs[i].cyclesSaved);
        EXPECT_EQ(a.runs[i].mask.clusterRow, b.runs[i].mask.clusterRow);
        EXPECT_EQ(a.runs[i].mask.clusterCol, b.runs[i].mask.clusterCol);
        ASSERT_EQ(a.runs[i].mask.flips.size(),
                  b.runs[i].mask.flips.size());
        for (size_t f = 0; f < a.runs[i].mask.flips.size(); ++f) {
            EXPECT_EQ(a.runs[i].mask.flips[f].row,
                      b.runs[i].mask.flips[f].row);
            EXPECT_EQ(a.runs[i].mask.flips[f].col,
                      b.runs[i].mask.flips[f].col);
        }
    }
}

TEST_F(LockstepTest, EquivalenceSweepAcrossComponentsAndCardinalities)
{
    Counter& forks = metrics().counter("campaign.forks");
    Counter& retired = metrics().counter("campaign.never_forked");
    const uint64_t forks_before = forks.value();
    const uint64_t retired_before = retired.value();

    for (const char* workload : {"stringsearch", "susan_c"}) {
        const auto& w = workloads::workloadByName(workload);
        for (Component component :
             {Component::L1D, Component::L1I, Component::RegFile,
              Component::DTLB}) {
            for (uint32_t faults = 1; faults <= 3; ++faults) {
                SCOPED_TRACE(strprintf("%s %s f%u", workload,
                                       componentShortName(component),
                                       faults));
                CampaignResult on =
                    Campaign(w, armConfig(component, faults, true))
                        .run(true);
                CampaignResult off =
                    Campaign(w, armConfig(component, faults, false))
                        .run(true);

                EXPECT_EQ(on.counts.counts, off.counts.counts);
                EXPECT_EQ(on.goldenCycles, off.goldenCycles);
                expectSameRuns(on, off);
                for (const RunRecord& run : on.runs)
                    EXPECT_GE(run.cohortId, 0);
                for (const RunRecord& run : off.runs) {
                    EXPECT_EQ(run.cohortId, -1);
                    EXPECT_EQ(run.forkedAt, -1);
                }
            }
        }
    }
    // Both shortcut paths must fire somewhere in the sweep: runs that
    // propagated and forked into private simulators, and runs that
    // retired straight from the cursor without simulating a cycle.
    EXPECT_GT(forks.value(), forks_before);
    EXPECT_GT(retired.value(), retired_before);
}

TEST_F(LockstepTest, MultiThreadedLockstepMatchesSerialPerRun)
{
    // Cohort splitting and worker interleaving must not leak into
    // results: a 3-worker lockstep campaign matches a serial straight
    // one.
    const auto& w = workloads::workloadByName("stringsearch");
    CampaignResult lockstep =
        Campaign(w, armConfig(Component::L1D, 2, true, 24, 3))
            .run(true);
    CampaignResult serial =
        Campaign(w, armConfig(Component::L1D, 2, false, 24, 1))
            .run(true);
    EXPECT_EQ(lockstep.counts.counts, serial.counts.counts);
    expectSameRuns(lockstep, serial);
}

TEST_F(LockstepTest, EnvKnobSelectsStraightPath)
{
    // MBUSIM_COHORT=0 overrides the config default: no cohort is ever
    // executed, no run forks or retires from an overlay, no run
    // carries a cohort assignment, and the records are identical.
    const auto& w = workloads::workloadByName("stringsearch");
    Counter& cohorts = metrics().counter("campaign.cohorts");
    Counter& forks = metrics().counter("campaign.forks");
    Counter& retired = metrics().counter("campaign.never_forked");

    setenv("MBUSIM_COHORT", "0", 1);
    const uint64_t cohorts_before = cohorts.value();
    const uint64_t forks_before = forks.value();
    const uint64_t retired_before = retired.value();
    CampaignResult off =
        Campaign(w, armConfig(Component::L2, 1, true)).run(true);
    unsetenv("MBUSIM_COHORT");
    EXPECT_EQ(cohorts.value(), cohorts_before);
    EXPECT_EQ(forks.value(), forks_before);
    EXPECT_EQ(retired.value(), retired_before);
    for (const RunRecord& run : off.runs)
        EXPECT_EQ(run.cohortId, -1);

    // With the knob unset the config default applies again.
    CampaignResult on =
        Campaign(w, armConfig(Component::L2, 1, true)).run(true);
    EXPECT_GT(cohorts.value(), cohorts_before);
    EXPECT_EQ(on.counts.counts, off.counts.counts);
    expectSameRuns(on, off);
}

TEST_F(LockstepTest, LockstepFalseSelectsStraightPath)
{
    // CampaignConfig::lockstep = false is an alias of
    // cohortBatching = false: no cohort, no fork, no overlay
    // retirement, and records identical field for field.
    const auto& w = workloads::workloadByName("stringsearch");
    Counter& cohorts = metrics().counter("campaign.cohorts");
    Counter& forks = metrics().counter("campaign.forks");
    Counter& retired = metrics().counter("campaign.never_forked");

    CampaignConfig alias = armConfig(Component::L1D, 2, true, 12);
    alias.lockstep = false;
    const uint64_t cohorts_before = cohorts.value();
    const uint64_t forks_before = forks.value();
    const uint64_t retired_before = retired.value();
    CampaignResult off = Campaign(w, alias).run(true);
    EXPECT_EQ(cohorts.value(), cohorts_before);
    EXPECT_EQ(forks.value(), forks_before);
    EXPECT_EQ(retired.value(), retired_before);
    for (const RunRecord& run : off.runs) {
        EXPECT_EQ(run.cohortId, -1);
        EXPECT_EQ(run.forkedAt, -1);
    }

    CampaignResult straight =
        Campaign(w, armConfig(Component::L1D, 2, false, 12)).run(true);
    EXPECT_EQ(off.counts.counts, straight.counts.counts);
    expectSameRuns(off, straight);
    CampaignResult on =
        Campaign(w, armConfig(Component::L1D, 2, true, 12)).run(true);
    EXPECT_GT(cohorts.value(), cohorts_before);
    EXPECT_EQ(on.counts.counts, straight.counts.counts);
    expectSameRuns(on, straight);
}

TEST_F(LockstepTest, ComposesWithEarlyExitDisabled)
{
    // Lockstep must stay bit-identical when the early-exit engine is
    // off: dead runs then retire as full golden-length executions
    // (exitReason None, zero cyclesSaved), exactly like a private
    // simulation of a machine whose flips never propagate.
    const auto& w = workloads::workloadByName("stringsearch");
    for (uint32_t faults : {1u, 3u}) {
        SCOPED_TRACE(faults);
        CampaignConfig on_cfg = armConfig(Component::L1D, faults, true);
        on_cfg.earlyExit = false;
        CampaignConfig off_cfg =
            armConfig(Component::L1D, faults, false);
        off_cfg.earlyExit = false;
        CampaignResult on = Campaign(w, on_cfg).run(true);
        CampaignResult off = Campaign(w, off_cfg).run(true);
        EXPECT_EQ(on.counts.counts, off.counts.counts);
        expectSameRuns(on, off);
        for (const RunRecord& run : on.runs) {
            EXPECT_EQ(run.exitReason, sim::EarlyExit::None);
            EXPECT_EQ(run.cyclesSaved, 0u);
        }
    }
}

} // namespace
} // namespace mbusim::core
