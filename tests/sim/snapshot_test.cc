/**
 * @file
 * Snapshot determinism tests: a run restored from a checkpoint must be
 * bit-identical to a straight run — same exit status, output, cycle and
 * instruction counts, and memory-hierarchy statistics. This is the
 * invariant the campaign checkpoint fast-forward rests on, verified at
 * several cut points on a cache-heavy (dijkstra) and a TLB-heavy
 * (susan_c, highest DTLB miss rate of the suite) workload, with and
 * without injections.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace mbusim::sim {
namespace {

Program
programFor(const char* workload)
{
    return workloads::workloadByName(workload).assemble();
}

void
expectSameResult(const SimResult& a, const SimResult& b)
{
    EXPECT_EQ(a.status.kind, b.status.kind);
    EXPECT_EQ(a.status.exitCode, b.status.exitCode);
    EXPECT_EQ(a.status.exception, b.status.exception);
    EXPECT_EQ(a.status.faultPc, b.status.faultPc);
    EXPECT_EQ(a.status.faultAddr, b.status.faultAddr);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);

    EXPECT_EQ(a.cpuStats.committed, b.cpuStats.committed);
    EXPECT_EQ(a.cpuStats.branches, b.cpuStats.branches);
    EXPECT_EQ(a.cpuStats.mispredicts, b.cpuStats.mispredicts);
    EXPECT_EQ(a.cpuStats.squashedInsts, b.cpuStats.squashedInsts);
    EXPECT_EQ(a.cpuStats.loads, b.cpuStats.loads);
    EXPECT_EQ(a.cpuStats.stores, b.cpuStats.stores);
    EXPECT_EQ(a.cpuStats.storeForwards, b.cpuStats.storeForwards);

    EXPECT_EQ(a.l1iStats.hits, b.l1iStats.hits);
    EXPECT_EQ(a.l1iStats.misses, b.l1iStats.misses);
    EXPECT_EQ(a.l1dStats.hits, b.l1dStats.hits);
    EXPECT_EQ(a.l1dStats.misses, b.l1dStats.misses);
    EXPECT_EQ(a.l1dStats.writebacks, b.l1dStats.writebacks);
    EXPECT_EQ(a.l2Stats.hits, b.l2Stats.hits);
    EXPECT_EQ(a.l2Stats.misses, b.l2Stats.misses);
    EXPECT_EQ(a.l2Stats.writebacks, b.l2Stats.writebacks);
    EXPECT_EQ(a.itlbStats.hits, b.itlbStats.hits);
    EXPECT_EQ(a.itlbStats.misses, b.itlbStats.misses);
    EXPECT_EQ(a.dtlbStats.hits, b.dtlbStats.hits);
    EXPECT_EQ(a.dtlbStats.misses, b.dtlbStats.misses);
    EXPECT_EQ(a.pageWalks, b.pageWalks);
}

/** Straight run vs. restore-at-cycle-C for C in {0, mid, near-exit}. */
void
checkRestoreCuts(const char* workload)
{
    SCOPED_TRACE(workload);
    Program p = programFor(workload);
    CpuConfig config;

    Simulator straight(p, config);
    SimResult reference = straight.run(0);
    ASSERT_EQ(reference.status.kind, ExitKind::Exited);
    ASSERT_GT(reference.cycles, 100u);

    const uint64_t cuts[] = {0, reference.cycles / 2,
                             reference.cycles - 10};
    for (uint64_t cut : cuts) {
        SCOPED_TRACE(cut);
        Simulator prefix(p, config);
        if (cut > 0)
            prefix.run(cut);   // budgets are absolute cycle counts
        Snapshot snapshot = prefix.checkpoint();
        EXPECT_EQ(snapshot.cycle, cut);

        Simulator resumed(p, config, snapshot);
        expectSameResult(resumed.run(0), reference);
    }
}

TEST(SnapshotTest, RestoreCutsCacheHeavyWorkload)
{
    checkRestoreCuts("dijkstra");
}

TEST(SnapshotTest, RestoreCutsTlbHeavyWorkload)
{
    checkRestoreCuts("susan_c");
}

TEST(SnapshotTest, RestoreRewindsUsedSimulator)
{
    Program p = programFor("stringsearch");
    CpuConfig config;

    Simulator straight(p, config);
    SimResult reference = straight.run(0);
    ASSERT_EQ(reference.status.kind, ExitKind::Exited);

    // Run to mid-execution, snapshot, run to completion, rewind, and
    // run to completion again: the replay must match the reference.
    // This exercises restore() into a machine with post-snapshot state
    // (dirty caches, longer output, higher memory high-water mark).
    Simulator simulator(p, config);
    simulator.run(reference.cycles / 2);
    Snapshot snapshot = simulator.checkpoint();
    expectSameResult(simulator.run(0), reference);
    simulator.restore(snapshot);
    expectSameResult(simulator.run(0), reference);
}

TEST(SnapshotTest, RestoredInjectionMatchesStraightInjectedRun)
{
    Program p = programFor("susan_c");
    CpuConfig config;

    uint64_t golden_cycles = Simulator(p, config).run(0).cycles;

    Injection injection;
    injection.target = FaultTarget::RegFileBits;
    injection.cycle = golden_cycles / 2;
    injection.flips = {{4, 7}, {4, 8}, {5, 7}};

    Simulator straight(p, config);
    straight.scheduleInjection(injection);
    SimResult straight_result = straight.run(golden_cycles * 4);

    // Restore just below the injection cycle, then inject identically.
    Simulator prefix(p, config);
    prefix.run(injection.cycle - injection.cycle / 4);
    Snapshot snapshot = prefix.checkpoint();

    Simulator resumed(p, config, snapshot);
    resumed.scheduleInjection(injection);
    expectSameResult(resumed.run(golden_cycles * 4), straight_result);
}

TEST(SnapshotTest, MemoryHighWaterRoundTrip)
{
    PhysicalMemory mem(1 << 16);
    mem.write(0x100, 4, 0xdeadbeef);
    mem.write(0x2000, 1, 0x5a);

    PhysicalMemory::Snapshot snapshot;
    mem.save(snapshot);
    EXPECT_EQ(snapshot.data.size(), 0x2001u);

    // Writes past the snapshot's high-water mark must vanish again
    // after the restore.
    mem.write(0x100, 4, 0);
    mem.write(0x8000, 4, 0x12345678);
    mem.restore(snapshot);
    EXPECT_EQ(mem.read(0x100, 4), 0xdeadbeefu);
    EXPECT_EQ(mem.read(0x2000, 1), 0x5au);
    EXPECT_EQ(mem.read(0x8000, 4), 0u);
}

// Delta snapshots (DESIGN.md §16): deltaCheckpoint() folds into one
// pooled buffer, copying only state touched since the previous fold.
// The folded image must be indistinguishable from a full checkpoint()
// at the same cycle — same state digest after restore, and a run
// resumed from it bit-identical to one resumed from the full copy.

TEST(SnapshotTest, DeltaCheckpointMatchesFullCheckpointMidCohort)
{
    Program p = programFor("dijkstra");
    CpuConfig config;

    Simulator straight(p, config);
    SimResult reference = straight.run(0);
    ASSERT_EQ(reference.status.kind, ExitKind::Exited);

    // A cursor sequence: several monotonically increasing stop
    // cycles, one deltaCheckpoint per stop — the lockstep cursor's
    // fork-base pattern. Every fold after the first is a genuine delta.
    Simulator cursor(p, config);
    const uint64_t cuts[] = {reference.cycles / 8, reference.cycles / 3,
                             reference.cycles / 2,
                             (reference.cycles * 3) / 4};
    for (uint64_t cut : cuts) {
        SCOPED_TRACE(cut);
        cursor.advanceTo(cut);
        uint64_t bytes = 0;
        const Snapshot& delta = cursor.deltaCheckpoint(&bytes);
        EXPECT_EQ(delta.cycle, cut);
        EXPECT_GT(bytes, 0u);
        Snapshot full = cursor.checkpoint();

        Simulator fromDelta(p, config, delta);
        Simulator fromFull(p, config, full);
        EXPECT_EQ(fromDelta.stateDigest(), fromFull.stateDigest());
        expectSameResult(fromDelta.run(0), reference);
    }
}

TEST(SnapshotTest, DeltaCheckpointExactAfterRestore)
{
    // restore() re-dirties everything it touches, so a fold taken
    // after rewinding the machine must still be a faithful image.
    Program p = programFor("stringsearch");
    CpuConfig config;

    Simulator straight(p, config);
    SimResult reference = straight.run(0);
    ASSERT_EQ(reference.status.kind, ExitKind::Exited);

    Simulator simulator(p, config);
    simulator.advanceTo(reference.cycles / 3);
    uint64_t first_bytes = 0;
    (void)simulator.deltaCheckpoint(&first_bytes);
    EXPECT_GT(first_bytes, 0u);

    Simulator prefix(p, config);
    prefix.run(reference.cycles / 2);
    Snapshot rewind = prefix.checkpoint();
    simulator.restore(rewind);

    uint64_t bytes = 0;
    const Snapshot& delta = simulator.deltaCheckpoint(&bytes);
    EXPECT_EQ(delta.cycle, reference.cycles / 2);
    Simulator resumed(p, config, delta);
    EXPECT_EQ(resumed.stateDigest(), prefix.stateDigest());
    expectSameResult(resumed.run(0), reference);
}

TEST(SnapshotTest, MemoryFoldCopiesOnlyDirtyPages)
{
    PhysicalMemory mem(1 << 20);
    mem.write(0x100, 4, 0xdeadbeef);
    mem.write(0x8000, 4, 0x12345678);

    PhysicalMemory::Snapshot delta;
    uint64_t first = mem.fold(delta);
    EXPECT_EQ(first, 0x8004u);             // first fold = full copy
    EXPECT_EQ(mem.fold(delta), 0u);        // clean: nothing to copy

    mem.write(0x104, 1, 0x5a);             // dirties one 4 KiB page
    uint64_t second = mem.fold(delta);
    EXPECT_GT(second, 0u);
    EXPECT_LE(second, 4096u);

    PhysicalMemory::Snapshot full;
    mem.save(full);
    EXPECT_EQ(delta.data, full.data);

    // restore() invalidates the page tracking: the next fold is full.
    mem.restore(full);
    EXPECT_EQ(mem.fold(delta), full.data.size());
    EXPECT_EQ(delta.data, full.data);
}

TEST(SnapshotTest, BitArrayRestoreChecksGeometry)
{
    BitArray a(8, 64), b(8, 64), c(16, 64);
    a.setBit(3, 5, true);
    BitArray::Snapshot snapshot;
    a.save(snapshot);
    b.restore(snapshot);
    EXPECT_TRUE(b.bit(3, 5));
    EXPECT_EQ(b.popcount(), 1u);
    EXPECT_DEATH(c.restore(snapshot), "size mismatch");
}

} // namespace
} // namespace mbusim::sim
