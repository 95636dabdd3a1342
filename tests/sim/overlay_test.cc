/**
 * @file
 * Multi-overlay flip tracking and the lockstep simulator API
 * (DESIGN.md §15). The lockstep cohort engine rides many injected
 * runs on one shared golden simulation; its soundness rests on the
 * per-overlay semantics pinned down here: independent liveness and
 * propagation per overlay, deadness-proof discards scoped to one
 * overlay, ghost bits that stay reproducible for forks, and event
 * flags the tick loop can poll in O(1).
 */

#include <gtest/gtest.h>

#include "sim/bitarray.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace mbusim::sim {
namespace {

TEST(BitArrayOverlays, IndependentLivenessPerOverlay)
{
    BitArray a(8, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    EXPECT_NE(ov1, 0u);
    EXPECT_NE(ov2, 0u);
    EXPECT_NE(ov1, ov2);

    a.trackFlipIn(ov1, 1, 3);
    a.trackFlipIn(ov1, 1, 4);
    a.trackFlipIn(ov2, 2, 3);
    EXPECT_EQ(a.overlayLiveCount(ov1), 2u);
    EXPECT_EQ(a.overlayLiveCount(ov2), 1u);

    a.write(1, 0, 32, 0);        // kills both of ov1's flips, unread
    EXPECT_EQ(a.overlayLiveCount(ov1), 0u);
    EXPECT_EQ(a.overlayLiveCount(ov2), 1u);
    EXPECT_FALSE(a.overlayPropagated(ov1));
    EXPECT_FALSE(a.overlayPropagated(ov2));
}

TEST(BitArrayOverlays, PropagationLatchesPerOverlayAndDropsItsBits)
{
    BitArray a(8, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    a.trackFlipIn(ov1, 1, 3);
    a.trackFlipIn(ov1, 4, 8);
    a.trackFlipIn(ov2, 2, 3);

    (void)a.read(1, 0, 16);      // reads ov1's col-3 flip only
    EXPECT_TRUE(a.overlayPropagated(ov1));
    // The whole overlay is dropped on propagation: liveness proves
    // nothing once the fault escaped.
    EXPECT_EQ(a.overlayLiveCount(ov1), 0u);
    EXPECT_FALSE(a.overlayPropagated(ov2));
    EXPECT_EQ(a.overlayLiveCount(ov2), 1u);

    // The dropped overlay's remaining bit no longer reacts to reads.
    (void)a.read(4, 0, 32);
    EXPECT_FALSE(a.overlayPropagated(ov2));
}

TEST(BitArrayOverlays, CoLocatedFlipsPropagateTogether)
{
    // Two runs injected the same bit: one golden read latches both.
    BitArray a(4, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    a.trackFlipIn(ov1, 0, 5);
    a.trackFlipIn(ov2, 0, 5);
    (void)a.bit(0, 5);
    EXPECT_TRUE(a.overlayPropagated(ov1));
    EXPECT_TRUE(a.overlayPropagated(ov2));
}

TEST(BitArrayOverlays, DiscardScopeProtectsOtherOverlays)
{
    // A dead-on-arrival screen's verdicts apply only to the overlay
    // being attached: another run's co-located flip stays live.
    BitArray a(4, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    a.trackFlipIn(ov1, 0, 5);
    a.trackFlipIn(ov2, 0, 5);

    a.setDiscardScope(ov2);
    a.discardFlips(0, 0, 64);
    a.setDiscardScope(BitArray::AllOverlays);

    EXPECT_EQ(a.overlayLiveCount(ov1), 1u);
    EXPECT_EQ(a.overlayLiveCount(ov2), 0u);
}

TEST(BitArrayOverlays, DiscardLeavesAForkReproducibleGhost)
{
    // discardFlips removes a flip from liveness but nothing has
    // physically overwritten it: the bit must stay enumerable (a
    // lockstep fork re-applies it so state digests match a private
    // simulator's machine), disappear once a real write lands, and
    // never latch propagation.
    BitArray a(4, 64);
    uint32_t ov = a.beginOverlay();
    a.trackFlipIn(ov, 1, 3);
    a.trackFlipIn(ov, 1, 9);
    a.setDiscardScope(ov);
    a.discardFlips(1, 3, 1);
    a.setDiscardScope(BitArray::AllOverlays);

    EXPECT_EQ(a.overlayLiveCount(ov), 1u);
    std::vector<std::pair<uint32_t, uint32_t>> live, ghosts;
    a.appendLiveBits(ov, live);
    a.appendGhostBits(ov, ghosts);
    ASSERT_EQ(live.size(), 1u);
    EXPECT_EQ(live[0], (std::pair<uint32_t, uint32_t>{1, 9}));
    ASSERT_EQ(ghosts.size(), 1u);
    EXPECT_EQ(ghosts[0], (std::pair<uint32_t, uint32_t>{1, 3}));

    // A read over the ghost does not propagate (the deadness proof
    // says this cannot happen before an overwrite; the tracker must
    // not second-guess it).
    (void)a.read(1, 0, 8);
    EXPECT_FALSE(a.overlayPropagated(ov));

    // A real overwrite erases the ghost.
    a.write(1, 0, 8, 0);
    ghosts.clear();
    a.appendGhostBits(ov, ghosts);
    EXPECT_TRUE(ghosts.empty());
}

TEST(BitArrayOverlays, EventsFlagRaisedOnDeathAndPropagation)
{
    BitArray a(4, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    a.trackFlipIn(ov1, 0, 1);
    a.trackFlipIn(ov2, 1, 1);
    EXPECT_FALSE(a.trackingEventsPending());

    // A write that kills no tracked bit raises nothing.
    a.write(2, 0, 32, 5);
    EXPECT_FALSE(a.trackingEventsPending());

    // Death of an overlay's last live flip raises the flag.
    a.write(0, 0, 32, 0);
    EXPECT_TRUE(a.trackingEventsPending());
    a.clearTrackingEvents();
    EXPECT_FALSE(a.trackingEventsPending());

    // Propagation raises it too.
    (void)a.read(1, 0, 8);
    EXPECT_TRUE(a.trackingEventsPending());
}

TEST(BitArrayOverlays, DropOverlayIsSilentAndComplete)
{
    BitArray a(4, 64);
    uint32_t ov = a.beginOverlay();
    a.trackFlipIn(ov, 0, 1);
    a.trackFlipIn(ov, 0, 2);
    a.setDiscardScope(ov);
    a.discardFlips(0, 2, 1);     // one ghost, one live
    a.setDiscardScope(BitArray::AllOverlays);
    a.clearTrackingEvents();

    a.dropOverlay(ov);
    EXPECT_FALSE(a.trackingEventsPending());
    EXPECT_EQ(a.overlayLiveCount(ov), 0u);
    std::vector<std::pair<uint32_t, uint32_t>> bits;
    a.appendLiveBits(ov, bits);
    a.appendGhostBits(ov, bits);
    EXPECT_TRUE(bits.empty());
}

TEST(BitArrayOverlays, LegacyApiIsOverlayZero)
{
    BitArray a(4, 64);
    a.trackFlip(0, 3);
    EXPECT_EQ(a.liveFlips(), a.overlayLiveCount(0));
    EXPECT_EQ(a.liveFlips(), 1u);
    (void)a.read(0, 0, 8);
    EXPECT_TRUE(a.flipPropagated());
    EXPECT_TRUE(a.overlayPropagated(0));
}

TEST(BitArrayOverlays, ChangeCounterMovesOnOverwriteGhostAndClearOnly)
{
    // The lockstep driver re-captures a rider's fork-base flips only
    // when its overlay's change counter moved, so the counter must
    // move on every change to the overlay's live or ghost set and on
    // nothing that leaves both sets alone.
    BitArray a(8, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    a.trackFlipIn(ov1, 1, 3);
    a.trackFlipIn(ov1, 1, 9);
    a.trackFlipIn(ov1, 2, 5);
    a.trackFlipIn(ov2, 3, 7);
    const uint64_t c1 = a.overlayChanges(ov1);
    const uint64_t c2 = a.overlayChanges(ov2);

    // Nothing else: untracked accesses, accesses of other rows, a
    // flip, another overlay's death, a read of another overlay's bit.
    (void)a.read(1, 20, 16);
    a.write(4, 0, 64, 1);
    a.write(1, 20, 8, 0);
    a.flipBit(1, 3);
    a.write(3, 0, 16, 0);          // kills ov2's only flip
    EXPECT_EQ(a.overlayChanges(ov1), c1);
    EXPECT_NE(a.overlayChanges(ov2), c2);

    // Overwritten.
    a.write(1, 9, 1, 0);
    const uint64_t after_write = a.overlayChanges(ov1);
    EXPECT_NE(after_write, c1);
    // Ghosted.
    a.setDiscardScope(ov1);
    a.discardFlips(1, 3, 1);
    a.setDiscardScope(BitArray::AllOverlays);
    const uint64_t after_ghost = a.overlayChanges(ov1);
    EXPECT_NE(after_ghost, after_write);
    // Reading over a ghost changes nothing; erasing it does.
    (void)a.read(1, 0, 8);
    EXPECT_EQ(a.overlayChanges(ov1), after_ghost);
    a.write(1, 0, 8, 0);
    const uint64_t after_erase = a.overlayChanges(ov1);
    EXPECT_NE(after_erase, after_ghost);
    // Cleared.
    a.clear();
    EXPECT_NE(a.overlayChanges(ov1), after_erase);
    EXPECT_EQ(a.overlayLiveCount(ov1), 0u);
}

TEST(BitArrayOverlays, RowGuardIsExactPerRow)
{
    // A shared cursor's tracked set rarely empties, so the row guard
    // must drop a row the moment its last tracked bit goes, whatever
    // other rows still hold.
    BitArray a(130, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    uint32_t ov3 = a.beginOverlay();
    a.trackFlipIn(ov1, 1, 3);
    a.trackFlipIn(ov2, 1, 40);
    a.trackFlipIn(ov2, 65, 2);
    a.trackFlipIn(ov3, 129, 8);
    EXPECT_TRUE(a.guardsRow(1));
    EXPECT_TRUE(a.guardsRow(65));
    EXPECT_FALSE(a.guardsRow(0));
    EXPECT_FALSE(a.guardsRow(64));

    // Row 1 keeps its guard until its last bit is gone.
    a.write(1, 0, 8, 0);
    EXPECT_TRUE(a.guardsRow(1));
    // A ghost still needs the guard: an overwrite must erase it.
    a.setDiscardScope(ov2);
    a.discardFlips(1, 40, 1);
    a.setDiscardScope(BitArray::AllOverlays);
    EXPECT_TRUE(a.guardsRow(1));
    a.write(1, 32, 16, 0);
    EXPECT_FALSE(a.guardsRow(1));
    EXPECT_TRUE(a.guardsRow(65));
    EXPECT_TRUE(a.guardsRow(129));

    // Propagation and dropOverlay release their rows too.
    (void)a.read(65, 0, 8);
    EXPECT_TRUE(a.overlayPropagated(ov2));
    EXPECT_FALSE(a.guardsRow(65));
    EXPECT_TRUE(a.guardsRow(129));
    a.dropOverlay(ov3);
    EXPECT_FALSE(a.guardsRow(129));
}

TEST(BitArrayOverlays, UnguardedRowsLeaveOtherOverlaysExact)
{
    // After rows leave the guard, the overlays still tracked elsewhere
    // latch propagation and death exactly as before, and a row tracked
    // again is guarded again.
    BitArray a(64, 64);
    uint32_t ov1 = a.beginOverlay();
    uint32_t ov2 = a.beginOverlay();
    uint32_t ov3 = a.beginOverlay();
    a.trackFlipIn(ov1, 5, 1);
    a.trackFlipIn(ov2, 6, 2);
    a.trackFlipIn(ov3, 7, 3);
    a.write(5, 0, 8, 0);                 // ov1 dies, row 5 unguarded
    EXPECT_EQ(a.overlayLiveCount(ov1), 0u);
    EXPECT_FALSE(a.guardsRow(5));
    a.clearTrackingEvents();

    (void)a.read(5, 0, 64);              // unguarded row: no event
    EXPECT_FALSE(a.trackingEventsPending());
    (void)a.read(6, 0, 8);               // ov2 propagates
    EXPECT_TRUE(a.overlayPropagated(ov2));
    EXPECT_TRUE(a.trackingEventsPending());
    a.clearTrackingEvents();
    a.write(7, 0, 8, 0);                 // ov3 dies
    EXPECT_EQ(a.overlayLiveCount(ov3), 0u);
    EXPECT_FALSE(a.overlayPropagated(ov3));
    EXPECT_TRUE(a.trackingEventsPending());

    uint32_t ov4 = a.beginOverlay();
    a.trackFlipIn(ov4, 5, 9);
    EXPECT_TRUE(a.guardsRow(5));
    (void)a.bit(5, 9);
    EXPECT_TRUE(a.overlayPropagated(ov4));
}

// ---------------------------------------------------------------------
// Simulator lockstep API.

TEST(SimulatorLockstep, AttachLeavesGoldenStateUntouched)
{
    // attachOverlay applies, screens and reverts the flips; the
    // machine digest must be exactly what it was before the attach.
    Program p = workloads::workloadByName("stringsearch").assemble();
    Simulator sim(p, CpuConfig{});
    sim.advanceTo(200);
    const uint64_t before = sim.stateDigest();

    Injection inj;
    inj.target = FaultTarget::L1DData;
    inj.cycle = 200;
    inj.flips = {{3, 17}, {3, 18}};
    auto handle = sim.attachOverlay(inj);
    EXPECT_EQ(sim.stateDigest(), before);
    EXPECT_LE(sim.overlayLiveCount(handle), 2u);

    sim.dropOverlay(handle);
    EXPECT_EQ(sim.stateDigest(), before);
}

TEST(SimulatorLockstep, AttachKeepsCleanArraysOutOfDeltaCheckpoints)
{
    // The attach screen applies and reverts the flips, leaving every
    // bit as it was, so the next delta checkpoint must not re-copy the
    // target array — and must still equal a full checkpoint().
    Program p = workloads::workloadByName("stringsearch").assemble();
    Simulator sim(p, CpuConfig{});
    sim.advanceTo(300);
    (void)sim.deltaCheckpoint();
    uint64_t bytes = 1;
    (void)sim.deltaCheckpoint(&bytes);
    ASSERT_EQ(bytes, 0u);   // nothing changed since the first fold

    for (FaultTarget target :
         {FaultTarget::L1DData, FaultTarget::L2Tags,
          FaultTarget::RegFileBits, FaultTarget::DtlbBits}) {
        SCOPED_TRACE(static_cast<int>(target));
        Injection inj;
        inj.target = target;
        inj.cycle = 300;
        inj.flips = {{2, 5}, {2, 6}, {3, 5}};
        (void)sim.attachOverlay(inj);
        bytes = 1;
        const Snapshot& delta = sim.deltaCheckpoint(&bytes);
        EXPECT_EQ(bytes, 0u);
        Snapshot full = sim.checkpoint();
        EXPECT_EQ(delta.cpu.l1d.data.words, full.cpu.l1d.data.words);
        EXPECT_EQ(delta.cpu.l2.tags.words, full.cpu.l2.tags.words);
        EXPECT_EQ(delta.cpu.regFile.bits.words,
                  full.cpu.regFile.bits.words);
        EXPECT_EQ(delta.cpu.dtlb.bits.words, full.cpu.dtlb.bits.words);
        EXPECT_EQ(Simulator(p, CpuConfig{}, delta).stateDigest(),
                  Simulator(p, CpuConfig{}, full).stateDigest());
    }
}

TEST(SimulatorLockstep, RunLockstepStopsAtBoundOrEvent)
{
    Program p = workloads::workloadByName("stringsearch").assemble();
    Simulator sim(p, CpuConfig{});
    // With no overlay attached the bound is exact.
    EXPECT_EQ(sim.runLockstep(150), 150u);
    EXPECT_EQ(sim.cycle(), 150u);

    // A register-file overlay on an allocated register propagates or
    // dies quickly; either way runLockstep must stop early with the
    // event flag raised, not run to the bound.
    Injection inj;
    inj.target = FaultTarget::RegFileBits;
    inj.cycle = 150;
    inj.flips = {{4, 0}, {4, 1}, {5, 0}};
    auto handle = sim.attachOverlay(inj);
    sim.clearOverlayEvents();
    if (sim.overlayLiveCount(handle) > 0) {
        const uint64_t stopped = sim.runLockstep(UINT64_MAX);
        EXPECT_TRUE(sim.halted() || sim.overlayEventsPending());
        if (sim.overlayEventsPending()) {
            EXPECT_TRUE(sim.overlayPropagated(handle) ||
                        sim.overlayLiveCount(handle) == 0);
            EXPECT_LT(stopped, UINT64_MAX);
        }
    }
}

} // namespace
} // namespace mbusim::sim
