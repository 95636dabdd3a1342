/**
 * @file
 * Top-level simulation driver.
 *
 * Wraps System + Cpu into single runs with a cycle budget, and provides
 * the hook the fault injector uses: a set of bit flips applied to one of
 * the six studied structures at a chosen cycle. SimAssert escaping the
 * core (it should not — the core records assertions per instruction) is
 * caught here as a backstop and classified as an Assert outcome.
 */

#ifndef MBUSIM_SIM_SIMULATOR_HH
#define MBUSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cpu.hh"
#include "sim/program.hh"
#include "sim/system.hh"

namespace mbusim::sim {

/** The six injectable structures, as the simulator names them. */
enum class FaultTarget : uint8_t
{
    L1DData, L1IData, L2Data, RegFileBits, ItlbBits, DtlbBits,
    // Ablation targets:
    L1DTags, L1ITags, L2Tags,
};

/** One bit to flip. */
struct BitFlip
{
    uint32_t row;
    uint32_t col;
};

/** A scheduled injection: flips applied when the cycle is reached. */
struct Injection
{
    FaultTarget target = FaultTarget::L1DData;
    uint64_t cycle = 0;
    std::vector<BitFlip> flips;
    /**
     * The flips already survived model-layer dead-on-arrival screening
     * and must not be screened again: a lockstep fork (DESIGN.md §15)
     * re-injects the overlay's still-live flips at the fork-base
     * cycle, where the machine state — and therefore the hooks'
     * deadness verdicts — can differ from what the original
     * injection-time screen soundly established.
     */
    bool prePruned = false;
    /**
     * Apply the flips physically but do not register them for
     * liveness tracking. A lockstep fork uses this to re-apply an
     * overlay's *ghost* flips (BitArray::appendGhostBits): bits a
     * deadness proof removed from tracking that are still physically
     * present in the machine a private simulator would have built,
     * and that state digests therefore still see.
     */
    bool untracked = false;
};

/**
 * Why a run stopped before the program finished (early-termination
 * engine, DESIGN.md §10). Either reason proves the run Masked: the
 * machine state is — or is provably about to become — bit-identical
 * to the golden run's, so the campaign substitutes golden's terminal
 * cycle/instruction counts rather than simulating the identical tail.
 */
enum class EarlyExit : uint8_t
{
    None,        ///< ran to completion (or budget)
    DeadFault,   ///< every injected bit overwritten before being read
    Converged,   ///< state digest matched golden at the same cycle
};

/** One golden-run state-digest sample (convergence ladder rung). */
struct DigestPoint
{
    uint64_t cycle = 0;
    uint64_t digest = 0;
};

/** Result of one complete simulation. */
struct SimResult
{
    ExitStatus status;
    std::vector<uint8_t> output;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    CpuStats cpuStats;

    // Memory-hierarchy characterization (filled by Simulator::run).
    CacheStats l1iStats, l1dStats, l2Stats;
    TlbStats itlbStats, dtlbStats;
    uint64_t pageWalks = 0;

    /**
     * Early-termination verdict. When not None, `status` and the
     * stats above describe the truncated run, not the program's real
     * end: the caller (Campaign::runOne) classifies the run Masked
     * and reports golden's terminal counts.
     */
    EarlyExit earlyExit = EarlyExit::None;
    uint64_t earlyExitCycle = 0;   ///< cycle the engine fired at
};

/**
 * Whole-machine snapshot: platform + core, everything a simulation's
 * future depends on. Snapshots are value objects — cheap memcpy-style
 * copies of POD-ish arrays — and are independent of the Simulator they
 * were taken from, so one snapshot can seed many simulators (the
 * campaign checkpointing path shares them read-only across workers).
 * Scheduled injections are NOT part of a snapshot.
 */
struct Snapshot
{
    uint64_t cycle = 0;   ///< cycle the snapshot was taken at
    System::Snapshot system;
    Cpu::Snapshot cpu;
};

/** One program execution on the full timing model. */
class Simulator
{
  public:
    Simulator(const Program& program, const CpuConfig& config);

    /**
     * Construct and immediately fast-forward to @p snapshot, which must
     * have been taken from a simulator with the same program and
     * config. Continuing from here is bit-identical to a straight run.
     */
    Simulator(const Program& program, const CpuConfig& config,
              const Snapshot& snapshot);

    /** Schedule an injection. Must precede the first run() call. */
    void scheduleInjection(const Injection& injection);

    /** @name Early-termination engine (DESIGN.md §10) */
    /// @{
    /**
     * Track scheduled flips for dead-fault pruning: run() exits with
     * EarlyExit::DeadFault the moment every injected bit has been
     * overwritten without ever being read. Call before run().
     */
    void enableDeadFaultPruning() { deadFaultPruning_ = true; }

    /**
     * Arm convergence detection with the golden run's digest ladder
     * (sorted by cycle; must outlive this simulator). run() exits
     * with EarlyExit::Converged when the machine's digest equals
     * golden's at the same cycle, past the last injection.
     *
     * Digest checks are lazy: rungs are sampled geometrically from the
     * injection point (1st candidate rung, then skip 1, 2, 4, ... after
     * every digest that fails to match), and checking stops outright
     * once less than one rung interval of golden tail remains — a hit
     * there could not save even one interval of simulation. Skipped
     * rungs only delay detection, never change outcomes: a run that
     * converged at a skipped rung either matches at a later sampled
     * rung or simply runs its (bit-identical-to-golden) tail to
     * completion and classifies Masked the ordinary way.
     */
    void
    setGoldenDigests(const std::vector<DigestPoint>* digests)
    {
        goldenDigests_ = digests;
        digestInterval_ = 0;
        if (digests && digests->size() >= 2)
            digestInterval_ = (*digests)[1].cycle - (*digests)[0].cycle;
        else if (digests && digests->size() == 1)
            digestInterval_ = (*digests)[0].cycle;
    }

    /**
     * FNV-1a digest of all behaviour-affecting machine state
     * (Cpu::digestInto + System::digestInto). Callable between run()
     * segments, like checkpoint().
     */
    uint64_t stateDigest() const;
    /// @}

    /** Capture the whole machine state (callable between run() calls). */
    Snapshot checkpoint() const;

    /**
     * Delta variant of checkpoint() for the lockstep cursor's fork
     * base (DESIGN.md §16): folds the machine into a pooled internal
     * snapshot buffer, copying only state touched since the previous
     * deltaCheckpoint() — each BitArray carries a dirty flag, physical
     * memory a dirty-page bitmap; the small plain bookkeeping is
     * always copied. The first call (and any call after restore(),
     * which re-dirties everything it touches) amounts to a full copy.
     *
     * The returned reference stays valid and unchanged until the next
     * deltaCheckpoint() call on this simulator; callers that need the
     * state beyond that must copy it. @p bytes_copied, when non-null,
     * receives the bytes the dirty arrays actually copied (the
     * `snapshot.bytes_copied` metric).
     */
    const Snapshot& deltaCheckpoint(uint64_t* bytes_copied = nullptr);

    /**
     * Advance a running simulation to exactly @p cycle (no-op when the
     * machine is already at or past it). Must not be asked to advance
     * past the program's natural end.
     */
    void advanceTo(uint64_t cycle);

    /** Current cycle of the machine (monotonic across run() calls). */
    uint64_t cycle() const;

    /** Has the program ended (further ticks are no-ops)? */
    bool halted() const;

    /** Rewind the machine to @p snapshot (same program and config). */
    void restore(const Snapshot& snapshot);

    /** @name Lockstep cohort support (DESIGN.md §15)
     *
     * A cohort's injected runs ride one shared golden simulation as
     * flip *overlays*: each run's flips are registered in the target
     * BitArray without being applied, and the golden access stream —
     * which is bit-identical to each unforked run's own stream until
     * that run reads a flipped bit — updates every overlay's liveness
     * at once. runLockstep() advances the machine tick by tick and
     * returns the moment any overlay changes state, so the driver can
     * retire dead runs (zero private simulation) and fork propagated
     * ones into private simulators at the cycle the divergence began.
     */
    /// @{
    /** One attached overlay: the target structure plus the BitArray's
     *  per-array overlay id. */
    struct OverlayHandle
    {
        FaultTarget target = FaultTarget::L1DData;
        uint32_t id = 0;
    };

    /**
     * Attach @p inj as a flip overlay: track its flips in a fresh
     * overlay of the target array and run the model-layer
     * dead-on-arrival screen exactly as a private simulator would at
     * injection time. The screen must see the injected machine, so the
     * flips are applied, screened, and reverted — flipBit() is an
     * involution and no cycle elapses in between, so the shared golden
     * state is untouched. The screen's discards are scoped to the new
     * overlay (another overlay's co-located flip stays live).
     */
    OverlayHandle attachOverlay(const Injection& inj);

    /** Live (unread, not overwritten) flips of @p overlay. */
    uint32_t overlayLiveCount(const OverlayHandle& overlay) const;

    /** Has any flip of @p overlay been architecturally read? */
    bool overlayPropagated(const OverlayHandle& overlay) const;

    /** @p overlay's change counter (BitArray::overlayChanges): while
     *  it stands still, overlayLiveFlips and overlayGhostFlips return
     *  the same sets as at the last look. */
    uint64_t overlayChanges(const OverlayHandle& overlay) const;

    /** The still-live flips of @p overlay (fork-base capture). */
    std::vector<BitFlip> overlayLiveFlips(const OverlayHandle& overlay)
        const;

    /** @p overlay's ghost flips (fork-base capture): discarded by a
     *  deadness proof but not yet physically overwritten, so a fork
     *  must re-apply them (untracked) to match a private simulator's
     *  machine bit-for-bit. */
    std::vector<BitFlip> overlayGhostFlips(const OverlayHandle& overlay)
        const;

    /** Detach @p overlay (the run retired or forked). */
    void dropOverlay(const OverlayHandle& overlay);

    /** Any overlay state change since clearOverlayEvents()? */
    bool overlayEventsPending() const;

    /** Acknowledge overlayEventsPending(). */
    void clearOverlayEvents();

    /**
     * Advance the machine to @p until, stopping early the moment the
     * program halts or any attached overlay changes state (a flip
     * read, or an overlay's last live flip overwritten). Returns the
     * cycle reached. Unlike run(), applies no scheduled injections —
     * the lockstep cursor is a pure golden execution.
     */
    uint64_t runLockstep(uint64_t until);
    /// @}

    /**
     * Run to completion or @p max_cycles (0 = unlimited; the budget is
     * an absolute cycle count, not a delta). A hit budget yields
     * ExitKind::LimitReached — the Timeout outcome class. run() may be
     * called again to continue past a budget (segmented execution, used
     * for checkpoint recording); the returned stats are always
     * whole-run totals.
     */
    SimResult run(uint64_t max_cycles);

    Cpu& cpu() { return *cpu_; }
    System& system() { return *system_; }

    /** Geometry (rows, cols) of a fault target under this config. */
    static std::pair<uint32_t, uint32_t>
    targetGeometry(FaultTarget target, const CpuConfig& config);

    /** The BitArray behind a fault target. */
    BitArray& targetBits(FaultTarget target);

  private:
    /** Drop injected flips the model layer proves dead on arrival. */
    void pruneDeadOnArrival(const Injection& inj);

    const BitArray& targetBitsConst(FaultTarget target) const
    {
        return const_cast<Simulator*>(this)->targetBits(target);
    }

    CpuConfig config_;
    std::unique_ptr<System> system_;
    std::unique_ptr<Cpu> cpu_;
    std::vector<Injection> injections_;
    size_t nextInjection_ = 0;     ///< first not-yet-applied injection
    bool injectionsSorted_ = true;
    bool started_ = false;         ///< has run() been called?

    // Early-termination state.
    bool deadFaultPruning_ = false;
    bool deadCheckDisabled_ = false;   ///< a flip propagated: no pruning
    const std::vector<DigestPoint>* goldenDigests_ = nullptr;
    size_t nextDigest_ = 0;            ///< first unchecked ladder rung
    uint64_t digestInterval_ = 0;      ///< ladder rung spacing (cycles)
    size_t digestStride_ = 1;          ///< rungs to the next sample
    std::vector<BitArray*> trackedArrays_;   ///< arrays holding flips
    uint64_t lastInjectionCycle_ = 0;

    // Lockstep state: the arrays holding attached overlays (one per
    // distinct fault target — a single array for one campaign's
    // cohort, up to six when a sweep's cells share the cursor).
    std::vector<BitArray*> overlayArrays_;

    // Pooled buffer behind deltaCheckpoint(); reusing it across calls
    // is what makes the per-array dirty flags meaningful.
    Snapshot snapshotBuf_;
};

} // namespace mbusim::sim

#endif // MBUSIM_SIM_SIMULATOR_HH
