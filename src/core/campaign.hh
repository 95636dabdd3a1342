/**
 * @file
 * Fault injection campaigns — the experiment unit of the paper.
 *
 * One campaign = one (workload, component, fault cardinality) triple:
 * a golden run followed by N statistically independent injected runs,
 * each with a fresh spatial multi-bit mask (cluster placed uniformly at
 * random) injected at a uniformly random cycle of the golden execution
 * window, classified into the five outcome classes. Runs are fully
 * deterministic in (seed, run index) and are executed on a thread pool.
 */

#ifndef MBUSIM_CORE_CAMPAIGN_HH
#define MBUSIM_CORE_CAMPAIGN_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/classification.hh"
#include "core/golden_store.hh"
#include "core/mask_generator.hh"
#include "core/technology.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "util/journal.hh"
#include "util/metrics.hh"
#include "workloads/workload.hh"

namespace mbusim::core {

/** Map a studied component to its simulator fault target. */
sim::FaultTarget targetFor(Component component);

/**
 * FNV-1a digest of every CPU parameter and workload-source byte that
 * can change campaign outcomes. Shared by the Study disk cache and the
 * campaign journal so both invalidate on exactly the same changes.
 */
uint64_t outcomeDigest(const sim::CpuConfig& cpu, const char* source);

struct CampaignConfig;

/**
 * The golden-ladder knobs as a Campaign constructor resolves them
 * (environment overrides folded over the config defaults). Study uses
 * the same resolution so its GoldenStore keys line up exactly with the
 * artifacts a Campaign would build for itself.
 */
uint32_t resolvedCheckpointTarget(const CampaignConfig& config);
/** Effective digest-ladder target: zero when the early-exit engine is
 *  off (the ladder exists only for convergence detection). */
uint32_t resolvedDigestTarget(const CampaignConfig& config);

struct RunRecord;

/**
 * Render a completed run as one journal/protocol payload line
 * (`run <index> ...`). Everything a RunRecord deterministically holds
 * goes in, so a replayed or adopted record is bit-identical to the
 * simulated one; the host-side bookkeeping fields (wallMicros,
 * cohortId/cohortPos) are deliberately excluded. Shared by the
 * campaign journal and the distributed sweep's wire protocol so the
 * two can never drift.
 */
std::string serializeRunRecord(const RunRecord& record);

/** Parse a serializeRunRecord() line; strict — any deviation rejects
 *  it and leaves @p record unspecified. */
bool parseRunRecord(const std::string& payload, RunRecord& record);

/** Parameters of one campaign. */
struct CampaignConfig
{
    Component component = Component::L1D;
    uint32_t faults = 1;           ///< cardinality: 1, 2 or 3
    uint32_t injections = 60;      ///< sample size (paper: 2000)
    uint64_t seed = 0x5eed;        ///< campaign RNG seed
    ClusterShape cluster;          ///< paper: 3x3
    uint32_t timeoutFactor = 4;    ///< faulty budget = factor x golden
    uint32_t threads = 0;          ///< 0 = hardware concurrency
    /**
     * Target number of whole-machine checkpoints recorded during the
     * golden run (0 = disabled). Each injected run then fast-forwards
     * from the nearest checkpoint at or before its injection cycle
     * instead of re-simulating the golden prefix from cycle 0; restored
     * runs are bit-identical to straight runs, so campaign outcomes are
     * unaffected. Overridable via MBUSIM_CHECKPOINTS. Recording keeps
     * between this many and twice this many snapshots alive.
     */
    uint32_t checkpoints = 8;
    /**
     * Early-termination engine (DESIGN.md §10): stop an injected run
     * the moment its outcome is provably Masked — either every
     * injected bit was overwritten before being read (dead-fault
     * pruning) or the machine's state digest matched golden's at the
     * same cycle (convergence). Outcome counts are bit-identical with
     * the engine on or off; only wall time and the RunRecord
     * exit-reason fields change. Overridable via MBUSIM_EARLY_EXIT
     * (0 disables).
     */
    bool earlyExit = true;
    /**
     * Target number of golden state digests recorded for convergence
     * detection (0 = dead-fault pruning only). Like checkpoints, the
     * ladder keeps between this many and twice this many points.
     * Overridable via MBUSIM_DIGEST_POINTS.
     */
    uint32_t digestPoints = 64;
    /**
     * Lockstep cohort execution (DESIGN.md §13, §15): group pending
     * runs by their resolved restore checkpoint and ride each cohort,
     * sorted by injection cycle, on one golden cursor as flip
     * overlays. The cursor replays the golden segment once for all
     * its runs; a run materializes a private simulator only when one of its
     * flips is read (the fault propagated), and runs whose flips all
     * die retire with golden terminal counts and zero private
     * simulation. Outcomes, run records and traces (modulo the
     * host-bookkeeping tail fields) are bit-identical with batching on
     * or off. Overridable via MBUSIM_COHORT (0 = the straight per-run
     * reference path: every run restores its ladder checkpoint and
     * simulates on its own).
     */
    bool cohortBatching = true;
    /**
     * Alias of cohortBatching, kept only because the sweep benchmark's
     * straight-simulation oracle assigns it: false selects the
     * straight per-run path exactly as cohortBatching = false does.
     * It goes away with the next change to the benchmark.
     */
    bool lockstep = true;
    /**
     * Delta snapshots for the lockstep cursor (DESIGN.md §16): its
     * fork-base checkpoints copy only the state written since the
     * previous checkpoint into one pooled buffer instead of deep-
     * copying the whole machine every time. The folded snapshot is
     * byte-identical to a full checkpoint() at the same cycle, so
     * outcomes, run records and traces are unaffected. Overridable
     * via MBUSIM_DELTA_SNAPSHOTS (0 disables, falling back to full
     * per-checkpoint copies).
     */
    bool deltaSnapshots = true;
    sim::CpuConfig cpu;            ///< microarchitecture under test
    /** Inject somewhere other than the component's data array (tag
     * ablation); the component still names the campaign. */
    std::optional<sim::FaultTarget> targetOverride;
    /**
     * Directory for the per-campaign run journal (empty = take
     * MBUSIM_JOURNAL_DIR, unset = no journal). With a journal, every
     * completed run is recorded durably and an interrupted campaign
     * resumes where it stopped, bit-identical to an uninterrupted one.
     */
    std::string journalDir;
    /**
     * Journal shard name (distributed sweep workers only). When set,
     * the journal file is `<key>.journal.shard-<name>` instead of the
     * canonical `<key>.journal`: a worker process records its runs in
     * a private shard so concurrent workers never interleave appends,
     * and the coordinator merges shards into the canonical journal
     * durably (mergeJournalShards; DESIGN.md §14). Replay at
     * construction reads only this shard.
     */
    std::string journalShard;
    /**
     * Wall-clock budget for one run() call in seconds (0 = take
     * MBUSIM_DEADLINE_S, unset/0 = none). On expiry in-flight runs
     * finish, the journal is flushed and the result comes back with
     * cancelled set.
     */
    uint32_t deadlineSeconds = 0;
    /**
     * Run-trace sink (the CLI's --trace-out). When set, finalize()
     * appends one JSONL record per completed run, in run-index order,
     * so two identical campaigns emit identical traces modulo the
     * wall-time field. Runs replayed from a journal are traced with
     * `"replayed":true` and a zero wall time (the journal records
     * outcomes, not timings). May be shared across campaigns (a sweep
     * shares one sink; writes interleave at line granularity).
     */
    std::shared_ptr<JsonlWriter> trace;
    /**
     * Test-only host-fault injection: called at the start of every
     * simulation attempt with (run index, attempt). Tests throw from
     * here to exercise the worker isolation and retry path.
     */
    std::function<void(uint32_t, uint32_t)> hostFaultHook;
};

/** Details of one injected run (for drill-down and CSV export). */
struct RunRecord
{
    uint32_t index = 0;
    uint64_t cycle = 0;            ///< injection cycle
    FaultMask mask;
    Outcome outcome = Outcome::Masked;
    uint64_t cycles = 0;           ///< faulty run length
    uint64_t restoredFrom = 0;     ///< checkpoint cycle resumed from
    /** Why the run stopped early, if it did (outcome then Masked). */
    sim::EarlyExit exitReason = sim::EarlyExit::None;
    /** Golden-tail cycles not simulated thanks to the early exit. */
    uint64_t cyclesSaved = 0;
    /**
     * Wall time of the simulation in microseconds. Host-side
     * bookkeeping only: never journalled (replayed runs report 0) and
     * excluded from determinism comparisons.
     */
    uint64_t wallMicros = 0;
    /**
     * Cohort the run was scheduled in and its position within it.
     * Host-side bookkeeping like wallMicros: cohort assignment depends
     * on journal state and worker count, so it is never journalled
     * (replayed and straight runs report -1) and is excluded from
     * determinism comparisons.
     */
    int64_t cohortId = -1;
    uint32_t cohortPos = 0;
    /**
     * Cycle this run left the lockstep cursor for a private simulator
     * (-1 = it never forked: straight runs, replayed runs, and
     * lockstep runs that retired straight from the overlay). Host-side
     * bookkeeping like cohortId: which path executed a run is not part
     * of its outcome, so the field is never journalled and is excluded
     * from determinism comparisons.
     */
    int64_t forkedAt = -1;
};

/** Aggregated campaign results. */
struct CampaignResult
{
    OutcomeCounts counts;
    uint64_t goldenCycles = 0;
    uint64_t goldenInstructions = 0;
    std::vector<RunRecord> runs;   ///< filled when keepRuns was set
    uint32_t completed = 0;        ///< runs finished (simulated + resumed)
    uint32_t resumed = 0;          ///< of those, replayed from the journal
    bool cancelled = false;        ///< stopped early (deadline/interrupt)
    uint32_t deadFaultExits = 0;   ///< runs ended by dead-fault pruning
    uint32_t convergedExits = 0;   ///< runs ended by digest convergence
    uint64_t cyclesSaved = 0;      ///< total cycles not simulated

    double avf() const { return counts.avf(); }
};

/** Campaign executor for one workload. */
class Campaign
{
  public:
    /**
     * @param workload the benchmark to run
     * @param config campaign parameters
     */
    Campaign(const workloads::Workload& workload,
             const CampaignConfig& config);

    /**
     * Like the two-argument constructor, but golden artifacts come
     * from @p store (simulated on first use, shared read-only with
     * every other campaign of the same workload and CPU parameters).
     * The store must outlive the campaign. Outcomes are bit-identical
     * to a campaign that simulates its own golden run.
     */
    Campaign(const workloads::Workload& workload,
             const CampaignConfig& config, GoldenStore& store);

    /**
     * Run the golden execution plus all injections. With a journal
     * configured, completed runs recorded by a previous (interrupted)
     * invocation are replayed instead of re-simulated; the result is
     * bit-identical either way. Any exception escaping an injected
     * run is confined to that run: it is retried once (runs are
     * deterministic in (seed, index), so the retry sees the same
     * fault) and on a second failure recorded as Outcome::Error — a
     * faulty simulated machine can never take the campaign down.
     * @param keep_runs record per-run details in the result
     */
    CampaignResult run(bool keep_runs = false) const;

    /**
     * Golden-run cycle count. The golden execution is simulated at most
     * once per Campaign: this and run() share the cached result.
     */
    uint64_t goldenCycles() const;

    /**
     * Stable identity of everything that can change this campaign's
     * outcomes (workload source, component, cardinality, sample size,
     * seed, cluster, timeout factor, CPU parameters, target override).
     * Names the journal file; also embedded in its header so a stale
     * journal can never leak runs into a different campaign.
     */
    std::string cacheKey() const;

    /**
     * The shared golden artifacts, simulated on first use. The
     * distributed coordinator reads them to build the content-addressed
     * golden blob it serves to remote workers (golden_wire.hh).
     */
    const GoldenArtifacts& goldenArtifacts() const { return golden(); }

    /** outcomeDigest() over this campaign's resolved CPU parameters
     *  and workload source — the config half of a golden-wire key. */
    uint64_t outcomeKey() const;

    /**
     * Header line of this campaign's journal: version, cache key and
     * the early-exit settings (they change RunRecord fields, so
     * journals written under different settings must not mix). Shared
     * by Execution's own journal and the coordinator-side shard that
     * records remote workers' streamed records.
     */
    std::string journalHeader() const;

    /**
     * One in-flight invocation of this campaign: the per-run state
     * (journal, replay table, tallies) that used to live inside run(),
     * factored out so an external scheduler (Study::runSweep) can
     * interleave many campaigns' runs on one shared worker pool.
     *
     * The journal is replayed at construction; the golden simulation
     * is deferred to the first runIndex()/finalize() call. Distinct
     * indices may run concurrently; each pending index must be run
     * exactly once. Results assembled by finalize() are bit-identical
     * to Campaign::run()'s — runs are deterministic in (seed, index),
     * so it does not matter which thread simulates which run, or when.
     */
    class Execution
    {
      public:
        /**
         * One schedulable batch of pending runs (DESIGN.md §13): runs
         * sharing a resolved restore checkpoint, ordered by ascending
         * injection cycle (ties by index) so the lockstep cursor only
         * ever moves forward. With cohort batching disabled,
         * planCohorts() degrades to one unbatched singleton cohort per
         * pending run in index order, so Campaign::run and
         * Study::runSweep schedule through one shape either way.
         */
        struct Cohort
        {
            int64_t id = 0;             ///< dense id, plan order
            /** True = a lockstep unit; false = straight runs, each
             *  restoring its own ladder checkpoint. */
            bool batched = true;
            /** Ladder index of the shared restore checkpoint
             *  (NoCheckpoint = the cohort starts from cycle 0). */
            size_t checkpointIndex = NoCheckpoint;
            uint64_t baseCycle = 0;     ///< that checkpoint's cycle
            std::vector<uint32_t> indices;   ///< ascending cycle order
        };

        /** What one runCohort() call did. */
        struct CohortOutcome
        {
            uint32_t executed = 0;   ///< runs simulated by this call
            /** Campaign-wide pending count after the last run. */
            uint32_t remaining = 0;
            /**
             * This call retired the campaign's final pending run.
             * Exactly one runCohort()/runIndex() call across all
             * workers observes this; that caller may finalize().
             */
            bool retiredLast = false;
        };

        uint32_t injections() const;
        /** Does run @p index still need simulating (not replayed)? */
        bool pending(uint32_t index) const;
        /**
         * Plan the pending runs into cohorts. @p parallelism is the
         * number of workers expected to serve this execution: when
         * more than one, large cohorts are split so no single chunk
         * exceeds pending/(2*parallelism) runs, trading some repeated
         * golden-prefix replay for queue depth. Deterministic in
         * (journal state, parallelism).
         */
        std::vector<Cohort> planCohorts(uint32_t parallelism = 1);
        /**
         * Execute a cohort's still-pending runs: batched cohorts on
         * one lockstep cursor, the rest straight. @p stop, when given,
         * is polled between runs so a deadline/interrupt abandons the
         * cohort's tail (those runs simply stay pending). Each cohort
         * must be run by at most one caller. The one-execution case of
         * runShared().
         */
        CohortOutcome runCohort(const Cohort& cohort,
                                const std::function<bool()>& stop = {});

        /** One execution's cohort inside a shared lockstep unit. */
        struct Rider
        {
            Execution* exec = nullptr;
            const Cohort* cohort = nullptr;
        };

        /**
         * Can @p cohort ride a golden cursor shared with other
         * executions' cohorts? True for batched cohorts (DESIGN.md
         * §15); an unbatched cohort's runs go straight, one by one.
         */
        bool sharesCursor(const Cohort& cohort) const;

        /**
         * Execute several executions' cohorts on one lockstep golden
         * cursor (DESIGN.md §15): every rider's runs attach as flip
         * overlays in ascending injection-cycle order, whatever their
         * fault target, and each run is planned, hooked, completed,
         * journalled and counted by its own execution. All riders must
         * share golden artifacts (one GoldenStore entry) and restore
         * checkpoint — a sweep groups every cell of a program this way
         * — and must all sharesCursor(); otherwise every rider's runs
         * go straight. Returns one CohortOutcome per rider, in order,
         * each about its own execution. Results are bit-identical to
         * running each cohort through runCohort().
         */
        static std::vector<CohortOutcome>
        runShared(const std::vector<Rider>& riders,
                  const std::function<bool()>& stop = {});

        /** Injection cycle of run @p index (planned, not simulated). */
        uint64_t injectionCycle(uint32_t index) const;
        /**
         * Simulate run @p index on the straight path — restore its
         * ladder checkpoint, inject, run to the end (fault-isolated,
         * journalled) — and return how many runs are still pending
         * afterwards; zero means the campaign is complete and
         * finalize() may be called. The reference every shortcut is
         * held to, and the fallback for any run lockstep cannot serve.
         */
        uint32_t runIndex(uint32_t index);
        /**
         * Build a cohort over the still-pending runs of @p indices
         * (distributed sweep work units): plans each run, resolves the
         * shared restore checkpoint from the first and orders by
         * ascending (cycle, index) exactly like planCohorts(). The
         * indices must share a resolved checkpoint — the coordinator
         * only derives units from planned cohorts, which guarantees
         * it. Already-done indices drop out.
         */
        Cohort makeCohort(const std::vector<uint32_t>& indices,
                          int64_t id);
        /**
         * Observe every run this execution completes (called from
         * complete(), possibly on a worker thread, after the record is
         * journalled). The distributed worker streams each record to
         * its coordinator from here. Install before running anything.
         */
        void setRunObserver(std::function<void(const RunRecord&)> fn);
        /**
         * Adopt a run simulated by another process (the distributed
         * coordinator ingesting a worker's record): tallies, metrics
         * and records_ exactly like complete(), but never appends to
         * this process's journal — durability is the producer's shard,
         * merged in later. A record whose index is already done is
         * ignored (a reclaimed-and-reassigned unit can race its dead
         * worker's last record). Returns runs still pending; zero
         * means finalize() may be called.
         */
        uint32_t adoptRecord(RunRecord record);
        /** Runs finished so far (replayed + simulated). */
        uint32_t completedRuns() const;
        /** Runs replayed from the journal at construction. */
        uint32_t resumedRuns() const { return resumed_; }
        /** Assemble the CampaignResult (exactly run()'s semantics). */
        CampaignResult finalize(bool cancelled);

      private:
        friend class Campaign;
        Execution(const Campaign& campaign, bool keep_runs);

        /**
         * Record a finished run: metrics, journal append, tallies.
         * @p skipped_prefix is the golden prefix this run's simulator
         * never executed (the ladder checkpoint cycle for straight
         * runs, the fork-base cycle for lockstep forks, and the run's
         * full un-simulated extent for lockstep runs that never
         * forked). @p journal_it is false for adopted records, whose
         * durability lives in the producing worker's shard. Returns
         * runs still pending.
         */
        uint32_t complete(RunRecord&& record, uint64_t skipped_prefix,
                          bool journal_it = true);

        /** Run @p cohort's still-pending runs through runIndex(),
         *  accumulating into @p out. */
        void runStraight(const Cohort& cohort,
                         const std::function<bool()>& stop,
                         CohortOutcome& out);

        /**
         * The lockstep loop (DESIGN.md §15), the one driver behind
         * runShared() and runCohort(): every rider's runs ride one
         * cursor as flip overlays; dead runs retire with golden
         * terminal counts, propagated runs fork private simulators
         * from a rolling fork-base snapshot. Accumulates into
         * @p outs (one per rider). Returns false if the cursor failed
         * with runs still unretired (the caller then runs each
         * rider's remainder straight).
         */
        static bool runCohortLockstep(const std::vector<Rider>& riders,
                                      const std::function<bool()>& stop,
                                      std::vector<CohortOutcome>& outs);

        const Campaign& campaign_;
        MaskGenerator generator_;
        bool keepRuns_;
        std::vector<RunRecord> records_;
        std::vector<char> done_;
        std::optional<Journal> journal_;
        std::mutex journalMutex_;
        std::function<void(const RunRecord&)> runObserver_;
        uint32_t resumed_ = 0;
        std::atomic<uint32_t> completed_{0};
        std::atomic<uint32_t> pending_{0};

        // Process-wide instruments (DESIGN.md §12), resolved once here
        // so runIndex() pays one atomic add per event, no map lookups.
        Counter* runsSimulated_;
        Counter* cyclesSimulated_;
        Counter* cyclesSaved_;
        Counter* ffCycles_;
        std::array<Counter*, 3> exitCounters_;  ///< by sim::EarlyExit
        Histogram* runWall_;
        Counter* cohorts_;          ///< batched cohorts executed
        Counter* cursorCycles_;     ///< golden cycles cursors advanced
        Counter* forks_;            ///< lockstep overlays forked private
        Counter* overlayCycles_;    ///< cycles runs rode the cursor
        Counter* neverForked_;      ///< lockstep runs retired overlay-only
        Counter* decodeHits_;       ///< decode-memo hits (cursor sims)
        Counter* snapshotBytes_;    ///< bytes delta checkpoints copied
    };

    /** Start an invocation: replay the journal, simulate nothing yet. */
    std::unique_ptr<Execution> prepare(bool keep_runs = false) const;

  private:
    /**
     * The golden artifacts (simulated on first use — or fetched from
     * the shared store when one was given). Thread-safe on first call.
     */
    const GoldenArtifacts& golden() const;

    /**
     * Everything about run @p index that is decided before any
     * simulation: the RNG-derived mask and injection cycle (filled
     * into `record`) and the resolved restore checkpoint. The cohort
     * planner groups on checkpointIndex; execution replays the same
     * plan on retries so a retry sees the identical fault.
     */
    struct RunPlan
    {
        RunRecord record;
        size_t checkpointIndex = NoCheckpoint;
    };
    RunPlan planRun(const GoldenArtifacts& golden, uint32_t index,
                    const MaskGenerator& generator) const;
    /** The planned flips as an injection at @p cycle into this
     *  campaign's fault target. */
    sim::Injection injection(uint64_t cycle,
                             const std::vector<sim::BitFlip>& flips) const;
    /**
     * Simulate a planned run from @p start (nullptr = cycle 0) with
     * @p injections scheduled, and classify it against golden. A
     * straight run starts at its ladder checkpoint with the plan's
     * flips; a lockstep fork starts at the cohort's fork-base snapshot
     * with the overlay's flips still live there (pre-pruned: they
     * survived the attach-time screen, and re-screening against
     * base-cycle state could discard flips a private run would still
     * track) plus its ghost flips (untracked: discarded from liveness
     * by a deadness proof but still physically present, and state
     * digests hash every bit). The two are bit-identical: the machine
     * at the base cycle is golden XOR the live and ghost flips, and
     * the tracking engine starts in the state a straight run reaches
     * there. record.restoredFrom always reports the ladder checkpoint,
     * so records match whichever path ran.
     */
    RunRecord execute(const GoldenArtifacts& golden, const RunPlan& plan,
                      const sim::Snapshot* start,
                      const std::vector<sim::Injection>& injections,
                      uint32_t attempt) const;
    /** execute() with the retry-then-Error fault isolation. */
    RunRecord executeIsolated(
        const GoldenArtifacts& golden, const RunPlan& plan,
        const sim::Snapshot* start,
        const std::vector<sim::Injection>& injections) const;

    const workloads::Workload& workload_;
    CampaignConfig config_;
    sim::Program program_;
    uint32_t checkpointTarget_;    ///< resolved checkpoint count
    bool earlyExit_;               ///< resolved early-exit switch
    bool cohortBatching_;          ///< resolved cohort switch (and lockstep)
    bool deltaSnapshots_;          ///< resolved delta-snapshot switch
    uint32_t digestTarget_;        ///< resolved digest-point count
    uint32_t threads_;             ///< resolved worker count (>= 1)
    std::string journalDir_;       ///< resolved journal dir ("" = off)
    uint32_t deadlineSeconds_;     ///< resolved deadline (0 = none)
    uint32_t heartbeatSeconds_;    ///< progress heartbeat (0 = off)
    GoldenStore* store_ = nullptr; ///< shared golden artifacts, if any

    // Golden-artifact cache, filled once on first use (goldenCycles()
    // or the first injected run, whichever comes first). Immutable and
    // shared read-only across the worker pool after that.
    mutable std::once_flag goldenOnce_;
    mutable std::shared_ptr<const GoldenArtifacts> golden_;
};

} // namespace mbusim::core

#endif // MBUSIM_CORE_CAMPAIGN_HH
