/**
 * @file
 * Study orchestration: the full (workload x component x cardinality)
 * sweep of the paper, with result caching and a sweep-level scheduler.
 *
 * The paper's headline results (Tables IV/V, Figs. 7/8) need campaigns
 * for all 15 workloads x 6 components x 3 cardinalities. A Study runs
 * campaigns on demand and memoizes them in-process and, optionally, in a
 * small on-disk cache keyed by every parameter that affects the result,
 * so the bench binaries can share one sweep (set MBUSIM_CACHE_DIR).
 *
 * runSweep() flattens the whole grid into one scheduler (DESIGN.md
 * §11): golden runs are simulated once per workload and shared across
 * all 18 of its cells through a GoldenStore, and a single persistent
 * worker pool drains a global (cell, run) queue, so one cell's
 * straggler tail overlaps the next cell's work. Per-cell results stay
 * bit-identical to the serial path. MBUSIM_SWEEP_SCHEDULER=0 falls
 * back to the strictly serial per-campaign loop.
 *
 * Environment knobs honoured by defaultStudyConfig():
 *   MBUSIM_INJECTIONS  sample size per campaign   (default 200)
 *   MBUSIM_SEED        campaign seed              (default 0x5eed)
 *   MBUSIM_THREADS     worker threads             (default: hw)
 *   MBUSIM_CACHE_DIR   on-disk result cache       (default: off)
 *   MBUSIM_JOURNAL_DIR per-campaign run journals  (default: off)
 *   MBUSIM_WORKLOADS   comma list to restrict the sweep (default: all)
 *   MBUSIM_SWEEP_SCHEDULER  global-queue sweep scheduler (default: on)
 *
 * Cache entries are versioned and checksummed; a truncated, corrupted
 * or foreign entry is a miss that gets regenerated and atomically
 * rewritten, never a crash or silent garbage.
 */

#ifndef MBUSIM_CORE_STUDY_HH
#define MBUSIM_CORE_STUDY_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/avf.hh"
#include "core/campaign.hh"
#include "core/golden_store.hh"

namespace mbusim::core {

/** Sweep-wide configuration (campaign parameters + cache). */
struct StudyConfig
{
    uint32_t injections = 200;
    uint64_t seed = 0x5eed;
    ClusterShape cluster;
    uint32_t timeoutFactor = 4;
    uint32_t threads = 0;
    sim::CpuConfig cpu;
    std::string cacheDir;               ///< empty = no disk cache
    std::string journalDir;             ///< per-campaign run journals
    std::vector<std::string> workloads; ///< empty = all 15
    /** Wall-clock budget for one runSweep() call in seconds (0 = take
     *  MBUSIM_DEADLINE_S, unset/0 = none). */
    uint32_t deadlineSeconds = 0;
    /** Global-queue sweep scheduler (MBUSIM_SWEEP_SCHEDULER); off =
     *  runSweep() degrades to the serial per-campaign loop. */
    bool sweepScheduler = true;
    /**
     * Run-trace sink shared by every campaign of the sweep (the CLI's
     * --trace-out): one JSONL record per simulated or replayed run,
     * emitted when its cell finalizes. Cells served from the memo or
     * disk cache carry no per-run data and emit nothing; cells left
     * incomplete by a cancellation are not finalized, so their runs
     * appear in the next (resumed) sweep's trace instead.
     */
    std::shared_ptr<JsonlWriter> trace;
    /** Test-only host-fault injection, forwarded to every campaign
     *  (see CampaignConfig::hostFaultHook). */
    std::function<void(uint32_t, uint32_t)> hostFaultHook;
};

/** Build a StudyConfig from the MBUSIM_* environment knobs. */
StudyConfig defaultStudyConfig();

/** Live progress of a runSweep() call, delivered once per finished
 *  cell (possibly from a worker thread; delivery is serialized). */
struct SweepProgress
{
    std::string cell;        ///< cache key of the cell just finished
    bool fromCache = false;  ///< served from the memo or disk cache
    uint32_t cellsDone = 0;
    uint32_t cellsTotal = 0;
    uint64_t runsDone = 0;   ///< runs simulated so far by this call
    uint64_t runsTotal = 0;  ///< runs this call had left to simulate
};

/** What one runSweep() call did. */
struct SweepReport
{
    uint32_t cells = 0;           ///< cells in the sweep grid
    uint32_t cachedCells = 0;     ///< satisfied from memo/disk cache
    uint32_t simulatedCells = 0;  ///< completed by this call
    uint64_t runsSimulated = 0;
    uint64_t runsResumed = 0;     ///< replayed from journals
    uint64_t goldenSimulations = 0;
    bool cancelled = false;       ///< SIGINT/deadline stopped the sweep
};

/**
 * One pending (not cached) cell of a sweep grid, prepared for
 * execution: its campaign, a journal-replayed Execution, and the
 * planned cohorts. Shared by the in-process scheduler (runSweep) and
 * the multi-process coordinator (src/dist), which both drain the same
 * cohort shape — only the workers differ.
 */
struct SweepCell
{
    const workloads::Workload* workload = nullptr;
    Component component = Component::L1D;
    uint32_t faults = 1;
    std::string key;                ///< cache key / journal key
    std::unique_ptr<Campaign> campaign;
    std::unique_ptr<Campaign::Execution> exec;
    std::vector<Campaign::Execution::Cohort> cohorts;
};

/**
 * One queue entry of a sweep (DESIGN.md §11, §14, §15): the cohorts of
 * one or more cells that ride a single lockstep golden cursor.
 * cells[i] owns cohorts[i]. The in-process sweep runs these; the
 * distributed coordinator leases them to worker processes.
 */
struct SweepUnit
{
    std::vector<SweepCell*> cells;
    std::vector<Campaign::Execution::Cohort> cohorts;
    uint64_t runs = 0;   ///< runs across every cohort
    uint64_t cost = 0;   ///< runs x golden cycles from base to end
};

/**
 * Build a sweep's queue from planned cells: every cohort
 * that can share a cursor (Execution::sharesCursor) is fused with the
 * other cells' cohorts of the same golden artifacts and restore
 * checkpoint — one unit per program and checkpoint interval, all 18
 * of a program's cells riding it. With fewer than 2 x @p threads units
 * the fused units are split cycle-contiguously into chunks of at most
 * runs/(2 x threads) runs. Units come back largest cost first, cohort
 * ids numbering the queue.
 */
std::vector<SweepUnit>
fuseSweepUnits(const std::vector<std::unique_ptr<SweepCell>>& cells,
               uint32_t threads);

/**
 * Drain @p units in process on a pool of @p threads workers (at most
 * one per unit; one runs on the calling thread): workers claim units
 * in queue order through one atomic cursor and run each through
 * Execution::runShared. @p stop is polled between and inside units;
 * an abandoned unit's runs simply stay pending. @p onRider is called
 * on the worker that ran the unit, once per rider, with the rider's
 * cell and outcome — exactly one call per cell across all units sees
 * retiredLast, and may finalize that cell. The queue loop of
 * Study::runSweep and of the distributed coordinator's degrade path.
 */
void runSweepUnits(
    const std::vector<SweepUnit>& units, uint32_t threads,
    const std::function<bool()>& stop,
    const std::function<void(SweepCell&,
                             const Campaign::Execution::CohortOutcome&)>&
        onRider);

/** On-demand, memoized campaign sweep. */
class Study
{
  public:
    using ProgressFn = std::function<void(const SweepProgress&)>;

    explicit Study(StudyConfig config = defaultStudyConfig());

    const StudyConfig& config() const { return config_; }

    /** The workloads in this study (respects the restriction list). */
    const std::vector<const workloads::Workload*>& workloadSet() const
    {
        return workloads_;
    }

    /**
     * Campaign result for one (workload, component, faults) triple.
     * Thread-safe; concurrent callers may duplicate work on a shared
     * miss, but the memoized result is stable either way.
     */
    const CampaignResult& campaign(const std::string& workload,
                                   Component component, uint32_t faults);

    /**
     * Golden cycles of a workload (Eq. 2 weights). Served from the
     * shared GoldenStore (or the memoized campaign results) — never a
     * throwaway extra simulation.
     */
    uint64_t goldenCycles(const std::string& workload);

    /**
     * Run every cell of the grid (|workloads| x 6 components x 3
     * cardinalities) through the sweep scheduler: one golden
     * simulation per workload, one persistent worker pool over a
     * global (cell, run) queue. Completed cells are memoized and
     * disk-cached exactly as campaign() would; a cancelled sweep
     * (SIGINT / deadline) finishes in-flight runs, leaves journals
     * resumable and never caches a partially finished cell.
     */
    SweepReport runSweep(const ProgressFn& progress = {});

    /** Worker-thread count the sweep scheduler resolves: config, else
     *  MBUSIM_THREADS, else the hardware concurrency (min 1). */
    uint32_t resolvedThreads() const;

    /**
     * Passes 1+2 of the sweep scheduler, shared with the
     * multi-process coordinator (src/dist): merge any journal shards
     * left by a killed coordinator, enumerate the grid workload-major,
     * split cached cells (counted in @p report, keys appended to
     * @p cached_keys) from pending ones, and plan every pending cell
     * into cohorts sized for @p threads workers. Resumed runs are
     * tallied into @p report.
     */
    std::vector<std::unique_ptr<SweepCell>>
    prepareSweepCells(SweepReport& report,
                      std::vector<std::string>& cached_keys,
                      uint32_t threads);

    /**
     * Finalize a cell whose runs are all done and install the result
     * in the memo and disk cache, exactly like the in-process sweep.
     */
    void installCellResult(SweepCell& cell);

    /**
     * Eq. 2 weighted AVF of a component for all three cardinalities
     * (runs 3 x |workloads| campaigns on first use).
     */
    ComponentAvf componentAvf(Component component);

    /** componentAvf for all six components (scheduled as one sweep). */
    std::vector<ComponentAvf> allComponentAvfs();

  private:
    std::string cacheKey(const std::string& workload,
                         Component component, uint32_t faults) const;
    CampaignConfig campaignConfig(Component component,
                                  uint32_t faults) const;
    bool loadCached(const std::string& key, CampaignResult& result) const;
    void storeCached(const std::string& key,
                     const CampaignResult& result) const;
    /** Memo probe; fills golden_ from a disk hit. Returns true if the
     *  cell is now memoized. Takes mutex_. */
    bool lookupCell(const std::string& workload, const std::string& key);

    StudyConfig config_;
    std::vector<const workloads::Workload*> workloads_;
    GoldenStore goldenStore_;

    /** Guards results_ and golden_ (campaign() and the sweep workers
     *  mutate them concurrently). References into results_ stay valid
     *  under mutation (std::map), so callers may hold them unlocked. */
    mutable std::mutex mutex_;
    std::map<std::string, CampaignResult> results_;
    std::map<std::string, uint64_t> golden_;
};

} // namespace mbusim::core

#endif // MBUSIM_CORE_STUDY_HH
