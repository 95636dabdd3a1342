/**
 * @file
 * Multi-process and cross-host sweep coordinator (DESIGN.md §14, §17).
 *
 * runDistributedSweep() drives the same fused work units as
 * Study::runSweep (core::fuseSweepUnits: one program and checkpoint
 * interval per unit, one rider per cell, one lockstep golden cursor),
 * but hands them to `mbusim worker` processes over length-prefixed
 * frames instead of threads, so a crash — a host-side
 * simulator bug, an OOM kill, a stray SIGKILL, a dropped network
 * connection — costs one worker and its in-flight unit, never the
 * sweep. Workers are local subprocesses on pipes (--worker-procs),
 * remote processes the coordinator dials over TCP (--hosts), or
 * remote processes that dial in (--listen); all three speak the same
 * protocol and share one lease table. The coordinator is
 * single-threaded: one poll(2) loop adopts streamed RunRecords into
 * the cells' Executions, tracks a lease per busy worker (any frame
 * renews it; a silent worker is presumed hung, killed or disconnected
 * and its unit's still-pending runs requeued), respawns dead workers
 * and re-dials lost connections under a capped-exponential-backoff
 * budget, and quarantines poison units: a unit that kills workers
 * twice is split into singletons across all its riders, and a
 * singleton that still kills
 * workers is recorded as Outcome::Error — excluded from the AVF
 * denominator like every host-side failure.
 *
 * Degradation order is explicit: a lost connection expires its lease,
 * the unit requeues on surviving workers, and only when every
 * transport is gone and the budget exhausted are the remaining runs
 * drained in-process, on the in-process sweep's own fused queue
 * (core::runSweepUnits), so a sweep degrades gracefully rather than
 * deadlocking.
 *
 * Results are bit-identical to the in-process scheduler: records are
 * deterministic in (seed, index), the trace is emitted in run-index
 * order by Execution::finalize, and durability converges on the
 * shard-merge path — local workers journal private shards, remote
 * workers' streamed records are journalled into a coordinator-side
 * shard — merged into the canonical journal (fsync, rename, fsync the
 * directory) when each cell completes and once more at shutdown.
 * Remote workers prove they simulate the same machine before running
 * anything: each work unit carries a content-addressed golden key
 * (golden_wire.hh) the worker must reproduce.
 */

#ifndef MBUSIM_DIST_COORDINATOR_HH
#define MBUSIM_DIST_COORDINATOR_HH

#include <string>
#include <vector>

#include "core/study.hh"

namespace mbusim::dist {

/** Knobs of the multi-process execution layer. */
struct DistConfig
{
    /** Worker subprocesses; 0 = none (with no hosts either, the sweep
     *  runs in-process via Study::runSweep). */
    uint32_t workerProcs = 0;
    /** Seconds without any frame before a worker's lease is revoked
     *  and the worker killed (local) or disconnected (remote)
     *  (MBUSIM_LEASE_TIMEOUT_S, default 60). */
    uint32_t leaseTimeoutS = 60;
    /** Total worker respawns/re-dials before the sweep degrades to
     *  in-process execution (MBUSIM_RESPAWN_BUDGET, default 8). */
    uint32_t respawnBudget = 8;
    /** Executable spawned as `<exe> worker ...`; empty resolves
     *  /proc/self/exe. MBUSIM_WORKER_EXE overrides for tests whose
     *  own binary has no worker subcommand. */
    std::string workerExe;
    /** Remote workers to dial, as `host:port` entries, each expected
     *  to be running `mbusim worker --listen <port>` (--hosts /
     *  MBUSIM_HOSTS, comma-separated). Trusted networks only. */
    std::vector<std::string> hosts;
    /** Accept dial-in workers (`mbusim worker --connect`) on this
     *  port (0 = ephemeral); -1 = no listen socket. */
    int listenPort = -1;
    /** Ship golden blobs to remote workers over `need`/`art` frames
     *  for byte-level verification; off = key-verify only
     *  (MBUSIM_SHIP_GOLDEN, default 1). */
    bool shipGolden = true;
    /** Seconds after sweep start during which initial connection
     *  attempts to --hosts are free, i.e. not charged against the
     *  respawn budget (MBUSIM_CONNECT_GRACE_S, default 15) — worker
     *  fleets often come up after the sweep does. */
    uint32_t connectGraceS = 15;
};

/** DistConfig from the MBUSIM_* environment knobs. */
DistConfig defaultDistConfig();

/**
 * Run @p study's full sweep grid through @p config's worker fleet.
 * Cancellation (SIGINT/SIGTERM via the interrupt flag, or the study's
 * deadline) stops assignment, asks workers to shut down — a shutdown
 * frame plus EOF/FIN, escalating to SIGKILL or a hard close after a
 * grace period — and adopts every record still in flight; journal
 * shards already written survive for the next resume. Progress
 * callbacks match Study::runSweep's.
 */
core::SweepReport
runDistributedSweep(core::Study& study, const DistConfig& config,
                    const core::Study::ProgressFn& progress = {});

} // namespace mbusim::dist

#endif // MBUSIM_DIST_COORDINATOR_HH
