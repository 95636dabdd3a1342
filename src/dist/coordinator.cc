#include "dist/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/golden_store.hh"
#include "core/golden_wire.hh"
#include "dist/protocol.hh"
#include "dist/transport.hh"
#include "util/env.hh"
#include "util/interrupt.hh"
#include "util/journal.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "util/parse.hh"

namespace mbusim::dist {

namespace {

using Clock = std::chrono::steady_clock;

/** One cell's runs inside a leased unit. */
struct UnitRider
{
    core::SweepCell* cell = nullptr;
    std::vector<uint32_t> indices;
};

/**
 * One leasable work unit: a fused sweep unit (core::fuseSweepUnits) —
 * one program and checkpoint interval, one rider per cell — which the
 * worker runs on a single lockstep golden cursor. Every rider shares
 * the program, so a unit carries one golden key. The coordinator never
 * re-sorts the indices — the worker's makeCohort() re-derives each
 * rider's ordering deterministically. Lease, heartbeat, reclaim and
 * strikes are per unit.
 */
struct WorkUnit
{
    int64_t id = 0;
    std::vector<UnitRider> riders;
    /** Workers this unit's execution has killed (crash, lost
     *  connection or revoked lease). Two strikes quarantine it: a
     *  multi-run unit splits into singletons across all its riders, a
     *  singleton is recorded as Outcome::Error. */
    uint32_t killCount = 0;
};

/** @p unit's riders cut down to their still-pending runs; riders with
 *  none left drop out. */
std::vector<UnitRider>
pendingRiders(const WorkUnit& unit)
{
    std::vector<UnitRider> riders;
    for (const UnitRider& rider : unit.riders) {
        UnitRider left{rider.cell, {}};
        for (uint32_t index : rider.indices) {
            if (rider.cell->exec->pending(index))
                left.indices.push_back(index);
        }
        if (!left.indices.empty())
            riders.push_back(std::move(left));
    }
    return riders;
}

/**
 * One worker slot: a local subprocess on a pipe pair, a remote worker
 * the coordinator dialed (re-dialed on loss under the respawn
 * budget), or a remote worker that dialed in (never re-dialed — it
 * owns the connection). Remote slots carry one socket fd in both
 * toFd and fromFd.
 */
struct WorkerSlot
{
    enum class Kind { Local, Dial, Accepted };

    Kind kind = Kind::Local;
    uint32_t slot = 0;
    uint32_t generation = 0;     ///< bumped per respawn: shard names
    pid_t pid = -1;
    int toFd = -1;
    int fromFd = -1;
    FrameBuffer frames;
    WorkUnit* unit = nullptr;    ///< leased unit, if any
    bool ready = false;          ///< said hello, can take work
    bool sawEof = false;         ///< remote: transport EOF or error
    bool defunct = false;        ///< remote: refused (bad-golden)
    bool everConnected = false;  ///< dial: first connect succeeded
    HostSpec host;               ///< dial target
    Clock::time_point lastFrame; ///< lease: renewed by any frame
    Clock::time_point nextSpawn; ///< respawn/re-dial backoff gate
    uint32_t spawnFailures = 0;  ///< consecutive, drives the backoff
};

bool
slotActive(const WorkerSlot& slot)
{
    return slot.kind == WorkerSlot::Kind::Local ? slot.pid >= 0
                                                : slot.fromFd >= 0;
}

const char*
slotLabel(const WorkerSlot& slot)
{
    switch (slot.kind) {
      case WorkerSlot::Kind::Local:
        return "local";
      case WorkerSlot::Kind::Dial:
        return "remote";
      case WorkerSlot::Kind::Accepted:
        return "dial-in";
    }
    return "?";
}

void
closeFd(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** The worker executable: config, else MBUSIM_WORKER_EXE (tests whose
 *  own binary has no `worker` subcommand), else this binary. */
std::string
resolveWorkerExe(const DistConfig& config)
{
    if (!config.workerExe.empty())
        return config.workerExe;
    std::string exe = envString("MBUSIM_WORKER_EXE", "");
    if (!exe.empty())
        return exe;
    return "/proc/self/exe";
}

} // namespace

DistConfig
defaultDistConfig()
{
    DistConfig config;
    config.workerProcs = static_cast<uint32_t>(
        envUInt("MBUSIM_WORKER_PROCS", 0, 4096));
    config.leaseTimeoutS = static_cast<uint32_t>(
        envUInt("MBUSIM_LEASE_TIMEOUT_S", 60, UINT32_MAX));
    config.respawnBudget = static_cast<uint32_t>(
        envUInt("MBUSIM_RESPAWN_BUDGET", 8, UINT32_MAX));
    config.workerExe = envString("MBUSIM_WORKER_EXE", "");
    config.hosts = splitCommaList(envString("MBUSIM_HOSTS", ""));
    config.shipGolden =
        envUInt("MBUSIM_SHIP_GOLDEN", 1, 1) != 0;
    config.connectGraceS = static_cast<uint32_t>(
        envUInt("MBUSIM_CONNECT_GRACE_S", 15, UINT32_MAX));
    return config;
}

core::SweepReport
runDistributedSweep(core::Study& study, const DistConfig& config,
                    const core::Study::ProgressFn& progress)
{
    // Dial targets are validated up front; a malformed entry is a
    // configuration error, not a host to retry forever.
    std::vector<HostSpec> dial_hosts;
    for (const std::string& spec : config.hosts) {
        HostSpec host;
        if (parseHostPort(spec, host))
            dial_hosts.push_back(std::move(host));
        else
            warn("dist: ignoring malformed host '%s' (want "
                 "host:port)", spec.c_str());
    }

    if (config.workerProcs == 0 && dial_hosts.empty() &&
        config.listenPort < 0)
        return study.runSweep(progress);

    const Clock::time_point started = Clock::now();
    const uint64_t golden_before = core::goldenSimulationCount();
    const core::StudyConfig& sc = study.config();

    // A worker that dies between our poll and our write would
    // otherwise SIGPIPE the whole coordinator; so would a remote
    // worker whose connection resets.
    std::signal(SIGPIPE, SIG_IGN);

    core::SweepReport report;
    report.cells =
        static_cast<uint32_t>(study.workloadSet().size()) *
        static_cast<uint32_t>(core::AllComponents.size()) * 3;

    // Pass 1+2 are shared with the in-process scheduler: merge
    // leftover shards, enumerate, replay journals, plan cohorts.
    const uint32_t fleet = std::max<uint32_t>(
        1, config.workerProcs + static_cast<uint32_t>(dial_hosts.size()));
    std::vector<std::string> cached_keys;
    std::vector<std::unique_ptr<core::SweepCell>> cells =
        study.prepareSweepCells(report, cached_keys, fleet);

    Metrics& m = metrics();
    Counter& respawns_ctr = m.counter("dist.respawns");
    Counter& reclaimed_ctr = m.counter("dist.leases_reclaimed");
    Counter& quarantined_ctr = m.counter("dist.units_quarantined");
    Counter& poisoned_ctr = m.counter("dist.runs_poisoned");
    Counter& units_leased_ctr = m.counter("dist.units_leased");
    Counter& riders_leased_ctr = m.counter("dist.riders_leased");
    const uint64_t units_leased_before = units_leased_ctr.value();
    const uint64_t riders_leased_before = riders_leased_ctr.value();
    Gauge& workers_gauge = m.gauge("dist.workers");
    Gauge& queue_gauge = m.gauge("dist.queue_depth");

    uint32_t cells_done = 0;
    uint64_t runs_done = 0;
    uint64_t runs_total = 0;
    auto notify = [&](const std::string& key, bool from_cache) {
        ++cells_done;
        if (!from_cache)
            ++report.simulatedCells;
        if (progress) {
            core::SweepProgress p;
            p.cell = key;
            p.fromCache = from_cache;
            p.cellsDone = cells_done;
            p.cellsTotal = report.cells;
            p.runsDone = runs_done;
            p.runsTotal = runs_total;
            progress(p);
        }
    };
    for (const std::string& key : cached_keys)
        notify(key, true);

    // Golden identity per workload, built on demand from the
    // coordinator's own artifacts (already simulated for cohort
    // planning): the content-addressed key rides in every work frame
    // so a worker on a skewed build refuses the unit, and the blob is
    // served to remote workers over `need`/`art`.
    std::map<const workloads::Workload*,
             std::pair<std::string, std::string>>
        golden_wire;   // workload -> {key, blob}
    auto goldenFor =
        [&](core::SweepCell& cell)
        -> const std::pair<std::string, std::string>& {
        auto it = golden_wire.find(cell.workload);
        if (it == golden_wire.end()) {
            std::string blob = core::serializeGoldenWire(
                core::wireFromArtifacts(
                    cell.campaign->goldenArtifacts()));
            std::string key = core::goldenWireKey(
                cell.campaign->outcomeKey(), blob);
            it = golden_wire
                     .emplace(cell.workload,
                              std::make_pair(std::move(key),
                                             std::move(blob)))
                     .first;
        }
        return it->second;
    };

    // Remote workers cannot journal into the coordinator's filesystem,
    // so their streamed records are journalled here, into one
    // coordinator-side shard per cell, before adoption — same
    // durability contract as a local worker's own shard, merged
    // through the same path. The handle must be closed before any
    // merge renames the file.
    std::map<const core::SweepCell*, std::unique_ptr<Journal>>
        remote_shards;
    auto remoteShardAppend = [&](core::SweepCell& cell,
                                 const core::RunRecord& record) {
        if (sc.journalDir.empty())
            return;
        auto it = remote_shards.find(&cell);
        if (it == remote_shards.end()) {
            const std::string path = sc.journalDir + "/" + cell.key +
                                     ".journal.shard-coord";
            auto journal = std::make_unique<Journal>(
                path, cell.campaign->journalHeader());
            if (!journal->open()) {
                warn("dist: cannot write remote-record shard '%s'; "
                     "remote records of this cell will not survive a "
                     "coordinator crash", path.c_str());
                journal.reset();
            }
            it = remote_shards.emplace(&cell, std::move(journal))
                     .first;
        }
        if (it->second)
            it->second->append(core::serializeRunRecord(record));
    };

    // Merge a completed cell's shards into its canonical journal.
    // Safe mid-sweep: the cell has zero pending runs, so neither the
    // workers nor the coordinator will ever append to it again (the
    // coordinator's own shard appender is closed first — a rename
    // must never orphan a live appender).
    auto mergeCellShards = [&](const core::SweepCell& cell) {
        if (sc.journalDir.empty())
            return;
        const std::string canonical =
            sc.journalDir + "/" + cell.key + ".journal";
        const std::string prefix = cell.key + ".journal.shard-";
        std::vector<std::string> shards;
        std::error_code ec;
        for (const auto& entry : std::filesystem::directory_iterator(
                 sc.journalDir, ec)) {
            if (entry.path().filename().string().rfind(prefix, 0) == 0)
                shards.push_back(entry.path().string());
        }
        if (!shards.empty())
            mergeJournalShards(canonical, shards);
    };
    // A duplicate record arriving after a cell already completed
    // reports remaining == 0 too; the set makes finalize idempotent.
    std::set<const core::SweepCell*> finalized;
    auto finalizeCell = [&](core::SweepCell& cell) {
        if (!finalized.insert(&cell).second)
            return;
        remote_shards.erase(&cell);
        mergeCellShards(cell);
        study.installCellResult(cell);
        notify(cell.key, false);
    };
    for (auto& cell : cells) {
        if (cell->exec->completedRuns() == sc.injections)
            finalizeCell(*cell);
    }

    // The work-unit queue: the in-process sweep's fused units, largest
    // first, one lease per program and checkpoint interval.
    std::deque<std::unique_ptr<WorkUnit>> units;
    std::deque<WorkUnit*> ready;
    int64_t next_unit_id = 0;
    uint32_t units_open = 0;   // not yet done: queued or leased
    auto enqueue = [&](std::vector<UnitRider> riders,
                       uint32_t kill_count) {
        auto unit = std::make_unique<WorkUnit>();
        unit->id = next_unit_id++;
        unit->riders = std::move(riders);
        unit->killCount = kill_count;
        ready.push_back(unit.get());
        units.push_back(std::move(unit));
        ++units_open;
    };
    for (core::SweepUnit& fused : core::fuseSweepUnits(cells, fleet)) {
        std::vector<UnitRider> riders;
        for (size_t i = 0; i < fused.cells.size(); ++i)
            riders.push_back(
                {fused.cells[i], std::move(fused.cohorts[i].indices)});
        runs_total += fused.runs;
        enqueue(std::move(riders), 0);
    }

    // Adoption: one streamed record enters the coordinator's
    // Execution, and the worker that retires a cell's last run
    // completes the cell. Records from remote workers are journalled
    // into the coordinator-side shard first; local workers' records
    // are already durable in their own shards.
    auto adopt = [&](core::SweepCell& cell, core::RunRecord record,
                     bool journal_here) {
        const bool was_pending = cell.exec->pending(record.index);
        if (journal_here && was_pending)
            remoteShardAppend(cell, record);
        const uint32_t remaining =
            cell.exec->adoptRecord(std::move(record));
        if (was_pending)
            ++runs_done;
        if (remaining == 0 &&
            cell.exec->completedRuns() == sc.injections)
            finalizeCell(cell);
    };

    const std::string worker_exe = resolveWorkerExe(config);
    const bool sticky_crash =
        envUInt("MBUSIM_TEST_CRASH_STICKY", 0, 1) != 0;
    const uint32_t heartbeat_ms =
        std::max<uint32_t>(250, config.leaseTimeoutS * 1000 / 4);

    // Worker argv: every campaign parameter the coordinator resolved,
    // so worker-side planning is bit-identical. MBUSIM_* env knobs
    // (checkpoints, early exit, cohort batching...) are inherited via
    // the environment unchanged.
    auto workerArgs = [&](const WorkerSlot& slot, bool respawned) {
        std::vector<std::string> args;
        args.push_back(worker_exe);
        args.push_back("worker");
        args.push_back("--injections");
        args.push_back(std::to_string(sc.injections));
        args.push_back("--seed");
        args.push_back(std::to_string(sc.seed));
        args.push_back("--cluster");
        args.push_back(strprintf("%ux%u", sc.cluster.rows,
                                 sc.cluster.cols));
        args.push_back("--timeout-factor");
        args.push_back(std::to_string(sc.timeoutFactor));
        if (sc.cpu.inOrderIssue)
            args.push_back("--in-order");
        if (!sc.journalDir.empty()) {
            args.push_back("--journal-dir");
            args.push_back(sc.journalDir);
        }
        args.push_back("--shard");
        args.push_back(strprintf("w%ug%u", slot.slot,
                                 slot.generation));
        args.push_back("--heartbeat-ms");
        args.push_back(std::to_string(heartbeat_ms));
        // The deterministic crash hook must not re-fire on the respawn
        // that re-executes the reclaimed unit, or the equivalence
        // guarantee would be unreachable; MBUSIM_TEST_CRASH_STICKY
        // keeps it armed to exercise the quarantine path instead.
        if (respawned && !sticky_crash)
            args.push_back("--no-crash-hook");
        return args;
    };

    // The cfg frame sent first on every remote connection: the same
    // campaign parameters local workers get via argv, plus the
    // environment knobs a Campaign resolves (they change planned
    // cohorts and RunRecord fields, so the coordinator's values must
    // win on every host). Only cleanly numeric values are forwarded —
    // a garbage local value falls back to the same default on both
    // sides.
    CfgFrame cfg_frame;
    cfg_frame.injections = sc.injections;
    cfg_frame.seed = sc.seed;
    cfg_frame.clusterRows = sc.cluster.rows;
    cfg_frame.clusterCols = sc.cluster.cols;
    cfg_frame.timeoutFactor = sc.timeoutFactor;
    cfg_frame.inOrder = sc.cpu.inOrderIssue;
    cfg_frame.heartbeatMs = heartbeat_ms;
    cfg_frame.shipGolden = config.shipGolden;
    for (const std::string& knob : forwardedEnvKnobs()) {
        const std::string value = envString(knob.c_str(), "");
        uint64_t numeric = 0;
        if (!value.empty() && parseU64(value, UINT64_MAX, numeric))
            cfg_frame.env.emplace_back(knob, value);
    }
    const std::string cfg_payload = buildCfgFrame(cfg_frame);

    // Slot table: local subprocess slots first, then one dial slot
    // per --hosts entry; dial-in workers append Accepted slots
    // dynamically (deque: references stay valid as slots arrive).
    std::deque<WorkerSlot> slots(config.workerProcs +
                                 dial_hosts.size());
    for (uint32_t i = 0; i < slots.size(); ++i) {
        slots[i].slot = i;
        if (i >= config.workerProcs) {
            slots[i].kind = WorkerSlot::Kind::Dial;
            slots[i].host = dial_hosts[i - config.workerProcs];
        }
    }
    uint32_t next_slot_id = static_cast<uint32_t>(slots.size());
    uint32_t respawns_used = 0;
    uint32_t alive = 0;
    bool degraded = false;

    auto spawn = [&](WorkerSlot& slot, bool respawned) -> bool {
        int down[2] = {-1, -1};   // coordinator -> worker
        int up[2] = {-1, -1};     // worker -> coordinator
        if (::pipe(down) != 0 || ::pipe(up) != 0) {
            closeFd(down[0]);
            closeFd(down[1]);
            closeFd(up[0]);
            closeFd(up[1]);
            warn("dist: pipe() failed: %s", std::strerror(errno));
            return false;
        }
        std::vector<std::string> args = workerArgs(slot, respawned);
        pid_t pid = ::fork();
        if (pid < 0) {
            closeFd(down[0]);
            closeFd(down[1]);
            closeFd(up[0]);
            closeFd(up[1]);
            warn("dist: fork() failed: %s", std::strerror(errno));
            return false;
        }
        if (pid == 0) {
            // Child: protocol pipes on fds 3/4 by convention;
            // stdout/stderr inherited only for last-resort
            // panic()/fatal() output. pipe() hands out the lowest
            // free descriptors — possibly 3/4 themselves — so move
            // the ends clear before dup2 and never close an fd that
            // now *is* 3 or 4.
            if (down[0] == 4)
                down[0] = ::fcntl(down[0], F_DUPFD, 16);
            if (up[1] == 3)
                up[1] = ::fcntl(up[1], F_DUPFD, 16);
            ::dup2(down[0], 3);
            ::dup2(up[1], 4);
            for (int fd : {down[0], down[1], up[0], up[1]}) {
                if (fd != 3 && fd != 4)
                    ::close(fd);
            }
            std::vector<char*> argv;
            argv.reserve(args.size() + 1);
            for (std::string& a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::fprintf(stderr, "mbusim: cannot exec worker '%s': %s\n",
                         argv[0], std::strerror(errno));
            ::_exit(127);
        }
        closeFd(down[0]);
        closeFd(up[1]);
        ::fcntl(up[0], F_SETFL, O_NONBLOCK);
        // Later workers must not inherit this worker's pipe ends, or
        // closing toFd would never deliver EOF while siblings live.
        ::fcntl(down[1], F_SETFD, FD_CLOEXEC);
        ::fcntl(up[0], F_SETFD, FD_CLOEXEC);
        slot.pid = pid;
        slot.toFd = down[1];
        slot.fromFd = up[0];
        slot.frames = FrameBuffer();
        slot.unit = nullptr;
        slot.ready = false;
        slot.sawEof = false;
        slot.lastFrame = Clock::now();
        ++alive;
        workers_gauge.set(alive);
        return true;
    };

    // Attach one connected remote socket to @p slot: nonblocking like
    // a worker pipe, cfg frame first so it is ahead of any work frame
    // in the stream.
    auto attachRemote = [&](WorkerSlot& slot, int fd) -> bool {
        setNonBlocking(fd);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        slot.toFd = fd;
        slot.fromFd = fd;
        slot.frames = FrameBuffer();
        slot.unit = nullptr;
        slot.ready = false;
        slot.sawEof = false;
        slot.everConnected = true;
        slot.lastFrame = Clock::now();
        if (!writeFrame(fd, cfg_payload)) {
            slot.toFd = -1;
            closeFd(slot.fromFd);
            return false;
        }
        ++alive;
        workers_gauge.set(alive);
        return true;
    };

    auto dialRemote = [&](WorkerSlot& slot) -> bool {
        int fd = tcpConnect(slot.host.host, slot.host.port, 2000);
        if (fd < 0)
            return false;
        return attachRemote(slot, fd);
    };

    // The widest unit leased, for the closing summary: riders and the
    // distinct fault targets among them.
    size_t widest_riders = 0;
    size_t widest_components = 0;
    auto sendWork = [&](WorkerSlot& slot) {
        while (!ready.empty() && slot.unit == nullptr) {
            WorkUnit* unit = ready.front();
            ready.pop_front();
            // Re-filter against the Executions: reclaimed units keep
            // only the runs no other worker already finished.
            unit->riders = pendingRiders(*unit);
            if (unit->riders.empty()) {
                --units_open;
                continue;
            }
            WorkFrame frame;
            frame.unit = unit->id;
            frame.workload = unit->riders.front().cell->workload->name;
            frame.goldenKey = goldenFor(*unit->riders.front().cell).first;
            std::set<core::Component> components;
            for (const UnitRider& rider : unit->riders) {
                frame.riders.push_back(
                    {core::componentShortName(rider.cell->component),
                     rider.cell->faults, rider.indices});
                components.insert(rider.cell->component);
            }
            if (!writeFrame(slot.toFd, buildWorkFrame(frame))) {
                // Dead transport: the reaper (local) or the EOF sweep
                // (remote) will reclaim; requeue the unit so someone
                // else picks it up first.
                ready.push_front(unit);
                return;
            }
            slot.unit = unit;
            slot.lastFrame = Clock::now();
            units_leased_ctr.add(1);
            riders_leased_ctr.add(unit->riders.size());
            if (unit->riders.size() > widest_riders) {
                widest_riders = unit->riders.size();
                widest_components = components.size();
            }
        }
        queue_gauge.set(static_cast<int64_t>(ready.size()));
    };

    // Reclaim a dead or revoked worker's lease: only the unit's
    // still-pending runs go back on the queue, its riders still fused,
    // and two strikes trigger the quarantine ladder.
    auto reclaim = [&](WorkerSlot& slot, bool killed) {
        WorkUnit* unit = slot.unit;
        slot.unit = nullptr;
        if (unit == nullptr)
            return;
        --units_open;
        if (killed)
            ++unit->killCount;
        std::vector<UnitRider> pending = pendingRiders(*unit);
        if (pending.empty())
            return;
        size_t leased = 0, runs = 0;
        for (const UnitRider& rider : unit->riders)
            leased += rider.indices.size();
        for (const UnitRider& rider : pending)
            runs += rider.indices.size();
        if (unit->killCount < 2) {
            inform("dist: unit %lld requeued with %zu of its %zu leased "
                   "runs pending, over %zu cells",
                   static_cast<long long>(unit->id), runs, leased,
                   pending.size());
            enqueue(std::move(pending), unit->killCount);
            return;
        }
        if (runs > 1) {
            // A unit that killed two workers: some run in it is
            // poison, so isolate every run of every rider — each
            // singleton gets its own two strikes before being
            // condemned.
            quarantined_ctr.add(1);
            warn("dist: unit %lld of %s (%zu cells) killed %u workers; "
                 "splitting %zu runs into singletons",
                 static_cast<long long>(unit->id),
                 pending.front().cell->workload->name.c_str(),
                 pending.size(), unit->killCount, runs);
            for (const UnitRider& rider : pending) {
                for (uint32_t index : rider.indices)
                    enqueue({{rider.cell, {index}}}, 0);
            }
            return;
        }
        // A singleton that still kills workers is charged to the run:
        // Outcome::Error, the host-side bucket AVF already excludes.
        core::SweepCell& cell = *pending.front().cell;
        poisoned_ctr.add(1);
        warn("dist: run %u of %s persistently kills workers; "
             "recording Outcome::Error",
             pending.front().indices.front(), cell.key.c_str());
        core::RunRecord record;
        record.index = pending.front().indices.front();
        record.outcome = core::Outcome::Error;
        adopt(cell, std::move(record), false);
    };

    auto releaseSlot = [&](WorkerSlot& slot) {
        if (slot.toFd == slot.fromFd)
            slot.toFd = -1;   // one socket: close it exactly once
        closeFd(slot.toFd);
        closeFd(slot.fromFd);
        slot.pid = -1;
        slot.ready = false;
        slot.sawEof = false;
        if (alive > 0)
            --alive;
        workers_gauge.set(alive);
    };

    auto handleFrame = [&](WorkerSlot& slot,
                           const std::string& payload) {
        slot.lastFrame = Clock::now();
        if (payload == "hb")
            return;
        std::istringstream in(payload);
        std::string tag;
        in >> tag;
        if (tag == "hello") {
            slot.ready = true;
            slot.spawnFailures = 0;
            sendWork(slot);
        } else if (tag == "rec") {
            // A record outside any lease belongs to a unit already
            // reclaimed; its runs are requeued, so it is dropped.
            if (slot.unit == nullptr)
                return;
            RecFrame rec;
            if (!parseRecFrame(payload, slot.unit->riders.size(), rec)) {
                warn("dist: worker %u sent a malformed record",
                     slot.slot);
                return;
            }
            if (rec.unit == slot.unit->id)
                adopt(*slot.unit->riders[rec.rider].cell,
                      std::move(rec.record),
                      slot.kind != WorkerSlot::Kind::Local);
        } else if (tag == "unit-done") {
            long long unit_id = -1;
            in >> unit_id;
            if (slot.unit != nullptr && slot.unit->id == unit_id) {
                slot.unit = nullptr;
                --units_open;
            }
            sendWork(slot);
        } else if (tag == "need") {
            // A remote worker wants the golden blob for one key
            // (byte-level verification against its own rebuild).
            std::string key;
            in >> key;
            const std::string* blob = nullptr;
            for (const auto& [workload, wire] : golden_wire) {
                if (wire.first == key) {
                    blob = &wire.second;
                    break;
                }
            }
            if (blob == nullptr || !config.shipGolden) {
                writeFrame(slot.toFd, "art-miss " + key);
                return;
            }
            uint64_t offset = 0;
            do {
                ArtFrame art;
                art.key = key;
                art.total = blob->size();
                art.offset = offset;
                art.chunk = blob->substr(offset, ArtChunkBytes);
                if (!writeFrame(slot.toFd, buildArtFrame(art)))
                    break;   // dead transport: EOF sweep reclaims
                offset += art.chunk.size();
            } while (offset < blob->size());
        } else if (tag == "bad-golden") {
            // The worker's rebuilt golden run does not match ours:
            // simulator or workload version skew. Requeue the unit
            // without a strike (the unit is innocent) and never use
            // this worker again — every unit it gets would bounce.
            long long unit_id = -1;
            std::string have, want;
            in >> unit_id >> have >> want;
            warn("dist: %s worker %u refused unit %lld: its golden "
                 "key %s != coordinator's %s (version skew); "
                 "retiring that worker",
                 slotLabel(slot), slot.slot, unit_id, have.c_str(),
                 want.c_str());
            reclaim(slot, false);
            slot.defunct = true;
            if (slot.kind == WorkerSlot::Kind::Local) {
                if (slot.pid > 0)
                    ::kill(slot.pid, SIGTERM);
            } else {
                slot.sawEof = true;   // the EOF sweep retires it
            }
        } else if (tag == "log") {
            char level = 'I';
            in >> level;
            std::string text;
            std::getline(in, text);
            if (!text.empty() && text.front() == ' ')
                text.erase(0, 1);
            if (level == 'W')
                warn("[w%u] %s", slot.slot, text.c_str());
            else
                inform("[w%u] %s", slot.slot, text.c_str());
        } else {
            warn("dist: worker %u sent unknown frame '%s'", slot.slot,
                 tag.c_str());
        }
    };

    auto drainPipe = [&](WorkerSlot& slot) {
        char buf[4096];
        for (;;) {
            ssize_t n = ::read(slot.fromFd, buf, sizeof(buf));
            if (n > 0) {
                slot.frames.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (slot.kind != WorkerSlot::Kind::Local &&
                (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK))) {
                // A remote death has no SIGCHLD; EOF/reset on the
                // socket is its obituary. Frames already fed still
                // get handled below — a lost worker's last records
                // are not lost work.
                slot.sawEof = true;
            }
            break;   // EAGAIN (drained), EOF or error
        }
        std::string payload;
        while (slot.frames.next(payload))
            handleFrame(slot, payload);
        if (slot.frames.corrupt()) {
            warn("dist: worker %u sent a corrupt stream; dropping it",
                 slot.slot);
            if (slot.kind == WorkerSlot::Kind::Local) {
                if (slot.pid > 0)
                    ::kill(slot.pid, SIGKILL);
            } else {
                slot.sawEof = true;
            }
        }
    };

    // Retire remote slots whose transport died: adopt what arrived,
    // strike the unit, requeue its pending runs on the survivors.
    // Dial slots re-dial later under the respawn budget; Accepted
    // slots are gone until their worker dials back in.
    auto sweepRemoteDead = [&]() {
        for (WorkerSlot& slot : slots) {
            if (slot.kind == WorkerSlot::Kind::Local ||
                slot.fromFd < 0 || !slot.sawEof)
                continue;
            if (slot.unit != nullptr) {
                warn("dist: %s worker %u lost its connection holding "
                     "unit %lld; requeueing its pending runs",
                     slotLabel(slot), slot.slot,
                     static_cast<long long>(slot.unit->id));
            }
            reclaim(slot, true);
            releaseSlot(slot);
            slot.nextSpawn =
                Clock::now() + std::chrono::milliseconds(250);
        }
    };

    // Reap exited local workers; a death with a lease is a strike.
    auto reapDead = [&]() {
        for (;;) {
            int status = 0;
            pid_t pid = ::waitpid(-1, &status, WNOHANG);
            if (pid <= 0)
                return;
            auto it = std::find_if(slots.begin(), slots.end(),
                                   [&](const WorkerSlot& s) {
                                       return s.pid == pid;
                                   });
            if (it == slots.end())
                continue;
            WorkerSlot& slot = *it;
            // Adopt whatever complete frames made it into the pipe
            // before death — a killed worker's finished runs are not
            // lost work.
            drainPipe(slot);
            const bool crashed =
                WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0);
            if (slot.unit != nullptr) {
                if (crashed) {
                    warn("dist: worker %u (pid %d) died (%s) holding "
                         "unit %lld; requeueing its pending runs",
                         slot.slot, static_cast<int>(pid),
                         WIFSIGNALED(status)
                             ? strprintf("signal %d",
                                         WTERMSIG(status))
                                   .c_str()
                             : strprintf("exit %d",
                                         WEXITSTATUS(status))
                                   .c_str(),
                         static_cast<long long>(slot.unit->id));
                }
                reclaim(slot, true);
            }
            releaseSlot(slot);
        }
    };

    const uint32_t deadline_s =
        sc.deadlineSeconds != 0
            ? sc.deadlineSeconds
            : static_cast<uint32_t>(
                  envUInt("MBUSIM_DEADLINE_S", 0, UINT32_MAX));
    const uint32_t heartbeat_s = static_cast<uint32_t>(
        envUInt("MBUSIM_HEARTBEAT_S", 30, UINT32_MAX));
    const Clock::time_point deadline =
        started + std::chrono::seconds(deadline_s);
    // Atomic: the degrade path polls it from its drain pool.
    std::atomic<bool> cancel{false};
    auto shouldStop = [&]() {
        if (cancel.load(std::memory_order_relaxed))
            return true;
        const char* why = nullptr;
        if (interruptRequested())
            why = "interrupted";
        else if (deadline_s != 0 && Clock::now() >= deadline)
            why = "deadline expired";
        if (why == nullptr)
            return false;
        if (cancel.exchange(true))
            return true;
        warn("dist sweep %s: draining workers (%llu/%llu runs done%s)",
             why, static_cast<unsigned long long>(runs_done),
             static_cast<unsigned long long>(runs_total),
             sc.journalDir.empty() ? ""
                                   : ", journalled for resume");
        return true;
    };

    // Listen socket for dial-in workers (`mbusim worker --connect`).
    int listen_fd = -1;
    if (config.listenPort >= 0) {
        uint16_t bound = 0;
        listen_fd = tcpListen(
            static_cast<uint16_t>(config.listenPort), bound);
        if (listen_fd >= 0) {
            setNonBlocking(listen_fd);
            ::fcntl(listen_fd, F_SETFD, FD_CLOEXEC);
            inform("dist: accepting workers on port %u", bound);
        }
    }
    auto acceptRemote = [&]() {
        for (;;) {
            int fd = tcpAccept(listen_fd);
            if (fd < 0)
                return;
            slots.emplace_back();
            WorkerSlot& slot = slots.back();
            slot.kind = WorkerSlot::Kind::Accepted;
            slot.slot = next_slot_id++;
            if (attachRemote(slot, fd))
                inform("dist: worker %u dialed in", slot.slot);
        }
    };

    const Clock::time_point connect_grace_end =
        started + std::chrono::seconds(config.connectGraceS);

    // Initial fleet: spawn local slots, dial every host. Dial
    // failures retry during the connection grace window without
    // touching the respawn budget.
    for (WorkerSlot& slot : slots) {
        if (units_open == 0)
            break;
        if (slot.kind == WorkerSlot::Kind::Local)
            spawn(slot, false);
        else if (!dialRemote(slot))
            slot.nextSpawn =
                Clock::now() + std::chrono::milliseconds(250);
    }

    // --- The event loop. Single-threaded: every mutation of cells,
    // units and leases happens here, so there is no locking anywhere
    // in the coordinator.
    Clock::time_point last_beat = started;
    Clock::time_point zero_alive_since = Clock::time_point::min();
    while (units_open > 0 && !shouldStop()) {
        // Keep the fleet at strength while the respawn budget lasts.
        // A dial slot that never connected dials for free until the
        // grace window closes; after that, every attempt — successful
        // or not — draws on the budget, so a dead host drains it in
        // bounded time instead of being retried forever.
        const Clock::time_point now = Clock::now();
        for (WorkerSlot& slot : slots) {
            if (slot.kind == WorkerSlot::Kind::Accepted ||
                slotActive(slot) || slot.defunct || ready.empty())
                continue;
            if (now < slot.nextSpawn)
                continue;
            const bool free_dial =
                slot.kind == WorkerSlot::Kind::Dial &&
                !slot.everConnected && now < connect_grace_end;
            if (!free_dial && respawns_used >= config.respawnBudget)
                continue;
            ++slot.generation;
            if (slot.kind == WorkerSlot::Kind::Local) {
                if (spawn(slot, true)) {
                    ++respawns_used;
                    respawns_ctr.add(1);
                    // Capped exponential backoff per slot: a worker
                    // that dies instantly (bad exe, OOM storm) must
                    // not burn the whole budget in one scheduler
                    // beat.
                    slot.spawnFailures =
                        std::min<uint32_t>(slot.spawnFailures + 1, 6);
                    slot.nextSpawn =
                        now + std::chrono::milliseconds(
                                  std::min<uint64_t>(
                                      50ull << slot.spawnFailures,
                                      2000));
                } else {
                    slot.nextSpawn = now + std::chrono::seconds(1);
                }
            } else {
                if (!free_dial) {
                    ++respawns_used;
                    respawns_ctr.add(1);
                }
                if (dialRemote(slot)) {
                    slot.spawnFailures = 0;
                } else {
                    slot.spawnFailures =
                        std::min<uint32_t>(slot.spawnFailures + 1, 6);
                    slot.nextSpawn =
                        now + std::chrono::milliseconds(
                                  std::min<uint64_t>(
                                      50ull << slot.spawnFailures,
                                      2000));
                }
            }
        }
        if (alive == 0) {
            // Degrade only when nothing can come back: no local
            // respawn or re-dial possible, and no dial-in worker
            // plausibly arriving (one lease-timeout of patience when
            // a listen socket is open).
            bool recoverable = false;
            for (const WorkerSlot& slot : slots) {
                if (slot.defunct ||
                    slot.kind == WorkerSlot::Kind::Accepted)
                    continue;
                const bool free_dial =
                    slot.kind == WorkerSlot::Kind::Dial &&
                    !slot.everConnected &&
                    Clock::now() < connect_grace_end;
                if (free_dial ||
                    respawns_used < config.respawnBudget) {
                    recoverable = true;
                    break;
                }
            }
            if (!recoverable && listen_fd >= 0) {
                if (zero_alive_since == Clock::time_point::min())
                    zero_alive_since = Clock::now();
                recoverable =
                    Clock::now() - zero_alive_since <
                    std::chrono::seconds(
                        std::max<uint32_t>(1, config.leaseTimeoutS));
            }
            if (!recoverable && units_open > 0) {
                degraded = true;
                break;
            }
        } else {
            zero_alive_since = Clock::time_point::min();
        }

        std::vector<pollfd> fds;
        std::vector<WorkerSlot*> fd_slots;
        if (listen_fd >= 0)
            fds.push_back({listen_fd, POLLIN, 0});
        for (WorkerSlot& slot : slots) {
            if (slotActive(slot) && slot.fromFd >= 0) {
                fds.push_back({slot.fromFd, POLLIN, 0});
                fd_slots.push_back(&slot);
            }
        }
        if (fds.empty()) {
            // All spawns and dials are backing off; don't spin.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            reapDead();
            continue;
        }
        ::poll(fds.data(), fds.size(), 100);
        const size_t base = listen_fd >= 0 ? 1 : 0;
        if (base == 1 && (fds[0].revents & POLLIN))
            acceptRemote();
        for (size_t i = 0; i < fd_slots.size(); ++i) {
            if (fds[base + i].revents & (POLLIN | POLLHUP | POLLERR))
                drainPipe(*fd_slots[i]);
        }
        reapDead();
        sweepRemoteDead();

        // Lease audit: a worker silent past the timeout is presumed
        // hung (its heartbeat thread would have spoken otherwise) and
        // killed or disconnected; its unit requeues with a strike.
        if (config.leaseTimeoutS > 0) {
            const Clock::time_point cutoff =
                Clock::now() -
                std::chrono::seconds(config.leaseTimeoutS);
            for (WorkerSlot& slot : slots) {
                if (!slotActive(slot) || slot.lastFrame >= cutoff)
                    continue;
                warn("dist: %s worker %u silent for %us; revoking "
                     "its lease",
                     slotLabel(slot), slot.slot,
                     config.leaseTimeoutS);
                reclaimed_ctr.add(1);
                if (slot.kind == WorkerSlot::Kind::Local) {
                    ::kill(slot.pid, SIGKILL);
                } else {
                    drainPipe(slot);   // adopt its last frames
                    reclaim(slot, true);
                    releaseSlot(slot);
                    slot.nextSpawn =
                        Clock::now() +
                        std::chrono::milliseconds(250);
                }
            }
        }

        // Idle-but-ready workers pick up requeued units.
        for (WorkerSlot& slot : slots) {
            if (slotActive(slot) && slot.ready &&
                slot.unit == nullptr)
                sendWork(slot);
        }

        if (heartbeat_s != 0 &&
            Clock::now() - last_beat >=
                std::chrono::seconds(heartbeat_s)) {
            last_beat = Clock::now();
            inform("dist: %llu/%llu runs, %u/%u cells done | "
                   "workers=%u/%zu queue=%zu respawns=%u/%u "
                   "reclaimed=%llu",
                   static_cast<unsigned long long>(runs_done),
                   static_cast<unsigned long long>(runs_total),
                   cells_done, report.cells, alive, slots.size(),
                   ready.size(), respawns_used,
                   config.respawnBudget,
                   static_cast<unsigned long long>(
                       reclaimed_ctr.value()));
        }
    }

    // --- Shutdown: ask nicely (shutdown frame, then EOF — closed
    // pipe or TCP FIN — plus SIGTERM for locals), adopt every record
    // still in flight, then escalate to SIGKILL / a hard close after
    // a grace period.
    for (WorkerSlot& slot : slots) {
        if (!slotActive(slot))
            continue;
        if (slot.toFd >= 0)
            writeFrame(slot.toFd, "shutdown");
        if (slot.kind == WorkerSlot::Kind::Local) {
            closeFd(slot.toFd);
            ::kill(slot.pid, SIGTERM);
        } else {
            // Half-close: the worker sees EOF after the shutdown
            // frame but its in-flight records still drain to us.
            ::shutdown(slot.fromFd, SHUT_WR);
        }
    }
    const Clock::time_point grace_end =
        Clock::now() + std::chrono::seconds(2);
    while (alive > 0 && Clock::now() < grace_end) {
        std::vector<pollfd> fds;
        std::vector<WorkerSlot*> fd_slots;
        for (WorkerSlot& slot : slots) {
            if (slotActive(slot) && slot.fromFd >= 0) {
                fds.push_back({slot.fromFd, POLLIN, 0});
                fd_slots.push_back(&slot);
            }
        }
        if (!fds.empty()) {
            ::poll(fds.data(), fds.size(), 50);
            for (size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                    drainPipe(*fd_slots[i]);
            }
        }
        reapDead();
        sweepRemoteDead();
    }
    for (WorkerSlot& slot : slots) {
        if (!slotActive(slot))
            continue;
        if (slot.kind == WorkerSlot::Kind::Local) {
            ::kill(slot.pid, SIGKILL);
            int status = 0;
            ::waitpid(slot.pid, &status, 0);
        }
        drainPipe(slot);
        reclaim(slot, true);
        releaseSlot(slot);
    }
    closeFd(listen_fd);
    workers_gauge.set(0);

    // --- Graceful degradation: every transport is gone — the respawn
    // budget is exhausted, no host answers — but runs remain. Finish
    // them in this process on the in-process sweep's own queue: the
    // still-pending runs re-planned, fused into shared-cursor units and
    // drained by runSweepUnits, rather than abandoning the sweep.
    if (degraded && !shouldStop()) {
        warn("dist: no workers left (respawn budget %u used) with "
             "%llu/%llu runs done; draining the remainder in-process",
             config.respawnBudget,
             static_cast<unsigned long long>(runs_done),
             static_cast<unsigned long long>(runs_total));
        const uint32_t threads = study.resolvedThreads();
        // Re-plan only what is still pending; quarantined Error runs
        // are done and stay out.
        size_t per_cell_cohorts = 0;
        for (auto& cell : cells) {
            cell->cohorts.clear();
            if (cell->exec->completedRuns() != sc.injections)
                cell->cohorts = cell->exec->planCohorts(threads);
            per_cell_cohorts += cell->cohorts.size();
        }
        Counter& cohorts_ctr = m.counter("campaign.cohorts");
        const uint64_t cohorts_before = cohorts_ctr.value();
        std::atomic<uint64_t> drained{0};
        std::mutex finalize_mutex;   // finalizeCell is single-threaded
        core::runSweepUnits(
            core::fuseSweepUnits(cells, threads), threads, shouldStop,
            [&](core::SweepCell& cell,
                const core::Campaign::Execution::CohortOutcome& out) {
                drained.fetch_add(out.executed);
                if (out.retiredLast) {
                    std::lock_guard<std::mutex> lock(finalize_mutex);
                    finalizeCell(cell);
                }
            });
        runs_done += drained.load();
        inform("dist: drained %llu runs in-process on %llu shared "
               "cursors in place of %zu per-cell cohorts",
               static_cast<unsigned long long>(drained.load()),
               static_cast<unsigned long long>(cohorts_ctr.value() -
                                               cohorts_before),
               per_cell_cohorts);
    }

    // Anything a killed worker journalled for a still-incomplete cell
    // is merged now, so the next sweep (serial or distributed)
    // resumes from every run that ever completed. Nothing appends to
    // these journals anymore: workers are reaped or disconnected, the
    // coordinator-side shard appenders are closed, and the drain pool
    // has joined.
    remote_shards.clear();
    if (!sc.journalDir.empty())
        mergeShardJournals(sc.journalDir);

    inform("dist: leased %llu units carrying %llu riders (widest: %zu "
           "riders over %zu components)",
           static_cast<unsigned long long>(units_leased_ctr.value() -
                                           units_leased_before),
           static_cast<unsigned long long>(riders_leased_ctr.value() -
                                           riders_leased_before),
           widest_riders, widest_components);
    report.cancelled = cancel.load();
    report.runsSimulated = runs_done;
    report.goldenSimulations =
        core::goldenSimulationCount() - golden_before;
    return report;
}

} // namespace mbusim::dist
