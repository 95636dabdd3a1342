#include "core/study.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "util/env.hh"
#include "util/interrupt.hh"
#include "util/journal.hh"
#include "util/log.hh"

namespace mbusim::core {

namespace {

/** Cache format tag; bump when the entry layout changes. */
constexpr const char* CacheVersion = "mbusim-cache v3";

} // namespace

StudyConfig
defaultStudyConfig()
{
    StudyConfig config;
    config.injections = static_cast<uint32_t>(
        envUInt("MBUSIM_INJECTIONS", 200, UINT32_MAX));
    config.seed = static_cast<uint64_t>(envInt("MBUSIM_SEED", 0x5eed));
    config.threads = static_cast<uint32_t>(
        envUInt("MBUSIM_THREADS", 0, UINT32_MAX));
    config.cacheDir = envString("MBUSIM_CACHE_DIR", "");
    config.journalDir = envString("MBUSIM_JOURNAL_DIR", "");
    config.workloads = envList("MBUSIM_WORKLOADS");
    return config;
}

Study::Study(StudyConfig config)
    : config_(std::move(config))
{
    // The escape hatch overrides the config default, matching how the
    // campaign-level knobs resolve.
    config_.sweepScheduler =
        envUInt("MBUSIM_SWEEP_SCHEDULER",
                config_.sweepScheduler ? 1 : 0, 1) != 0;
    for (const auto& w : workloads::allWorkloads()) {
        if (config_.workloads.empty() ||
            std::find(config_.workloads.begin(), config_.workloads.end(),
                      w.name) != config_.workloads.end()) {
            workloads_.push_back(&w);
        }
    }
    if (workloads_.empty())
        fatal("study has no workloads (check MBUSIM_WORKLOADS)");
}

std::string
Study::cacheKey(const std::string& workload, Component component,
                uint32_t faults) const
{
    // Digest of every CPU parameter and workload-source byte that can
    // change outcomes; shared with the campaign journal key.
    uint64_t digest =
        outcomeDigest(config_.cpu,
                      workloads::workloadByName(workload).source);

    return strprintf("%s_%s_f%u_n%u_s%llx_c%ux%u_t%u_%016llx",
                     workload.c_str(), componentShortName(component),
                     faults, config_.injections,
                     static_cast<unsigned long long>(config_.seed),
                     config_.cluster.rows, config_.cluster.cols,
                     config_.timeoutFactor,
                     static_cast<unsigned long long>(digest));
}

CampaignConfig
Study::campaignConfig(Component component, uint32_t faults) const
{
    CampaignConfig cc;
    cc.component = component;
    cc.faults = faults;
    cc.injections = config_.injections;
    cc.seed = config_.seed;
    cc.cluster = config_.cluster;
    cc.timeoutFactor = config_.timeoutFactor;
    cc.threads = config_.threads;
    cc.cpu = config_.cpu;
    cc.journalDir = config_.journalDir;
    cc.trace = config_.trace;
    cc.hostFaultHook = config_.hostFaultHook;
    return cc;
}

bool
Study::loadCached(const std::string& key, CampaignResult& result) const
{
    if (config_.cacheDir.empty())
        return false;
    std::ifstream in(config_.cacheDir + "/" + key + ".txt");
    if (!in)
        return false;

    // Anything short of a fully intact entry is a miss: the campaign is
    // regenerated and the entry rewritten. A cache must never be able
    // to crash the sweep or feed it silent garbage.
    auto miss = [&](const char* why) {
        warn("study cache entry '%s' %s; regenerating", key.c_str(),
             why);
        return false;
    };
    std::string header, payload, seal;
    if (!std::getline(in, header) || !std::getline(in, payload) ||
        !std::getline(in, seal)) {
        return miss("is truncated");
    }
    if (header != strprintf("%s %s", CacheVersion, key.c_str()))
        return miss("has a stale or foreign header");
    unsigned long long sum = 0;
    if (std::sscanf(seal.c_str(), "#%16llx", &sum) != 1 ||
        sum != fnv1a64(payload)) {
        return miss("fails its checksum");
    }

    uint64_t golden_cycles = 0, golden_insts = 0;
    std::array<uint64_t, 6> counts{};
    std::istringstream fields(payload);
    fields >> golden_cycles >> golden_insts;
    for (auto& c : counts)
        fields >> c;
    std::string rest;
    if (!fields || (fields >> rest, !rest.empty()))
        return miss("has a malformed payload");

    result = CampaignResult{};
    result.goldenCycles = golden_cycles;
    result.goldenInstructions = golden_insts;
    result.counts.counts = counts;
    result.completed = static_cast<uint32_t>(result.counts.total());
    if (result.completed != config_.injections)
        return miss("does not match the configured sample size");
    return true;
}

void
Study::storeCached(const std::string& key,
                   const CampaignResult& result) const
{
    if (config_.cacheDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(config_.cacheDir, ec);

    std::string payload =
        strprintf("%llu %llu",
                  static_cast<unsigned long long>(result.goldenCycles),
                  static_cast<unsigned long long>(
                      result.goldenInstructions));
    for (uint64_t c : result.counts.counts)
        payload += strprintf(" %llu", static_cast<unsigned long long>(c));

    // Write-temp-then-rename: a concurrent reader (or a crash mid-way)
    // sees either the old entry or the new one, never a torn file.
    std::string path = config_.cacheDir + "/" + key + ".txt";
    std::string tmp = strprintf("%s.tmp.%d", path.c_str(),
                                static_cast<int>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            warn("cannot write study cache entry '%s'", key.c_str());
            return;
        }
        out << CacheVersion << ' ' << key << '\n'
            << payload << '\n'
            << strprintf("#%016llx",
                         static_cast<unsigned long long>(
                             fnv1a64(payload)))
            << '\n';
        out.flush();
        if (!out) {
            warn("short write on study cache entry '%s'", key.c_str());
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("cannot install study cache entry '%s': %s", key.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

bool
Study::lookupCell(const std::string& workload, const std::string& key)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (results_.count(key) != 0)
            return true;
    }
    CampaignResult cached;
    if (!loadCached(key, cached))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    golden_[workload] = cached.goldenCycles;
    results_.emplace(key, std::move(cached));
    return true;
}

const CampaignResult&
Study::campaign(const std::string& workload, Component component,
                uint32_t faults)
{
    std::string key = cacheKey(workload, component, faults);
    if (!lookupCell(workload, key)) {
        CampaignConfig cc = campaignConfig(component, faults);
        Campaign campaign(workloads::workloadByName(workload), cc,
                          goldenStore_);
        CampaignResult result = campaign.run();
        if (result.cancelled) {
            // Partial counts must not poison the sweep or its disk
            // cache; the journal (if enabled) holds the finished runs.
            fatal("campaign %s cancelled after %u/%u runs; rerun to "
                  "resume%s",
                  key.c_str(), result.completed, config_.injections,
                  config_.journalDir.empty()
                      ? " (set MBUSIM_JOURNAL_DIR to make progress "
                        "durable)"
                      : " from its journal");
        }
        storeCached(key, result);
        std::lock_guard<std::mutex> lock(mutex_);
        golden_[workload] = result.goldenCycles;
        return results_.emplace(key, std::move(result)).first->second;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.find(key)->second;
}

uint64_t
Study::goldenCycles(const std::string& workload)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = golden_.find(workload);
        if (it != golden_.end())
            return it->second;
    }
    // Served from the shared store: at most one golden simulation per
    // workload, and the artifacts are reused by every later campaign
    // of it (this used to be a throwaway full simulation whenever the
    // cell cache was hit first).
    CampaignConfig cc;
    cc.cpu = config_.cpu;
    std::shared_ptr<const GoldenArtifacts> artifacts =
        goldenStore_.get(workloads::workloadByName(workload),
                         config_.cpu, resolvedCheckpointTarget(cc),
                         resolvedDigestTarget(cc));
    uint64_t cycles = artifacts->result.cycles;
    std::lock_guard<std::mutex> lock(mutex_);
    golden_[workload] = cycles;
    return cycles;
}

uint32_t
Study::resolvedThreads() const
{
    uint32_t threads = config_.threads;
    if (threads == 0) {
        threads = static_cast<uint32_t>(
            envUInt("MBUSIM_THREADS",
                    std::max(1u, std::thread::hardware_concurrency()),
                    UINT32_MAX));
    }
    return std::max(1u, threads);
}

std::vector<std::unique_ptr<SweepCell>>
Study::prepareSweepCells(SweepReport& report,
                         std::vector<std::string>& cached_keys,
                         uint32_t threads)
{
    // Absorb journal shards orphaned by a killed coordinator before
    // any Execution opens (and holds) the canonical journals, so a
    // resumed sweep — serial, threaded or distributed — replays every
    // run any previous worker process completed.
    if (!config_.journalDir.empty())
        mergeShardJournals(config_.journalDir);

    // --- Pass 1: enumerate the grid (workload-major, so consecutive
    // cells share a golden) and split cached cells from pending ones.
    std::vector<std::unique_ptr<SweepCell>> cells;
    for (const auto* w : workloads_) {
        for (Component component : AllComponents) {
            for (uint32_t faults = 1; faults <= 3; ++faults) {
                std::string key = cacheKey(w->name, component, faults);
                if (lookupCell(w->name, key)) {
                    ++report.cachedCells;
                    cached_keys.push_back(std::move(key));
                    continue;
                }
                auto cell = std::make_unique<SweepCell>();
                cell->workload = w;
                cell->component = component;
                cell->faults = faults;
                cell->key = std::move(key);
                cell->campaign = std::make_unique<Campaign>(
                    *w, campaignConfig(component, faults),
                    goldenStore_);
                cell->exec = cell->campaign->prepare();
                cells.push_back(std::move(cell));
            }
        }
    }

    // --- Pass 2: plan every pending cell into cohorts (DESIGN.md
    // §13). Planning triggers each cell's golden simulation, so it
    // runs on its own pool — distinct workloads simulate their goldens
    // concurrently, same-workload cells block on the store's
    // once_flag. The split hint keeps per-cell cohorts large when many
    // cells already provide queue depth, and splits them up when a few
    // cells must feed the whole pool.
    const uint32_t split_hint = std::max<uint32_t>(
        1, cells.empty()
               ? 1
               : threads / static_cast<uint32_t>(cells.size()));
    {
        std::atomic<size_t> plan_next{0};
        auto planner = [&]() {
            for (;;) {
                size_t i = plan_next.fetch_add(1);
                if (i >= cells.size())
                    return;
                cells[i]->cohorts =
                    cells[i]->exec->planCohorts(split_hint);
            }
        };
        const uint32_t planners = std::max<uint32_t>(
            1, std::min<uint32_t>(
                   threads, static_cast<uint32_t>(cells.size())));
        if (planners == 1) {
            planner();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(planners);
            for (uint32_t t = 0; t < planners; ++t)
                pool.emplace_back(planner);
            for (auto& t : pool)
                t.join();
        }
    }
    for (const auto& cell : cells)
        report.runsResumed += cell->exec->resumedRuns();
    return cells;
}

void
Study::installCellResult(SweepCell& cell)
{
    CampaignResult result = cell.exec->finalize(false);
    storeCached(cell.key, result);
    std::lock_guard<std::mutex> lock(mutex_);
    golden_[cell.workload->name] = result.goldenCycles;
    results_.emplace(cell.key, std::move(result));
}

std::vector<SweepUnit>
fuseSweepUnits(const std::vector<std::unique_ptr<SweepCell>>& cells,
               uint32_t threads)
{
    using Cohort = Campaign::Execution::Cohort;
    std::vector<SweepUnit> units;
    // Cohorts that can share a cursor group by (golden artifacts,
    // restore checkpoint): one unit per program and checkpoint
    // interval, one rider per cell. The rest stay units of their own.
    std::map<std::pair<const GoldenArtifacts*, size_t>, size_t> fused;
    for (const auto& cell : cells) {
        for (const Cohort& cohort : cell->cohorts) {
            if (cohort.indices.empty())
                continue;
            if (!cell->exec->sharesCursor(cohort)) {
                units.push_back({{cell.get()}, {cohort}, 0, 0});
                continue;
            }
            auto key = std::make_pair(&cell->campaign->goldenArtifacts(),
                                      cohort.checkpointIndex);
            auto [it, inserted] = fused.try_emplace(key, units.size());
            if (inserted)
                units.emplace_back();
            SweepUnit& unit = units[it->second];
            // A cell planned for many workers may hold several cohorts
            // of one interval: they become one rider.
            if (unit.cells.empty() || unit.cells.back() != cell.get()) {
                unit.cells.push_back(cell.get());
                unit.cohorts.emplace_back();
            }
            std::vector<uint32_t>& indices = unit.cohorts.back().indices;
            indices.insert(indices.end(), cohort.indices.begin(),
                           cohort.indices.end());
        }
    }
    for (auto& [key, at] : fused) {
        SweepUnit& unit = units[at];
        for (size_t i = 0; i < unit.cells.size(); ++i) {
            unit.cohorts[i] = unit.cells[i]->exec->makeCohort(
                unit.cohorts[i].indices, 0);
        }
    }

    // Queue depth: with fewer than two units per worker, split the
    // fused units cycle-contiguously into chunks of at most
    // runs/(2*threads) runs — the rule planCohorts applies to one
    // cell — trading repeated golden-prefix replay for idle workers.
    uint64_t runs = 0;
    for (SweepUnit& unit : units) {
        unit.runs = 0;
        for (const Cohort& cohort : unit.cohorts)
            unit.runs += cohort.indices.size();
        runs += unit.runs;
    }
    if (threads > 1 && units.size() < 2 * static_cast<size_t>(threads)) {
        const uint64_t max_chunk =
            std::max<uint64_t>(1, (runs + 2 * threads - 1) / (2 * threads));
        std::vector<SweepUnit> split;
        for (SweepUnit& unit : units) {
            if (unit.runs <= max_chunk ||
                !unit.cells.front()->exec->sharesCursor(
                    unit.cohorts.front())) {
                split.push_back(std::move(unit));
                continue;
            }
            // (cycle, rider, index), stable by rider so each rider's
            // (cycle, index) order carries into every chunk.
            struct Run
            {
                uint64_t cycle;
                size_t rider;
                uint32_t index;
            };
            std::vector<Run> order;
            for (size_t r = 0; r < unit.cells.size(); ++r) {
                for (uint32_t index : unit.cohorts[r].indices) {
                    order.push_back(
                        {unit.cells[r]->exec->injectionCycle(index), r,
                         index});
                }
            }
            std::stable_sort(order.begin(), order.end(),
                             [](const Run& a, const Run& b) {
                                 return a.cycle < b.cycle;
                             });
            for (size_t at = 0; at < order.size(); at += max_chunk) {
                SweepUnit chunk;
                std::vector<size_t> slot(unit.cells.size(), SIZE_MAX);
                const size_t end =
                    std::min<size_t>(order.size(), at + max_chunk);
                for (size_t j = at; j < end; ++j) {
                    const Run& run = order[j];
                    if (slot[run.rider] == SIZE_MAX) {
                        slot[run.rider] = chunk.cells.size();
                        chunk.cells.push_back(unit.cells[run.rider]);
                        Cohort part = unit.cohorts[run.rider];
                        part.indices.clear();
                        chunk.cohorts.push_back(std::move(part));
                    }
                    chunk.cohorts[slot[run.rider]].indices.push_back(
                        run.index);
                }
                chunk.runs = end - at;
                split.push_back(std::move(chunk));
            }
        }
        units = std::move(split);
    }

    // Largest first: a unit costs about its runs times the golden
    // cycles from its base to the program's end, so the longest
    // cursors start early and the tail is short ones.
    for (SweepUnit& unit : units) {
        const uint64_t golden_end =
            unit.cells.front()->campaign->goldenCycles();
        const uint64_t base = unit.cohorts.front().baseCycle;
        unit.cost = unit.runs * (golden_end > base ? golden_end - base
                                                   : 1);
    }
    std::stable_sort(units.begin(), units.end(),
                     [](const SweepUnit& a, const SweepUnit& b) {
                         return a.cost > b.cost;
                     });
    for (size_t u = 0; u < units.size(); ++u) {
        for (Cohort& cohort : units[u].cohorts)
            cohort.id = static_cast<int64_t>(u);
    }
    return units;
}

void
runSweepUnits(
    const std::vector<SweepUnit>& units, uint32_t threads,
    const std::function<bool()>& stop,
    const std::function<void(SweepCell&,
                             const Campaign::Execution::CohortOutcome&)>&
        onRider)
{
    using Clock = std::chrono::steady_clock;
    // Scheduler instruments (DESIGN.md §12): queue depth tracks the
    // unclaimed tail of the unit list; worker_busy_us accumulates time
    // spent inside units so a heartbeat can report pool utilization.
    Gauge& queue_depth = metrics().gauge("sweep.queue_depth");
    Counter& busy_us = metrics().counter("sweep.worker_busy_us");
    queue_depth.set(static_cast<int64_t>(units.size()));

    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            if (stop())
                return;
            const size_t t = next.fetch_add(1);
            if (t >= units.size())
                return;
            queue_depth.set(
                static_cast<int64_t>(units.size() - (t + 1)));
            const SweepUnit& unit = units[t];
            std::vector<Campaign::Execution::Rider> riders;
            riders.reserve(unit.cells.size());
            for (size_t i = 0; i < unit.cells.size(); ++i)
                riders.push_back({unit.cells[i]->exec.get(),
                                  &unit.cohorts[i]});
            const Clock::time_point run_start = Clock::now();
            std::vector<Campaign::Execution::CohortOutcome> outs =
                Campaign::Execution::runShared(riders, stop);
            busy_us.add(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - run_start)
                    .count()));
            for (size_t i = 0; i < outs.size(); ++i)
                onRider(*unit.cells[i], outs[i]);
        }
    };

    const uint32_t pool_size = static_cast<uint32_t>(std::max<uint64_t>(
        1, std::min<uint64_t>(threads, units.size())));
    if (pool_size == 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (uint32_t t = 0; t < pool_size; ++t)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();
}

SweepReport
Study::runSweep(const ProgressFn& progress)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point started = Clock::now();
    const uint64_t golden_before = goldenSimulationCount();

    SweepReport report;
    report.cells = static_cast<uint32_t>(workloads_.size()) *
                   static_cast<uint32_t>(AllComponents.size()) * 3;

    if (!config_.sweepScheduler) {
        // Escape hatch (MBUSIM_SWEEP_SCHEDULER=0): the pre-scheduler
        // serial loop — one campaign at a time, each with its own
        // worker pool. Goldens are still shared through the store.
        // Shards from a killed distributed sweep still resume here.
        if (!config_.journalDir.empty())
            mergeShardJournals(config_.journalDir);
        uint32_t done = 0;
        for (const auto* w : workloads_) {
            for (Component component : AllComponents) {
                for (uint32_t faults = 1; faults <= 3; ++faults) {
                    std::string key =
                        cacheKey(w->name, component, faults);
                    bool cached = lookupCell(w->name, key);
                    const CampaignResult& result =
                        campaign(w->name, component, faults);
                    if (cached) {
                        ++report.cachedCells;
                    } else {
                        ++report.simulatedCells;
                        report.runsSimulated +=
                            result.completed - result.resumed;
                        report.runsResumed += result.resumed;
                    }
                    if (progress) {
                        SweepProgress p;
                        p.cell = key;
                        p.fromCache = cached;
                        p.cellsDone = ++done;
                        p.cellsTotal = report.cells;
                        p.runsDone = report.runsSimulated;
                        progress(p);
                    }
                }
            }
        }
        report.goldenSimulations =
            goldenSimulationCount() - golden_before;
        return report;
    }

    uint32_t threads = resolvedThreads();
    std::vector<std::string> cached_keys;
    std::vector<std::unique_ptr<SweepCell>> cells =
        prepareSweepCells(report, cached_keys, threads);

    // --- Pass 3: one global queue of lockstep units, largest first
    // (runSweepUnits), so a cell's Masked-heavy straggler tail overlaps
    // other cells' work and the pool is spawned once per sweep, not
    // once per campaign.
    std::vector<SweepUnit> tasks = fuseSweepUnits(cells, threads);
    uint64_t runs_total = 0;
    for (const SweepUnit& unit : tasks)
        runs_total += unit.runs;

    // Scheduler instruments (DESIGN.md §12), kept by runSweepUnits and
    // read by the heartbeat: queue depth, and worker busy time for pool
    // utilization (busy / (elapsed x workers)).
    Gauge& queue_depth = metrics().gauge("sweep.queue_depth");
    Gauge& workers_gauge = metrics().gauge("sweep.workers");
    Counter& busy_us = metrics().counter("sweep.worker_busy_us");
    Counter& cohorts_ctr = metrics().counter("campaign.cohorts");
    const uint64_t busy_before = busy_us.value();
    const uint64_t cohorts_before = cohorts_ctr.value();

    std::atomic<uint64_t> runs_done{0};
    std::atomic<bool> cancel{false};
    std::atomic<bool> finished{false};
    std::mutex progressMutex;   // serializes tallies + callbacks
    uint32_t cells_done = 0;    // guarded by progressMutex

    auto notify = [&](const std::string& key, bool from_cache) {
        std::lock_guard<std::mutex> lock(progressMutex);
        ++cells_done;
        if (!from_cache)
            ++report.simulatedCells;
        if (progress) {
            SweepProgress p;
            p.cell = key;
            p.fromCache = from_cache;
            p.cellsDone = cells_done;
            p.cellsTotal = report.cells;
            p.runsDone = runs_done.load();
            p.runsTotal = runs_total;
            progress(p);
        }
    };
    for (const std::string& key : cached_keys)
        notify(key, true);

    // A cell fully replayed from its journal completes without ever
    // entering the queue.
    auto finalizeCell = [&](SweepCell& cell) {
        installCellResult(cell);
        notify(cell.key, false);
    };
    for (auto& cell : cells) {
        if (cell->exec->completedRuns() == config_.injections)
            finalizeCell(*cell);
    }

    const uint32_t deadline_s =
        config_.deadlineSeconds != 0
            ? config_.deadlineSeconds
            : static_cast<uint32_t>(
                  envUInt("MBUSIM_DEADLINE_S", 0, UINT32_MAX));
    const uint32_t heartbeat_s = static_cast<uint32_t>(
        envUInt("MBUSIM_HEARTBEAT_S", 30, UINT32_MAX));
    const Clock::time_point deadline =
        started + std::chrono::seconds(deadline_s);

    auto shouldStop = [&]() {
        if (cancel.load(std::memory_order_relaxed))
            return true;
        const char* why = nullptr;
        if (interruptRequested())
            why = "interrupted";
        else if (deadline_s != 0 && Clock::now() >= deadline)
            why = "deadline expired";
        if (!why)
            return false;
        if (!cancel.exchange(true)) {
            warn("sweep %s: finishing in-flight runs (%llu/%llu runs "
                 "done%s)",
                 why,
                 static_cast<unsigned long long>(runs_done.load()),
                 static_cast<unsigned long long>(runs_total),
                 config_.journalDir.empty()
                     ? "" : ", journalled for resume");
        }
        return true;
    };

    threads = std::max<uint64_t>(
        1, std::min<uint64_t>(threads, tasks.size()));
    workers_gauge.set(threads);

    // Sweep-level watchdog: one heartbeat/deadline monitor for the
    // whole grid instead of one per campaign. Each beat prints one
    // metrics line: queue depth, pool utilization since the sweep
    // started, and the per-run wall-time tail (p50/p99/max us).
    std::mutex monitorMutex;
    std::condition_variable monitorCv;
    std::thread monitor;
    if (heartbeat_s != 0 || deadline_s != 0) {
        monitor = std::thread([&]() {
            auto last_beat = started;
            std::unique_lock<std::mutex> lock(monitorMutex);
            while (!finished.load(std::memory_order_relaxed)) {
                monitorCv.wait_for(lock,
                                   std::chrono::milliseconds(100));
                shouldStop();
                auto now = Clock::now();
                if (heartbeat_s != 0 &&
                    now - last_beat >=
                        std::chrono::seconds(heartbeat_s)) {
                    last_beat = now;
                    const uint64_t elapsed_us = static_cast<uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::microseconds>(now - started)
                            .count());
                    const double utilization =
                        elapsed_us > 0
                            ? 100.0 *
                                  static_cast<double>(busy_us.value() -
                                                      busy_before) /
                                  (static_cast<double>(elapsed_us) *
                                   threads)
                            : 0.0;
                    std::lock_guard<std::mutex> plock(progressMutex);
                    inform("sweep: %llu/%llu runs, %u/%u cells done | "
                           "depth=%lld workers=%u util=%.0f%% "
                           "cohorts=%llu %s",
                           static_cast<unsigned long long>(
                               runs_done.load()),
                           static_cast<unsigned long long>(runs_total),
                           cells_done, report.cells,
                           static_cast<long long>(queue_depth.value()),
                           threads, utilization,
                           static_cast<unsigned long long>(
                               cohorts_ctr.value() - cohorts_before),
                           metrics().snapshot()
                               .brief("campaign.run_wall_us")
                               .c_str());
                }
            }
        });
    }

    // The worker that retires a cell's last run finalizes it: the cell
    // is complete, so caching it is safe even if a cancellation raced
    // in meanwhile.
    runSweepUnits(tasks, threads, shouldStop,
                  [&](SweepCell& cell,
                      const Campaign::Execution::CohortOutcome& out) {
                      runs_done.fetch_add(out.executed);
                      if (out.retiredLast)
                          finalizeCell(cell);
                  });
    if (monitor.joinable()) {
        {
            std::lock_guard<std::mutex> lock(monitorMutex);
            finished.store(true, std::memory_order_relaxed);
        }
        monitorCv.notify_all();
        monitor.join();
    } else {
        finished.store(true, std::memory_order_relaxed);
    }

    report.cancelled = cancel.load();
    report.runsSimulated = runs_done.load();
    report.goldenSimulations = goldenSimulationCount() - golden_before;
    // Cells still holding pending runs are neither memoized nor
    // disk-cached; their journals (if enabled) already hold every
    // finished run, so the next sweep resumes them bit-identically.
    return report;
}

ComponentAvf
Study::componentAvf(Component component)
{
    ComponentAvf result;
    result.component = component;
    for (uint32_t faults = 1; faults <= 3; ++faults) {
        std::vector<WeightedSample> samples;
        for (const auto* w : workloads_) {
            const CampaignResult& r = campaign(w->name, component,
                                               faults);
            samples.push_back({r.avf(),
                               static_cast<double>(r.goldenCycles)});
        }
        result.byCardinality[faults - 1] = weightedAvf(samples);
    }
    return result;
}

std::vector<ComponentAvf>
Study::allComponentAvfs()
{
    // One scheduler pass fills the whole grid (shared goldens, one
    // persistent pool); the per-cell reads below are then memo hits.
    if (config_.sweepScheduler)
        runSweep();
    std::vector<ComponentAvf> all;
    for (Component c : AllComponents)
        all.push_back(componentAvf(c));
    return all;
}

} // namespace mbusim::core
