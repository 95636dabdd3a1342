#include "core/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "util/env.hh"
#include "util/interrupt.hh"
#include "util/journal.hh"
#include "util/log.hh"

namespace mbusim::core {

namespace {

/** Journal format tag; bump when the record layout changes. */
constexpr const char* JournalVersion = "mbusim-journal v2";

/** Mask generator over the campaign's target structure geometry. */
MaskGenerator
makeGenerator(const CampaignConfig& config)
{
    sim::FaultTarget target = config.targetOverride
                                  ? *config.targetOverride
                                  : targetFor(config.component);
    auto [rows, cols] =
        sim::Simulator::targetGeometry(target, config.cpu);
    return MaskGenerator(rows, cols, config.cluster);
}

} // namespace

std::string
serializeRunRecord(const RunRecord& record)
{
    std::string line = strprintf(
        "run %" PRIu32 " %" PRIu64 " %u %" PRIu64 " %" PRIu64
        " %u %" PRIu64 " %" PRIu32 " %" PRIu32 " %zu",
        record.index, record.cycle,
        static_cast<unsigned>(record.outcome), record.cycles,
        record.restoredFrom,
        static_cast<unsigned>(record.exitReason), record.cyclesSaved,
        record.mask.clusterRow,
        record.mask.clusterCol, record.mask.flips.size());
    for (const sim::BitFlip& flip : record.mask.flips)
        line += strprintf(" %" PRIu32 ":%" PRIu32, flip.row, flip.col);
    return line;
}

bool
parseRunRecord(const std::string& payload, RunRecord& record)
{
    std::istringstream in(payload);
    std::string tag;
    unsigned outcome = 0;
    unsigned exit_reason = 0;
    size_t flips = 0;
    in >> tag >> record.index >> record.cycle >> outcome >>
        record.cycles >> record.restoredFrom >> exit_reason >>
        record.cyclesSaved >> record.mask.clusterRow >>
        record.mask.clusterCol >> flips;
    if (!in || tag != "run" || outcome >= AllOutcomes.size() ||
        exit_reason >
            static_cast<unsigned>(sim::EarlyExit::Converged) ||
        flips > 64) {
        return false;
    }
    record.outcome = static_cast<Outcome>(outcome);
    record.exitReason = static_cast<sim::EarlyExit>(exit_reason);
    record.mask.flips.resize(flips);
    for (sim::BitFlip& flip : record.mask.flips) {
        char sep = 0;
        in >> flip.row >> sep >> flip.col;
        if (!in || sep != ':')
            return false;
    }
    // Trailing garbage means a mangled line: reject it entirely.
    std::string rest;
    in >> rest;
    return rest.empty();
}

namespace {

/** Machine-friendly name of an early-exit reason (trace records). */
const char*
earlyExitName(sim::EarlyExit reason)
{
    switch (reason) {
      case sim::EarlyExit::None: return "none";
      case sim::EarlyExit::DeadFault: return "dead_fault";
      case sim::EarlyExit::Converged: return "converged";
    }
    return "unknown";
}

/**
 * One --trace-out JSONL record for a completed run. Every field except
 * cohort, wall_us and forked_at is deterministic in (campaign config,
 * run index); those are deliberately last so scripts can strip them
 * for equivalence checks (cohort assignment depends on journal state
 * and worker count, and forked_at on the execution mode; see
 * RunRecord::cohortId and RunRecord::forkedAt).
 */
std::string
traceLine(const workloads::Workload& workload,
          const CampaignConfig& config, const RunRecord& record,
          bool replayed)
{
    std::string flips;
    for (const sim::BitFlip& flip : record.mask.flips) {
        flips += strprintf("%s[%" PRIu32 ",%" PRIu32 "]",
                           flips.empty() ? "" : ",", flip.row, flip.col);
    }
    std::string cohort =
        record.cohortId < 0
            ? "null"
            : strprintf("[%lld,%" PRIu32 "]",
                        static_cast<long long>(record.cohortId),
                        record.cohortPos);
    std::string forked_at =
        record.forkedAt < 0
            ? "null"
            : strprintf("%lld",
                        static_cast<long long>(record.forkedAt));
    return strprintf(
        "{\"run\":%" PRIu32 ",\"workload\":%s,\"component\":\"%s\","
        "\"faults\":%" PRIu32 ",\"seed\":%" PRIu64
        ",\"cluster\":[%" PRIu32 ",%" PRIu32 "],"
        "\"mask\":{\"row\":%" PRIu32 ",\"col\":%" PRIu32
        ",\"flips\":[%s]},\"cycle\":%" PRIu64 ",\"outcome\":\"%s\","
        "\"exit\":\"%s\",\"cycles\":%" PRIu64
        ",\"cycles_saved\":%" PRIu64 ",\"restored_from\":%" PRIu64
        ",\"cohort\":%s,\"replayed\":%s,\"wall_us\":%" PRIu64
        ",\"forked_at\":%s}",
        record.index, jsonQuote(workload.name).c_str(),
        componentShortName(config.component), config.faults,
        config.seed, config.cluster.rows, config.cluster.cols,
        record.mask.clusterRow, record.mask.clusterCol, flips.c_str(),
        record.cycle, outcomeName(record.outcome),
        earlyExitName(record.exitReason), record.cycles,
        record.cyclesSaved, record.restoredFrom, cohort.c_str(),
        replayed ? "true" : "false", record.wallMicros,
        forked_at.c_str());
}

} // namespace

sim::FaultTarget
targetFor(Component component)
{
    switch (component) {
      case Component::L1D: return sim::FaultTarget::L1DData;
      case Component::L1I: return sim::FaultTarget::L1IData;
      case Component::L2: return sim::FaultTarget::L2Data;
      case Component::RegFile: return sim::FaultTarget::RegFileBits;
      case Component::ITLB: return sim::FaultTarget::ItlbBits;
      case Component::DTLB: return sim::FaultTarget::DtlbBits;
    }
    panic("bad Component");
}

uint64_t
outcomeDigest(const sim::CpuConfig& c, const char* source)
{
    uint64_t digest = 14695981039346656037ULL;
    auto mix = [&digest](uint64_t v) {
        digest = (digest ^ v) * 1099511628211ULL;
    };
    // Schema epoch: bump to orphan every cache and journal key when
    // record layouts or run bookkeeping change (4 = lazy convergence
    // sampling, which changes the journalled exit-reason and
    // cycles-saved fields without changing outcomes).
    mix(4);
    mix(c.fetchWidth); mix(c.issueWidth); mix(c.wbWidth);
    mix(c.commitWidth); mix(c.robEntries); mix(c.iqEntries);
    mix(c.lsqEntries); mix(c.numPhysRegs); mix(c.bimodalEntries);
    mix(c.btbEntries); mix(c.rasEntries); mix(c.l1i.sizeBytes);
    mix(c.l1i.ways); mix(c.l1i.hitLatency); mix(c.l1d.sizeBytes);
    mix(c.l1d.ways); mix(c.l1d.hitLatency); mix(c.l2.sizeBytes);
    mix(c.l2.ways); mix(c.l2.hitLatency); mix(c.tlbEntries);
    mix(c.memoryLatency); mix(c.pageWalkLatency); mix(c.physMemBytes);
    if (c.inOrderIssue)
        mix(0x10DE);   // only when set: existing cache keys stay valid
    if (c.l1d.interleave != 1 || c.l1i.interleave != 1 ||
        c.l2.interleave != 1) {
        mix(c.l1d.interleave); mix(c.l1i.interleave);
        mix(c.l2.interleave);
    }
    // The workload's assembly source: a recalibrated workload must not
    // reuse stale cached results.
    for (const char* p = source; *p; ++p)
        mix(static_cast<unsigned char>(*p));
    return digest;
}

uint32_t
resolvedCheckpointTarget(const CampaignConfig& config)
{
    return static_cast<uint32_t>(
        envUInt("MBUSIM_CHECKPOINTS", config.checkpoints, UINT32_MAX));
}

uint32_t
resolvedDigestTarget(const CampaignConfig& config)
{
    bool early_exit =
        envUInt("MBUSIM_EARLY_EXIT", config.earlyExit ? 1 : 0, 1) != 0;
    if (!early_exit)
        return 0;
    return static_cast<uint32_t>(envUInt(
        "MBUSIM_DIGEST_POINTS", config.digestPoints, UINT32_MAX));
}

Campaign::Campaign(const workloads::Workload& workload,
                   const CampaignConfig& config)
    : workload_(workload), config_(config),
      program_(workload.assemble()),
      checkpointTarget_(resolvedCheckpointTarget(config)),
      earlyExit_(envUInt("MBUSIM_EARLY_EXIT",
                         config.earlyExit ? 1 : 0, 1) != 0),
      cohortBatching_(envUInt("MBUSIM_COHORT",
                              config.cohortBatching ? 1 : 0, 1) != 0),
      lockstep_(envUInt("MBUSIM_LOCKSTEP",
                        config.lockstep ? 1 : 0, 1) != 0),
      deltaSnapshots_(envUInt("MBUSIM_DELTA_SNAPSHOTS",
                              config.deltaSnapshots ? 1 : 0, 1) != 0),
      digestTarget_(static_cast<uint32_t>(
          envUInt("MBUSIM_DIGEST_POINTS", config.digestPoints,
                  UINT32_MAX)))
{
    if (config_.faults < 1 || config_.faults > 3)
        fatal("campaigns support 1..3 faults, got %u", config_.faults);
    if (config_.timeoutFactor < 2)
        fatal("timeout factor must be at least 2");

    // Resolve the environment knobs once: CampaignConfig documents what
    // each field means, and repeated run() calls must not diverge if
    // the environment changes mid-process. The decode memo rides in
    // CpuConfig (every simulator this campaign builds sees it) but is
    // outcome-neutral by construction, so it is deliberately absent
    // from outcomeDigest() — toggling it reuses caches and journals.
    config_.cpu.decodeCache =
        envUInt("MBUSIM_DECODE_CACHE",
                config.cpu.decodeCache ? 1 : 0, 1) != 0;
    uint32_t threads = config_.threads;
    if (threads == 0) {
        threads = static_cast<uint32_t>(
            envUInt("MBUSIM_THREADS",
                    std::max(1u, std::thread::hardware_concurrency()),
                    UINT32_MAX));
    }
    threads_ = std::max(1u, std::min(threads, config_.injections));
    journalDir_ = config_.journalDir.empty()
                      ? envString("MBUSIM_JOURNAL_DIR", "")
                      : config_.journalDir;
    deadlineSeconds_ = config_.deadlineSeconds != 0
                           ? config_.deadlineSeconds
                           : static_cast<uint32_t>(envUInt(
                                 "MBUSIM_DEADLINE_S", 0, UINT32_MAX));
    heartbeatSeconds_ = static_cast<uint32_t>(
        envUInt("MBUSIM_HEARTBEAT_S", 30, UINT32_MAX));
}

Campaign::Campaign(const workloads::Workload& workload,
                   const CampaignConfig& config, GoldenStore& store)
    : Campaign(workload, config)
{
    store_ = &store;
}

std::string
Campaign::cacheKey() const
{
    uint64_t digest = outcomeDigest(config_.cpu, workload_.source);
    if (config_.targetOverride) {
        digest = (digest ^ (0x7A6 + static_cast<uint64_t>(
                                        *config_.targetOverride))) *
                 1099511628211ULL;
    }
    return strprintf("%s_%s_f%u_n%u_s%llx_c%ux%u_t%u_%016llx",
                     workload_.name.c_str(),
                     componentShortName(config_.component),
                     config_.faults, config_.injections,
                     static_cast<unsigned long long>(config_.seed),
                     config_.cluster.rows, config_.cluster.cols,
                     config_.timeoutFactor,
                     static_cast<unsigned long long>(digest));
}

uint64_t
Campaign::outcomeKey() const
{
    return outcomeDigest(config_.cpu, workload_.source);
}

std::string
Campaign::journalHeader() const
{
    // Early-exit settings ride in the header: they cannot change
    // outcomes, but they do change RunRecord fields (exit reason,
    // cycles saved), so journals written under different settings
    // must not mix.
    return strprintf("%s %s ee%u dp%u", JournalVersion,
                     cacheKey().c_str(), earlyExit_ ? 1u : 0u,
                     earlyExit_ ? digestTarget_ : 0u);
}

const GoldenArtifacts&
Campaign::golden() const
{
    std::call_once(goldenOnce_, [this] {
        const uint32_t digest_target = earlyExit_ ? digestTarget_ : 0;
        if (store_) {
            golden_ = store_->get(workload_, config_.cpu,
                                  checkpointTarget_, digest_target);
        } else {
            golden_ = std::make_shared<const GoldenArtifacts>(
                simulateGolden(workload_, program_, config_.cpu,
                               checkpointTarget_, digest_target));
        }
    });
    return *golden_;
}

uint64_t
Campaign::goldenCycles() const
{
    return golden().result.cycles;
}

Campaign::RunPlan
Campaign::planRun(const GoldenArtifacts& golden, uint32_t index,
                  const MaskGenerator& generator) const
{
    // Independent stream per run: reproducible regardless of threading
    // (and across retries — a retry replays the identical injection).
    Rng rng = Rng(config_.seed)
                  .fork(static_cast<uint64_t>(config_.component) * 4 +
                            config_.faults,
                        index);

    RunPlan plan;
    plan.record.index = index;
    plan.record.mask = generator.generate(config_.faults, rng);
    plan.record.cycle = rng.below(golden.result.cycles);
    // The latest checkpoint at or before the injection cycle — the
    // golden prefix up to it is bit-identical anyway, so only the
    // suffix needs simulating. One binary search; the ladder is
    // sorted by cycle.
    plan.checkpointIndex =
        nearestCheckpointIndex(golden.checkpoints, plan.record.cycle);
    return plan;
}

RunRecord
Campaign::executePlan(const GoldenArtifacts& golden, const RunPlan& plan,
                      const sim::Snapshot* start, uint32_t attempt) const
{
    if (config_.hostFaultHook)
        config_.hostFaultHook(plan.record.index, attempt);

    RunRecord record = plan.record;
    sim::Simulator simulator =
        start ? sim::Simulator(program_, config_.cpu, *start)
              : sim::Simulator(program_, config_.cpu);
    // restoredFrom always reports the resolved ladder checkpoint, even
    // when a cursor snapshot (taken at the injection cycle itself)
    // actually seeded the simulator: journal records and traces must
    // not depend on which mode executed the run.
    record.restoredFrom =
        plan.checkpointIndex == NoCheckpoint
            ? 0
            : golden.checkpoints[plan.checkpointIndex].cycle;
    sim::Injection injection;
    injection.target = config_.targetOverride
                           ? *config_.targetOverride
                           : targetFor(config_.component);
    injection.cycle = record.cycle;
    injection.flips = record.mask.flips;
    simulator.scheduleInjection(injection);

    if (earlyExit_) {
        simulator.enableDeadFaultPruning();
        if (!golden.digests.empty())
            simulator.setGoldenDigests(&golden.digests);
    }

    sim::SimResult faulty =
        simulator.run(golden.result.cycles * config_.timeoutFactor);
    // Counter addresses are stable for the process lifetime, so one
    // registry lookup amortizes over every run (DESIGN.md §12).
    static Counter& decode_hits =
        metrics().counter("campaign.decode_hits");
    decode_hits.add(simulator.cpu().decodeHits());
    finishRecord(golden, record, faulty);
    return record;
}

void
Campaign::finishRecord(const GoldenArtifacts& golden, RunRecord& record,
                       const sim::SimResult& faulty) const
{
    if (faulty.earlyExit != sim::EarlyExit::None) {
        // The engine proved the remaining execution bit-identical to
        // golden: Masked, with golden's terminal cycle count instead
        // of the never-simulated tail.
        record.outcome = Outcome::Masked;
        record.cycles = golden.result.cycles;
        record.exitReason = faulty.earlyExit;
        record.cyclesSaved =
            golden.result.cycles > faulty.earlyExitCycle
                ? golden.result.cycles - faulty.earlyExitCycle
                : 0;
    } else {
        record.outcome = classify(golden.result, faulty);
        record.cycles = faulty.cycles;
    }
}

RunRecord
Campaign::executeFork(const GoldenArtifacts& golden, const RunPlan& plan,
                      const sim::Snapshot& base,
                      const std::vector<sim::BitFlip>& live_flips,
                      const std::vector<sim::BitFlip>& ghost_flips,
                      uint32_t attempt) const
{
    if (config_.hostFaultHook)
        config_.hostFaultHook(plan.record.index, attempt);

    RunRecord record = plan.record;
    sim::Simulator simulator(program_, config_.cpu, base);
    record.restoredFrom =
        plan.checkpointIndex == NoCheckpoint
            ? 0
            : golden.checkpoints[plan.checkpointIndex].cycle;
    // Re-injecting the still-live flips (tracked) and the ghost flips
    // (untracked) reproduces the private run exactly: a private
    // simulator's machine at the base cycle is golden XOR its live
    // flips XOR its ghosts (flips a deadness proof untracked without
    // anything having physically overwritten them — overwritten flips
    // are already folded into the golden image), and its tracked set
    // at that point is exactly the live flips.
    sim::FaultTarget target = config_.targetOverride
                                  ? *config_.targetOverride
                                  : targetFor(config_.component);
    sim::Injection injection;
    injection.target = target;
    injection.cycle = base.cycle;
    injection.flips = live_flips;
    injection.prePruned = true;
    simulator.scheduleInjection(injection);
    if (!ghost_flips.empty()) {
        sim::Injection ghosts;
        ghosts.target = target;
        ghosts.cycle = base.cycle;
        ghosts.flips = ghost_flips;
        ghosts.prePruned = true;
        ghosts.untracked = true;
        simulator.scheduleInjection(ghosts);
    }

    if (earlyExit_) {
        simulator.enableDeadFaultPruning();
        if (!golden.digests.empty())
            simulator.setGoldenDigests(&golden.digests);
    }

    sim::SimResult faulty =
        simulator.run(golden.result.cycles * config_.timeoutFactor);
    static Counter& decode_hits =
        metrics().counter("campaign.decode_hits");
    decode_hits.add(simulator.cpu().decodeHits());
    finishRecord(golden, record, faulty);
    return record;
}

RunRecord
Campaign::runForkIsolated(const GoldenArtifacts& golden,
                          const RunPlan& plan, const sim::Snapshot& base,
                          const std::vector<sim::BitFlip>& live_flips,
                          const std::vector<sim::BitFlip>& ghost_flips)
    const
{
    // Same fault-isolation discipline as runPlanIsolated: the fork is
    // deterministic in (base, live flips), so one retry sees the
    // identical divergence; a second escape lands in the Error bucket.
    for (uint32_t attempt = 0; attempt < 2; ++attempt) {
        try {
            return executeFork(golden, plan, base, live_flips,
                               ghost_flips, attempt);
        } catch (const std::exception& e) {
            warn("run %u of '%s' escaped the simulator (%s)%s",
                 plan.record.index, workload_.name.c_str(), e.what(),
                 attempt == 0 ? "; retrying" : "");
        } catch (...) {
            warn("run %u of '%s' escaped the simulator (non-standard "
                 "exception)%s",
                 plan.record.index, workload_.name.c_str(),
                 attempt == 0 ? "; retrying" : "");
        }
    }
    RunRecord record;
    record.index = plan.record.index;
    record.outcome = Outcome::Error;
    return record;
}

RunRecord
Campaign::runPlanIsolated(const GoldenArtifacts& golden,
                          const RunPlan& plan,
                          const sim::Snapshot* start) const
{
    // The workload under fault is expected to reach broken states; the
    // simulator classifies those itself. Anything that still escapes —
    // a SimAssert leak, std::bad_alloc, a host bug — is confined to
    // this run: one deterministic retry (the plan is fixed, so the
    // retry sees the identical fault), then the Error bucket. Never
    // std::terminate, never take the campaign down.
    for (uint32_t attempt = 0; attempt < 2; ++attempt) {
        try {
            return executePlan(golden, plan, start, attempt);
        } catch (const std::exception& e) {
            warn("run %u of '%s' escaped the simulator (%s)%s",
                 plan.record.index, workload_.name.c_str(), e.what(),
                 attempt == 0 ? "; retrying" : "");
        } catch (...) {
            warn("run %u of '%s' escaped the simulator (non-standard "
                 "exception)%s",
                 plan.record.index, workload_.name.c_str(),
                 attempt == 0 ? "; retrying" : "");
        }
    }
    RunRecord record;
    record.index = plan.record.index;
    record.outcome = Outcome::Error;
    return record;
}

Campaign::Execution::Execution(const Campaign& campaign, bool keep_runs)
    : campaign_(campaign), generator_(makeGenerator(campaign.config_)),
      keepRuns_(keep_runs), records_(campaign.config_.injections),
      done_(campaign.config_.injections, 0)
{
    const uint32_t injections = campaign_.config_.injections;

    // Resolve the process-wide instruments once per invocation; the
    // per-run cost is then a handful of relaxed atomic adds.
    Metrics& m = metrics();
    runsSimulated_ = &m.counter("campaign.runs_simulated");
    cyclesSimulated_ = &m.counter("campaign.cycles_simulated");
    cyclesSaved_ = &m.counter("campaign.cycles_saved");
    ffCycles_ = &m.counter("campaign.ff_cycles");
    exitCounters_ = {&m.counter("campaign.exit.none"),
                     &m.counter("campaign.exit.dead_fault"),
                     &m.counter("campaign.exit.converged")};
    // Run wall times from 64 us to ~2 minutes, then the overflow
    // bucket; p99/max expose the straggler tail in heartbeats.
    runWall_ = &m.histogram("campaign.run_wall_us",
                            Histogram::exponentialBounds(64, 2, 21));
    cohorts_ = &m.counter("campaign.cohorts");
    cursorCycles_ = &m.counter("campaign.cursor_cycles");
    restoresAvoided_ = &m.counter("campaign.restores_avoided");
    forks_ = &m.counter("campaign.forks");
    overlayCycles_ = &m.counter("campaign.overlay_cycles");
    neverForked_ = &m.counter("campaign.never_forked");
    decodeHits_ = &m.counter("campaign.decode_hits");
    snapshotBytes_ = &m.counter("snapshot.bytes_copied");

    // Replay the journal of an earlier, interrupted invocation: runs it
    // recorded are taken as-is (they are bit-identical to what a fresh
    // simulation would produce), the rest stay pending.
    if (!campaign_.journalDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(campaign_.journalDir_, ec);
        std::string key = campaign_.cacheKey();
        std::string header = campaign_.journalHeader();
        // Worker processes of a distributed sweep write private shards
        // (one appender per file); the coordinator merges them into the
        // canonical journal (DESIGN.md §14).
        std::string path =
            campaign_.journalDir_ + "/" + key + ".journal";
        if (!campaign_.config_.journalShard.empty())
            path += ".shard-" + campaign_.config_.journalShard;
        for (const std::string& line : Journal::replay(path, header)) {
            RunRecord record;
            if (parseRunRecord(line, record) &&
                record.index < injections &&
                !done_[record.index]) {
                done_[record.index] = 2;   // 2 = replayed (1 = simulated)
                records_[record.index] = std::move(record);
                ++resumed_;
            }
        }
        journal_.emplace(path, header);
        if (!journal_->open()) {
            warn("cannot write campaign journal '%s'; continuing "
                 "without one", path.c_str());
            journal_.reset();
        }
    }
    if (resumed_ > 0)
        m.counter("campaign.runs_replayed").add(resumed_);

    completed_.store(resumed_);
    pending_.store(injections - resumed_);
}

uint32_t
Campaign::Execution::injections() const
{
    return campaign_.config_.injections;
}

bool
Campaign::Execution::pending(uint32_t index) const
{
    return !done_[index];
}

uint32_t
Campaign::Execution::completedRuns() const
{
    return completed_.load();
}

void
Campaign::Execution::setRunObserver(
    std::function<void(const RunRecord&)> fn)
{
    runObserver_ = std::move(fn);
}

uint32_t
Campaign::Execution::adoptRecord(RunRecord record)
{
    if (record.index >= campaign_.config_.injections ||
        done_[record.index])
        return pending_.load();
    // The adopting process did not simulate the run, so never journal
    // it here: the worker's shard already holds the durable copy, and
    // appending to a canonical journal that a shard merge may rename
    // away mid-sweep would write through a dangling inode.
    return complete(std::move(record), record.restoredFrom, false);
}

uint32_t
Campaign::Execution::complete(RunRecord&& record,
                              uint64_t skipped_prefix, bool journal_it)
{
    runWall_->record(record.wallMicros);
    runsSimulated_->add(1);
    // The cycles actually simulated: the faulty run minus the golden
    // prefix its simulator never executed and the golden tail the
    // early-exit engine proved it never needed (record.cycles reports
    // golden's terminal count for early exits).
    uint64_t skipped = skipped_prefix + record.cyclesSaved;
    cyclesSimulated_->add(record.cycles > skipped
                              ? record.cycles - skipped
                              : 0);
    cyclesSaved_->add(record.cyclesSaved);
    ffCycles_->add(skipped_prefix);
    exitCounters_[static_cast<size_t>(record.exitReason)]->add(1);

    const uint32_t index = record.index;
    records_[index] = std::move(record);
    done_[index] = 1;
    if (journal_ && journal_it) {
        std::lock_guard<std::mutex> lock(journalMutex_);
        journal_->append(serializeRunRecord(records_[index]));
    }
    if (runObserver_)
        runObserver_(records_[index]);
    completed_.fetch_add(1);
    return pending_.fetch_sub(1) - 1;
}

uint32_t
Campaign::Execution::runIndex(uint32_t index)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point t0 = Clock::now();
    const GoldenArtifacts& golden = campaign_.golden();
    RunPlan plan = campaign_.planRun(golden, index, generator_);
    const sim::Snapshot* start =
        plan.checkpointIndex == NoCheckpoint
            ? nullptr
            : &golden.checkpoints[plan.checkpointIndex];
    RunRecord record = campaign_.runPlanIsolated(golden, plan, start);
    record.wallMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - t0)
            .count());
    return complete(std::move(record), record.restoredFrom);
}

std::vector<Campaign::Execution::Cohort>
Campaign::Execution::planCohorts(uint32_t parallelism)
{
    const GoldenArtifacts& golden = campaign_.golden();
    const uint32_t injections = campaign_.config_.injections;

    std::vector<Cohort> cohorts;
    if (!campaign_.cohortBatching_) {
        // Per-run restore mode: one unbatched singleton per pending
        // run, in index order. The scheduling shape is shared with
        // batched mode; only the cursor is gone.
        for (uint32_t i = 0; i < injections; ++i) {
            if (done_[i])
                continue;
            Cohort cohort;
            cohort.id = static_cast<int64_t>(cohorts.size());
            cohort.batched = false;
            cohort.indices.push_back(i);
            cohorts.push_back(std::move(cohort));
        }
        return cohorts;
    }

    // Group pending runs by resolved restore checkpoint (keys shifted
    // by one so the before-any-checkpoint group sorts first), each
    // group ordered by ascending (cycle, index) so a cursor only ever
    // moves forward. Replayed runs are already done_ and simply drop
    // out of their cohort.
    std::map<size_t, std::vector<std::pair<uint64_t, uint32_t>>> groups;
    uint32_t planned = 0;
    for (uint32_t i = 0; i < injections; ++i) {
        if (done_[i])
            continue;
        RunPlan plan = campaign_.planRun(golden, i, generator_);
        size_t key = plan.checkpointIndex == NoCheckpoint
                         ? 0
                         : plan.checkpointIndex + 1;
        groups[key].push_back({plan.record.cycle, i});
        ++planned;
    }

    // Cohort splitting: with one worker a whole checkpoint interval is
    // one cohort (maximum prefix sharing); with more, cap cohorts at
    // pending/(2*parallelism) runs so the queue stays at least twice
    // as deep as the worker pool — splitting trades some repeated
    // golden-prefix replay for workers never going idle.
    size_t max_chunk = std::max<uint32_t>(planned, 1);
    if (parallelism > 1 && planned > 0) {
        max_chunk = std::max<size_t>(
            1, (planned + 2 * parallelism - 1) / (2 * parallelism));
    }
    for (auto& [key, runs] : groups) {
        std::sort(runs.begin(), runs.end());
        for (size_t at = 0; at < runs.size(); at += max_chunk) {
            Cohort cohort;
            cohort.id = static_cast<int64_t>(cohorts.size());
            cohort.checkpointIndex =
                key == 0 ? NoCheckpoint : key - 1;
            cohort.baseCycle =
                key == 0 ? 0 : golden.checkpoints[key - 1].cycle;
            const size_t end = std::min(runs.size(), at + max_chunk);
            for (size_t j = at; j < end; ++j)
                cohort.indices.push_back(runs[j].second);
            cohorts.push_back(std::move(cohort));
        }
    }
    return cohorts;
}

Campaign::Execution::Cohort
Campaign::Execution::makeCohort(const std::vector<uint32_t>& indices,
                                int64_t id)
{
    const GoldenArtifacts& golden = campaign_.golden();
    Cohort cohort;
    cohort.id = id;
    cohort.batched = campaign_.cohortBatching_;

    // Re-derive each run's plan; planning is deterministic in (seed,
    // index), so the checkpoint and cycle match what the coordinator's
    // planner saw. Taking the *earliest* resolved checkpoint keeps the
    // cursor valid (it can only advance) even if a mixed unit ever
    // slips through.
    std::vector<std::pair<uint64_t, uint32_t>> runs;
    size_t key = std::numeric_limits<size_t>::max();
    for (uint32_t index : indices) {
        if (index >= campaign_.config_.injections || done_[index])
            continue;
        RunPlan plan = campaign_.planRun(golden, index, generator_);
        size_t k = plan.checkpointIndex == NoCheckpoint
                       ? 0
                       : plan.checkpointIndex + 1;
        key = std::min(key, k);
        runs.push_back({plan.record.cycle, index});
    }
    if (runs.empty())
        return cohort;
    if (key > 0) {
        cohort.checkpointIndex = key - 1;
        cohort.baseCycle = golden.checkpoints[key - 1].cycle;
    }
    std::sort(runs.begin(), runs.end());
    for (const auto& [cycle, index] : runs)
        cohort.indices.push_back(index);
    return cohort;
}

Campaign::Execution::CohortOutcome
Campaign::Execution::runCohort(const Cohort& cohort,
                               const std::function<bool()>& stop)
{
    return runShared({{this, &cohort}}, stop).front();
}

bool
Campaign::Execution::sharesCursor(const Cohort& cohort) const
{
    return cohort.batched && campaign_.lockstep_;
}

uint64_t
Campaign::Execution::injectionCycle(uint32_t index) const
{
    return campaign_.planRun(campaign_.golden(), index, generator_)
        .record.cycle;
}

std::vector<Campaign::Execution::CohortOutcome>
Campaign::Execution::runShared(const std::vector<Rider>& riders,
                               const std::function<bool()>& stop)
{
    std::vector<CohortOutcome> outs(riders.size());
    const bool lockstep =
        std::all_of(riders.begin(), riders.end(), [](const Rider& r) {
            return r.exec->sharesCursor(*r.cohort);
        });
    if (!lockstep) {
        // Nothing to share: each cohort keeps its own cursor (or none,
        // for per-run restore).
        for (size_t i = 0; i < riders.size(); ++i) {
            const Rider& r = riders[i];
            if (r.cohort->batched && !r.cohort->indices.empty())
                r.exec->cohorts_->add(1);
            r.exec->runCohortCursor(*r.cohort, stop, outs[i]);
        }
        return outs;
    }

    const Rider& lead = riders.front();
    for (const Rider& r : riders) {
        if (&r.exec->campaign_.golden() != &lead.exec->campaign_.golden() ||
            r.cohort->checkpointIndex != lead.cohort->checkpointIndex) {
            panic("lockstep riders of '%s' do not share a golden "
                  "cursor", lead.exec->campaign_.workload_.name.c_str());
        }
    }
    // One cursor, one cohort in the metrics, however many riders.
    if (std::any_of(riders.begin(), riders.end(), [](const Rider& r) {
            return !r.cohort->indices.empty();
        })) {
        lead.exec->cohorts_->add(1);
    }
    if (!runCohortLockstep(riders, stop, outs)) {
        // The lockstep cursor failed with runs unretired: finish each
        // cohort on the per-run cursor path (done_ guards skip every
        // run lockstep already retired).
        for (size_t i = 0; i < riders.size(); ++i)
            riders[i].exec->runCohortCursor(*riders[i].cohort, stop,
                                            outs[i]);
    }
    return outs;
}

void
Campaign::Execution::runCohortCursor(const Cohort& cohort,
                                     const std::function<bool()>& stop,
                                     CohortOutcome& out)
{
    using Clock = std::chrono::steady_clock;
    const GoldenArtifacts& golden = campaign_.golden();

    // The warm golden cursor, created lazily on the cohort's first
    // pending run and shared by every later one. If it ever fails
    // (host fault during the golden replay), the rest of the cohort
    // falls back to per-run restore — outcomes are identical either
    // way, only the prefix sharing is lost.
    std::optional<sim::Simulator> cursor;
    bool cursor_ok = true;
    bool cursor_served = false;
    uint32_t pos = 0;
    for (uint32_t index : cohort.indices) {
        if (stop && stop())
            break;
        if (done_[index]) {
            ++pos;
            continue;
        }
        const Clock::time_point t0 = Clock::now();
        RunPlan plan = campaign_.planRun(golden, index, generator_);
        RunRecord record;
        uint64_t prefix = 0;
        bool served = false;
        if (cohort.batched && cursor_ok) {
            try {
                if (!cursor) {
                    if (cohort.checkpointIndex != NoCheckpoint) {
                        cursor.emplace(
                            campaign_.program_, campaign_.config_.cpu,
                            golden.checkpoints[cohort.checkpointIndex]);
                    } else {
                        cursor.emplace(campaign_.program_,
                                       campaign_.config_.cpu);
                    }
                }
                const uint64_t before = cursor->cycle();
                cursor->advanceTo(plan.record.cycle);
                cursorCycles_->add(cursor->cycle() - before);
                decodeHits_->add(cursor->cpu().decodeHits());
                cursor->cpu().resetDecodeCounters();
                // Delta checkpoints reuse the cursor's pooled buffer:
                // the pointer stays valid until the next
                // deltaCheckpoint() call, and runPlanIsolated only
                // reads it while seeding the run's own simulator.
                sim::Snapshot full;
                const sim::Snapshot* at;
                if (campaign_.deltaSnapshots_) {
                    uint64_t delta_bytes = 0;
                    at = &cursor->deltaCheckpoint(&delta_bytes);
                    snapshotBytes_->add(delta_bytes);
                } else {
                    full = cursor->checkpoint();
                    at = &full;
                }
                record = campaign_.runPlanIsolated(golden, plan, at);
                // The run's own simulator started at the injection
                // cycle: the whole golden prefix was the cursor's.
                prefix = plan.record.cycle;
                if (cursor_served)
                    restoresAvoided_->add(1);
                cursor_served = true;
                served = true;
            } catch (const std::exception& e) {
                warn("cohort %lld cursor of '%s' failed (%s); "
                     "falling back to per-run restore",
                     static_cast<long long>(cohort.id),
                     campaign_.workload_.name.c_str(), e.what());
                cursor_ok = false;
                cursor.reset();
            } catch (...) {
                warn("cohort %lld cursor of '%s' failed; falling back "
                     "to per-run restore",
                     static_cast<long long>(cohort.id),
                     campaign_.workload_.name.c_str());
                cursor_ok = false;
                cursor.reset();
            }
        }
        if (!served) {
            const sim::Snapshot* start =
                plan.checkpointIndex == NoCheckpoint
                    ? nullptr
                    : &golden.checkpoints[plan.checkpointIndex];
            record = campaign_.runPlanIsolated(golden, plan, start);
            prefix = record.restoredFrom;
        }
        if (cohort.batched) {
            record.cohortId = cohort.id;
            record.cohortPos = pos;
        }
        record.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count());
        out.remaining = complete(std::move(record), prefix);
        if (out.remaining == 0)
            out.retiredLast = true;
        ++out.executed;
        ++pos;
    }
}

bool
Campaign::Execution::runCohortLockstep(const std::vector<Rider>& riders,
                                       const std::function<bool()>& stop,
                                       std::vector<CohortOutcome>& outs)
{
    using Clock = std::chrono::steady_clock;
    // Every rider shares these (runShared checked it): the golden
    // artifacts, hence the program and CPU the cursor replays, and the
    // base checkpoint. Cursor-wide metrics go through the lead rider's
    // instruments; everything about a run goes through its own.
    Execution& lead = *riders.front().exec;
    const Campaign& host = lead.campaign_;
    const GoldenArtifacts& golden = host.golden();
    const size_t checkpoint = riders.front().cohort->checkpointIndex;

    // Plan every rider's still-pending runs up front and merge them
    // into one attach order: ascending injection cycle, ties by rider
    // and then by cohort position (each cohort is already in
    // ascending (cycle, index) order).
    struct Pending
    {
        RunPlan plan;
        uint32_t rider;
        uint32_t pos;
    };
    std::vector<Pending> todo;
    for (uint32_t r = 0; r < riders.size(); ++r) {
        Execution& exec = *riders[r].exec;
        uint32_t pos = 0;
        for (uint32_t index : riders[r].cohort->indices) {
            if (!exec.done_[index]) {
                todo.push_back(
                    {exec.campaign_.planRun(golden, index,
                                            exec.generator_),
                     r, pos});
            }
            ++pos;
        }
    }
    if (todo.empty())
        return true;
    std::stable_sort(todo.begin(), todo.end(),
                     [](const Pending& a, const Pending& b) {
                         return a.plan.record.cycle < b.plan.record.cycle;
                     });

    // One attached, not-yet-forked run riding the cursor.
    struct Overlay
    {
        RunPlan plan;
        uint32_t rider = 0;
        uint32_t pos = 0;
        sim::Simulator::OverlayHandle handle;
        std::vector<sim::BitFlip> liveAtBase;
        std::vector<sim::BitFlip> ghostAtBase;
        /** Overlay change counter at the last fork-base capture
         *  (UINT64_MAX = never captured). */
        uint64_t seenChanges = UINT64_MAX;
        Clock::time_point t0;
    };

    std::optional<sim::Simulator> cursor;
    std::vector<Overlay> riding;
    // The rolling fork base. In delta mode it points at the cursor's
    // pooled deltaCheckpoint() buffer: the buffer only changes on the
    // next deltaCheckpoint() call (attach events), forks are processed
    // before attaches, and runForkIsolated reads the base while the
    // cursor is parked — so the pointee is always the fork-base state.
    sim::Snapshot baseCopy;
    const sim::Snapshot* base = &baseCopy;
    size_t next = 0;

    auto ladder_cycle = [&](const RunPlan& plan) {
        return plan.checkpointIndex == NoCheckpoint
                   ? 0
                   : golden.checkpoints[plan.checkpointIndex].cycle;
    };
    auto finish = [&](RunRecord&& record, uint64_t prefix,
                      uint32_t rider, uint32_t at,
                      const Clock::time_point& t0) {
        record.cohortId = riders[rider].cohort->id;
        record.cohortPos = at;
        record.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count());
        CohortOutcome& out = outs[rider];
        out.remaining =
            riders[rider].exec->complete(std::move(record), prefix);
        if (out.remaining == 0)
            out.retiredLast = true;
        ++out.executed;
    };
    // Retire a run straight from its overlay — zero private
    // simulation. With the early-exit engine on, a run whose flips
    // all died is exactly a DeadFault exit (the private engine's
    // check fires the cycle after the killing tick, which is where
    // the cursor detected it too); in every other case the flips
    // provably never reach the machine before the program ends, so
    // the record is the one a full simulation of a golden-identical
    // machine produces: golden terminal counts, no early exit.
    auto retire = [&](Overlay& run, bool dead, uint64_t death_cycle) {
        Execution& exec = *riders[run.rider].exec;
        RunRecord record = run.plan.record;
        record.restoredFrom = ladder_cycle(run.plan);
        record.cycles = golden.result.cycles;
        if (dead && exec.campaign_.earlyExit_) {
            record.outcome = Outcome::Masked;
            record.exitReason = sim::EarlyExit::DeadFault;
            record.cyclesSaved =
                golden.result.cycles > death_cycle
                    ? golden.result.cycles - death_cycle
                    : 0;
        } else {
            record.outcome = classify(golden.result, golden.result);
        }
        const uint64_t end = dead ? death_cycle : golden.result.cycles;
        exec.overlayCycles_->add(
            end > record.cycle ? end - record.cycle : 0);
        exec.neverForked_->add(1);
        cursor->dropOverlay(run.handle);
        // The run simulated nothing privately: its whole extent is
        // skipped prefix.
        finish(std::move(record), record.cycles - record.cyclesSaved,
               run.rider, run.pos, run.t0);
    };
    // A flip was read: the run diverged from golden during the last
    // tick. Materialize it from the fork base (golden state at the
    // last injection event, at or after its own injection cycle) plus
    // its flips still live there.
    auto fork = [&](Overlay& run) {
        Execution& exec = *riders[run.rider].exec;
        const uint64_t at = cursor->cycle();
        exec.forks_->add(1);
        exec.overlayCycles_->add(
            at > run.plan.record.cycle ? at - run.plan.record.cycle
                                       : 0);
        cursor->dropOverlay(run.handle);
        RunRecord record = exec.campaign_.runForkIsolated(
            golden, run.plan, *base, run.liveAtBase, run.ghostAtBase);
        record.forkedAt = static_cast<int64_t>(at);
        finish(std::move(record), base->cycle, run.rider, run.pos,
               run.t0);
    };

    try {
        while (next < todo.size() || !riding.empty()) {
            if (stop && stop()) {
                // Abandoned runs simply stay pending (never
                // complete()d); a resume re-runs them bit-identically.
                return true;
            }
            if (!cursor) {
                if (checkpoint != NoCheckpoint) {
                    cursor.emplace(host.program_, host.config_.cpu,
                                   golden.checkpoints[checkpoint]);
                } else {
                    cursor.emplace(host.program_, host.config_.cpu);
                }
            }
            cursor->clearOverlayEvents();
            // Stop exactly at the next attach cycle; with no attach
            // left, run to the golden halt (the halting commit does
            // not advance the cycle counter, so a cycle bound would
            // stop one tick short of it).
            const uint64_t until = next < todo.size()
                                       ? todo[next].plan.record.cycle
                                       : UINT64_MAX;
            const uint64_t before = cursor->cycle();
            cursor->runLockstep(until);
            lead.cursorCycles_->add(cursor->cycle() - before);
            lead.decodeHits_->add(cursor->cpu().decodeHits());
            cursor->cpu().resetDecodeCounters();

            // Forks first: a flip read during the last tick diverged
            // that run mid-tick — even if the same tick halted the
            // machine or killed the run's other flips.
            std::erase_if(riding, [&](Overlay& run) {
                if (!cursor->overlayPropagated(run.handle))
                    return false;
                fork(run);
                return true;
            });

            if (cursor->halted()) {
                // Golden end: every still-attached run held only
                // never-read flips through the whole golden stream —
                // including any whose last flip died on the halting
                // tick (the private engine's loop exits on halt
                // before its dead-fault check, so that is not a
                // DeadFault there either).
                for (Overlay& run : riding)
                    retire(run, false, 0);
                riding.clear();
                if (next < todo.size()) {
                    // Injection cycles are drawn below the golden
                    // cycle count, so this cannot happen; bail to the
                    // per-run path rather than drop runs.
                    return false;
                }
                break;
            }

            // Deaths: an overlay's last live flip was overwritten.
            // Detected the cycle after the killing tick, exactly like
            // the private engine's top-of-loop check.
            std::erase_if(riding, [&](Overlay& run) {
                if (cursor->overlayLiveCount(run.handle) != 0)
                    return false;
                retire(run, true, cursor->cycle());
                return true;
            });

            // Attach every run injecting at this cycle, whichever
            // rider it belongs to.
            bool attached = false;
            while (next < todo.size() &&
                   todo[next].plan.record.cycle == cursor->cycle()) {
                Pending& p = todo[next];
                ++next;
                attached = true;
                const Clock::time_point t0 = Clock::now();
                const Campaign& campaign = riders[p.rider].exec->campaign_;
                if (campaign.config_.hostFaultHook) {
                    // The hook stands in for "a simulation attempt
                    // begins". If it throws, serve this run alone on
                    // the isolated per-run path (retry-then-Error)
                    // and keep the cohort riding.
                    try {
                        campaign.config_.hostFaultHook(
                            p.plan.record.index, 0);
                    } catch (...) {
                        const sim::Snapshot* start =
                            p.plan.checkpointIndex == NoCheckpoint
                                ? nullptr
                                : &golden.checkpoints
                                       [p.plan.checkpointIndex];
                        RunRecord record = campaign.runPlanIsolated(
                            golden, p.plan, start);
                        finish(std::move(record), record.restoredFrom,
                               p.rider, p.pos, t0);
                        continue;
                    }
                }
                Overlay run;
                run.plan = std::move(p.plan);
                run.rider = p.rider;
                run.pos = p.pos;
                run.t0 = t0;
                sim::Injection injection;
                injection.target = campaign.config_.targetOverride
                                       ? *campaign.config_.targetOverride
                                       : targetFor(
                                             campaign.config_.component);
                injection.cycle = run.plan.record.cycle;
                injection.flips = run.plan.record.mask.flips;
                run.handle = cursor->attachOverlay(injection);
                if (cursor->overlayLiveCount(run.handle) == 0) {
                    // Dead on arrival: the private engine's check
                    // fires in the same loop iteration, before the
                    // first post-injection tick.
                    retire(run, true, cursor->cycle());
                } else {
                    riding.push_back(std::move(run));
                }
            }
            if (attached) {
                // Refresh the rolling fork base: one snapshot per
                // injection event (the same count the per-run cursor
                // path pays), plus each rider's flips still live
                // here. A later fork replays at most one
                // inter-injection gap of golden prefix privately.
                if (host.deltaSnapshots_) {
                    uint64_t delta_bytes = 0;
                    base = &cursor->deltaCheckpoint(&delta_bytes);
                    lead.snapshotBytes_->add(delta_bytes);
                } else {
                    baseCopy = cursor->checkpoint();
                    base = &baseCopy;
                }
                // A run's live and ghost sets only change when its
                // overlay's change counter moves, so most riders keep
                // their previous capture (a wide shared cursor would
                // otherwise rescan every tracked bit once per rider
                // at every attach).
                for (Overlay& run : riding) {
                    const uint64_t changes =
                        cursor->overlayChanges(run.handle);
                    if (changes == run.seenChanges)
                        continue;
                    run.seenChanges = changes;
                    run.liveAtBase =
                        cursor->overlayLiveFlips(run.handle);
                    run.ghostAtBase =
                        cursor->overlayGhostFlips(run.handle);
                }
            }
        }
    } catch (const std::exception& e) {
        warn("cohort %lld lockstep cursor of '%s' failed (%s); "
             "falling back to per-run restore",
             static_cast<long long>(riders.front().cohort->id),
             host.workload_.name.c_str(), e.what());
        return false;
    } catch (...) {
        warn("cohort %lld lockstep cursor of '%s' failed; falling "
             "back to per-run restore",
             static_cast<long long>(riders.front().cohort->id),
             host.workload_.name.c_str());
        return false;
    }
    return true;
}

CampaignResult
Campaign::Execution::finalize(bool cancelled)
{
    const uint32_t injections = campaign_.config_.injections;
    const GoldenArtifacts& golden = campaign_.golden();

    // The run trace: one JSONL record per completed run, in run-index
    // order — deterministic modulo wall_us whatever the worker
    // interleaving was. Replayed runs are flagged as such.
    if (campaign_.config_.trace) {
        for (uint32_t i = 0; i < injections; ++i) {
            if (!done_[i])
                continue;
            campaign_.config_.trace->append(
                traceLine(campaign_.workload_, campaign_.config_,
                          records_[i], done_[i] == 2));
        }
    }

    CampaignResult result;
    result.goldenCycles = golden.result.cycles;
    result.goldenInstructions = golden.result.instructions;
    result.resumed = resumed_;
    result.cancelled = cancelled;
    for (uint32_t i = 0; i < injections; ++i) {
        if (!done_[i])
            continue;
        result.counts.add(records_[i].outcome);
        ++result.completed;
        if (records_[i].exitReason == sim::EarlyExit::DeadFault)
            ++result.deadFaultExits;
        else if (records_[i].exitReason == sim::EarlyExit::Converged)
            ++result.convergedExits;
        result.cyclesSaved += records_[i].cyclesSaved;
    }
    if (keepRuns_) {
        if (result.cancelled) {
            for (uint32_t i = 0; i < injections; ++i) {
                if (done_[i])
                    result.runs.push_back(std::move(records_[i]));
            }
        } else {
            result.runs = std::move(records_);
        }
    }
    return result;
}

std::unique_ptr<Campaign::Execution>
Campaign::prepare(bool keep_runs) const
{
    return std::unique_ptr<Execution>(new Execution(*this, keep_runs));
}

CampaignResult
Campaign::run(bool keep_runs) const
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point started = Clock::now();

    std::unique_ptr<Execution> exec = prepare(keep_runs);

    std::atomic<size_t> next{0};
    std::atomic<bool> cancel{false};
    std::atomic<bool> finished{false};

    const Clock::time_point deadline =
        started + std::chrono::seconds(deadlineSeconds_);
    auto shouldStop = [&]() {
        if (cancel.load(std::memory_order_relaxed))
            return true;
        const char* why = nullptr;
        if (interruptRequested())
            why = "interrupted";
        else if (deadlineSeconds_ != 0 && Clock::now() >= deadline)
            why = "deadline expired";
        if (!why)
            return false;
        if (!cancel.exchange(true)) {
            warn("campaign %s %s: finishing in-flight runs "
                 "(%u/%u done%s)",
                 cacheKey().c_str(), why, exec->completedRuns(),
                 config_.injections,
                 journalDir_.empty() ? "" : ", journalled for resume");
        }
        return true;
    };

    // The work queue: cohorts of runs sharing a restore checkpoint
    // (DESIGN.md §13) — or singletons when batching is off. Planning
    // triggers the golden simulation, so it happens before the pool
    // spins up.
    const std::vector<Execution::Cohort> cohorts =
        exec->planCohorts(threads_);

    auto worker = [&]() {
        for (;;) {
            if (shouldStop())
                return;
            size_t i = next.fetch_add(1);
            if (i >= cohorts.size())
                return;
            exec->runCohort(cohorts[i], shouldStop);
        }
    };

    // Watchdog: wall-clock heartbeat so an unattended sweep shows it is
    // alive, and the deadline fires even while every worker is stuck
    // inside a long faulty run (the stop itself stays cooperative).
    std::mutex monitorMutex;
    std::condition_variable monitorCv;
    std::thread monitor;
    if (heartbeatSeconds_ != 0 || deadlineSeconds_ != 0) {
        monitor = std::thread([&]() {
            auto last_beat = started;
            std::unique_lock<std::mutex> lock(monitorMutex);
            while (!finished.load(std::memory_order_relaxed)) {
                monitorCv.wait_for(lock,
                                   std::chrono::milliseconds(100));
                shouldStop();
                auto now = Clock::now();
                if (heartbeatSeconds_ != 0 &&
                    now - last_beat >=
                        std::chrono::seconds(heartbeatSeconds_)) {
                    last_beat = now;
                    // One-line metrics snapshot per beat (process-wide
                    // campaign.* totals; histograms as p50/p99/max).
                    inform("campaign %s: %u/%u runs done | %s",
                           cacheKey().c_str(), exec->completedRuns(),
                           config_.injections,
                           metrics().snapshot().brief("campaign.")
                               .c_str());
                }
            }
        });
    }

    if (threads_ == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads_);
        for (uint32_t t = 0; t < threads_; ++t)
            pool.emplace_back(worker);
        for (auto& t : pool)
            t.join();
    }
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

    return exec->finalize(cancel.load());
}

} // namespace mbusim::core
