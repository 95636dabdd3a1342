#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>

#include "core/campaign.hh"
#include "core/golden_store.hh"
#include "util/journal.hh"
#include "util/log.hh"
#include "workloads/workload.hh"

namespace sweepbench {

using namespace mbusim;

namespace {

// Sizes are fixed here, not taken from the command line: a run's
// inputs depend on its seed alone. See README.md for why each exists.
const std::vector<WorkloadSpec> Workloads = {
    {"grid", {}, 60, false},
    {"deep", {"FFT", "qsort", "dijkstra"}, 600, false},
    {"fleet", {}, 32, true},
};

/** The text of a string field `"key":"value"`; fatal() if absent. */
std::string
stringField(const std::string& line, const char* key)
{
    const std::string tag = strprintf("\"%s\":\"", key);
    size_t at = line.find(tag);
    if (at == std::string::npos)
        fatal("trace line lacks \"%s\": %s", key, line.c_str());
    at += tag.size();
    size_t end = line.find('"', at);
    if (end == std::string::npos)
        fatal("trace line has an unterminated \"%s\"", key);
    return line.substr(at, end - at);
}

/** A numeric field `"key":123`; false when the value is null. */
bool
numberField(const std::string& line, const char* key, uint64_t& value)
{
    const std::string tag = strprintf("\"%s\":", key);
    size_t at = line.find(tag);
    if (at == std::string::npos)
        fatal("trace line lacks \"%s\": %s", key, line.c_str());
    at += tag.size();
    if (line.compare(at, 4, "null") == 0)
        return false;
    char* end = nullptr;
    value = std::strtoull(line.c_str() + at, &end, 10);
    if (end == line.c_str() + at)
        fatal("trace line has a non-numeric \"%s\"", key);
    return true;
}

uint64_t
requireNumber(const std::string& line, const char* key)
{
    uint64_t value = 0;
    if (!numberField(line, key, value))
        fatal("trace line has a null \"%s\"", key);
    return value;
}

/** Fixed pseudo-random order for the per-path sample. */
uint64_t
sampleOrder(const TraceRecord& r)
{
    return fnv1a64(r.id());
}

/**
 * Exit path of a sweep record: its early-exit reason, else whether the
 * full-length run forked a private simulator off the lockstep cursor.
 * Records that crossed a process boundary carry no forked_at (it is
 * host-side bookkeeping), so without @p fork_known those are one path.
 */
std::string
exitPath(const TraceRecord& record, bool fork_known)
{
    if (record.exit != "none")
        return record.exit;
    if (!fork_known)
        return "full_length";
    return record.forkedKnown ? "forked" : "never_forked";
}

} // namespace

const WorkloadSpec*
findWorkload(const std::string& name)
{
    for (const WorkloadSpec& spec : Workloads) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

core::StudyConfig
studyConfig(const WorkloadSpec& spec, uint64_t seed, uint32_t threads,
            const std::string& journal_dir,
            std::shared_ptr<JsonlWriter> trace)
{
    core::StudyConfig sc;
    sc.injections = spec.injections;
    sc.seed = seed;
    sc.cluster = core::ClusterShape{3, 3};
    sc.timeoutFactor = 4;
    sc.threads = threads;
    sc.cpu = sim::CpuConfig{};
    sc.cpu.decodeCache = true;
    sc.cacheDir.clear();
    sc.journalDir = journal_dir;
    sc.workloads = spec.programs;
    sc.deadlineSeconds = 0;
    sc.sweepScheduler = true;
    sc.trace = std::move(trace);
    sc.hostFaultHook = {};
    return sc;
}

std::string
TraceRecord::id() const
{
    return strprintf("%s/%s/f%u run %u", workload.c_str(),
                     component.c_str(), faults, run);
}

std::vector<TraceRecord>
readTrace(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read trace '%s'", path.c_str());
    std::vector<TraceRecord> records;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        TraceRecord r;
        r.workload = stringField(line, "workload");
        r.component = stringField(line, "component");
        r.faults = static_cast<uint32_t>(requireNumber(line, "faults"));
        r.run = static_cast<uint32_t>(requireNumber(line, "run"));
        r.outcome = stringField(line, "outcome");
        r.exit = stringField(line, "exit");
        r.cycles = requireNumber(line, "cycles");
        uint64_t forked_at = 0;
        r.forkedKnown = numberField(line, "forked_at", forked_at);
        // The host-side fields are the record's tail, from "cohort"
        // on (campaign.cc traceLine()).
        size_t tail = line.find(",\"cohort\":");
        if (tail == std::string::npos)
            fatal("trace line lacks its host-side tail: %s",
                  line.c_str());
        r.stable = line.substr(0, tail);
        records.push_back(std::move(r));
    }
    return records;
}

uint64_t
recordsDigest(const std::vector<TraceRecord>& records)
{
    std::vector<const std::string*> lines;
    lines.reserve(records.size());
    for (const TraceRecord& r : records)
        lines.push_back(&r.stable);
    std::sort(lines.begin(), lines.end(),
              [](const std::string* a, const std::string* b) {
                  return *a < *b;
              });
    std::string all;
    for (const std::string* l : lines) {
        all += *l;
        all += '\n';
    }
    return fnv1a64(all);
}

OracleResult
runOracle(const core::StudyConfig& study,
          const std::vector<TraceRecord>& records, uint32_t per_path,
          uint32_t threads, bool fork_known)
{
    OracleResult result;

    // --- Selection: every converged run, and a fixed sample of each
    // other exit path. Every expected path is listed up front, so an
    // empty one trips the vacuity guard.
    const std::vector<std::string> expected =
        fork_known ? std::vector<std::string>{"converged", "dead_fault",
                                              "never_forked", "forked"}
                   : std::vector<std::string>{"converged", "dead_fault",
                                              "full_length"};
    std::map<std::string, std::vector<const TraceRecord*>> paths;
    for (const std::string& p : expected)
        paths[p];
    for (const TraceRecord& r : records)
        paths[exitPath(r, fork_known)].push_back(&r);
    std::vector<const TraceRecord*> chosen;
    for (auto& [path, members] : paths) {
        std::sort(members.begin(), members.end(),
                  [](const TraceRecord* a, const TraceRecord* b) {
                      return sampleOrder(*a) < sampleOrder(*b);
                  });
        if (path != "converged" && members.size() > per_path)
            members.resize(per_path);
        if (members.empty())
            result.missingPaths.push_back(path);
        result.byPath.push_back({path, members.size()});
        chosen.insert(chosen.end(), members.begin(), members.end());
    }

    // --- One straight campaign per touched cell: every shortcut field
    // off. Checkpoints stay at the sweep's default; a restore is
    // bit-identical to simulating the prefix.
    core::GoldenStore store;
    struct Cell
    {
        std::unique_ptr<core::Campaign> campaign;
        std::unique_ptr<core::Campaign::Execution> exec;
    };
    std::map<std::string, Cell> cells;
    std::mutex mutex;   // guards straight
    std::map<std::string, core::RunRecord> straight;
    std::vector<core::Campaign::Execution*> execs;   // one per chosen
    for (const TraceRecord* r : chosen) {
        const std::string key = strprintf(
            "%s/%s/f%u", r->workload.c_str(), r->component.c_str(),
            r->faults);
        Cell& cell = cells[key];
        if (cell.campaign) {
            execs.push_back(cell.exec.get());
            continue;
        }
        core::CampaignConfig cc;
        cc.component = core::componentFromShortName(r->component.c_str());
        cc.faults = r->faults;
        cc.injections = study.injections;
        cc.seed = study.seed;
        cc.cluster = study.cluster;
        cc.timeoutFactor = study.timeoutFactor;
        cc.threads = 1;
        cc.checkpoints = core::CampaignConfig{}.checkpoints;
        cc.earlyExit = false;
        cc.digestPoints = 0;
        cc.cohortBatching = false;
        cc.lockstep = false;
        cc.deltaSnapshots = false;
        cc.cpu = study.cpu;
        cc.cpu.decodeCache = false;
        cc.targetOverride.reset();
        cc.journalDir.clear();
        cc.journalShard.clear();
        cc.deadlineSeconds = 0;
        cc.trace.reset();
        cc.hostFaultHook = {};
        cell.campaign = std::make_unique<core::Campaign>(
            workloads::workloadByName(r->workload), cc, store);
        cell.exec = cell.campaign->prepare();
        cell.exec->setRunObserver(
            [&mutex, &straight, key](const core::RunRecord& rec) {
                std::lock_guard<std::mutex> lock(mutex);
                straight[strprintf("%s run %u", key.c_str(),
                                   rec.index)] = rec;
            });
        execs.push_back(cell.exec.get());
    }

    std::atomic<size_t> next{0};
    onPool(std::max(1u, threads), [&]() {
        for (size_t i; (i = next.fetch_add(1)) < chosen.size();)
            execs[i]->runIndex(chosen[i]->run);
    });

    // --- Compare outcome classes.
    for (const TraceRecord* r : chosen) {
        const core::RunRecord& s = straight.at(r->id());
        ++result.checked;
        if (r->exit == "converged")
            ++result.convergedChecked;
        const char* got = core::outcomeName(s.outcome);
        std::string why;
        if (s.outcome == core::Outcome::Error) {
            ++result.errors;
            why = "straight run ended Error";
        } else if (r->outcome != got) {
            ++result.mismatches;
            why = "outcome mismatch";
        }
        if (why.empty())
            continue;
        std::string line = strprintf(
            "%s: sweep %s (exit=%s, %" PRIu64
            " cycles) vs straight %s (%" PRIu64 " cycles): %s",
            r->id().c_str(), r->outcome.c_str(), r->exit.c_str(),
            r->cycles, got, s.cycles, why.c_str());
        std::fprintf(stderr, "oracle: %s\n", line.c_str());
        result.failures.push_back(std::move(line));
    }
    return result;
}

} // namespace sweepbench
