/**
 * @file
 * One measured phase of the sweep benchmark, in a process of its own
 * (run.py starts one process per phase, so every sweep starts cold and
 * its peak RSS is its own):
 *
 *   sweepbench setup  --workload W --seed N --out DIR
 *   sweepbench sweep  --workload W --seed N --out DIR --rep R
 *                     --worker-exe PATH
 *   sweepbench traced --workload W --seed N --out DIR
 *   sweepbench oracle --workload W --seed N --out DIR
 *
 * setup times a fresh Study plus prepareSweepCells; sweep times one
 * untraced Study::runSweep (or, on fleet, dist::runDistributedSweep
 * followed by a journal replay) and writes its run trace to
 * DIR/trace<R>.jsonl; traced drives the same phases as runSweep with
 * spans around every layer call; oracle re-simulates runs of
 * DIR/trace0.jsonl straight. Each prints one JSON object as its last
 * stdout line; failed output checks are listed under "failures".
 * See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "core/study.hh"
#include "dist/coordinator.hh"
#include "util/log.hh"
#include "util/metrics.hh"
#include "workloads/workload.hh"

extern char** environ;

namespace {

using namespace mbusim;
using namespace sweepbench;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/** Non-converged runs the oracle re-simulates per exit path. */
constexpr uint32_t OracleSample = 8;

/** Run-path counters reported per layer, as deltas. */
constexpr const char* RunPathCounters[] = {
    "campaign.forks",          "campaign.never_forked",
    "campaign.exit.dead_fault", "campaign.exit.converged",
    "campaign.cycles_simulated", "campaign.cursor_cycles",
    "campaign.overlay_cycles", "campaign.cycles_saved",
    "campaign.decode_hits",    "snapshot.bytes_copied",
};

struct Options
{
    std::string phase;
    std::string workload;
    uint64_t seed = 0;
    bool haveSeed = false;
    uint32_t rep = 0;
    std::string out;
    std::string workerExe;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "sweepbench: %s\nusage: sweepbench "
                 "setup|sweep|traced|oracle --workload grid|deep|fleet "
                 "--seed N --out DIR [--rep R] [--worker-exe PATH]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseNumber(const std::string& flag, const char* text)
{
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage(strprintf("%s wants a whole number, got '%s'",
                        flag.c_str(), text));
    return v;
}

Options
parseOptions(int argc, char** argv)
{
    Options o;
    if (argc < 2)
        usage("missing phase");
    o.phase = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const char* value = argv[i + 1];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = parseNumber(arg, value);
            o.haveSeed = true;
        } else if (arg == "--rep") {
            o.rep = static_cast<uint32_t>(parseNumber(arg, value));
        } else if (arg == "--out") {
            o.out = value;
        } else if (arg == "--worker-exe") {
            o.workerExe = value;
        } else {
            usage("unknown option '" + arg + "'");
        }
    }
    if (o.workload.empty() || !o.haveSeed || o.out.empty())
        usage("--workload, --seed and --out are required");
    return o;
}

/**
 * Campaign and Study read MBUSIM_* variables over their configs, so a
 * stray one would silently change the measured path.
 */
void
refuseKnobEnvironment()
{
    for (char** e = environ; *e; ++e) {
        if (std::strncmp(*e, "MBUSIM_", 7) == 0) {
            std::string name(*e, std::strcspn(*e, "="));
            std::fprintf(stderr,
                         "sweepbench: refusing to run with %s set; "
                         "unset every MBUSIM_* variable\n",
                         name.c_str());
            std::exit(2);
        }
    }
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds(int who)
{
    struct rusage ru {};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Every counter of the process-wide registry. */
std::map<std::string, uint64_t>
counters()
{
    std::map<std::string, uint64_t> out;
    for (const auto& [name, value] : metrics().snapshot().counters)
        out[name] = value;
    return out;
}

/** Counter deltas between two counters() readings. */
struct Delta
{
    std::map<std::string, uint64_t> before, after;
    uint64_t operator[](const std::string& name) const
    {
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    }
};

/** Nearest-rank quantile. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** A flat JSON object, built field by field. */
class Json
{
  public:
    void num(const std::string& key, double v)
    {
        raw(key, strprintf("%.17g", v));
    }
    void str(const std::string& key, const std::string& v)
    {
        raw(key, jsonQuote(v));
    }
    void raw(const std::string& key, const std::string& v)
    {
        body_ += (body_.empty() ? "" : ",") + jsonQuote(key) + ":" + v;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonList(const std::vector<std::string>& items)
{
    std::string out;
    for (const std::string& s : items)
        out += (out.empty() ? "" : ",") + jsonQuote(s);
    return "[" + out + "]";
}

// ---------------------------------------------------------------------
// Spans for the traced run.

struct Span
{
    std::string name;
    std::string id;     ///< shared by the spans of one cell or program
    int parent = -1;
    double start = 0, end = 0;   ///< seconds since the tracer epoch
};

/** In-memory span log; thread-safe, written out once at the end. */
class Tracer
{
  public:
    int begin(const std::string& name, const std::string& id,
              int parent)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, id, parent, t, t});
        return static_cast<int>(spans_.size()) - 1;
    }

    void end(int span)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[span].end = t;
    }

    /** The spans; call only once every span has ended. */
    const std::vector<Span>& spans() const { return spans_; }

    double duration(int span) const
    {
        return spans_[span].end - spans_[span].start;
    }

    /** Duration minus the part of it the span's children cover. */
    double selfTime(int span) const
    {
        const Span& s = spans_[span];
        std::vector<std::pair<double, double>> kids;
        for (const Span& c : spans_) {
            if (c.parent == span)
                kids.push_back({std::max(c.start, s.start),
                                std::min(c.end, s.end)});
        }
        std::sort(kids.begin(), kids.end());
        double covered = 0, reach = s.start;
        for (auto [a, b] : kids) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        return duration(span) - covered;
    }

    /** Summed duration of every span called @p name. */
    double total(const std::string& name) const
    {
        double sum = 0;
        for (const Span& s : spans_) {
            if (s.name == name)
                sum += s.end - s.start;
        }
        return sum;
    }

    void write(const std::string& path) const
    {
        std::ofstream out(path, std::ios::trunc);
        for (const Span& s : spans_) {
            out << strprintf("{\"name\":%s,\"id\":%s,\"parent\":%d,"
                             "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                             jsonQuote(s.name).c_str(),
                             jsonQuote(s.id).c_str(), s.parent, s.start,
                             s.end);
        }
    }

  private:
    double now() const { return seconds(epoch_, Clock::now()); }

    const Clock::time_point epoch_ = Clock::now();
    std::mutex mutex_;   // guards spans_
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------

/** One phase of the benchmark for one workload at one seed. */
class Phase
{
  public:
    Phase(const Options& opt, const WorkloadSpec& spec)
        : opt_(opt), spec_(spec),
          threads_(std::max(1u, std::thread::hardware_concurrency())),
          programs_(spec.programs.empty()
                        ? workloads::allWorkloads().size()
                        : spec.programs.size()),
          cells_(programs_ * core::AllComponents.size() * 3),
          runs_(cells_ * spec.injections)
    {
    }

    /** Run the phase and print its JSON line. */
    int run();

  private:
    core::StudyConfig config(const std::string& journal_dir,
                             std::shared_ptr<JsonlWriter> trace) const
    {
        return studyConfig(spec_, opt_.seed, threads_, journal_dir,
                           std::move(trace));
    }

    std::string path(const std::string& leaf) const
    {
        return opt_.out + "/" + leaf;
    }

    void require(bool cond, const std::string& what)
    {
        if (!cond) {
            std::fprintf(stderr, "sweepbench: check failed: %s\n",
                         what.c_str());
            failures_.push_back(what);
        }
    }

    /** Records of @p file: one per run, digested into out_. */
    std::vector<TraceRecord> records(const std::string& file,
                                     const std::string& key);

    void setup();
    void sweep();
    void traced();
    void oracle();

    const Options& opt_;
    const WorkloadSpec& spec_;
    const uint32_t threads_;
    const uint64_t programs_;
    const uint64_t cells_;
    const uint64_t runs_;
    Json out_;
    Json layer_;
    std::vector<std::string> failures_;
};

std::vector<TraceRecord>
Phase::records(const std::string& file, const std::string& key)
{
    std::vector<TraceRecord> recs = readTrace(file);
    require(recs.size() == runs_,
            strprintf("%s holds %zu records, want %" PRIu64,
                      file.c_str(), recs.size(), runs_));
    out_.str(key, strprintf("%016" PRIx64, recordsDigest(recs)));
    return recs;
}

void
Phase::setup()
{
    std::string jdir;
    if (spec_.fleet) {
        jdir = path("setup-journal");
        fs::remove_all(jdir);
    }
    core::Study study(config(jdir, nullptr));
    core::SweepReport report;
    std::vector<std::string> cached;
    const Clock::time_point t0 = Clock::now();
    auto cells = study.prepareSweepCells(report, cached, threads_);
    out_.num("setup_s", seconds(t0, Clock::now()));
    uint64_t cohorts = 0;
    for (const auto& cell : cells)
        cohorts += cell->cohorts.size();
    require(cells.size() == cells_ && cached.empty(),
            "set-up did not plan every cell cold");
    out_.num("cohorts", static_cast<double>(cohorts));
    cells.clear();
    if (!jdir.empty())
        fs::remove_all(jdir);
}

void
Phase::sweep()
{
    const std::string trace_file =
        path(strprintf("trace%u.jsonl", opt_.rep));
    const std::string jdir =
        spec_.fleet ? path(strprintf("journal%u", opt_.rep)) : "";
    if (!jdir.empty())
        fs::remove_all(jdir);
    auto trace = std::make_shared<JsonlWriter>(trace_file);
    core::Study study(config(jdir, trace));

    Delta d;
    d.before = counters();
    const double self0 = cpuSeconds(RUSAGE_SELF);
    const double kids0 = cpuSeconds(RUSAGE_CHILDREN);
    const Clock::time_point t0 = Clock::now();
    core::SweepReport report;
    if (spec_.fleet) {
        dist::DistConfig dc;
        dc.workerProcs = threads_;
        dc.leaseTimeoutS = 60;
        dc.respawnBudget = 8;
        dc.workerExe = opt_.workerExe;
        dc.hosts.clear();
        dc.listenPort = -1;
        dc.shipGolden = true;
        dc.connectGraceS = 15;
        report = dist::runDistributedSweep(study, dc);
    } else {
        report = study.runSweep();
    }
    const double wall = seconds(t0, Clock::now());
    const double self_cpu = cpuSeconds(RUSAGE_SELF) - self0;
    const double kids_cpu = cpuSeconds(RUSAGE_CHILDREN) - kids0;
    d.after = counters();
    trace->close();

    out_.num("wall_s", wall);
    out_.num("cpu_s", self_cpu + kids_cpu);
    require(!report.cancelled, "the sweep was cancelled");
    require(report.runsSimulated == runs_,
            strprintf("the sweep simulated %" PRIu64 " runs, want %"
                      PRIu64,
                      report.runsSimulated, runs_));
    require(d["golden.simulations"] == programs_,
            strprintf("the sweep ran %" PRIu64 " golden simulations, "
                      "want one per program (%" PRIu64 ")",
                      d["golden.simulations"], programs_));
    if (!spec_.fleet) {
        require(report.goldenSimulations == programs_,
                strprintf("SweepReport shows %" PRIu64 " golden "
                          "simulations, want %" PRIu64,
                          report.goldenSimulations, programs_));
    }

    // Golden, cursor and private simulation. Golden lengths are not
    // counters; each program's golden ran exactly once (checked above).
    uint64_t golden_cycles = 0;
    for (const auto* w : study.workloadSet())
        golden_cycles += study.goldenCycles(w->name);
    out_.num("sim_cycles",
             static_cast<double>(golden_cycles +
                                 d["campaign.cursor_cycles"] +
                                 d["campaign.cycles_simulated"]));
    records(trace_file, "digest");

    // Run-path counters of this process. On fleet, workers run the
    // cohorts, so these only count what the coordinator adopts.
    for (const char* c : RunPathCounters)
        layer_.num(c, static_cast<double>(d[c]));
    if (!spec_.fleet)
        return;

    // The coordinator's own goldens (for cohort planning); workers'
    // rebuilds show only in their CPU time.
    const double wait_s = 1e-6 * static_cast<double>(d["golden.wait_us"]);
    layer_.num("sim.golden_s", wait_s);
    layer_.num("sim.golden_cycles", static_cast<double>(golden_cycles));
    layer_.num("sim.golden_mcycles_per_s",
               wait_s > 0 ? 1e-6 * static_cast<double>(golden_cycles) /
                                wait_s
                          : 0);
    layer_.num("core.golden_store.sims",
               static_cast<double>(d["golden.simulations"]));
    layer_.num("core.golden_store.wait_s", wait_s);
    layer_.num("dist.coord_cpu_s", self_cpu);
    layer_.num("dist.worker_cpu_s", kids_cpu);
    layer_.num("dist.workers", threads_);
    layer_.num("dist.respawns", static_cast<double>(d["dist.respawns"]));
    layer_.num("dist.leases_reclaimed",
               static_cast<double>(d["dist.leases_reclaimed"]));
    require(d["dist.respawns"] == 0, "the fleet respawned workers");
    require(d["dist.leases_reclaimed"] == 0,
            "the fleet reclaimed leases");

    uint64_t bytes = 0, lines = 0;
    for (const auto& e : fs::directory_iterator(jdir)) {
        bytes += e.file_size();
        std::ifstream in(e.path());
        std::string line;
        for (bool header = true; std::getline(in, line); header = false)
            lines += header ? 0 : 1;
    }
    layer_.num("util.journal.bytes", static_cast<double>(bytes));
    layer_.num("util.journal.records", static_cast<double>(lines));
    require(lines == runs_,
            strprintf("the journals hold %" PRIu64 " records, want %"
                      PRIu64,
                      lines, runs_));

    // A fresh Study replays the journals: every cell complete, one
    // record per run, and the same records as the sweep.
    const std::string replay_file =
        path(strprintf("replay%u.jsonl", opt_.rep));
    auto replay_trace = std::make_shared<JsonlWriter>(replay_file);
    core::Study fresh(config(jdir, replay_trace));
    core::SweepReport rr;
    std::vector<std::string> cached;
    const Clock::time_point r0 = Clock::now();
    auto cells = fresh.prepareSweepCells(rr, cached, threads_);
    layer_.num("util.journal.replay_s", seconds(r0, Clock::now()));
    bool complete = cells.size() == cells_;
    for (auto& cell : cells) {
        const bool done =
            cell->exec->completedRuns() == spec_.injections;
        complete = complete && done;
        if (done)
            fresh.installCellResult(*cell);
    }
    replay_trace->close();
    require(complete && rr.runsResumed == runs_,
            strprintf("the journals replay %" PRIu64 " runs, want %"
                      PRIu64 " in complete cells",
                      rr.runsResumed, runs_));
    records(replay_file, "replay_digest");
    fs::remove_all(jdir);
    fs::remove(replay_file);
}

void
Phase::traced()
{
    Tracer tr;
    const std::string trace_file = path("trace-traced.jsonl");
    auto trace = std::make_shared<JsonlWriter>(trace_file);
    core::Study study(config("", trace));
    Delta all;
    all.before = counters();
    const int root = tr.begin("sweep", spec_.name, -1);

    // Set-up. Each program is assembled and its golden simulated on a
    // pool, as prepareSweepCells' planners would; the planning call
    // then finds every golden in the store (checked below).
    const int prep = tr.begin("core.study.prepare", spec_.name, root);
    const auto& programs = study.workloadSet();
    std::atomic<uint64_t> golden_cycles{0};
    {
        std::atomic<size_t> next{0};
        onPool(threads_, [&]() {
            for (size_t i; (i = next.fetch_add(1)) < programs.size();) {
                const std::string& name = programs[i]->name;
                int a = tr.begin("workloads.assemble", name, prep);
                sim::Program program = programs[i]->assemble();
                tr.end(a);
                int g = tr.begin("sim.golden", name, prep);
                golden_cycles += study.goldenCycles(name);
                tr.end(g);
            }
        });
    }
    Delta plan;
    plan.before = counters();
    core::SweepReport report;
    std::vector<std::string> cached;
    auto cells = study.prepareSweepCells(report, cached, threads_);
    plan.after = counters();
    tr.end(prep);

    // Run phase: runSweep's (cell, cohort) queue on our own pool; the
    // worker retiring a cell's last run finalizes it.
    std::vector<std::pair<core::SweepCell*,
                          const core::Campaign::Execution::Cohort*>>
        tasks;
    for (auto& cell : cells) {
        for (const auto& cohort : cell->cohorts)
            tasks.push_back({cell.get(), &cohort});
    }
    Delta run;
    run.before = counters();
    const int phase = tr.begin("core.campaign.run", spec_.name, root);
    {
        std::atomic<size_t> next{0};
        onPool(threads_, [&]() {
            for (size_t t; (t = next.fetch_add(1)) < tasks.size();) {
                core::SweepCell& cell = *tasks[t].first;
                int c = tr.begin("core.campaign.cohort", cell.key, phase);
                auto result = cell.exec->runCohort(*tasks[t].second);
                tr.end(c);
                if (result.retiredLast) {
                    int f = tr.begin("core.study.finalize", cell.key,
                                     phase);
                    study.installCellResult(cell);
                    tr.end(f);
                }
            }
        });
    }
    tr.end(phase);
    run.after = counters();
    tr.end(root);
    all.after = counters();
    trace->close();
    tr.write(path("spans.jsonl"));

    std::vector<TraceRecord> recs = records(trace_file, "digest");
    require(all["golden.simulations"] == programs_ &&
                plan["golden.simulations"] == 0,
            "the traced run's goldens were not all warmed before "
            "planning");

    // --- Per-layer numbers from the spans and counter deltas.
    std::vector<double> cohort_ms;
    double last_cohort_start = 0;
    for (const Span& s : tr.spans()) {
        if (s.name == "core.campaign.cohort") {
            cohort_ms.push_back(1e3 * (s.end - s.start));
            last_cohort_start = std::max(last_cohort_start, s.start);
        }
    }
    const double golden_s = tr.total("sim.golden");
    const double busy = tr.total("core.campaign.cohort");
    const double phase_wall = tr.duration(phase);
    uint64_t forked_masked = 0;
    for (const TraceRecord& r : recs)
        forked_masked += r.forkedKnown && r.outcome == "Masked";

    out_.num("wall_s", tr.duration(root));
    layer_.num("workloads.assemble_s", tr.total("workloads.assemble"));
    layer_.num("sim.golden_s", golden_s);
    layer_.num("sim.golden_cycles", static_cast<double>(golden_cycles));
    layer_.num("sim.golden_mcycles_per_s",
               golden_s > 0 ? 1e-6 * static_cast<double>(golden_cycles) /
                                  golden_s
                            : 0);
    layer_.num("core.golden_store.sims",
               static_cast<double>(all["golden.simulations"]));
    layer_.num("core.golden_store.wait_s",
               1e-6 * static_cast<double>(all["golden.wait_us"]));
    layer_.num("core.study.plan_s", tr.selfTime(prep));
    layer_.num("core.study.finalize_s", tr.total("core.study.finalize"));
    layer_.num("core.campaign.cohort_busy_s", busy);
    layer_.num("core.campaign.cohort_p50_ms", quantile(cohort_ms, 0.50));
    layer_.num("core.campaign.cohort_p99_ms", quantile(cohort_ms, 0.99));
    layer_.num("core.campaign.utilization",
               phase_wall > 0 ? busy / (phase_wall * threads_) : 0);
    layer_.num("core.campaign.tail_s",
               tr.spans()[phase].end - last_cohort_start);
    layer_.num("core.campaign.converged_per_forked_masked",
               forked_masked
                   ? static_cast<double>(run["campaign.exit.converged"]) /
                         static_cast<double>(forked_masked)
                   : 0);
    layer_.num("core.campaign.private_mcycles_per_s",
               busy > 0 ? 1e-6 *
                              static_cast<double>(
                                  run["campaign.cycles_simulated"]) /
                              busy
                        : 0);
    for (const char* c : RunPathCounters)
        layer_.num(c, static_cast<double>(run[c]));
}

void
Phase::oracle()
{
    const std::vector<TraceRecord> recs = readTrace(path("trace0.jsonl"));
    // Records that crossed the worker protocol carry no forked_at, so
    // on fleet the forked and never-forked paths are one.
    OracleResult o = runOracle(config("", nullptr), recs, OracleSample,
                               threads_, !spec_.fleet);
    std::string by_path;
    for (const auto& [name, n] : o.byPath) {
        std::fprintf(stderr, "sweepbench: oracle checked %" PRIu64
                     " %s runs\n", n, name.c_str());
        by_path += strprintf("%s%s:%" PRIu64, by_path.empty() ? "" : ",",
                             jsonQuote(name).c_str(), n);
    }
    for (const std::string& p : o.missingPaths)
        require(false, "the oracle sample has no " + p + " run (vacuous)");
    require(o.convergedChecked > 0,
            "the oracle checked no converged run (vacuous)");

    // Failed operations: straight-run mismatches and Error outcomes,
    // plus runs the sweep itself recorded as Error.
    std::vector<std::string> failed = o.failures;
    for (const TraceRecord& r : recs) {
        if (r.outcome == "Error") {
            std::fprintf(stderr, "sweepbench: %s ended Error in the "
                         "sweep\n", r.id().c_str());
            failed.push_back(r.id() + ": Error in the sweep");
        }
    }
    out_.raw("by_path", "{" + by_path + "}");
    out_.raw("failed_runs", jsonList(failed));
    layer_.num("oracle.checked", static_cast<double>(o.checked));
    layer_.num("oracle.converged_checked",
               static_cast<double>(o.convergedChecked));
    layer_.num("oracle.mismatches", static_cast<double>(o.mismatches));
}

int
Phase::run()
{
    fs::create_directories(opt_.out);
    if (opt_.phase == "setup") {
        setup();
    } else if (opt_.phase == "sweep") {
        if (spec_.fleet && opt_.workerExe.empty())
            usage("fleet sweeps need --worker-exe");
        sweep();
    } else if (opt_.phase == "traced") {
        if (spec_.fleet)
            usage("fleet has no traced run");
        traced();
    } else if (opt_.phase == "oracle") {
        oracle();
    } else {
        usage("unknown phase '" + opt_.phase + "'");
    }
    out_.str("phase", opt_.phase);
    out_.num("runs", static_cast<double>(runs_));
    out_.raw("layer", layer_.text());
    out_.raw("failures", jsonList(failures_));
    std::printf("%s\n", out_.text().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    refuseKnobEnvironment();
#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "sweepbench: refusing an unoptimized build\n");
    return 2;
#endif
    if (std::strcmp(SWEEPBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr, "sweepbench: refusing a Debug build\n");
        return 2;
    }
    Options opt = parseOptions(argc, argv);
    const WorkloadSpec* spec = findWorkload(opt.workload);
    if (!spec)
        usage("unknown workload '" + opt.workload + "'");
    return Phase(opt, *spec).run();
}
