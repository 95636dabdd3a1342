/**
 * @file
 * Crash-isolation tests of the multi-process sweep coordinator
 * (DESIGN.md §14), run against the real CLI binary.
 *
 * The acceptance bar mirrors the sweep scheduler's: whatever dies —
 * a worker SIGKILLed mid-cohort, the whole coordinator, or every
 * exec() of the worker binary — the per-run results that finally
 * land must be bit-identical to a serial sweep on every field that
 * is deterministic in (config, index). Only wall_us, cohort identity
 * and the replayed flag may differ, so traces are compared after
 * stripping that fixed trailing triple. Each test execs the mbusim
 * binary (path injected by CMake as MBUSIM_CLI_PATH); the worker
 * subprocesses are then spawned from /proc/self/exe by the
 * coordinator itself, exactly as in production.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "util/interrupt.hh"

namespace {

using mbusim::clearInterrupt;

class ChaosTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Subprocesses inherit our environment; scrub every knob so
        // each test controls the sweep through argv and explicit
        // env pairs alone.
        for (const char* knob :
             {"MBUSIM_INJECTIONS", "MBUSIM_SEED", "MBUSIM_THREADS",
              "MBUSIM_CACHE_DIR", "MBUSIM_JOURNAL_DIR",
              "MBUSIM_WORKLOADS", "MBUSIM_SWEEP_SCHEDULER",
              "MBUSIM_DEADLINE_S", "MBUSIM_HEARTBEAT_S",
              "MBUSIM_EARLY_EXIT", "MBUSIM_DIGEST_POINTS",
              "MBUSIM_CHECKPOINTS", "MBUSIM_COHORT",
              "MBUSIM_WORKER_PROCS", "MBUSIM_WORKER_EXE",
              "MBUSIM_LEASE_TIMEOUT_S", "MBUSIM_RESPAWN_BUDGET",
              "MBUSIM_HOSTS", "MBUSIM_SHIP_GOLDEN",
              "MBUSIM_CONNECT_GRACE_S", "MBUSIM_CONNECT_WAIT_S",
              "MBUSIM_DELTA_SNAPSHOTS", "MBUSIM_DECODE_CACHE",
              "MBUSIM_TEST_CRASH_AT", "MBUSIM_TEST_CRASH_CELL",
              "MBUSIM_TEST_CRASH_STICKY"}) {
            unsetenv(knob);
        }
        clearInterrupt();
    }

    void TearDown() override { clearInterrupt(); }
};

std::string
freshDir(const std::string& name)
{
    std::string dir = testing::TempDir() + "/chaos_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

using EnvList = std::vector<std::pair<std::string, std::string>>;

/**
 * Spawn `mbusim sweep <args>` with @p envs set, stderr captured to
 * @p errPath, stdout to @p outPath. Returns the child pid.
 */
pid_t
spawnSweep(const std::vector<std::string>& args, const EnvList& envs,
           const std::string& outPath, const std::string& errPath)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    for (const auto& [key, value] : envs)
        setenv(key.c_str(), value.c_str(), 1);
    if (!std::freopen(outPath.c_str(), "w", stdout) ||
        !std::freopen(errPath.c_str(), "w", stderr))
        _exit(126);
    std::vector<std::string> full = {MBUSIM_CLI_PATH, "sweep"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : full)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(MBUSIM_CLI_PATH, argv.data());
    _exit(127);
}

struct SweepResult
{
    int exitCode = -1;     // WEXITSTATUS, or -1 if signalled
    int termSignal = 0;    // WTERMSIG when signalled
    std::string out;
    std::string err;
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

SweepResult
await(pid_t pid, const std::string& outPath, const std::string& errPath)
{
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    SweepResult result;
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        result.termSignal = WTERMSIG(status);
    result.out = slurp(outPath);
    result.err = slurp(errPath);
    return result;
}

/** Run a sweep to completion and return its outcome. */
SweepResult
runSweep(const std::string& scratch,
         const std::vector<std::string>& args, const EnvList& envs)
{
    std::string outPath = scratch + "/sweep.out";
    std::string errPath = scratch + "/sweep.err";
    pid_t pid = spawnSweep(args, envs, outPath, errPath);
    return await(pid, outPath, errPath);
}

/**
 * Load a trace's run lines stripped of the host-bookkeeping tail
 * (cohort / replayed / wall_us — the only fields the distributed
 * engine is allowed to change). Every remaining byte, including the
 * fault mask and microarchitectural outcome, must match serial.
 */
std::multiset<std::string>
canonicalRuns(const std::string& tracePath)
{
    std::multiset<std::string> runs;
    std::ifstream in(tracePath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"outcome\"") == std::string::npos)
            continue;
        size_t tail = line.find(",\"cohort\":");
        runs.insert(tail == std::string::npos ? line
                                              : line.substr(0, tail));
    }
    return runs;
}

/** Poll until a shard journal with some payload exists, or timeout. */
bool
waitForShardBytes(const std::string& journalDir, size_t minBytes,
                  int timeoutMs)
{
    namespace fs = std::filesystem;
    for (int elapsed = 0; elapsed < timeoutMs; elapsed += 50) {
        size_t bytes = 0;
        std::error_code ec;
        for (const auto& entry : fs::directory_iterator(journalDir, ec))
            if (entry.path().filename().string().find(".shard-") !=
                std::string::npos)
                bytes += fs::file_size(entry.path(), ec);
        if (bytes >= minBytes)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

const EnvList TinySweep = {{"MBUSIM_WORKLOADS", "stringsearch"},
                           {"MBUSIM_INJECTIONS", "4"}};

/** Serial reference trace for the TinySweep configuration. */
std::multiset<std::string>
serialReference(const std::string& scratch)
{
    std::string trace = scratch + "/serial.jsonl";
    SweepResult serial = runSweep(
        scratch, {"--serial", "--trace-out", trace}, TinySweep);
    EXPECT_EQ(serial.exitCode, 0) << serial.err;
    std::multiset<std::string> runs = canonicalRuns(trace);
    EXPECT_FALSE(runs.empty());
    return runs;
}

/**
 * The healthy path: a multi-process sweep must reproduce the serial
 * sweep bit-for-bit on every deterministic field.
 */
TEST_F(ChaosTest, DistMatchesSerial)
{
    std::string scratch = freshDir("dist_matches_serial");
    std::multiset<std::string> serial = serialReference(scratch);

    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist = runSweep(scratch,
                                {"--worker-procs", "3", "--journal-dir",
                                 scratch + "/j", "--trace-out", trace},
                                TinySweep);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * A worker SIGKILLed mid-cohort (deterministic crash hook, DESIGN.md
 * §14.5) loses only its in-flight unit: the coordinator requeues the
 * pending runs and the final results still match serial exactly.
 */
TEST_F(ChaosTest, CrashedWorkerWorkIsReclaimed)
{
    std::string scratch = freshDir("worker_crash");
    std::multiset<std::string> serial = serialReference(scratch);

    EnvList envs = TinySweep;
    envs.emplace_back("MBUSIM_TEST_CRASH_AT", "2");
    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist = runSweep(scratch,
                                {"--worker-procs", "2", "--journal-dir",
                                 scratch + "/j", "--trace-out", trace},
                                envs);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_NE(dist.err.find("requeueing"), std::string::npos)
        << "expected at least one reclamation: " << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * Lockstep chaos drill: workers crashing mid-sweep while cohorts ride
 * the shared golden cursor (the default). Overlay state is confined
 * to one worker's in-flight unit — an attached but unretired run is
 * never journalled, so no overlay can leak across a dist frame
 * boundary into another worker's replay. The reclaimed sweep must
 * match a serial reference on the straight path (MBUSIM_COHORT=0)
 * bit-for-bit on every deterministic field.
 */
TEST_F(ChaosTest, LockstepSurvivesWorkerCrashes)
{
    std::string scratch = freshDir("lockstep_crash");
    EnvList serialEnvs = TinySweep;
    serialEnvs.emplace_back("MBUSIM_COHORT", "0");
    std::string serialTrace = scratch + "/serial.jsonl";
    SweepResult serialRun = runSweep(
        scratch, {"--serial", "--trace-out", serialTrace}, serialEnvs);
    ASSERT_EQ(serialRun.exitCode, 0) << serialRun.err;
    std::multiset<std::string> serial = canonicalRuns(serialTrace);
    ASSERT_FALSE(serial.empty());

    EnvList envs = TinySweep;
    envs.emplace_back("MBUSIM_TEST_CRASH_AT", "2");
    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist = runSweep(scratch,
                                {"--worker-procs", "2", "--journal-dir",
                                 scratch + "/j", "--trace-out", trace},
                                envs);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * A run that persistently kills workers (sticky crash hook) must be
 * quarantined — split to a singleton unit, then recorded as
 * Outcome::Error — instead of burning the respawn budget forever.
 * Every other run in the sweep still matches serial.
 */
TEST_F(ChaosTest, StickyCrashQuarantinesPoisonRun)
{
    std::string scratch = freshDir("sticky_crash");
    std::multiset<std::string> serial = serialReference(scratch);

    EnvList envs = TinySweep;
    envs.emplace_back("MBUSIM_TEST_CRASH_AT", "1");
    envs.emplace_back("MBUSIM_TEST_CRASH_STICKY", "1");
    envs.emplace_back("MBUSIM_TEST_CRASH_CELL", "stringsearch:regfile:f2");
    envs.emplace_back("MBUSIM_RESPAWN_BUDGET", "64");
    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist = runSweep(scratch,
                                {"--worker-procs", "2", "--journal-dir",
                                 scratch + "/j", "--trace-out", trace},
                                envs);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_NE(dist.err.find("persistently kills"), std::string::npos)
        << dist.err;

    std::multiset<std::string> dist_runs = canonicalRuns(trace);
    std::vector<std::string> errors;
    for (const std::string& run : dist_runs)
        if (run.find("\"Error\"") != std::string::npos)
            errors.push_back(run);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("\"run\":1,"), std::string::npos);
    EXPECT_NE(errors[0].find("\"component\":\"regfile\""),
              std::string::npos);
    EXPECT_NE(errors[0].find("\"faults\":2"), std::string::npos);

    // Apart from the quarantined run, results are unchanged.
    std::multiset<std::string> rest = dist_runs;
    rest.erase(errors[0]);
    size_t matched = 0;
    for (const std::string& run : rest)
        matched += serial.count(run);
    EXPECT_EQ(matched, rest.size());
    EXPECT_EQ(rest.size() + 1, serial.size());
}

/**
 * SIGTERM to the coordinator drains like ^C — exit 130, journals
 * flushed and shards merged — and a rerun over the same journal
 * directory resumes to a trace identical to serial.
 */
TEST_F(ChaosTest, SigtermCancelsAndRerunResumes)
{
    std::string scratch = freshDir("sigterm_resume");
    std::multiset<std::string> serial = serialReference(scratch);

    std::string journals = scratch + "/j";
    pid_t pid = spawnSweep({"--worker-procs", "2", "--journal-dir",
                            journals},
                           TinySweep, scratch + "/c.out",
                           scratch + "/c.err");
    // Wait for some durable progress so the rerun has work to resume,
    // then interrupt. If the sweep wins the race and finishes first,
    // the signal is a no-op and the rerun resumes everything — the
    // equivalence assertion below holds either way.
    waitForShardBytes(journals, 256, 8000);
    ::kill(pid, SIGTERM);
    SweepResult first = await(pid, scratch + "/c.out", scratch + "/c.err");
    EXPECT_TRUE(first.exitCode == 130 || first.exitCode == 0)
        << first.exitCode << "\n" << first.err;

    std::string trace = scratch + "/rerun.jsonl";
    SweepResult rerun = runSweep(scratch,
                                 {"--worker-procs", "2", "--journal-dir",
                                  journals, "--trace-out", trace},
                                 TinySweep);
    ASSERT_EQ(rerun.exitCode, 0) << rerun.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * SIGKILL to the coordinator — no cleanup of any kind — must still
 * leave resumable state: orphaned workers' shard journals are
 * absorbed by the next sweep, which completes with serial-identical
 * results.
 */
TEST_F(ChaosTest, KilledCoordinatorLeavesResumableShards)
{
    std::string scratch = freshDir("coordinator_kill");
    std::multiset<std::string> serial = serialReference(scratch);

    std::string journals = scratch + "/j";
    pid_t pid = spawnSweep({"--worker-procs", "2", "--journal-dir",
                            journals},
                           TinySweep, scratch + "/c.out",
                           scratch + "/c.err");
    waitForShardBytes(journals, 256, 8000);
    ::kill(pid, SIGKILL);
    SweepResult first = await(pid, scratch + "/c.out", scratch + "/c.err");
    EXPECT_TRUE(first.termSignal == SIGKILL || first.exitCode == 0);

    // Orphaned workers stop on their own (dead pipe); their shards
    // are merged at the next sweep's startup, before any Execution
    // opens a canonical journal.
    std::string trace = scratch + "/rerun.jsonl";
    SweepResult rerun = runSweep(scratch,
                                 {"--worker-procs", "2", "--journal-dir",
                                  journals, "--trace-out", trace},
                                 TinySweep);
    ASSERT_EQ(rerun.exitCode, 0) << rerun.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

// ---------------------------------------------------------------------
// Cross-host execution over loopback TCP (DESIGN.md §17). The remote
// transport must be invisible in the results: the same frames ride
// sockets instead of pipes, golden identity is proven by the
// content-addressed key in each work frame, and a lost connection is
// just another lease expiry.

/** Spawn `mbusim worker <args>`, stdout/stderr captured. */
pid_t
spawnWorker(const std::vector<std::string>& args, const EnvList& envs,
            const std::string& outPath, const std::string& errPath)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    for (const auto& [key, value] : envs)
        setenv(key.c_str(), value.c_str(), 1);
    if (!std::freopen(outPath.c_str(), "w", stdout) ||
        !std::freopen(errPath.c_str(), "w", stderr))
        _exit(126);
    std::vector<std::string> full = {MBUSIM_CLI_PATH, "worker"};
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : full)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(MBUSIM_CLI_PATH, argv.data());
    _exit(127);
}

/**
 * Poll @p path until a line containing "<needle> <port>" appears;
 * returns the port, or 0 on timeout. Both the worker (--listen 0) and
 * the coordinator (sweep --listen 0) announce their ephemeral port
 * this way.
 */
uint16_t
waitForPort(const std::string& path, const std::string& needle,
            int timeoutMs)
{
    for (int elapsed = 0; elapsed < timeoutMs; elapsed += 50) {
        std::string text = slurp(path);
        size_t at = text.find(needle);
        if (at != std::string::npos) {
            at += needle.size();
            unsigned port = 0;
            if (std::sscanf(text.c_str() + at, "%u", &port) == 1 &&
                port > 0 && port <= 65535)
                return static_cast<uint16_t>(port);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return 0;
}

/** SIGTERM + reap one helper process, tolerating prior death. */
void
stopProcess(pid_t pid)
{
    ::kill(pid, SIGTERM);
    int status = 0;
    for (int elapsed = 0; elapsed < 5000; elapsed += 50) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
}

/**
 * Two loopback TCP workers, zero local ones: the sweep's trace must be
 * field-for-field identical to serial on everything deterministic in
 * (config, index) — the documented host-side tail (wall_us, cohort
 * identity, replayed) is the only permitted difference.
 */
TEST_F(ChaosTest, TcpLoopbackHostsMatchSerial)
{
    std::string scratch = freshDir("tcp_hosts");
    std::multiset<std::string> serial = serialReference(scratch);

    pid_t w1 = spawnWorker({"--listen", "0"}, {}, scratch + "/w1.out",
                           scratch + "/w1.err");
    pid_t w2 = spawnWorker({"--listen", "0"}, {}, scratch + "/w2.out",
                           scratch + "/w2.err");
    uint16_t p1 = waitForPort(scratch + "/w1.out",
                              "listening on port ", 5000);
    uint16_t p2 = waitForPort(scratch + "/w2.out",
                              "listening on port ", 5000);
    ASSERT_GT(p1, 0) << slurp(scratch + "/w1.err");
    ASSERT_GT(p2, 0) << slurp(scratch + "/w2.err");

    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist =
        runSweep(scratch,
                 {"--worker-procs", "0", "--hosts",
                  "127.0.0.1:" + std::to_string(p1) + ",127.0.0.1:" +
                      std::to_string(p2),
                  "--journal-dir", scratch + "/j", "--trace-out",
                  trace},
                 TinySweep);
    stopProcess(w1);
    stopProcess(w2);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * SIGKILL one of two remote workers mid-sweep: the broken connection
 * expires its lease, the in-flight unit requeues on the survivor, and
 * the sweep completes with zero lost and zero duplicated runs.
 */
TEST_F(ChaosTest, TcpKilledRemoteWorkerIsReclaimed)
{
    std::string scratch = freshDir("tcp_kill");
    std::multiset<std::string> serial = serialReference(scratch);

    pid_t w1 = spawnWorker({"--listen", "0"}, {}, scratch + "/w1.out",
                           scratch + "/w1.err");
    pid_t w2 = spawnWorker({"--listen", "0"}, {}, scratch + "/w2.out",
                           scratch + "/w2.err");
    uint16_t p1 = waitForPort(scratch + "/w1.out",
                              "listening on port ", 5000);
    uint16_t p2 = waitForPort(scratch + "/w2.out",
                              "listening on port ", 5000);
    ASSERT_GT(p1, 0);
    ASSERT_GT(p2, 0);

    std::string journals = scratch + "/j";
    std::string trace = scratch + "/dist.jsonl";
    pid_t sweep = spawnSweep(
        {"--worker-procs", "0", "--hosts",
         "127.0.0.1:" + std::to_string(p1) + ",127.0.0.1:" +
             std::to_string(p2),
         "--journal-dir", journals, "--trace-out", trace},
        TinySweep, scratch + "/c.out", scratch + "/c.err");
    // Remote records land in coordinator-side shards; once some are
    // durable the sweep is mid-flight and worker 1 likely holds a
    // lease. If the sweep wins the race and finishes first the kill
    // is a no-op — the equivalence assertion holds either way.
    waitForShardBytes(journals, 256, 8000);
    ::kill(w1, SIGKILL);
    int status = 0;
    ::waitpid(w1, &status, 0);

    SweepResult dist =
        await(sweep, scratch + "/c.out", scratch + "/c.err");
    stopProcess(w2);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * The dial-in direction: the coordinator opens a listen socket
 * (`sweep --listen 0`) and a remote worker connects to it (`worker
 * --connect`). Same equivalence bar as the dial-out path.
 */
TEST_F(ChaosTest, TcpDialInWorkerMatchesSerial)
{
    std::string scratch = freshDir("tcp_dialin");
    std::multiset<std::string> serial = serialReference(scratch);

    std::string trace = scratch + "/dist.jsonl";
    pid_t sweep = spawnSweep({"--worker-procs", "0", "--listen", "0",
                              "--journal-dir", scratch + "/j",
                              "--trace-out", trace},
                             TinySweep, scratch + "/c.out",
                             scratch + "/c.err");
    uint16_t port = waitForPort(scratch + "/c.err",
                                "accepting workers on port ", 5000);
    ASSERT_GT(port, 0) << slurp(scratch + "/c.err");

    pid_t worker = spawnWorker(
        {"--connect", "127.0.0.1:" + std::to_string(port)}, {},
        scratch + "/w.out", scratch + "/w.err");
    SweepResult dist =
        await(sweep, scratch + "/c.out", scratch + "/c.err");
    stopProcess(worker);
    ASSERT_EQ(dist.exitCode, 0)
        << dist.err << "\nworker: " << slurp(scratch + "/w.err");
    EXPECT_EQ(canonicalRuns(trace), serial);
}

/**
 * When the worker binary cannot be spawned at all, the respawn
 * budget runs out and the coordinator degrades to the in-process
 * scheduler rather than failing the sweep.
 */
TEST_F(ChaosTest, DegradesWhenWorkerExecFails)
{
    std::string scratch = freshDir("degraded");
    std::multiset<std::string> serial = serialReference(scratch);

    EnvList envs = TinySweep;
    envs.emplace_back("MBUSIM_WORKER_EXE", "/nonexistent/worker");
    envs.emplace_back("MBUSIM_RESPAWN_BUDGET", "2");
    std::string trace = scratch + "/dist.jsonl";
    SweepResult dist = runSweep(
        scratch, {"--worker-procs", "2", "--trace-out", trace}, envs);
    ASSERT_EQ(dist.exitCode, 0) << dist.err;
    EXPECT_NE(dist.err.find("respawn budget"), std::string::npos)
        << dist.err;
    EXPECT_EQ(canonicalRuns(trace), serial);
}

} // namespace
