#include "dist/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "core/campaign.hh"
#include "core/golden_store.hh"
#include "core/golden_wire.hh"
#include "core/technology.hh"
#include "dist/protocol.hh"
#include "dist/transport.hh"
#include "util/env.hh"
#include "util/interrupt.hh"
#include "util/log.hh"
#include "util/parse.hh"
#include "workloads/workload.hh"

namespace mbusim::dist {

namespace {

/** Campaign parameters the coordinator resolved for the whole sweep;
 *  forwarded verbatim (argv for local workers, a cfg frame for remote
 *  ones) so every worker plans identical runs. */
struct WorkerArgs
{
    int inFd = 3;
    int outFd = 4;
    uint32_t injections = 200;
    uint64_t seed = 0x5eed;
    core::ClusterShape cluster;
    uint32_t timeoutFactor = 4;
    bool inOrder = false;
    std::string journalDir;
    std::string shard;
    uint32_t heartbeatMs = 0;
    bool crashHook = true;
    bool shipGolden = true;
    /** --listen PORT: serve TCP coordinators (0 = ephemeral port). */
    int listenPort = -1;
    /** --connect HOST:PORT: dial a listening coordinator. */
    bool connectMode = false;
    HostSpec connectTo;
};

bool
parseWorkerArgs(const std::vector<std::string>& args, WorkerArgs& out)
{
    auto bad = [](const std::string& why) {
        std::fprintf(stderr, "mbusim worker: %s\n", why.c_str());
        return false;
    };
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto next = [&]() -> const char* {
            return ++i < args.size() ? args[i].c_str() : nullptr;
        };
        // Every numeric option parses strictly (util/parse.hh):
        // "--seed 12x4" must be a usage error, not seed 12 — and
        // never the silent seed 0 that strtoull with an ignored end
        // pointer would produce, which runs a wrong-but-plausible
        // campaign.
        auto u32 = [&](const char* opt, uint32_t max, uint32_t& dst) {
            const char* v = next();
            if (v == nullptr || !parseU32(v, max, dst))
                return bad(std::string(opt) +
                           " needs an unsigned integer");
            return true;
        };
        if (arg == "--in") {
            uint32_t fd = 0;
            if (!u32("--in", INT32_MAX, fd))
                return false;
            out.inFd = static_cast<int>(fd);
        } else if (arg == "--out") {
            uint32_t fd = 0;
            if (!u32("--out", INT32_MAX, fd))
                return false;
            out.outFd = static_cast<int>(fd);
        } else if (arg == "--injections") {
            if (!u32("--injections", UINT32_MAX, out.injections))
                return false;
        } else if (arg == "--seed") {
            const char* v = next();
            if (v == nullptr || !parseU64(v, UINT64_MAX, out.seed))
                return bad("--seed needs an unsigned integer");
        } else if (arg == "--cluster") {
            const char* v = next();
            if (v == nullptr)
                return bad("--cluster needs a value");
            std::string s(v);
            size_t x = s.find('x');
            if (x == std::string::npos ||
                !parseU32(s.substr(0, x), UINT32_MAX,
                          out.cluster.rows) ||
                !parseU32(s.substr(x + 1), UINT32_MAX,
                          out.cluster.cols) ||
                out.cluster.rows == 0 || out.cluster.cols == 0)
                return bad("--cluster expects RxC");
        } else if (arg == "--timeout-factor") {
            if (!u32("--timeout-factor", UINT32_MAX,
                     out.timeoutFactor))
                return false;
        } else if (arg == "--in-order") {
            out.inOrder = true;
        } else if (arg == "--journal-dir") {
            const char* v = next();
            if (!v)
                return bad("--journal-dir needs a value");
            out.journalDir = v;
        } else if (arg == "--shard") {
            const char* v = next();
            if (!v)
                return bad("--shard needs a value");
            out.shard = v;
        } else if (arg == "--heartbeat-ms") {
            if (!u32("--heartbeat-ms", UINT32_MAX, out.heartbeatMs))
                return false;
        } else if (arg == "--no-crash-hook") {
            out.crashHook = false;
        } else if (arg == "--listen") {
            uint32_t port = 0;
            if (!u32("--listen", 65535, port))
                return false;
            out.listenPort = static_cast<int>(port);
        } else if (arg == "--connect") {
            const char* v = next();
            if (v == nullptr || !parseHostPort(v, out.connectTo))
                return bad("--connect expects host:port");
            out.connectMode = true;
        } else {
            return bad("unknown option '" + arg + "'");
        }
    }
    if (out.listenPort >= 0 && out.connectMode)
        return bad("--listen and --connect are mutually exclusive");
    const bool remote = out.listenPort >= 0 || out.connectMode;
    if (!remote && out.shard.empty())
        return bad("--shard is required");
    return true;
}

/** One cached cell: its campaign and journal-replaying execution. */
struct CellState
{
    std::unique_ptr<core::Campaign> campaign;
    std::unique_ptr<core::Campaign::Execution> exec;
    /** This cell's rider index in the unit being run; tags its
     *  streamed records. */
    uint32_t rider = 0;
};

const workloads::Workload*
findWorkload(const std::string& name)
{
    for (const workloads::Workload& w : workloads::allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

/**
 * Serve one coordinator connection: the frame loop over (inFd, outFd),
 * which are a pipe pair for local workers and one socket for remote
 * ones. Returns the process exit code for this session (0 clean EOF/
 * shutdown, 1 peer lost, 130 interrupted).
 */
int
serveSession(int inFd, int outFd, const WorkerArgs& base, bool remote,
             core::GoldenStore& store)
{
    WorkerArgs cfg = base;

    std::mutex writeMutex;   // run observer vs heartbeat thread
    std::atomic<bool> peer_gone{false};
    auto send = [&](const std::string& payload) {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (!writeFrame(outFd, payload))
            peer_gone.store(true, std::memory_order_relaxed);
    };

    // The coordinator owns stderr. Everything the campaign machinery
    // would print goes over the transport instead, so N workers never
    // interleave bytes mid-line on a shared terminal.
    setLogSink([&](LogLevel level, const std::string& msg) {
        send(strprintf("log %c %s",
                       level == LogLevel::Warn ? 'W' : 'I',
                       msg.c_str()));
    });

    // Deterministic crash injection (test-only, see DESIGN.md §14):
    // MBUSIM_TEST_CRASH_AT=<run-index> SIGKILLs the worker the moment
    // it starts simulating that run; MBUSIM_TEST_CRASH_CELL narrows it
    // to cells whose "<workload>:<component>:f<faults>" label contains
    // the given substring. Respawned workers get --no-crash-hook so
    // the re-execution succeeds (unless MBUSIM_TEST_CRASH_STICKY=1,
    // which exercises the poison-run quarantine).
    const std::string crash_at_s =
        envString("MBUSIM_TEST_CRASH_AT", "");
    const std::string crash_cell =
        envString("MBUSIM_TEST_CRASH_CELL", "");
    uint32_t crash_at = UINT32_MAX;
    if (cfg.crashHook && !crash_at_s.empty() &&
        !parseU32(crash_at_s, UINT32_MAX - 1, crash_at)) {
        warn("worker: ignoring malformed MBUSIM_TEST_CRASH_AT '%s'",
             crash_at_s.c_str());
        crash_at = UINT32_MAX;
    }

    send(strprintf("hello %d", static_cast<int>(::getpid())));

    // Worker-side heartbeat: a unit can legitimately stay silent for
    // the length of one long run, so a dedicated thread keeps the
    // coordinator's lease fresh while the process is healthy. A hung
    // or SIGKILLed worker stops heartbeating and loses its lease.
    // Remote sessions learn the interval from the cfg frame and start
    // it then.
    std::mutex hbMutex;
    std::condition_variable hbCv;
    bool hb_stop = false;
    std::thread heartbeat;
    auto start_heartbeat = [&](uint32_t interval_ms) {
        if (heartbeat.joinable() || interval_ms == 0)
            return;
        heartbeat = std::thread([&, interval_ms]() {
            std::unique_lock<std::mutex> lock(hbMutex);
            while (!hb_stop) {
                hbCv.wait_for(lock,
                              std::chrono::milliseconds(interval_ms));
                if (hb_stop)
                    return;
                send("hb");
            }
        });
    };
    auto stop_heartbeat = [&]() {
        if (!heartbeat.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(hbMutex);
            hb_stop = true;
        }
        hbCv.notify_all();
        heartbeat.join();
    };
    if (!remote)
        start_heartbeat(cfg.heartbeatMs);

    bool configured = !remote;   // pipe sessions configure via argv
    std::map<std::string, CellState> cells;
    // Workloads whose golden identity this session already proved
    // equal to the coordinator's, by golden-wire key.
    std::map<std::string, std::string> verified;
    int64_t current_unit = -1;

    // Abandon the unit as soon as the coordinator is gone: every
    // completed run is already durable (the shard journal locally, the
    // coordinator's record stream remotely), and a resuming
    // coordinator replans the remainder, so simulating for a dead peer
    // only wastes CPU.
    auto stop = [&peer_gone]() {
        return interruptRequested() ||
               peer_gone.load(std::memory_order_relaxed);
    };

    // Fetch the coordinator's golden blob for @p key (`need` -> `art`
    // chunk stream). Returns 1 with the blob assembled, 0 on art-miss,
    // -1 when the session must end (EOF, shutdown, interrupt).
    std::string payload;
    auto fetchBlob = [&](const std::string& key,
                         std::string& blob) -> int {
        send("need " + key);
        blob.clear();
        uint64_t total = UINT64_MAX;   // unknown until the first chunk
        for (;;) {
            if (stop())
                return -1;
            int rc = readFrame(inFd, payload);
            if (rc <= 0 || payload == "shutdown")
                return -1;
            if (payload.rfind("art-miss ", 0) == 0) {
                if (payload.substr(9) == key)
                    return 0;
                continue;
            }
            ArtFrame art;
            if (payload.rfind("art ", 0) == 0) {
                if (!parseArtFrame(payload, art)) {
                    warn("worker: malformed art frame, aborting "
                         "transfer");
                    return 0;
                }
                if (art.key != key)
                    continue;
                if (total == UINT64_MAX)
                    total = art.total;
                if (art.total != total ||
                    art.offset != blob.size()) {
                    warn("worker: out-of-order art chunk, aborting "
                         "transfer");
                    return 0;
                }
                blob += art.chunk;
                if (blob.size() == total)
                    return 1;
                continue;
            }
            warn("worker: ignoring frame during art transfer");
        }
    };

    // Prove this host's golden run is the coordinator's golden run
    // before simulating anything against it. The local artifacts are
    // rebuilt (one golden simulation, exactly as local workers always
    // did) and their content-addressed key must equal the one in the
    // work frame; with shipping enabled the coordinator's blob is
    // fetched and compared byte-for-byte as well, which pins down
    // *what* diverged when keys disagree.
    auto verifyGolden = [&](const workloads::Workload& workload,
                            const std::string& want,
                            int64_t unit) -> int {
        auto it = verified.find(workload.name);
        if (it != verified.end())
            return it->second == want ? 1 : 0;
        core::CampaignConfig cc;
        cc.cpu.inOrderIssue = cfg.inOrder;
        cc.cpu.decodeCache =
            envUInt("MBUSIM_DECODE_CACHE",
                    cc.cpu.decodeCache ? 1 : 0, 1) != 0;
        auto artifacts =
            store.get(workload, cc.cpu,
                      core::resolvedCheckpointTarget(cc),
                      core::resolvedDigestTarget(cc));
        const std::string blob = core::serializeGoldenWire(
            core::wireFromArtifacts(*artifacts));
        const std::string have = core::goldenWireKey(
            core::outcomeDigest(cc.cpu, workload.source), blob);
        if (have == want && remote && cfg.shipGolden) {
            std::string theirs;
            const int rc = fetchBlob(want, theirs);
            if (rc < 0)
                return -1;
            if (rc == 1 && theirs != blob) {
                // Keys collide but blobs differ — should be
                // impossible short of a hash collision; refuse.
                warn("worker: golden blob mismatch under matching "
                     "key %s", want.c_str());
                send(strprintf("bad-golden %lld %s %s",
                               static_cast<long long>(unit),
                               have.c_str(), want.c_str()));
                return 0;
            }
        }
        if (have != want) {
            warn("worker: golden mismatch for %s: local %s, "
                 "coordinator %s (simulator or workload version "
                 "skew?); refusing the unit",
                 workload.name.c_str(), have.c_str(), want.c_str());
            send(strprintf("bad-golden %lld %s %s",
                           static_cast<long long>(unit),
                           have.c_str(), want.c_str()));
            return 0;
        }
        verified.emplace(workload.name, have);
        return 1;
    };

    int exit_code = 0;
    for (;;) {
        int rc = readFrame(inFd, payload);
        if (rc == 0)
            break;   // coordinator closed the transport: shutdown
        if (rc < 0 || interruptRequested() ||
            peer_gone.load(std::memory_order_relaxed)) {
            exit_code = interruptRequested() ? 130 : 1;
            break;
        }
        if (payload == "shutdown")
            break;
        if (payload.rfind("cfg", 0) == 0) {
            CfgFrame frame;
            if (!remote || !parseCfgFrame(payload, frame)) {
                warn("worker: ignoring %s cfg frame",
                     remote ? "malformed" : "unexpected");
                continue;
            }
            cfg.injections = frame.injections;
            cfg.seed = frame.seed;
            cfg.cluster.rows = frame.clusterRows;
            cfg.cluster.cols = frame.clusterCols;
            cfg.timeoutFactor = frame.timeoutFactor;
            cfg.inOrder = frame.inOrder;
            cfg.shipGolden = frame.shipGolden;
            // The knobs a Campaign constructor resolves from the
            // environment change planned cohorts and RunRecord fields;
            // the coordinator's settings must win over whatever this
            // host happens to export.
            for (const std::string& knob : forwardedEnvKnobs())
                ::unsetenv(knob.c_str());
            for (const auto& [name, value] : frame.env)
                ::setenv(name.c_str(), value.c_str(), 1);
            cells.clear();
            verified.clear();
            configured = true;
            start_heartbeat(frame.heartbeatMs);
            continue;
        }
        WorkFrame frame;
        if (!parseWorkFrame(payload, frame)) {
            // Strict rejection: a frame with a non-numeric or
            // overflowed field, a truncated index list or trailing
            // garbage is torn, and running a guessed-at injection
            // would poison the sweep's determinism.
            warn("worker: malformed work frame, ignoring");
            continue;
        }
        if (!configured) {
            warn("worker: work frame before cfg, ignoring");
            continue;
        }
        const workloads::Workload* workload =
            findWorkload(frame.workload);
        if (workload == nullptr) {
            warn("worker: work frame names unknown workload, ignoring");
            continue;
        }
        if (frame.goldenKey != "-") {
            const int ok =
                verifyGolden(*workload, frame.goldenKey, frame.unit);
            if (ok < 0)
                break;
            if (ok == 0)
                continue;   // refused; coordinator requeues elsewhere
        }

        // One cell per rider, built on first use and kept for the
        // session, so a program's cells replay their journals once.
        // Every rider of the unit then rides one lockstep cursor.
        current_unit = frame.unit;
        std::vector<core::Campaign::Execution::Cohort> cohorts(
            frame.riders.size());
        std::vector<core::Campaign::Execution::Rider> riders;
        for (uint32_t r = 0; r < frame.riders.size(); ++r) {
            const WorkRider& wr = frame.riders[r];
            const std::string cell_key = frame.workload + ":" +
                                         wr.component + ":f" +
                                         std::to_string(wr.faults);
            CellState& cell = cells[cell_key];
            if (!cell.campaign) {
                core::CampaignConfig cc;
                cc.component =
                    core::componentFromShortName(wr.component.c_str());
                cc.faults = wr.faults;
                cc.injections = cfg.injections;
                cc.seed = cfg.seed;
                cc.cluster = cfg.cluster;
                cc.timeoutFactor = cfg.timeoutFactor;
                cc.threads = 1;
                cc.cpu.inOrderIssue = cfg.inOrder;
                cc.journalDir = cfg.journalDir;
                cc.journalShard = cfg.shard;
                if (crash_at != UINT32_MAX &&
                    (crash_cell.empty() ||
                     cell_key.find(crash_cell) != std::string::npos)) {
                    const uint32_t at = crash_at;
                    cc.hostFaultHook = [at](uint32_t index, uint32_t) {
                        if (index == at)
                            ::kill(::getpid(), SIGKILL);
                    };
                }
                cell.campaign = std::make_unique<core::Campaign>(
                    *workload, cc, store);
                cell.exec = cell.campaign->prepare();
                cell.exec->setRunObserver(
                    [&send, &current_unit,
                     &cell](const core::RunRecord& r) {
                        RecFrame rec;
                        rec.unit = current_unit;
                        rec.rider = cell.rider;
                        rec.wallMicros = r.wallMicros;
                        rec.record = r;
                        send(buildRecFrame(rec));
                    });
            }
            cell.rider = r;
            cohorts[r] = cell.exec->makeCohort(wr.indices, frame.unit);
            // A rider whose runs this process already finished has
            // nothing left to attach (and no checkpoint to agree on).
            if (!cohorts[r].indices.empty())
                riders.push_back({cell.exec.get(), &cohorts[r]});
        }
        if (!riders.empty())
            core::Campaign::Execution::runShared(riders, stop);
        if (interruptRequested()) {
            exit_code = 130;
            break;
        }
        send(strprintf("unit-done %lld",
                       static_cast<long long>(frame.unit)));
    }

    stop_heartbeat();
    setLogSink(nullptr);
    return exit_code;
}

} // namespace

int
workerMain(const std::vector<std::string>& args)
{
    WorkerArgs cfg;
    if (!parseWorkerArgs(args, cfg))
        return 2;

    // The coordinator may die first; a write to the closed transport
    // must surface as EPIPE (worker exits), not SIGPIPE (worker
    // vanishes without reaching its own cleanup).
    std::signal(SIGPIPE, SIG_IGN);
    installTerminationHandlers();

    core::GoldenStore store;
    const bool remote = cfg.listenPort >= 0 || cfg.connectMode;
    if (remote) {
        // Remote workers have no shared filesystem with the
        // coordinator: durability is the coordinator-side record
        // stream, never a local journal that nothing would merge.
        cfg.journalDir.clear();
        cfg.shard.clear();
        ::unsetenv("MBUSIM_JOURNAL_DIR");
    }

    if (cfg.connectMode) {
        // Dial the coordinator, waiting for it to come up: worker
        // fleets are often started before the sweep.
        const uint32_t wait_s = static_cast<uint32_t>(
            envUInt("MBUSIM_CONNECT_WAIT_S", 30, UINT32_MAX));
        const auto give_up =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(wait_s);
        int fd = -1;
        while (fd < 0 && !interruptRequested() &&
               std::chrono::steady_clock::now() < give_up) {
            fd = tcpConnect(cfg.connectTo.host, cfg.connectTo.port,
                            2000);
            if (fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(500));
        }
        if (fd < 0) {
            std::fprintf(stderr,
                         "mbusim worker: cannot connect to %s:%u\n",
                         cfg.connectTo.host.c_str(),
                         cfg.connectTo.port);
            return interruptRequested() ? 130 : 1;
        }
        const int code = serveSession(fd, fd, cfg, true, store);
        ::close(fd);
        return code;
    }

    if (cfg.listenPort >= 0) {
        uint16_t port = 0;
        int listen_fd =
            tcpListen(static_cast<uint16_t>(cfg.listenPort), port);
        if (listen_fd < 0)
            return 1;
        // Parsed by tests and launch scripts; must reach the terminal
        // before the first coordinator dials in.
        std::printf("mbusim worker: listening on port %u\n", port);
        std::fflush(stdout);
        int code = 0;
        while (!interruptRequested()) {
            int fd = tcpAccept(listen_fd);
            if (fd < 0)
                continue;   // EINTR: loop re-checks the interrupt flag
            // Sessions are served one at a time: a coordinator that
            // re-dials after a lease revocation first closed (or
            // abandoned) its previous connection, whose session ends
            // on EOF.
            code = serveSession(fd, fd, cfg, true, store);
            ::close(fd);
            if (code == 130)
                break;
        }
        ::close(listen_fd);
        return interruptRequested() ? 130 : code;
    }

    return serveSession(cfg.inFd, cfg.outFd, cfg, false, store);
}

} // namespace mbusim::dist
