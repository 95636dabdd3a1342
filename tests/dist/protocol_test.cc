/**
 * @file
 * Unit tests of the coordinator/worker wire protocol (DESIGN.md §14).
 *
 * The framing layer is the one piece of the distributed sweep that
 * must survive byte-level adversity: workers are SIGKILLed mid-write,
 * pipes deliver frames in arbitrary chunks, and a corrupted length
 * prefix must never turn into a multi-gigabyte allocation. These
 * tests exercise FrameBuffer against every chunking of a frame
 * stream, the corrupt-prefix latch, and writeFrame/readFrame over a
 * real pipe(2) pair — including the torn-final-frame case a dead
 * worker leaves behind.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <pthread.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dist/protocol.hh"
#include "dist/transport.hh"
#include "util/log.hh"

namespace mbusim::dist {
namespace {

/** Encode one frame the way writeFrame does, into a byte string. */
std::string
encode(const std::string& payload)
{
    uint32_t n = static_cast<uint32_t>(payload.size());
    char prefix[4] = {static_cast<char>(n & 0xff),
                      static_cast<char>((n >> 8) & 0xff),
                      static_cast<char>((n >> 16) & 0xff),
                      static_cast<char>((n >> 24) & 0xff)};
    return std::string(prefix, 4) + payload;
}

TEST(FrameBufferTest, RoundTripsWholeFrames)
{
    FrameBuffer fb;
    std::string wire = encode("hello 42") + encode("") + encode("hb");
    fb.feed(wire.data(), wire.size());

    std::string payload;
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "hello 42");
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "");
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "hb");
    EXPECT_FALSE(fb.next(payload));
    EXPECT_FALSE(fb.corrupt());
}

TEST(FrameBufferTest, ReassemblesAcrossEveryChunking)
{
    // A pipe may deliver the stream split at any byte boundary,
    // including inside the length prefix. Every split point must
    // yield the same two frames.
    std::string wire = encode("rec 7 123 run 0 947 0") + encode("unit-done 7");
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameBuffer fb;
        fb.feed(wire.data(), cut);
        fb.feed(wire.data() + cut, wire.size() - cut);

        std::string payload;
        ASSERT_TRUE(fb.next(payload)) << "cut at " << cut;
        EXPECT_EQ(payload, "rec 7 123 run 0 947 0");
        ASSERT_TRUE(fb.next(payload)) << "cut at " << cut;
        EXPECT_EQ(payload, "unit-done 7");
        EXPECT_FALSE(fb.next(payload));
    }
}

TEST(FrameBufferTest, ByteAtATime)
{
    std::string wire = encode("log W something broke");
    FrameBuffer fb;
    std::string payload;
    for (size_t i = 0; i < wire.size(); ++i) {
        EXPECT_FALSE(fb.next(payload)) << "premature frame at byte " << i;
        fb.feed(wire.data() + i, 1);
    }
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "log W something broke");
}

TEST(FrameBufferTest, TornFinalFrameStaysBuffered)
{
    // A worker SIGKILLed mid-write leaves a short final frame. The
    // buffer must hold it without emitting garbage and without
    // marking the stream corrupt (the bytes are valid, just
    // incomplete).
    std::string wire = encode("hello 99") + encode("rec 1 55 run ...");
    FrameBuffer fb;
    fb.feed(wire.data(), wire.size() - 5);

    std::string payload;
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "hello 99");
    EXPECT_FALSE(fb.next(payload));
    EXPECT_FALSE(fb.corrupt());
}

TEST(FrameBufferTest, OversizedPrefixPoisonsStream)
{
    // 0xFFFFFFFF as a length prefix means the stream is garbage;
    // next() must refuse it forever rather than try to buffer 4 GiB.
    FrameBuffer fb;
    std::string good = encode("hb");
    char bad[4] = {'\xff', '\xff', '\xff', '\xff'};
    fb.feed(good.data(), good.size());
    fb.feed(bad, 4);
    fb.feed(good.data(), good.size());

    std::string payload;
    ASSERT_TRUE(fb.next(payload));
    EXPECT_EQ(payload, "hb");
    EXPECT_FALSE(fb.next(payload));
    EXPECT_TRUE(fb.corrupt());
    EXPECT_FALSE(fb.next(payload));
}

TEST(FrameBufferTest, MaxSizeFrameIsAcceptedJustOverIsNot)
{
    {
        FrameBuffer fb;
        std::string wire = encode(std::string(MaxFrameBytes, 'x'));
        fb.feed(wire.data(), wire.size());
        std::string payload;
        ASSERT_TRUE(fb.next(payload));
        EXPECT_EQ(payload.size(), MaxFrameBytes);
        EXPECT_FALSE(fb.corrupt());
    }
    {
        FrameBuffer fb;
        uint32_t n = MaxFrameBytes + 1;
        char prefix[4];
        std::memcpy(prefix, &n, 4);
        fb.feed(prefix, 4);
        std::string payload;
        EXPECT_FALSE(fb.next(payload));
        EXPECT_TRUE(fb.corrupt());
    }
}

/** RAII pipe pair for the blocking read/write tests. */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    void
    closeRead()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void
    closeWrite()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

TEST(FrameIoTest, WriteThenReadOverPipe)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.fds[1], "work 3 stringsearch l1d 2 2 0 1"));
    ASSERT_TRUE(writeFrame(p.fds[1], "shutdown"));

    std::string payload;
    ASSERT_EQ(readFrame(p.fds[0], payload), 1);
    EXPECT_EQ(payload, "work 3 stringsearch l1d 2 2 0 1");
    ASSERT_EQ(readFrame(p.fds[0], payload), 1);
    EXPECT_EQ(payload, "shutdown");
}

TEST(FrameIoTest, CleanEofAtFrameBoundaryReturnsZero)
{
    Pipe p;
    ASSERT_TRUE(writeFrame(p.fds[1], "hb"));
    p.closeWrite();

    std::string payload;
    ASSERT_EQ(readFrame(p.fds[0], payload), 1);
    EXPECT_EQ(payload, "hb");
    EXPECT_EQ(readFrame(p.fds[0], payload), 0);
}

TEST(FrameIoTest, TornFrameAtEofIsAnError)
{
    Pipe p;
    std::string wire = encode("rec 1 55 run 0 947 0");
    ASSERT_EQ(::write(p.fds[1], wire.data(), wire.size() - 3),
              static_cast<ssize_t>(wire.size() - 3));
    p.closeWrite();

    std::string payload;
    EXPECT_EQ(readFrame(p.fds[0], payload), -1);
}

TEST(FrameIoTest, WriteToClosedPipeFailsWithoutSignal)
{
    // The worker ignores SIGPIPE and relies on writeFrame returning
    // false once the coordinator is gone.
    ::signal(SIGPIPE, SIG_IGN);
    Pipe p;
    p.closeRead();
    EXPECT_FALSE(writeFrame(p.fds[1], "hb"));
}

// ---------------------------------------------------------------------
// EINTR semantics. A worker blocked between frames must pop out of
// readFrame when a termination signal lands (so SIGTERM works), but a
// signal landing mid-frame — the heartbeat thread exiting, a SIGCHLD,
// a profiler tick — must not tear the frame.

namespace {

void
noopHandler(int)
{
}

/** Install @p sig with a no-op handler and no SA_RESTART, so blocked
 *  reads really do return EINTR. */
void
installInterrupting(int sig)
{
    struct sigaction sa = {};
    sa.sa_handler = noopHandler;
    sa.sa_flags = 0;   // no SA_RESTART on purpose
    ::sigaction(sig, &sa, nullptr);
}

} // namespace

TEST(FrameIoTest, SignalMidFrameIsAbsorbed)
{
    installInterrupting(SIGUSR1);
    Pipe p;
    const std::string wire = encode("rec 3 99 run 5 947 0");

    pthread_t reader = ::pthread_self();
    std::thread writer([&] {
        // First half of the frame (cutting inside the payload), then
        // a signal at the reader while it blocks mid-frame, then the
        // rest. readFrame must resume and deliver the whole frame.
        size_t half = wire.size() / 2;
        ASSERT_EQ(::write(p.fds[1], wire.data(), half),
                  static_cast<ssize_t>(half));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ::pthread_kill(reader, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ASSERT_EQ(::write(p.fds[1], wire.data() + half,
                          wire.size() - half),
                  static_cast<ssize_t>(wire.size() - half));
    });
    std::string payload;
    EXPECT_EQ(readFrame(p.fds[0], payload), 1);
    EXPECT_EQ(payload, "rec 3 99 run 5 947 0");
    writer.join();
}

TEST(FrameIoTest, SignalBetweenFramesInterruptsTheRead)
{
    installInterrupting(SIGUSR1);
    Pipe p;

    pthread_t reader = ::pthread_self();
    std::thread interrupter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ::pthread_kill(reader, SIGUSR1);
    });
    // Nothing written: the read blocks before the first byte of any
    // frame, where a signal must pop it out with -1 (the worker then
    // checks its interrupt flag).
    std::string payload;
    EXPECT_EQ(readFrame(p.fds[0], payload), -1);
    interrupter.join();
}

// ---------------------------------------------------------------------
// Hostile frames. Remote workers take these off a TCP socket, so
// every parser must reject adversarial bytes outright — a malformed
// unit descriptor must never become an injection.

TEST(WorkFrameTest, RoundTrips)
{
    WorkFrame in;
    in.unit = 42;
    in.workload = "stringsearch";
    in.component = "l1d";
    in.faults = 2;
    in.goldenKey = "g0123456789abcdef-fedcba9876543210";
    in.indices = {0, 7, 193};

    WorkFrame out;
    ASSERT_TRUE(parseWorkFrame(buildWorkFrame(in), out));
    EXPECT_EQ(out.unit, 42);
    EXPECT_EQ(out.workload, "stringsearch");
    EXPECT_EQ(out.component, "l1d");
    EXPECT_EQ(out.faults, 2u);
    EXPECT_EQ(out.goldenKey, in.goldenKey);
    EXPECT_EQ(out.indices, in.indices);
}

TEST(WorkFrameTest, RejectsHostileVariants)
{
    WorkFrame out;
    // The shapes a corrupted or adversarial stream produces: the
    // strict parsers must reject each one rather than guess.
    const char* hostile[] = {
        "",
        "work",
        "work x stringsearch l1d 2 - 1 0",       // non-numeric unit
        "work -1 stringsearch l1d 2 - 1 0",      // negative unit
        "work 1 stringsearch l1d x - 1 0",       // non-numeric faults
        "work 1 stringsearch l1d 2 - 2 0",       // truncated index list
        "work 1 stringsearch l1d 2 - 1 0 7",     // extra index
        "work 1 stringsearch l1d 2 - 1 0 junk",  // trailing garbage
        "work 1 stringsearch l1d 2 - 1 99999999999",     // index overflow
        "work 1 stringsearch l1d 18446744073709551617 - 1 0",
        "work 1 str/../../etc l1d 2 - 1 0",      // hostile name bytes
        "work 1 stringsearch l1d 2 - 4294967295 0",      // absurd count
        "worm 1 stringsearch l1d 2 - 1 0",       // wrong tag
    };
    for (const char* payload : hostile)
        EXPECT_FALSE(parseWorkFrame(payload, out)) << payload;
}

TEST(CfgFrameTest, RoundTripsWithEnvKnobs)
{
    CfgFrame in;
    in.injections = 77;
    in.seed = 0xdeadbeefcafe;
    in.clusterRows = 2;
    in.clusterCols = 5;
    in.timeoutFactor = 9;
    in.inOrder = true;
    in.heartbeatMs = 1234;
    in.shipGolden = false;
    in.env.emplace_back("MBUSIM_CHECKPOINTS", "16");
    in.env.emplace_back("MBUSIM_EARLY_EXIT", "0");

    CfgFrame out;
    ASSERT_TRUE(parseCfgFrame(buildCfgFrame(in), out));
    EXPECT_EQ(out.injections, 77u);
    EXPECT_EQ(out.seed, 0xdeadbeefcafeull);
    EXPECT_EQ(out.clusterRows, 2u);
    EXPECT_EQ(out.clusterCols, 5u);
    EXPECT_EQ(out.timeoutFactor, 9u);
    EXPECT_TRUE(out.inOrder);
    EXPECT_EQ(out.heartbeatMs, 1234u);
    EXPECT_FALSE(out.shipGolden);
    ASSERT_EQ(out.env.size(), 2u);
    EXPECT_EQ(out.env[0].first, "MBUSIM_CHECKPOINTS");
    EXPECT_EQ(out.env[0].second, "16");
}

TEST(CfgFrameTest, RejectsHostileVariants)
{
    CfgFrame out;
    const char* hostile[] = {
        "",
        "cfg",
        "cfg injections=abc seed=1 cluster=3x3 timeout=4 inorder=0 "
        "hb=0 ship=1",
        "cfg injections=4 seed=99999999999999999999 cluster=3x3 "
        "timeout=4 inorder=0 hb=0 ship=1",       // seed overflow
        "cfg injections=4 seed=1 cluster=3y3 timeout=4 inorder=0 "
        "hb=0 ship=1",                           // bad cluster shape
        "cfg injections=4 seed=1 cluster=3x3 timeout=4 inorder=2 "
        "hb=0 ship=1",                           // non-bool flag
        "cfg injections=4 seed=1 cluster=3x3 timeout=4 inorder=0 "
        "hb=0 ship=1 e:PATH=/tmp/evil",          // non-forwardable knob
        "cfg injections=4 seed=1 cluster=3x3 timeout=4 inorder=0 "
        "hb=0 ship=1 e:MBUSIM_CHECKPOINTS=$(rm)", // non-numeric value
        "cfg injections=4 seed=1 cluster=3x3 timeout=4 inorder=0 "
        "hb=0 ship=1 e:MBUSIM_" "LOCKSTEP=0",     // retired knob
        "cfg injections=4 seed=1 cluster=3x3 timeout=4 inorder=0 "
        "hb=0 ship=1 garbage",                   // not k=v
    };
    for (const char* payload : hostile)
        EXPECT_FALSE(parseCfgFrame(payload, out)) << payload;
}

TEST(ArtFrameTest, RoundTripsRawBytes)
{
    ArtFrame in;
    in.key = "g0123456789abcdef-fedcba9876543210";
    in.total = 1000;
    in.offset = 200;
    in.chunk = std::string("\x00\xff binary \n bytes", 18);

    ArtFrame out;
    ASSERT_TRUE(parseArtFrame(buildArtFrame(in), out));
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.total, 1000u);
    EXPECT_EQ(out.offset, 200u);
    EXPECT_EQ(out.chunk, in.chunk);
}

TEST(ArtFrameTest, RejectsOversizedAndOverrunningTransfers)
{
    ArtFrame out;
    // A hostile total must be refused before any buffering happens —
    // the worker sizes its receive buffer from this field.
    EXPECT_FALSE(parseArtFrame(
        strprintf("art k %llu 0 -",
                  static_cast<unsigned long long>(MaxArtifactBytes +
                                                  1)),
        out));
    EXPECT_FALSE(parseArtFrame("art k 18446744073709551615 0 -", out));
    // Chunk overrunning the declared total.
    ArtFrame in;
    in.key = "k";
    in.total = 4;
    in.offset = 2;
    in.chunk = "abcdef";
    EXPECT_FALSE(parseArtFrame(buildArtFrame(in), out));
    // Bad base64 payloads.
    EXPECT_FALSE(parseArtFrame("art k 8 0 a===", out));
    EXPECT_FALSE(parseArtFrame("art k 8 0 ab!d", out));
    EXPECT_FALSE(parseArtFrame("art k 8 0 abc", out));
}

TEST(Base64Test, RoundTripsAndRejectsGarbage)
{
    for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(3),
                     size_t(57), size_t(256)}) {
        std::string data;
        for (size_t i = 0; i < n; ++i)
            data.push_back(static_cast<char>(i * 37 + 5));
        std::string out;
        ASSERT_TRUE(b64Decode(b64Encode(data), out)) << n;
        EXPECT_EQ(out, data) << n;
    }
    std::string out;
    EXPECT_FALSE(b64Decode("a", out));       // impossible length
    EXPECT_FALSE(b64Decode("====", out));    // padding only
    EXPECT_FALSE(b64Decode("ab=c", out));    // data after padding
    EXPECT_FALSE(b64Decode("ab\ncd==", out)); // whitespace
}

// ---------------------------------------------------------------------
// The same frames over a real TCP socket (transport.hh): the kernel
// may deliver any byte-split, so a frame written in adversarially
// small pieces must still reassemble on the far side.

TEST(TcpTransportTest, FramesSurviveByteSplitOverLoopback)
{
    uint16_t port = 0;
    int listen_fd = tcpListen(0, port);
    ASSERT_GE(listen_fd, 0);
    ASSERT_GT(port, 0);

    std::thread client([&] {
        int fd = tcpConnect("127.0.0.1", port, 5000);
        ASSERT_GE(fd, 0);
        // Two frames dribbled out a few bytes per send (TCP_NODELAY
        // is set, so these really do hit the wire as tiny segments).
        std::string wire =
            encode("work 3 stringsearch l1d 2 - 2 0 1") + encode("shutdown");
        for (size_t i = 0; i < wire.size(); i += 3) {
            size_t n = std::min<size_t>(3, wire.size() - i);
            ASSERT_EQ(::write(fd, wire.data() + i, n),
                      static_cast<ssize_t>(n));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // And one frame via the production writer for the reply path.
        std::string payload;
        ASSERT_EQ(readFrame(fd, payload), 1);
        EXPECT_EQ(payload, "unit-done 3");
        ::close(fd);
    });

    int server_fd = tcpAccept(listen_fd);
    ASSERT_GE(server_fd, 0);
    std::string payload;
    ASSERT_EQ(readFrame(server_fd, payload), 1);
    EXPECT_EQ(payload, "work 3 stringsearch l1d 2 - 2 0 1");
    WorkFrame frame;
    ASSERT_TRUE(parseWorkFrame(payload, frame));
    EXPECT_EQ(frame.indices, (std::vector<uint32_t>{0, 1}));
    ASSERT_EQ(readFrame(server_fd, payload), 1);
    EXPECT_EQ(payload, "shutdown");
    ASSERT_TRUE(writeFrame(server_fd, "unit-done 3"));
    client.join();
    ::close(server_fd);
    ::close(listen_fd);
}

TEST(TcpTransportTest, HostPortParsingIsStrict)
{
    HostSpec out;
    EXPECT_TRUE(parseHostPort("node1:9000", out));
    EXPECT_EQ(out.host, "node1");
    EXPECT_EQ(out.port, 9000);
    EXPECT_TRUE(parseHostPort("10.0.0.2:1", out));

    const char* bad[] = {"", "node1", ":9000", "node1:", "node1:0",
                         "node1:65536", "node1:90x0", "node1:-1"};
    for (const char* spec : bad)
        EXPECT_FALSE(parseHostPort(spec, out)) << spec;
}

} // namespace
} // namespace mbusim::dist
