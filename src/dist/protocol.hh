/**
 * @file
 * Wire protocol between the sweep coordinator and its workers
 * (DESIGN.md §14, §17).
 *
 * Frames are a 4-byte little-endian payload length followed by the
 * payload bytes; payloads are single-line text messages so the
 * protocol can be read in a debugger and unit-tested without a
 * process pair. The length prefix makes torn streams detectable: a
 * worker SIGKILLed mid-write leaves a short final frame that the
 * coordinator discards instead of misparsing. The same frames ride
 * pipes (local workers, fds 3/4) and TCP sockets (remote workers,
 * transport.hh); nothing on the wire is authenticated or encrypted,
 * so the protocol is for trusted networks only.
 *
 * Messages (coordinator -> worker):
 *   cfg <k=v ...>                        (campaign parameters, remote)
 *   work <unit> <workload> <gkey> <r> {<component> <faults> <n> <i0> ...}xr
 *                                        (one fused sweep unit: r riders,
 *                                        one per cell, one golden cursor)
 *   art <key> <total> <offset> <b64|->   (golden blob chunk)
 *   art-miss <key>                       (no blob for that key)
 *   shutdown
 *
 * Messages (worker -> coordinator):
 *   hello <pid>
 *   need <key>                           (request the golden blob)
 *   bad-golden <unit> <have> <want>      (golden key mismatch)
 *   rec <unit> <rider> <wall_us> run <index> ...
 *                                        (serializeRunRecord payload of
 *                                        the unit's rider'th cell)
 *   unit-done <unit>
 *   log <W|I> <text>
 *   hb
 *
 * Every worker->coordinator frame renews the worker's lease; `hb` is
 * sent by a worker-side heartbeat thread so a long run does not look
 * like a hang. All numeric fields parse strictly (util/parse.hh): a
 * malformed field rejects the whole frame rather than running a
 * wrong-but-plausible injection.
 */

#ifndef MBUSIM_DIST_PROTOCOL_HH
#define MBUSIM_DIST_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hh"

namespace mbusim::dist {

/**
 * Hard ceiling on one frame's payload. The largest legitimate frame
 * is a work unit listing a few thousand run indices across its riders
 * or one golden blob chunk; anything bigger means a corrupted length prefix, and
 * reading it would ask the coordinator to allocate garbage gigabytes.
 */
constexpr uint32_t MaxFrameBytes = 1u << 20;

/** Ceiling on a whole golden-artifact blob (`art` frames' total).
 *  Legitimate blobs are a few KiB; this bounds what a worker will
 *  ever buffer for one transfer. */
constexpr uint64_t MaxArtifactBytes = 16u << 20;

/** Raw bytes per `art` chunk; base64 inflation keeps the frame under
 *  MaxFrameBytes with room for the header fields. */
constexpr size_t ArtChunkBytes = 512u << 10;

/**
 * Write one length-prefixed frame to @p fd, retrying short writes,
 * EINTR and (for nonblocking sockets) EAGAIN via poll. Returns false
 * on any other error (EPIPE/ECONNRESET once the peer is dead);
 * callers treat that as the peer being gone, never as fatal.
 */
bool writeFrame(int fd, const std::string& payload);

/**
 * Blocking read of one frame from @p fd. Returns 1 on a frame, 0 on
 * clean EOF at a frame boundary, -1 on error, torn trailing data or
 * an oversized length prefix. EINTR before the first byte of a frame
 * returns -1 — a termination signal must be able to pop the worker
 * out of its between-frames read — but EINTR after a frame has
 * started (mid-prefix or mid-payload) is absorbed and the read
 * resumes: a signal landing mid-frame is not a torn frame.
 */
int readFrame(int fd, std::string& payload);

/**
 * Incremental frame decoder for the coordinator's non-blocking reads:
 * feed() whatever read(2) returned, then drain complete frames with
 * next(). Bytes of a partial frame are buffered until the rest
 * arrives; a worker that dies mid-frame simply leaves them unclaimed.
 */
class FrameBuffer
{
  public:
    /** Append @p len raw bytes from the pipe. */
    void feed(const char* data, size_t len);

    /**
     * Pop the next complete frame into @p payload. Returns false when
     * no complete frame is buffered. An oversized length prefix marks
     * the stream corrupt: next() then returns false forever.
     */
    bool next(std::string& payload);

    /** True once an oversized length prefix poisoned the stream. */
    bool corrupt() const { return corrupt_; }

  private:
    std::string buffer_;
    bool corrupt_ = false;
};

/** Strict base64 (RFC 4648, padded). decode rejects any non-alphabet
 *  byte, bad length or misplaced padding. */
std::string b64Encode(const std::string& data);
bool b64Decode(const std::string& text, std::string& out);

/** One cell's runs inside a work unit. */
struct WorkRider
{
    std::string component;
    uint32_t faults = 0;
    std::vector<uint32_t> indices;
};

/**
 * One work unit as framed on the wire: a fused sweep unit
 * (core::fuseSweepUnits) — one program, one checkpoint interval, one
 * rider per cell — that the worker runs on a single lockstep golden
 * cursor.
 */
struct WorkFrame
{
    int64_t unit = -1;
    std::string workload;
    /** Golden-wire key the worker must verify ("-" = unchecked). */
    std::string goldenKey;
    std::vector<WorkRider> riders;
};

std::string buildWorkFrame(const WorkFrame& frame);

/**
 * Parse a `work` frame strictly: every field numeric where expected,
 * at least one rider, the rider count and every index count matching
 * the payload exactly, every component a known short name, no two
 * riders naming the same (component, faults) cell, no trailing
 * garbage. Returns false without running anything on any deviation —
 * a malformed unit descriptor must never become an injection.
 */
bool parseWorkFrame(const std::string& payload, WorkFrame& out);

/** One streamed run record, tagged with the rider (cell) it belongs
 *  to within the leased unit. */
struct RecFrame
{
    int64_t unit = -1;
    uint32_t rider = 0;
    uint64_t wallMicros = 0;
    core::RunRecord record;
};

std::string buildRecFrame(const RecFrame& frame);

/**
 * Parse a `rec` frame strictly against a leased unit of @p riders
 * riders: the rider index must be in range and the run record must
 * parse (core::parseRunRecord). The coordinator drops a rejected
 * frame with a warning.
 */
bool parseRecFrame(const std::string& payload, size_t riders,
                   RecFrame& out);

/**
 * Campaign parameters for a remote worker, sent first on every
 * connection. Local workers get the same values via argv; remote
 * workers cannot, so the coordinator frames them — including the
 * MBUSIM_* environment knobs that change RunRecord fields (ladder
 * targets, early exit), which the worker applies to its own
 * environment before building any campaign.
 */
struct CfgFrame
{
    uint32_t injections = 200;
    uint64_t seed = 0x5eed;
    uint32_t clusterRows = 3;
    uint32_t clusterCols = 3;
    uint32_t timeoutFactor = 4;
    bool inOrder = false;
    uint32_t heartbeatMs = 0;
    /** Ship golden blobs (`need`/`art`) instead of key-verify only. */
    bool shipGolden = true;
    /** Forwarded MBUSIM_* knobs, name/value pairs. */
    std::vector<std::pair<std::string, std::string>> env;
};

std::string buildCfgFrame(const CfgFrame& frame);
bool parseCfgFrame(const std::string& payload, CfgFrame& out);

/**
 * The environment knobs a cfg frame forwards: everything a Campaign
 * constructor resolves that changes planned cohorts or RunRecord
 * fields. The worker clears all of these before applying the frame's
 * pairs, so an unset knob on the coordinator is unset on the worker.
 */
const std::vector<std::string>& forwardedEnvKnobs();

/** One chunk of a golden blob transfer. `chunk` holds raw bytes
 *  (base64 on the wire). */
struct ArtFrame
{
    std::string key;
    uint64_t total = 0;
    uint64_t offset = 0;
    std::string chunk;
};

std::string buildArtFrame(const ArtFrame& frame);

/**
 * Parse an `art` frame strictly. Rejects totals past
 * MaxArtifactBytes and chunks that overrun the declared total, so a
 * hostile stream cannot make the worker buffer unbounded garbage.
 */
bool parseArtFrame(const std::string& payload, ArtFrame& out);

} // namespace mbusim::dist

#endif // MBUSIM_DIST_PROTOCOL_HH
