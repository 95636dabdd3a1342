#include "dist/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <sstream>

#include <poll.h>
#include <unistd.h>

#include "util/log.hh"
#include "util/parse.hh"

namespace mbusim::dist {

namespace {

/**
 * Write all of @p len bytes, absorbing EINTR, short writes and — for
 * nonblocking sockets (the coordinator's remote worker fds) — EAGAIN,
 * by polling for writability. The poll is bounded so a peer that
 * stops reading forever cannot wedge the coordinator; on timeout the
 * write fails and the caller treats the peer as gone.
 */
bool
writeAll(int fd, const char* data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                pollfd pfd = {fd, POLLOUT, 0};
                if (::poll(&pfd, 1, 10000) == 1)
                    continue;
                return false;
            }
            return false;
        }
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

/**
 * Read exactly @p len bytes. Returns 1 on success, 0 on EOF before
 * the first byte, -1 on error or EOF mid-buffer. EINTR before the
 * first byte is an error when @p interruptible: the worker blocks
 * there between frames, and a termination signal must pop it out of
 * the read so it can exit gracefully. EINTR after the first byte is
 * always absorbed — the frame has started, and abandoning it would
 * misreport a healthy stream as torn.
 */
int
readAll(int fd, char* data, size_t len, bool interruptible)
{
    size_t got = 0;
    while (got < len) {
        ssize_t n = ::read(fd, data + got, len - got);
        if (n < 0) {
            if (errno == EINTR && !(interruptible && got == 0))
                continue;
            return -1;
        }
        if (n == 0)
            return got == 0 ? 0 : -1;
        got += static_cast<size_t>(n);
    }
    return 1;
}

/** Whitespace tokenizer with strict numeric extraction. */
struct TokenReader
{
    std::istringstream in;
    explicit TokenReader(const std::string& text) : in(text) {}

    bool word(std::string& out) { return !!(in >> out); }

    bool u64(uint64_t max, uint64_t& out)
    {
        std::string token;
        return word(token) && parseU64(token, max, out);
    }

    bool u32(uint32_t max, uint32_t& out)
    {
        uint64_t wide = 0;
        if (!u64(max, wide))
            return false;
        out = static_cast<uint32_t>(wide);
        return true;
    }

    bool atEnd()
    {
        std::string extra;
        return !(in >> extra);
    }
};

/** Identifier fields (workload names, golden keys) must be printable
 *  and shell-safe; anything else is a corrupted frame. */
bool
plainToken(const std::string& token)
{
    if (token.empty() || token.size() > 128)
        return false;
    for (char c : token) {
        if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' ||
              c == '.'))
            return false;
    }
    return true;
}

bool
knownComponent(const std::string& name)
{
    for (core::Component c : core::AllComponents) {
        if (name == core::componentShortName(c))
            return true;
    }
    return false;
}

const char B64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

} // namespace

bool
writeFrame(int fd, const std::string& payload)
{
    if (payload.size() > MaxFrameBytes)
        return false;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    char prefix[4] = {
        static_cast<char>(len & 0xff),
        static_cast<char>((len >> 8) & 0xff),
        static_cast<char>((len >> 16) & 0xff),
        static_cast<char>((len >> 24) & 0xff),
    };
    // One buffer, one write: frames from the worker's heartbeat thread
    // and its run observer must not interleave prefix/payload bytes.
    std::string frame;
    frame.reserve(sizeof(prefix) + payload.size());
    frame.append(prefix, sizeof(prefix));
    frame.append(payload);
    return writeAll(fd, frame.data(), frame.size());
}

int
readFrame(int fd, std::string& payload)
{
    char prefix[4];
    int rc = readAll(fd, prefix, sizeof(prefix), true);
    if (rc <= 0)
        return rc;
    const uint32_t len = static_cast<uint32_t>(
                             static_cast<unsigned char>(prefix[0])) |
                         (static_cast<uint32_t>(static_cast<unsigned char>(
                              prefix[1]))
                          << 8) |
                         (static_cast<uint32_t>(static_cast<unsigned char>(
                              prefix[2]))
                          << 16) |
                         (static_cast<uint32_t>(static_cast<unsigned char>(
                              prefix[3]))
                          << 24);
    if (len > MaxFrameBytes)
        return -1;
    payload.resize(len);
    if (len == 0)
        return 1;
    return readAll(fd, payload.data(), len, false) == 1 ? 1 : -1;
}

void
FrameBuffer::feed(const char* data, size_t len)
{
    if (!corrupt_)
        buffer_.append(data, len);
}

bool
FrameBuffer::next(std::string& payload)
{
    if (corrupt_ || buffer_.size() < 4)
        return false;
    const uint32_t len =
        static_cast<uint32_t>(static_cast<unsigned char>(buffer_[0])) |
        (static_cast<uint32_t>(static_cast<unsigned char>(buffer_[1]))
         << 8) |
        (static_cast<uint32_t>(static_cast<unsigned char>(buffer_[2]))
         << 16) |
        (static_cast<uint32_t>(static_cast<unsigned char>(buffer_[3]))
         << 24);
    if (len > MaxFrameBytes) {
        corrupt_ = true;
        return false;
    }
    if (buffer_.size() < 4 + static_cast<size_t>(len))
        return false;
    payload.assign(buffer_, 4, len);
    buffer_.erase(0, 4 + static_cast<size_t>(len));
    return true;
}

std::string
b64Encode(const std::string& data)
{
    std::string out;
    out.reserve((data.size() + 2) / 3 * 4);
    size_t i = 0;
    for (; i + 3 <= data.size(); i += 3) {
        const uint32_t v =
            (static_cast<uint32_t>(static_cast<uint8_t>(data[i]))
             << 16) |
            (static_cast<uint32_t>(static_cast<uint8_t>(data[i + 1]))
             << 8) |
            static_cast<uint32_t>(static_cast<uint8_t>(data[i + 2]));
        out += B64Alphabet[(v >> 18) & 63];
        out += B64Alphabet[(v >> 12) & 63];
        out += B64Alphabet[(v >> 6) & 63];
        out += B64Alphabet[v & 63];
    }
    const size_t rest = data.size() - i;
    if (rest == 1) {
        const uint32_t v =
            static_cast<uint32_t>(static_cast<uint8_t>(data[i]))
            << 16;
        out += B64Alphabet[(v >> 18) & 63];
        out += B64Alphabet[(v >> 12) & 63];
        out += "==";
    } else if (rest == 2) {
        const uint32_t v =
            (static_cast<uint32_t>(static_cast<uint8_t>(data[i]))
             << 16) |
            (static_cast<uint32_t>(static_cast<uint8_t>(data[i + 1]))
             << 8);
        out += B64Alphabet[(v >> 18) & 63];
        out += B64Alphabet[(v >> 12) & 63];
        out += B64Alphabet[(v >> 6) & 63];
        out += '=';
    }
    return out;
}

bool
b64Decode(const std::string& text, std::string& out)
{
    if (text.size() % 4 != 0)
        return false;
    auto value = [](char c) -> int {
        if (c >= 'A' && c <= 'Z')
            return c - 'A';
        if (c >= 'a' && c <= 'z')
            return c - 'a' + 26;
        if (c >= '0' && c <= '9')
            return c - '0' + 52;
        if (c == '+')
            return 62;
        if (c == '/')
            return 63;
        return -1;
    };
    out.clear();
    out.reserve(text.size() / 4 * 3);
    for (size_t i = 0; i < text.size(); i += 4) {
        const bool last = i + 4 == text.size();
        int pad = 0;
        int v[4];
        for (int j = 0; j < 4; ++j) {
            const char c = text[i + j];
            if (c == '=') {
                // Padding only in the last group's tail positions.
                if (!last || j < 2)
                    return false;
                ++pad;
                v[j] = 0;
                continue;
            }
            if (pad > 0)
                return false;   // data after '='
            v[j] = value(c);
            if (v[j] < 0)
                return false;
        }
        const uint32_t bits = (static_cast<uint32_t>(v[0]) << 18) |
                              (static_cast<uint32_t>(v[1]) << 12) |
                              (static_cast<uint32_t>(v[2]) << 6) |
                              static_cast<uint32_t>(v[3]);
        out += static_cast<char>((bits >> 16) & 0xff);
        if (pad < 2)
            out += static_cast<char>((bits >> 8) & 0xff);
        if (pad < 1)
            out += static_cast<char>(bits & 0xff);
        // Non-canonical tails ("xx==" with stray low bits) decode the
        // same bytes either way; accept them.
    }
    return true;
}

std::string
buildWorkFrame(const WorkFrame& frame)
{
    std::string out = strprintf(
        "work %lld %s %s %zu", static_cast<long long>(frame.unit),
        frame.workload.c_str(),
        frame.goldenKey.empty() ? "-" : frame.goldenKey.c_str(),
        frame.riders.size());
    for (const WorkRider& rider : frame.riders) {
        out += strprintf(" %s %u %zu", rider.component.c_str(),
                         rider.faults, rider.indices.size());
        for (uint32_t index : rider.indices)
            out += strprintf(" %u", index);
    }
    return out;
}

bool
parseWorkFrame(const std::string& payload, WorkFrame& out)
{
    TokenReader t(payload);
    std::string tag;
    uint64_t unit = 0, riders = 0;
    if (!t.word(tag) || tag != "work" ||
        !t.u64(INT64_MAX, unit) ||
        !t.word(out.workload) || !plainToken(out.workload) ||
        !t.word(out.goldenKey) || !plainToken(out.goldenKey) ||
        !t.u64(MaxFrameBytes, riders) || riders == 0)
        return false;
    out.unit = static_cast<int64_t>(unit);
    out.riders.clear();
    // Counts only bound loops, never allocations: a hostile count runs
    // out of tokens and is rejected before it can cost memory.
    std::set<std::pair<std::string, uint32_t>> cells;
    for (uint64_t r = 0; r < riders; ++r) {
        WorkRider rider;
        uint64_t count = 0;
        if (!t.word(rider.component) || !knownComponent(rider.component) ||
            !t.u32(UINT32_MAX, rider.faults) ||
            !t.u64(MaxFrameBytes, count) ||
            !cells.emplace(rider.component, rider.faults).second)
            return false;
        for (uint64_t i = 0; i < count; ++i) {
            uint32_t index = 0;
            if (!t.u32(UINT32_MAX, index))
                return false;
            rider.indices.push_back(index);
        }
        out.riders.push_back(std::move(rider));
    }
    return t.atEnd();
}

std::string
buildRecFrame(const RecFrame& frame)
{
    return strprintf("rec %lld %u %llu %s",
                     static_cast<long long>(frame.unit), frame.rider,
                     static_cast<unsigned long long>(frame.wallMicros),
                     core::serializeRunRecord(frame.record).c_str());
}

bool
parseRecFrame(const std::string& payload, size_t riders, RecFrame& out)
{
    TokenReader t(payload);
    std::string tag, rest;
    uint64_t unit = 0;
    if (!t.word(tag) || tag != "rec" || !t.u64(INT64_MAX, unit) ||
        !t.u32(UINT32_MAX, out.rider) || out.rider >= riders ||
        !t.u64(UINT64_MAX, out.wallMicros) ||
        !std::getline(t.in, rest) || rest.empty() || rest.front() != ' ' ||
        !core::parseRunRecord(rest.substr(1), out.record))
        return false;
    out.unit = static_cast<int64_t>(unit);
    out.record.wallMicros = out.wallMicros;
    return true;
}

const std::vector<std::string>&
forwardedEnvKnobs()
{
    static const std::vector<std::string> knobs = {
        "MBUSIM_CHECKPOINTS",    "MBUSIM_EARLY_EXIT",
        "MBUSIM_DIGEST_POINTS",  "MBUSIM_COHORT",
        "MBUSIM_DELTA_SNAPSHOTS", "MBUSIM_DECODE_CACHE",
    };
    return knobs;
}

std::string
buildCfgFrame(const CfgFrame& frame)
{
    std::string out = strprintf(
        "cfg injections=%u seed=%llu cluster=%ux%u timeout=%u "
        "inorder=%u hb=%u ship=%u",
        frame.injections,
        static_cast<unsigned long long>(frame.seed),
        frame.clusterRows, frame.clusterCols, frame.timeoutFactor,
        frame.inOrder ? 1 : 0, frame.heartbeatMs,
        frame.shipGolden ? 1 : 0);
    for (const auto& [name, value] : frame.env)
        out += strprintf(" e:%s=%s", name.c_str(), value.c_str());
    return out;
}

bool
parseCfgFrame(const std::string& payload, CfgFrame& out)
{
    TokenReader t(payload);
    std::string tag;
    if (!t.word(tag) || tag != "cfg")
        return false;
    out.env.clear();
    auto boolField = [&](const std::string& value, bool& field) {
        uint32_t v = 0;
        if (!parseU32(value, 1, v))
            return false;
        field = v != 0;
        return true;
    };
    // The campaign-parameter fields are mandatory: a frame missing
    // one would leave the worker on a built-in default the
    // coordinator never chose, which is exactly the silent skew the
    // golden key exists to prevent.
    uint32_t seen = 0;
    std::string token;
    while (t.word(token)) {
        const size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "injections") {
            seen |= 1u << 0;
            if (!parseU32(value, UINT32_MAX, out.injections))
                return false;
        } else if (key == "seed") {
            seen |= 1u << 1;
            if (!parseU64(value, UINT64_MAX, out.seed))
                return false;
        } else if (key == "cluster") {
            seen |= 1u << 2;
            const size_t x = value.find('x');
            if (x == std::string::npos ||
                !parseU32(value.substr(0, x), UINT32_MAX,
                          out.clusterRows) ||
                !parseU32(value.substr(x + 1), UINT32_MAX,
                          out.clusterCols) ||
                out.clusterRows == 0 || out.clusterCols == 0)
                return false;
        } else if (key == "timeout") {
            seen |= 1u << 3;
            if (!parseU32(value, UINT32_MAX, out.timeoutFactor))
                return false;
        } else if (key == "inorder") {
            seen |= 1u << 4;
            if (!boolField(value, out.inOrder))
                return false;
        } else if (key == "hb") {
            seen |= 1u << 5;
            if (!parseU32(value, UINT32_MAX, out.heartbeatMs))
                return false;
        } else if (key == "ship") {
            seen |= 1u << 6;
            if (!boolField(value, out.shipGolden))
                return false;
        } else if (key.rfind("e:", 0) == 0) {
            // Forwarded env knobs: known names, numeric values only —
            // a cfg frame must never become an arbitrary-setenv
            // primitive.
            const std::string name = key.substr(2);
            const auto& knobs = forwardedEnvKnobs();
            uint64_t numeric = 0;
            if (std::find(knobs.begin(), knobs.end(), name) ==
                    knobs.end() ||
                !parseU64(value, UINT64_MAX, numeric))
                return false;
            out.env.emplace_back(name, value);
        } else {
            return false;
        }
    }
    return seen == 0x7f;
}

std::string
buildArtFrame(const ArtFrame& frame)
{
    return strprintf("art %s %llu %llu %s", frame.key.c_str(),
                     static_cast<unsigned long long>(frame.total),
                     static_cast<unsigned long long>(frame.offset),
                     frame.chunk.empty()
                         ? "-"
                         : b64Encode(frame.chunk).c_str());
}

bool
parseArtFrame(const std::string& payload, ArtFrame& out)
{
    TokenReader t(payload);
    std::string tag, b64;
    if (!t.word(tag) || tag != "art" ||
        !t.word(out.key) || !plainToken(out.key) ||
        !t.u64(MaxArtifactBytes, out.total) ||
        !t.u64(MaxArtifactBytes, out.offset) ||
        !t.word(b64) || !t.atEnd())
        return false;
    if (b64 == "-")
        out.chunk.clear();
    else if (!b64Decode(b64, out.chunk))
        return false;
    if (out.chunk.size() > ArtChunkBytes)
        return false;
    // The chunk must land inside the declared total, exactly.
    if (out.offset > out.total ||
        out.chunk.size() > out.total - out.offset)
        return false;
    return true;
}

} // namespace mbusim::dist
