#include "sim/bitarray.hh"

#include <algorithm>
#include <bit>

#include "util/log.hh"

namespace mbusim::sim {

BitArray::BitArray(uint32_t rows, uint32_t cols)
    : rows_(rows), cols_(cols), wordsPerRow_((cols + 63) / 64),
      words_(static_cast<size_t>(rows) * wordsPerRow_, 0)
{
    if (rows == 0 || cols == 0)
        panic("BitArray with zero dimension (%u x %u)", rows, cols);
}

void
BitArray::fieldViolation(uint32_t row, uint32_t col, uint32_t width) const
{
    panic("BitArray field [row %u, col %u, width %u] out of range "
          "(%u x %u)", row, col, width, rows_, cols_);
}

void
BitArray::setBit(uint32_t row, uint32_t col, bool value)
{
    checkField(row, col, 1);
    if (!tracked_.empty()) [[unlikely]]
        noteWrite(row, col, 1);
    dirty_ = true;
    uint64_t& w = words_[wordIndex(row, col)];
    uint64_t mask = 1ULL << (col % 64);
    w = value ? (w | mask) : (w & ~mask);
}

void
BitArray::flipBit(uint32_t row, uint32_t col)
{
    checkField(row, col, 1);
    dirty_ = true;
    words_[wordIndex(row, col)] ^= 1ULL << (col % 64);
}

void
BitArray::readBytes(uint32_t row, uint32_t col, uint32_t bytes,
                    uint8_t* out) const
{
    uint64_t width = static_cast<uint64_t>(bytes) * 8;
    checkSpan(row, col, width);
    if (!tracked_.empty()) [[unlikely]]
        noteRead(row, col, static_cast<uint32_t>(width));
    uint32_t b = 0;
    while (b < bytes) {
        uint32_t chunk = std::min(bytes - b, 8u);
        uint64_t value = extract(row, col + b * 8, chunk * 8);
        for (uint32_t i = 0; i < chunk; ++i)
            out[b + i] = static_cast<uint8_t>(value >> (i * 8));
        b += chunk;
    }
}

void
BitArray::writeBytes(uint32_t row, uint32_t col, uint32_t bytes,
                     const uint8_t* in)
{
    uint64_t width = static_cast<uint64_t>(bytes) * 8;
    checkSpan(row, col, width);
    if (!tracked_.empty()) [[unlikely]]
        noteWrite(row, col, static_cast<uint32_t>(width));
    dirty_ = true;
    uint32_t b = 0;
    while (b < bytes) {
        uint32_t chunk = std::min(bytes - b, 8u);
        uint64_t value = 0;
        for (uint32_t i = 0; i < chunk; ++i)
            value |= static_cast<uint64_t>(in[b + i]) << (i * 8);
        deposit(row, col + b * 8, chunk * 8, value);
        b += chunk;
    }
}

uint64_t
BitArray::fold(Snapshot& snapshot)
{
    if (!dirty_ && snapshot.words.size() == words_.size())
        return 0;
    snapshot.words = words_;
    dirty_ = false;
    return words_.size() * sizeof(uint64_t);
}

void
BitArray::save(Snapshot& snapshot) const
{
    snapshot.words = words_;
}

void
BitArray::restore(const Snapshot& snapshot)
{
    if (snapshot.words.size() != words_.size())
        panic("BitArray restore size mismatch (%zu words into %zu)",
              snapshot.words.size(), words_.size());
    words_ = snapshot.words;
    dirty_ = true;
    // The restored image replaces every bit, so no tracked flip is
    // live in it; propagated flags stay latched (those flips already
    // escaped). Silent — restore is a host operation, not a machine
    // write, so it raises no tracking events — but the erased bits do
    // move their overlays' change counters.
    if (!tracked_.empty()) [[unlikely]] {
        for (OverlayState& overlay : overlays_)
            overlay.live = 0;
        untrackAll();
    }
}

void
BitArray::digestInto(Fnv& fnv) const
{
    fnv.add(words_.size());
    for (uint64_t word : words_)
        fnv.add(word);
}

uint32_t
BitArray::beginOverlay()
{
    if (overlays_.empty())
        overlays_.emplace_back();   // reserve the single-run overlay 0
    overlays_.emplace_back();
    return static_cast<uint32_t>(overlays_.size() - 1);
}

void
BitArray::trackFlipIn(uint32_t overlay, uint32_t row, uint32_t col)
{
    checkField(row, col, 1);
    if (overlay >= overlays_.size())
        overlays_.resize(overlay + 1);
    tracked_.push_back({row, col, overlay});
    ++overlays_[overlay].live;
    if (rowGuard_.empty()) {
        rowGuard_.assign((rows_ + 63) / 64, 0);
        rowCount_.assign(rows_, 0);
    }
    ++rowCount_[row];
    rowGuard_[row >> 6] |= 1ULL << (row & 63);
}

void
BitArray::appendLiveBits(
    uint32_t overlay,
    std::vector<std::pair<uint32_t, uint32_t>>& bits) const
{
    for (const TrackedBit& b : tracked_) {
        if (b.overlay == overlay && !b.ghost)
            bits.push_back({b.row, b.col});
    }
}

void
BitArray::appendGhostBits(
    uint32_t overlay,
    std::vector<std::pair<uint32_t, uint32_t>>& bits) const
{
    for (const TrackedBit& b : tracked_) {
        if (b.overlay == overlay && b.ghost)
            bits.push_back({b.row, b.col});
    }
}

void
BitArray::dropOverlay(uint32_t overlay)
{
    if (overlay >= overlays_.size())
        return;
    std::erase_if(tracked_, [this, overlay](const TrackedBit& b) {
        if (b.overlay != overlay)
            return false;
        untrackRow(b.row);
        return true;
    });
    overlays_[overlay].live = 0;
}

void
BitArray::resetFlipTracking()
{
    tracked_.clear();
    overlays_.clear();
    eventsPending_ = false;
    clearGuard();
}

void
BitArray::clearGuard() const
{
    std::fill(rowGuard_.begin(), rowGuard_.end(), 0);
    std::fill(rowCount_.begin(), rowCount_.end(), 0);
}

void
BitArray::untrackAll() const
{
    for (const TrackedBit& b : tracked_)
        ++overlays_[b.overlay].changes;
    tracked_.clear();
    clearGuard();
}

void
BitArray::noteRead(uint32_t row, uint32_t col, uint32_t width) const
{
    if (!rowGuarded(row))
        return;
    bool hit = false;
    for (const TrackedBit& b : tracked_) {
        // Ghosts never propagate: a deadness proof already established
        // the bit cannot be read before an overwrite erases it.
        if (!b.ghost && b.row == row && b.col >= col &&
            b.col < col + width) {
            overlays_[b.overlay].propagated = true;
            hit = true;
        }
    }
    if (!hit)
        return;
    // Drop every bit of each propagated overlay, not just the read
    // one: once the fault escaped, liveness proves nothing anymore
    // and the hot path gets cheaper. (Tracked bits always belong to
    // not-yet-propagated overlays, so the erase below removes exactly
    // the overlays latched above plus nothing else.)
    eventsPending_ = true;
    std::erase_if(tracked_, [this](const TrackedBit& b) {
        if (!overlays_[b.overlay].propagated)
            return false;
        overlays_[b.overlay].live = 0;
        untrackRow(b.row);
        return true;
    });
}

void
BitArray::removeTracked(uint32_t row, uint32_t col, uint32_t width,
                        uint32_t scope)
{
    if (!rowGuarded(row))
        return;
    for (size_t i = 0; i < tracked_.size();) {
        const TrackedBit& b = tracked_[i];
        if (b.row == row && b.col >= col && b.col < col + width &&
            (scope == AllOverlays || b.overlay == scope)) {
            OverlayState& overlay = overlays_[b.overlay];
            if (!b.ghost && --overlay.live == 0)
                eventsPending_ = true;
            ++overlay.changes;
            untrackRow(row);
            tracked_[i] = tracked_.back();
            tracked_.pop_back();
        } else {
            ++i;
        }
    }
}

void
BitArray::ghostTracked(uint32_t row, uint32_t col, uint32_t width,
                       uint32_t scope)
{
    if (!rowGuarded(row))
        return;
    for (TrackedBit& b : tracked_) {
        if (!b.ghost && b.row == row && b.col >= col &&
            b.col < col + width &&
            (scope == AllOverlays || b.overlay == scope)) {
            b.ghost = true;
            OverlayState& overlay = overlays_[b.overlay];
            if (--overlay.live == 0)
                eventsPending_ = true;
            ++overlay.changes;
        }
    }
}

void
BitArray::clear()
{
    // An architectural clear overwrites every bit: tracked flips die,
    // with death events for any overlay losing its last live bit.
    if (!tracked_.empty()) [[unlikely]] {
        for (const TrackedBit& b : tracked_) {
            if (!b.ghost && --overlays_[b.overlay].live == 0)
                eventsPending_ = true;
        }
        untrackAll();
    }
    dirty_ = true;
    std::fill(words_.begin(), words_.end(), 0);
}

uint64_t
BitArray::popcount() const
{
    // Mask off padding bits beyond each row's width before counting.
    uint64_t count = 0;
    uint32_t tail_bits = cols_ % 64;
    for (uint32_t r = 0; r < rows_; ++r) {
        for (uint32_t w = 0; w < wordsPerRow_; ++w) {
            uint64_t word = words_[static_cast<uint64_t>(r)
                                   * wordsPerRow_ + w];
            if (tail_bits && w == wordsPerRow_ - 1)
                word &= (1ULL << tail_bits) - 1;
            count += std::popcount(word);
        }
    }
    return count;
}

} // namespace mbusim::sim
