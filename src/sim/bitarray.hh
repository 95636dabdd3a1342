/**
 * @file
 * Bit-addressable 2-D SRAM array model — the fault-injection target.
 *
 * Every hardware structure the paper injects into (cache tag/data arrays,
 * TLB entry arrays, the physical register file) stores its state in a
 * BitArray rather than in plain C++ fields. The array has an explicit 2-D
 * geometry (rows x columns) matching the physical SRAM layout, because the
 * paper's spatial multi-bit fault model places an XxY *cluster* of flips at
 * a random position in the array: adjacency in rows and columns must be
 * physically meaningful for the fault model to be faithful.
 *
 * The field accessors are inline: they sit on the simulator's hottest
 * paths (every fetch, load, store and TLB probe goes through them).
 */

#ifndef MBUSIM_SIM_BITARRAY_HH
#define MBUSIM_SIM_BITARRAY_HH

#include <cstdint>
#include <vector>

#include "util/fnv.hh"

namespace mbusim::sim {

/**
 * A rows x cols array of bits with word-granularity accessors.
 *
 * Rows model SRAM word lines; columns model bit lines. Functional reads
 * and writes address (row, starting column, width<=64) fields; the fault
 * injector addresses single (row, col) bits via flipBit().
 */
class BitArray
{
  public:
    /** Copyable image of the array contents (geometry excluded). */
    struct Snapshot
    {
        std::vector<uint64_t> words;
    };

    /** Construct a zero-initialized array of rows x cols bits. */
    BitArray(uint32_t rows, uint32_t cols);

    /** Capture the current contents into @p snapshot. */
    void save(Snapshot& snapshot) const;

    /** Restore contents saved from an identically-sized array. */
    void restore(const Snapshot& snapshot);

    /** Mix the array contents into @p fnv (state-digest support). */
    void digestInto(Fnv& fnv) const;

    uint32_t rows() const { return rows_; }
    uint32_t cols() const { return cols_; }

    /** Total number of bits in the array. */
    uint64_t sizeBits() const
    {
        return static_cast<uint64_t>(rows_) * cols_;
    }

    /** @name Fault-liveness tracking (dead-fault pruning, overlays)
     *
     * The early-termination engine (DESIGN.md §10) needs to know when
     * an injected flip can no longer affect the simulation: a corrupted
     * bit that is overwritten before ever being read is dead, and one
     * that is read has propagated into the machine. trackFlip()
     * registers an injected bit; every functional accessor then updates
     * the tracked set. When no flips are tracked (golden runs, engine
     * off) the cost on the hot accessors is one empty-vector test; when
     * flips are tracked elsewhere in the array, an access to a row with
     * no tracked bit costs one extra bitmap load (rowGuard_).
     *
     * Tracked bits are grouped into *overlays* so the lockstep cohort
     * engine (DESIGN.md §15) can ride many injected runs on one shared
     * golden simulation: each run's flips form one overlay, and because
     * an unforked run's machine is bit-identical to golden everywhere
     * the machine has read, the golden access stream updates every
     * overlay's liveness soundly at once. The single-run API
     * (trackFlip / liveFlips / flipPropagated) is overlay 0.
     *
     * A flip itself is the particle strike, not an architectural write:
     * flipBit() never clears a tracked bit.
     */
    /// @{
    /** discardFlips() scope meaning "every overlay". */
    static constexpr uint32_t AllOverlays = UINT32_MAX;

    /** Register an injected flip at (row, col) as live (overlay 0). */
    void trackFlip(uint32_t row, uint32_t col) { trackFlipIn(0, row, col); }

    /** Injected flips of overlay 0 neither read nor overwritten yet. */
    uint32_t liveFlips() const { return overlayLiveCount(0); }

    /** Has any overlay-0 flip been read (escaped into the machine)? */
    bool flipPropagated() const { return overlayPropagated(0); }

    /** Forget all tracking state (every overlay, all latches). */
    void resetFlipTracking();

    /** Allocate a fresh overlay id (> 0; overlay 0 is the implicit
     *  single-run overlay). Ids are per-array and not recycled until
     *  resetFlipTracking(). */
    uint32_t beginOverlay();

    /** Register an injected flip at (row, col) as live in @p overlay. */
    void trackFlipIn(uint32_t overlay, uint32_t row, uint32_t col);

    /** Live (not yet read or overwritten) flips of @p overlay. */
    uint32_t overlayLiveCount(uint32_t overlay) const
    {
        return overlay < overlays_.size() ? overlays_[overlay].live : 0;
    }

    /** Has any flip of @p overlay been read? Latched. */
    bool overlayPropagated(uint32_t overlay) const
    {
        return overlay < overlays_.size() && overlays_[overlay].propagated;
    }

    /**
     * Change counter of @p overlay's tracked set: moves whenever one
     * of its bits is overwritten (write, clear, restore) or ghosted
     * (discardFlips), and on nothing else — not on reads, not on other
     * overlays' changes. While it stands still, appendLiveBits and
     * appendGhostBits return the same sets as at the last look, so the
     * lockstep driver re-captures a rider's fork-base flips only when
     * the counter moved instead of rescanning every tracked bit once
     * per rider at every attach.
     */
    uint64_t overlayChanges(uint32_t overlay) const
    {
        return overlay < overlays_.size() ? overlays_[overlay].changes : 0;
    }

    /** Append @p overlay's live (row, col) bits to @p bits. */
    void appendLiveBits(
        uint32_t overlay,
        std::vector<std::pair<uint32_t, uint32_t>>& bits) const;

    /**
     * Append @p overlay's *ghost* bits to @p bits: flips discarded
     * from liveness tracking by a model-layer deadness proof
     * (discardFlips) but not yet architecturally overwritten. A ghost
     * is physically present in a private simulator's machine — it was
     * applied at injection and nothing has replaced it — it just can
     * never be read before an overwrite erases it. A lockstep fork
     * must re-apply ghosts along with the live flips to reproduce the
     * private machine bit-for-bit (state digests hash every bit,
     * never-readable ones included).
     */
    void appendGhostBits(
        uint32_t overlay,
        std::vector<std::pair<uint32_t, uint32_t>>& bits) const;

    /** Stop tracking @p overlay: its bits are dropped without death
     *  events (the owner retired or forked the run). The propagated
     *  latch stays readable. */
    void dropOverlay(uint32_t overlay);

    /**
     * Has any overlay changed state (a propagation latched, or a live
     * count reaching zero) since the last clearTrackingEvents()? The
     * lockstep driver polls this once per tick; state changes inside a
     * tick only set a flag, so the poll is one load.
     */
    bool trackingEventsPending() const { return eventsPending_; }

    /** Acknowledge trackingEventsPending(). */
    void clearTrackingEvents() { eventsPending_ = false; }

    /**
     * Scope discardFlips() to one overlay (AllOverlays = no scope).
     * The lockstep attach path runs the model-layer dead-on-arrival
     * hooks for one just-injected overlay against the shared machine;
     * their deadness proofs apply only to that overlay's flips —
     * another overlay's co-located flip may still legitimately be
     * live in its own run.
     */
    void setDiscardScope(uint32_t overlay) { discardScope_ = overlay; }

    /**
     * Declare a field dead: the owning model guarantees these bits
     * cannot be architecturally read before being overwritten (the
     * data of an invalid cache line, a free physical register), so
     * tracked flips inside leave liveness accounting exactly as an
     * overwrite would. Unlike an overwrite, nothing has physically
     * replaced the bit yet, so the flip lingers as a *ghost* (see
     * appendGhostBits) until a real write erases it.
     * Honors setDiscardScope().
     */
    void
    discardFlips(uint32_t row, uint32_t col, uint32_t width)
    {
        checkField(row, col, width);
        if (!tracked_.empty()) [[unlikely]]
            ghostTracked(row, col, width, discardScope_);
    }

    /**
     * Read one bit without liveness tracking. For model-layer
     * inspection (e.g. the pruning engine checking a valid bit), not
     * for architectural reads — those must go through bit()/read().
     */
    bool
    peekBit(uint32_t row, uint32_t col) const
    {
        checkField(row, col, 1);
        return (words_[wordIndex(row, col)] >> (col % 64)) & 1;
    }
    /// @}

    /** Read one bit. */
    bool
    bit(uint32_t row, uint32_t col) const
    {
        checkField(row, col, 1);
        if (!tracked_.empty()) [[unlikely]]
            noteRead(row, col, 1);
        return (words_[wordIndex(row, col)] >> (col % 64)) & 1;
    }

    /**
     * Read a field of @p width bits at (row, col) while excluding the
     * single column @p skipCol from the liveness note. The *physical*
     * value returned covers the whole field — only the tracking
     * side-effects skip that column. This lets a model fold several
     * architectural reads of one row into a single field read when one
     * interior bit (e.g. a cache line's dirty bit, probed only on
     * eviction) is not architecturally read at this point.
     */
    uint64_t
    readExcept(uint32_t row, uint32_t col, uint32_t width,
               uint32_t skipCol) const
    {
        checkField(row, col, width);
        if (!tracked_.empty()) [[unlikely]] {
            if (skipCol < col || skipCol >= col + width) {
                noteRead(row, col, width);
            } else {
                if (skipCol > col)
                    noteRead(row, col, skipCol - col);
                if (skipCol + 1 < col + width)
                    noteRead(row, skipCol + 1, col + width - skipCol - 1);
            }
        }
        return extract(row, col, width);
    }

    /** Write one bit. */
    void setBit(uint32_t row, uint32_t col, bool value);

    /** Invert one bit (the particle strike). */
    void flipBit(uint32_t row, uint32_t col);

    /**
     * Read a field of @p width bits starting at (row, col), LSB first.
     * The field must not cross the end of the row.
     */
    uint64_t
    read(uint32_t row, uint32_t col, uint32_t width) const
    {
        checkField(row, col, width);
        if (!tracked_.empty()) [[unlikely]]
            noteRead(row, col, width);
        return extract(row, col, width);
    }

    /** Write a field of @p width bits starting at (row, col), LSB first. */
    void
    write(uint32_t row, uint32_t col, uint32_t width, uint64_t value)
    {
        checkField(row, col, width);
        if (!tracked_.empty()) [[unlikely]]
            noteWrite(row, col, width);
        dirty_ = true;
        deposit(row, col, width, value);
    }

    /** @name Bulk row transfers
     *
     * Whole-field byte transfers for line-sized moves (cache fill and
     * writeback). One span bounds check and one liveness note cover
     * the entire field, and the data moves in 64-bit word chunks, so a
     * 64-byte line costs ~8 word operations instead of 64 guarded
     * field accesses. The liveness semantics are equivalent to a
     * bit-at-a-time loop over the span: noteRead latches and erases
     * whole overlays regardless of which covered bit triggered it, and
     * noteWrite removes exactly the tracked bits inside the span —
     * both are unions over the covered columns, insensitive to
     * per-byte subdivision or ordering.
     */
    /// @{
    /** Read @p bytes bytes starting at (row, col) into @p out,
     *  little-endian, lowest column first. The span may exceed 64 bits
     *  but must not cross the end of the row. */
    void readBytes(uint32_t row, uint32_t col, uint32_t bytes,
                   uint8_t* out) const;

    /** Write @p bytes bytes from @p in starting at (row, col). */
    void writeBytes(uint32_t row, uint32_t col, uint32_t bytes,
                    const uint8_t* in);
    /// @}

    /** @name Delta-snapshot support (DESIGN.md §16)
     *
     * Every mutator sets a dirty flag; fold() copies the contents into
     * a caller-owned snapshot only when the flag is set (or the
     * snapshot has never been filled), then clears it. The flag is
     * meaningful only against a single snapshot buffer — the
     * simulator's warm-cursor snapshot — which is exactly how
     * Simulator::deltaCheckpoint() uses it.
     */
    /// @{
    /** Fold the current contents into @p snapshot, copying only if the
     *  array changed since the last fold. Returns bytes copied. */
    uint64_t fold(Snapshot& snapshot);
    /// @}

    /** Reset all bits to zero. */
    void clear();

    /** Count set bits (test/debug aid). */
    uint64_t popcount() const;

    /** Does the row guard send accesses to @p row through the tracked
     *  set (test/debug aid)? True exactly while the row holds a tracked
     *  bit, live or ghost. */
    bool guardsRow(uint32_t row) const
    {
        return row < rows_ && !rowGuard_.empty() && rowGuarded(row);
    }

  private:
    /** Raw field extraction: no bounds check, no liveness note. */
    uint64_t
    extract(uint32_t row, uint32_t col, uint32_t width) const
    {
        uint64_t idx = wordIndex(row, col);
        uint32_t shift = col % 64;
        uint64_t value = words_[idx] >> shift;
        uint32_t got = 64 - shift;
        if (got < width)
            value |= words_[idx + 1] << got;
        if (width < 64)
            value &= (1ULL << width) - 1;
        return value;
    }

    /** Raw field deposit: no bounds check, no liveness note. */
    void
    deposit(uint32_t row, uint32_t col, uint32_t width, uint64_t value)
    {
        if (width < 64)
            value &= (1ULL << width) - 1;
        uint64_t idx = wordIndex(row, col);
        uint32_t shift = col % 64;
        uint32_t got = 64 - shift;
        uint64_t mask = (width == 64) ? ~0ULL : ((1ULL << width) - 1);
        words_[idx] = (words_[idx] & ~(mask << shift)) | (value << shift);
        if (got < width) {
            uint32_t rest = width - got;
            uint64_t hi_mask = (1ULL << rest) - 1;
            words_[idx + 1] =
                (words_[idx + 1] & ~hi_mask) | ((value >> got) & hi_mask);
        }
    }

    /** Span bounds check for bulk transfers (width may exceed 64). */
    void
    checkSpan(uint32_t row, uint32_t col, uint64_t widthBits) const
    {
        if (row >= rows_ || widthBits == 0 ||
            static_cast<uint64_t>(col) + widthBits > cols_) {
            fieldViolation(row, col,
                           static_cast<uint32_t>(
                               widthBits > UINT32_MAX ? UINT32_MAX
                                                      : widthBits));
        }
    }
    uint64_t
    wordIndex(uint32_t row, uint32_t col) const
    {
        return static_cast<uint64_t>(row) * wordsPerRow_ + col / 64;
    }

    /** Bounds check; reports a panic on violation. */
    void
    checkField(uint32_t row, uint32_t col, uint32_t width) const
    {
        if (row >= rows_ || width == 0 || width > 64 ||
            static_cast<uint64_t>(col) + width > cols_) {
            fieldViolation(row, col, width);
        }
    }

    [[noreturn]] void fieldViolation(uint32_t row, uint32_t col,
                                     uint32_t width) const;

    /** A tracked injected flip. Live unless ghosted: a ghost was
     *  discarded by a deadness proof (discardFlips) but is still
     *  physically present until an overwrite erases it, and stays
     *  recorded so a lockstep fork can reproduce the private machine
     *  exactly. Ghosts never propagate and never count as live. */
    struct TrackedBit
    {
        uint32_t row;
        uint32_t col;
        uint32_t overlay;
        bool ghost = false;
    };

    /** Per-overlay liveness summary. */
    struct OverlayState
    {
        uint32_t live = 0;
        bool propagated = false;
        uint64_t changes = 0;   ///< see overlayChanges()
    };

    /**
     * Does @p row hold any tracked bit? One load. The guard bit of a
     * row is exact: rowCount_ counts the row's tracked entries (live
     * and ghost) and the bit clears the moment the count drops to
     * zero. A shared lockstep cursor's tracked set rarely empties, so
     * a guard cleared only wholesale would saturate and send every
     * access through the tracked-set scan.
     */
    bool
    rowGuarded(uint32_t row) const
    {
        return (rowGuard_[row >> 6] >> (row & 63)) & 1;
    }

    /** One tracked entry of @p row is gone: update the exact guard. */
    void
    untrackRow(uint32_t row) const
    {
        if (--rowCount_[row] == 0)
            rowGuard_[row >> 6] &= ~(1ULL << (row & 63));
    }

    /** Forget every tracked entry, bumping the change counters of
     *  the overlays losing bits, and zero the row guard. */
    void untrackAll() const;

    void clearGuard() const;

    /**
     * A tracked bit inside the read field has propagated: latch the
     * owning overlay's flag and drop all of its bits — liveness proves
     * nothing once the fault escaped, and the hot path gets cheaper.
     * Mutates only the mutable tracking state, hence const.
     */
    void noteRead(uint32_t row, uint32_t col, uint32_t width) const;

    /** Tracked bits covered by an overwrite are dead: drop them. */
    void noteWrite(uint32_t row, uint32_t col, uint32_t width)
    {
        removeTracked(row, col, width, AllOverlays);
    }

    /** Erase tracked bits (live and ghost) in the field: the bits were
     *  physically overwritten. Flags a tracking event for each overlay
     *  whose last live bit dies. */
    void removeTracked(uint32_t row, uint32_t col, uint32_t width,
                       uint32_t scope);

    /** Ghost-mark live tracked bits in the field (of @p scope, or
     *  every overlay): deadness-proof discard. Same liveness events
     *  as removeTracked, but the entries stay recorded as ghosts. */
    void ghostTracked(uint32_t row, uint32_t col, uint32_t width,
                      uint32_t scope);

    uint32_t rows_;
    uint32_t cols_;
    uint32_t wordsPerRow_;
    std::vector<uint64_t> words_;

    mutable std::vector<TrackedBit> tracked_;
    mutable std::vector<OverlayState> overlays_;
    mutable std::vector<uint64_t> rowGuard_;   ///< lazily allocated
    mutable std::vector<uint32_t> rowCount_;   ///< tracked entries per row
    mutable bool eventsPending_ = false;
    uint32_t discardScope_ = AllOverlays;
    /** Contents changed since the last fold(). Starts dirty so the
     *  first fold into an empty snapshot always copies. */
    bool dirty_ = true;
};

} // namespace mbusim::sim

#endif // MBUSIM_SIM_BITARRAY_HH
