/**
 * @file
 * Cycle-level out-of-order CPU core (ARM Cortex-A9-like, Table I).
 *
 * Classic physical-register-file microarchitecture: fetch (with bimodal
 * + BTB + RAS prediction) -> decode -> rename (merged-file renaming with
 * per-branch rename-map checkpoints) -> dispatch into ROB / IQ / LSQ ->
 * age-ordered issue -> execute (ALU 1c, pipelined MUL 3c, DIV 12c, loads
 * through DTLB + L1D with store-to-load forwarding) -> writeback (width
 * capped) -> in-order commit (stores write the D-cache here; precise
 * exceptions; syscalls serialize fetch).
 *
 * Everything the paper injects into is bit-backed: the caches and TLBs
 * own BitArrays and the register values live in PhysRegFile. All other
 * pipeline bookkeeping (ROB, IQ, maps, predictor) is plain C++ and not a
 * fault target, matching the paper's scope.
 *
 * Faulty-machine anomalies (page faults from corrupted pointers,
 * physical addresses outside the platform, illegal re-decoded opcodes)
 * never throw out of tick(): they are recorded on the instruction and
 * take effect only if it commits, so wrong-path corruption behaves
 * exactly like hardware.
 */

#ifndef MBUSIM_SIM_CPU_HH
#define MBUSIM_SIM_CPU_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/exceptions.hh"
#include "sim/isa.hh"
#include "sim/regfile.hh"
#include "sim/system.hh"
#include "sim/tlb.hh"

namespace mbusim::sim {

/** Aggregated core statistics. */
struct CpuStats
{
    uint64_t cycles = 0;
    uint64_t committed = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t squashedInsts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t storeForwards = 0;
};

/** The out-of-order core. */
class Cpu
{
  public:
    Cpu(const CpuConfig& config, System& system);

    /**
     * Advance one clock cycle.
     *
     * With @p skip_bound > cycle(), a tick in which no stage did any
     * work (a full stall: fetch waiting on a miss or page walk, no
     * completion due, nothing issuable, commit blocked on an
     * unfinished head) may fast-forward the cycle counter to the next
     * cycle anything *can* happen — the earliest pending completion
     * or the fetch-ready cycle — but never past @p skip_bound
     * (DESIGN.md §16). The skipped cycles are provably no-ops: every
     * state change funnels through a counted stage action, stall
     * cycles touch no SRAM bit (so fault liveness cannot change), and
     * the stages' only cycle-dependent entry conditions are exactly
     * the two event times the skip stops at. Callers bound the skip
     * by the next cycle *they* care about (injection cycle, golden
     * digest rung, run budget). The default bound of 0 disables
     * skipping.
     */
    void tick(uint64_t skip_bound = 0);

    /** Has the program exited or been killed? */
    bool halted() const { return halted_; }

    /** Terminal status; valid once halted(). */
    const ExitStatus& exitStatus() const { return exitStatus_; }

    const CpuStats& stats() const { return stats_; }
    uint64_t cycle() const { return cycle_; }

    /** Called for every committed instruction (tracing / debugging). */
    using CommitHook =
        std::function<void(uint64_t cycle, uint32_t pc,
                           const DecodedInst& inst)>;
    void setCommitHook(CommitHook hook) { commitHook_ = std::move(hook); }

    /** @name Fault-injection targets */
    /// @{
    Cache& l1i() { return l1i_; }
    Cache& l1d() { return l1d_; }
    Cache& l2() { return l2_; }
    Tlb& itlb() { return itlb_; }
    Tlb& dtlb() { return dtlb_; }
    PhysRegFile& regFile() { return regFile_; }
    /// @}

    /** @name Decode memoization (DESIGN.md §16)
     *
     * Host-side instrumentation of the fetch stage's decode cache:
     * warm it from known-clean program words, and expose the hit/miss
     * counters so the campaign can flush them into the metrics
     * registry once per simulator lifetime. None of this state is
     * snapshotted or digested — decode() is pure, so the cache cannot
     * affect outcomes.
     */
    /// @{
    void
    predecodeProgram(const uint32_t* words, size_t count)
    {
        if (decodeMemo_)
            decodeCache_.predecode(words, count);
    }
    uint64_t decodeHits() const { return decodeCache_.hits(); }
    uint64_t decodeMisses() const { return decodeCache_.misses(); }
    void resetDecodeCounters() { decodeCache_.resetCounters(); }
    /// @}

  private:
    static constexpr uint8_t NoReg = 0xff;   ///< no physical register
    static constexpr uint8_t ZeroReg = 0xfe; ///< architectural r0

    /** One in-flight instruction (ROB slot). */
    struct Inst
    {
        uint64_t seq = 0;
        uint32_t pc = 0;
        DecodedInst di;
        bool valid = false;

        uint8_t physDest = NoReg;
        uint8_t oldPhysDest = NoReg;
        uint8_t physSrc1 = NoReg;
        uint8_t physSrc2 = NoReg;
        uint8_t physStoreData = NoReg;

        bool inIq = false;
        bool issued = false;
        bool executed = false;

        // Control flow.
        bool predictedTaken = false;
        uint32_t predictedTarget = 0;
        bool actualTaken = false;
        uint32_t actualTarget = 0;
        bool hasCheckpoint = false;
        std::array<uint8_t, NumArchRegs> checkpoint{};

        // Memory.
        bool addrReady = false;
        uint32_t effAddr = 0;
        uint32_t paddr = 0;
        uint32_t storeValue = 0;

        // Exception state, delivered at commit.
        ExceptionType exception = ExceptionType::None;
        bool simAssert = false;
        uint32_t faultAddr = 0;
    };

    // Pipeline stages (called newest-to-oldest each tick).
    void commitStage();
    void writebackStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // Helpers.
    bool robFull() const;
    uint32_t robPush();
    Inst& robAt(uint32_t idx) { return rob_[idx]; }
    void squashAfter(uint64_t seq, uint32_t new_fetch_pc,
                     const std::array<uint8_t, NumArchRegs>& map);
    void executeInst(uint32_t rob_idx);
    uint32_t readSrc(uint8_t phys) const;
    bool srcReady(uint8_t phys) const;
    bool loadCanIssue(uint32_t rob_idx, bool& forward,
                      uint32_t& fwd_value);
    void recordMemException(Inst& inst, ExceptionType type,
                            uint32_t addr);
    void haltWith(const ExitStatus& status);

    CpuConfig config_;
    System& sys_;

    // Memory hierarchy (construction order matters).
    MemoryBackend memBackend_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;
    Tlb itlb_;
    Tlb dtlb_;
    PhysRegFile regFile_;
    BranchPredictor predictor_;

    // ROB: circular buffer.
    std::vector<Inst> rob_;
    uint32_t robHead_ = 0;
    uint32_t robTail_ = 0;
    uint32_t robCount_ = 0;

    // Rename state.
    std::array<uint8_t, NumArchRegs> frontMap_{};
    std::array<uint8_t, NumArchRegs> retireMap_{};
    std::vector<uint8_t> freeList_;
    std::vector<bool> regReady_;

    // Queues. Entries are ROB indices.
    std::vector<uint32_t> iq_;
    std::vector<uint32_t> lsq_;

    // Fetch state.
    struct FetchedInst
    {
        uint32_t pc;
        DecodedInst di;
        bool predictedTaken;
        uint32_t predictedTarget;
        ExceptionType exception;
        bool simAssert;
        uint32_t faultAddr;
    };
    std::deque<FetchedInst> fetchQueue_;
    uint32_t fetchPc_;
    uint64_t fetchReadyCycle_ = 0;
    bool fetchBlocked_ = false;   ///< waiting for a serializing commit

    // Writeback: (complete cycle, rob index, seq) min-heap by cycle.
    struct Completion
    {
        uint64_t cycle;
        uint32_t robIdx;
        uint64_t seq;
        bool operator>(const Completion& o) const
        {
            return cycle > o.cycle;
        }
    };
    std::vector<Completion> completions_;   // heap

    CommitHook commitHook_;
    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 1;
    /**
     * Monotone stage-activity counter backing the stall skip in
     * tick(): every fetch-queue push, ROB dispatch, execute, processed
     * completion, commit slot and squash bumps it, so an unchanged
     * value across a tick proves the cycle was a no-op. Host-side
     * only — never snapshotted or digested (it is only ever compared
     * across a single tick).
     */
    uint64_t work_ = 0;
    bool halted_ = false;
    ExitStatus exitStatus_;
    CpuStats stats_;

    // Decode memoization (host-side; never snapshotted or digested).
    DecodeCache decodeCache_;
    bool decodeMemo_;

  public:
    /**
     * Copyable image of the entire core: memory hierarchy, predictor
     * and every piece of pipeline bookkeeping. The commit hook is not
     * state and is not captured. Declared after the pipeline structures
     * because it embeds their (private) types; external code only moves
     * whole snapshots around.
     */
    struct Snapshot
    {
        Cache::Snapshot l2, l1i, l1d;
        Tlb::Snapshot itlb, dtlb;
        PhysRegFile::Snapshot regFile;
        BranchPredictor::Snapshot predictor;

        std::vector<Inst> rob;
        uint32_t robHead = 0;
        uint32_t robTail = 0;
        uint32_t robCount = 0;

        std::array<uint8_t, NumArchRegs> frontMap{};
        std::array<uint8_t, NumArchRegs> retireMap{};
        std::vector<uint8_t> freeList;
        std::vector<bool> regReady;

        std::vector<uint32_t> iq;
        std::vector<uint32_t> lsq;

        std::deque<FetchedInst> fetchQueue;
        uint32_t fetchPc = 0;
        uint64_t fetchReadyCycle = 0;
        bool fetchBlocked = false;

        std::vector<Completion> completions;

        uint64_t cycle = 0;
        uint64_t nextSeq = 1;
        bool halted = false;
        ExitStatus exitStatus;
        CpuStats stats;
    };

    /** Capture the entire core state into @p snapshot. */
    void save(Snapshot& snapshot) const;

    /**
     * Delta variant of save() for the lockstep cursor's snapshot
     * (DESIGN.md §16): the bit-backed arrays copy only if touched
     * since the previous fold into the same snapshot, the (small)
     * plain pipeline bookkeeping is always copied. Returns the bytes
     * the arrays actually copied.
     */
    uint64_t fold(Snapshot& snapshot);

    /** Restore state saved from an identically-configured core. */
    void restore(const Snapshot& snapshot);

    /**
     * Mix every behaviour-affecting field into @p fnv. Two cores with
     * equal digests execute (up to FNV collision) bit-identically from
     * here on — the basis of convergence detection. Statistics
     * counters are deliberately excluded: they never feed back into
     * execution, and including them would keep a run whose timing
     * perturbation has fully healed from ever matching golden.
     */
    void digestInto(Fnv& fnv) const;

    /**
     * Fault-liveness hook (dead-fault pruning, DESIGN.md §10): an
     * injected flip landed at (row, col) of the physical register
     * file. A register on the free list is necessarily written before
     * it can be read again — operand reads are gated on regReady_
     * (cleared when the register is re-allocated), retired mappings
     * are never free, and commit is in-order — so such a flip is dead
     * on arrival.
     */
    void noteInjectedRegFlip(uint32_t row, uint32_t col);
};

} // namespace mbusim::sim

#endif // MBUSIM_SIM_CPU_HH
