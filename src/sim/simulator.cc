#include "sim/simulator.hh"

#include <algorithm>

#include "util/log.hh"

namespace mbusim::sim {

Simulator::Simulator(const Program& program, const CpuConfig& config)
    : config_(config),
      system_(std::make_unique<System>(program, config.physMemBytes,
                                       config.pageWalkLatency)),
      cpu_(std::make_unique<Cpu>(config, *system_))
{
    // Predecoded fast path (DESIGN.md §16): warm the decode cache from
    // the program's clean instruction words so clean I-fetches hit
    // from the first cycle. Corrupted words key different entries, so
    // this affects no outcome.
    cpu_->predecodeProgram(program.code.data(), program.code.size());
}

Simulator::Simulator(const Program& program, const CpuConfig& config,
                     const Snapshot& snapshot)
    : Simulator(program, config)
{
    restore(snapshot);
}

void
Simulator::scheduleInjection(const Injection& injection)
{
    // Sorting is deferred to run(): scheduling N injections is O(N)
    // instead of the O(N^2 log N) of re-sorting on every call.
    if (started_)
        panic("scheduleInjection after run() started");
    injections_.push_back(injection);
    if (injections_.size() > 1)
        injectionsSorted_ = false;
}

Snapshot
Simulator::checkpoint() const
{
    Snapshot snapshot;
    snapshot.cycle = cpu_->cycle();
    system_->save(snapshot.system);
    cpu_->save(snapshot.cpu);
    return snapshot;
}

const Snapshot&
Simulator::deltaCheckpoint(uint64_t* bytes_copied)
{
    snapshotBuf_.cycle = cpu_->cycle();
    uint64_t bytes = system_->fold(snapshotBuf_.system);
    bytes += cpu_->fold(snapshotBuf_.cpu);
    if (bytes_copied)
        *bytes_copied = bytes;
    return snapshotBuf_;
}

void
Simulator::restore(const Snapshot& snapshot)
{
    system_->restore(snapshot.system);
    cpu_->restore(snapshot.cpu);
}

void
Simulator::advanceTo(uint64_t cycle)
{
    if (cycle > cpu_->cycle())
        run(cycle);
}

uint64_t
Simulator::cycle() const
{
    return cpu_->cycle();
}

bool
Simulator::halted() const
{
    return cpu_->halted();
}

Simulator::OverlayHandle
Simulator::attachOverlay(const Injection& inj)
{
    BitArray& bits = targetBits(inj.target);
    OverlayHandle handle{inj.target, bits.beginOverlay()};
    for (const BitFlip& flip : inj.flips)
        bits.trackFlipIn(handle.id, flip.row, flip.col);
    // The dead-on-arrival screen inspects machine state (a tag flip
    // can hit the very valid bit the screen peeks), so it must see
    // the flips applied, exactly as a private simulator's injection
    // would. Apply, screen, revert: no cycle elapses, and flipBit is
    // an involution, so the shared golden state is unchanged — and so
    // is the array's delta-snapshot dirty flag, which the round trip
    // would otherwise raise, making every later fork-base fold re-copy
    // the whole array.
    const bool was_dirty = bits.dirty();
    for (const BitFlip& flip : inj.flips)
        bits.flipBit(flip.row, flip.col);
    bits.setDiscardScope(handle.id);
    pruneDeadOnArrival(inj);
    bits.setDiscardScope(BitArray::AllOverlays);
    for (const BitFlip& flip : inj.flips)
        bits.flipBit(flip.row, flip.col);
    if (!was_dirty)
        bits.markClean();
    if (std::find(overlayArrays_.begin(), overlayArrays_.end(), &bits) ==
        overlayArrays_.end()) {
        overlayArrays_.push_back(&bits);
    }
    return handle;
}

uint32_t
Simulator::overlayLiveCount(const OverlayHandle& overlay) const
{
    return targetBitsConst(overlay.target).overlayLiveCount(overlay.id);
}

bool
Simulator::overlayPropagated(const OverlayHandle& overlay) const
{
    return targetBitsConst(overlay.target).overlayPropagated(overlay.id);
}

uint64_t
Simulator::overlayChanges(const OverlayHandle& overlay) const
{
    return targetBitsConst(overlay.target).overlayChanges(overlay.id);
}

std::vector<BitFlip>
Simulator::overlayLiveFlips(const OverlayHandle& overlay) const
{
    std::vector<std::pair<uint32_t, uint32_t>> bits;
    targetBitsConst(overlay.target).appendLiveBits(overlay.id, bits);
    std::vector<BitFlip> flips;
    flips.reserve(bits.size());
    for (const auto& [row, col] : bits)
        flips.push_back({row, col});
    return flips;
}

std::vector<BitFlip>
Simulator::overlayGhostFlips(const OverlayHandle& overlay) const
{
    std::vector<std::pair<uint32_t, uint32_t>> bits;
    targetBitsConst(overlay.target).appendGhostBits(overlay.id, bits);
    std::vector<BitFlip> flips;
    flips.reserve(bits.size());
    for (const auto& [row, col] : bits)
        flips.push_back({row, col});
    return flips;
}

void
Simulator::dropOverlay(const OverlayHandle& overlay)
{
    targetBits(overlay.target).dropOverlay(overlay.id);
}

bool
Simulator::overlayEventsPending() const
{
    for (const BitArray* bits : overlayArrays_) {
        if (bits->trackingEventsPending())
            return true;
    }
    return false;
}

void
Simulator::clearOverlayEvents()
{
    for (BitArray* bits : overlayArrays_)
        bits->clearTrackingEvents();
}

uint64_t
Simulator::runLockstep(uint64_t until)
{
    while (!cpu_->halted() && cpu_->cycle() < until) {
        // The stall skip is bounded by the caller's stop cycle, so
        // the cursor still lands exactly on each attach cycle. An
        // overlay event raised by a read in a fully-stalled tick
        // survives the skip (the skipped cycles would only have
        // repeated the same — idempotent — reads), so divergence is
        // never missed; only the cycle at which it is *reported* can
        // move, and fork replay starts from the fork base snapshot,
        // not from the reported cycle.
        cpu_->tick(until);
        if (overlayEventsPending())
            break;
    }
    return cpu_->cycle();
}

std::pair<uint32_t, uint32_t>
Simulator::targetGeometry(FaultTarget target, const CpuConfig& config)
{
    auto cache_geometry = [](const CacheConfig& c) {
        return std::make_pair(c.sets() * c.ways, c.lineBytes * 8);
    };
    auto tag_geometry = [](const CacheConfig& c) {
        uint32_t offset_index_bits = 0;
        for (uint32_t v = c.sets() * c.lineBytes; v > 1; v >>= 1)
            ++offset_index_bits;
        return std::make_pair(c.sets() * c.ways,
                              2 + 32 - offset_index_bits);
    };
    switch (target) {
      case FaultTarget::L1DData: return cache_geometry(config.l1d);
      case FaultTarget::L1IData: return cache_geometry(config.l1i);
      case FaultTarget::L2Data: return cache_geometry(config.l2);
      case FaultTarget::RegFileBits:
        return {config.numPhysRegs, 32};
      case FaultTarget::ItlbBits:
      case FaultTarget::DtlbBits:
        return {config.tlbEntries, 32};
      case FaultTarget::L1DTags: return tag_geometry(config.l1d);
      case FaultTarget::L1ITags: return tag_geometry(config.l1i);
      case FaultTarget::L2Tags: return tag_geometry(config.l2);
    }
    panic("bad FaultTarget");
}

BitArray&
Simulator::targetBits(FaultTarget target)
{
    switch (target) {
      case FaultTarget::L1DData: return cpu_->l1d().dataArray();
      case FaultTarget::L1IData: return cpu_->l1i().dataArray();
      case FaultTarget::L2Data: return cpu_->l2().dataArray();
      case FaultTarget::RegFileBits: return cpu_->regFile().bits();
      case FaultTarget::ItlbBits: return cpu_->itlb().bits();
      case FaultTarget::DtlbBits: return cpu_->dtlb().bits();
      case FaultTarget::L1DTags: return cpu_->l1d().tagArray();
      case FaultTarget::L1ITags: return cpu_->l1i().tagArray();
      case FaultTarget::L2Tags: return cpu_->l2().tagArray();
    }
    panic("bad FaultTarget");
}

void
Simulator::pruneDeadOnArrival(const Injection& inj)
{
    // Dead-on-arrival pruning: the owning model drops flips its
    // invariants prove unreachable-before-overwrite (DESIGN.md §10) —
    // data bits of an invalid cache line, dirty/tag bits behind a
    // clear valid bit, a free or not-yet-written physical register.
    for (const BitFlip& flip : inj.flips) {
        switch (inj.target) {
          case FaultTarget::L1DData:
            cpu_->l1d().noteInjectedDataFlip(flip.row, flip.col);
            break;
          case FaultTarget::L1IData:
            cpu_->l1i().noteInjectedDataFlip(flip.row, flip.col);
            break;
          case FaultTarget::L2Data:
            cpu_->l2().noteInjectedDataFlip(flip.row, flip.col);
            break;
          case FaultTarget::L1DTags:
            cpu_->l1d().noteInjectedTagFlip(flip.row, flip.col);
            break;
          case FaultTarget::L1ITags:
            cpu_->l1i().noteInjectedTagFlip(flip.row, flip.col);
            break;
          case FaultTarget::L2Tags:
            cpu_->l2().noteInjectedTagFlip(flip.row, flip.col);
            break;
          case FaultTarget::RegFileBits:
            cpu_->noteInjectedRegFlip(flip.row, flip.col);
            break;
          case FaultTarget::ItlbBits:
          case FaultTarget::DtlbBits:
            // TLB lookups scan whole entries, valid bit and payload
            // alike, so no entry bit is unreachable: nothing to prune.
            break;
        }
    }
}

uint64_t
Simulator::stateDigest() const
{
    Fnv fnv;
    system_->digestInto(fnv);
    cpu_->digestInto(fnv);
    return fnv.value();
}

SimResult
Simulator::run(uint64_t max_cycles)
{
    if (!started_) {
        started_ = true;
        if (!injectionsSorted_) {
            std::stable_sort(injections_.begin(), injections_.end(),
                             [](const Injection& a, const Injection& b) {
                                 return a.cycle < b.cycle;
                             });
            injectionsSorted_ = true;
        }
    }

    SimResult result;

    try {
        while (!cpu_->halted() &&
               (max_cycles == 0 || cpu_->cycle() < max_cycles)) {
            while (nextInjection_ < injections_.size() &&
                   injections_[nextInjection_].cycle <= cpu_->cycle()) {
                const Injection& inj = injections_[nextInjection_];
                BitArray& bits = targetBits(inj.target);
                if (deadFaultPruning_ && !inj.untracked) {
                    for (const BitFlip& flip : inj.flips)
                        bits.trackFlip(flip.row, flip.col);
                    if (std::find(trackedArrays_.begin(),
                                  trackedArrays_.end(),
                                  &bits) == trackedArrays_.end()) {
                        trackedArrays_.push_back(&bits);
                    }
                }
                for (const BitFlip& flip : inj.flips)
                    bits.flipBit(flip.row, flip.col);
                if (deadFaultPruning_ && !inj.prePruned)
                    pruneDeadOnArrival(inj);
                lastInjectionCycle_ = cpu_->cycle();
                ++nextInjection_;
            }

            // Early-termination checks, active once every injection is
            // in the machine (an untracked pending flip could still
            // change the outcome).
            if (nextInjection_ == injections_.size() &&
                !injections_.empty()) {
                uint32_t live = 0;
                bool propagated = false;
                if (deadFaultPruning_ && !deadCheckDisabled_) {
                    for (const BitArray* bits : trackedArrays_) {
                        propagated |= bits->flipPropagated();
                        live += bits->liveFlips();
                    }
                    if (propagated) {
                        // The fault escaped into uncorrupted state;
                        // liveness of the remaining bits proves
                        // nothing anymore.
                        deadCheckDisabled_ = true;
                    } else if (live == 0) {
                        result.earlyExit = EarlyExit::DeadFault;
                        break;
                    }
                }
                if (goldenDigests_ &&
                    cpu_->cycle() > lastInjectionCycle_) {
                    while (nextDigest_ < goldenDigests_->size() &&
                           (*goldenDigests_)[nextDigest_].cycle <
                               cpu_->cycle()) {
                        ++nextDigest_;
                    }
                    if (nextDigest_ < goldenDigests_->size() &&
                        (*goldenDigests_)[nextDigest_].cycle ==
                            cpu_->cycle()) {
                        // While unpropagated flips sit live in an
                        // array, the state provably differs from
                        // golden: skip the digest, it cannot match.
                        // This skip costs nothing, so it does not
                        // advance the geometric sampling stride.
                        bool surely_differs = deadFaultPruning_ &&
                                              !deadCheckDisabled_ &&
                                              live > 0;
                        if (surely_differs) {
                            ++nextDigest_;
                        } else if (goldenDigests_->back().cycle -
                                       cpu_->cycle() <
                                   digestInterval_) {
                            // Less than one rung interval of golden
                            // tail remains: a match here could not
                            // save even one interval of simulation,
                            // while the digest itself walks the whole
                            // machine. Stop checking for this run.
                            goldenDigests_ = nullptr;
                        } else if (stateDigest() ==
                                   (*goldenDigests_)[nextDigest_]
                                       .digest) {
                            result.earlyExit = EarlyExit::Converged;
                            break;
                        } else {
                            // A computed digest that differs: back off
                            // geometrically from the injection point
                            // so a never-converging run digests
                            // O(log rungs) times, not once per rung.
                            nextDigest_ += digestStride_;
                            digestStride_ *= 2;
                        }
                    }
                }
            }

            // Bound the stall skip (DESIGN.md §16) by the next cycle
            // this loop must observe exactly: the run budget (golden
            // recording digests at precise cuts), the next pending
            // injection, or — once every injection is in — the next
            // golden digest rung (matched by cycle equality above).
            // The liveness early-exit needs no bound: flips die only
            // in counted ticks, which never skip.
            uint64_t skip_bound =
                max_cycles == 0 ? UINT64_MAX : max_cycles;
            if (nextInjection_ < injections_.size()) {
                skip_bound = std::min(
                    skip_bound, injections_[nextInjection_].cycle);
            } else if (goldenDigests_ &&
                       nextDigest_ < goldenDigests_->size()) {
                skip_bound = std::min(
                    skip_bound, (*goldenDigests_)[nextDigest_].cycle);
            }
            cpu_->tick(skip_bound);
        }
        if (result.earlyExit != EarlyExit::None) {
            // The caller substitutes golden's outcome and terminal
            // counts; status here describes only the truncated run.
            result.earlyExitCycle = cpu_->cycle();
            result.status.kind = ExitKind::LimitReached;
        } else if (cpu_->halted()) {
            result.status = cpu_->exitStatus();
        } else {
            result.status.kind = ExitKind::LimitReached;
        }
    } catch (const SimAssert&) {
        // Backstop: an assertion outside instruction context.
        result.status.kind = ExitKind::SimAssert;
    }

    result.output = system_->output();
    result.cycles = cpu_->cycle();
    result.instructions = cpu_->stats().committed;
    result.cpuStats = cpu_->stats();
    result.l1iStats = cpu_->l1i().stats();
    result.l1dStats = cpu_->l1d().stats();
    result.l2Stats = cpu_->l2().stats();
    result.itlbStats = cpu_->itlb().stats();
    result.dtlbStats = cpu_->dtlb().stats();
    result.pageWalks = system_->mmu().pageWalks();
    return result;
}

} // namespace mbusim::sim
