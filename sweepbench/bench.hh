/**
 * @file
 * Pieces of the sweep benchmark shared by its phases
 * (main.cc) and the oracle self-test (selftest.cc): the workload
 * definitions, the run-trace reader and records digest, and the
 * straight-simulation oracle.
 *
 * Everything here calls the mbusim libraries through their public
 * headers only; the benchmark changes no program code.
 */

#ifndef SWEEPBENCH_BENCH_HH
#define SWEEPBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/study.hh"
#include "util/metrics.hh"

namespace sweepbench {

/** Run @p fn on @p threads threads and join them all. */
template <typename Fn>
void
onPool(uint32_t threads, Fn fn)
{
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t)
        pool.emplace_back(fn);
    for (auto& t : pool)
        t.join();
}

/** One benchmark workload: a sweep configuration. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> programs;  ///< empty = all 15
    uint32_t injections = 0;            ///< N per cell
    bool fleet = false;                 ///< runDistributedSweep
};

/** The workload called @p name, or nullptr. */
const WorkloadSpec* findWorkload(const std::string& name);

/**
 * The StudyConfig of one sweep, every field set explicitly: no disk
 * cache, no deadline, the global-queue scheduler, the default CPU with
 * the decode memo on, and @p journal_dir / @p trace as given.
 */
mbusim::core::StudyConfig
studyConfig(const WorkloadSpec& spec, uint64_t seed, uint32_t threads,
            const std::string& journal_dir,
            std::shared_ptr<mbusim::JsonlWriter> trace);

/** One line of a StudyConfig::trace JSONL file. */
struct TraceRecord
{
    std::string workload;
    std::string component;   ///< short name, e.g. "l1d"
    uint32_t faults = 0;
    uint32_t run = 0;
    std::string outcome;     ///< outcomeName(), e.g. "Masked"
    std::string exit;        ///< "none", "dead_fault" or "converged"
    uint64_t cycles = 0;
    bool forkedKnown = false;  ///< forked_at was a cycle, not null
    /** The line up to its host-side tail (cohort, replayed, wall_us,
     *  forked_at): the deterministic part of the record. */
    std::string stable;

    /** "FFT/l1d/f1 run 46" */
    std::string id() const;
};

/** Parse a trace file; fatal() on a malformed line. */
std::vector<TraceRecord> readTrace(const std::string& path);

/** FNV-1a over the sorted stable parts of @p records, so the digest
 *  does not depend on the order cells finalized in. */
uint64_t recordsDigest(const std::vector<TraceRecord>& records);

/** What the straight-simulation oracle found. */
struct OracleResult
{
    uint64_t checked = 0;
    uint64_t convergedChecked = 0;
    uint64_t mismatches = 0;   ///< outcome class differs
    uint64_t errors = 0;       ///< straight run ended Outcome::Error
    /** Runs checked per exit path: the early-exit reason
     *  ("converged", "dead_fault"), else "forked" or "never_forked"
     *  off the lockstep cursor ("full_length" when unknown). */
    std::vector<std::pair<std::string, uint64_t>> byPath;
    /** Vacuity: an exit path the sample should hold but does not. */
    std::vector<std::string> missingPaths;
    /** Identities of the failed runs, one line each. */
    std::vector<std::string> failures;
};

/**
 * Re-simulate runs of a finished sweep straight through
 * Campaign::Execution — early exit, cohort batching, lockstep, delta
 * snapshots and the decode memo all off; checkpoint restore on — and
 * compare outcome classes. Checks every converged run plus the first
 * @p per_path runs of each other exit path in a fixed hash order.
 * Mismatches and Error outcomes are named on stderr and counted.
 */
OracleResult runOracle(const mbusim::core::StudyConfig& study,
                       const std::vector<TraceRecord>& records,
                       uint32_t per_path, uint32_t threads,
                       bool fork_known);

} // namespace sweepbench

#endif // SWEEPBENCH_BENCH_HH
