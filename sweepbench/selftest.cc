/**
 * @file
 * Oracle self-test: the straight-simulation oracle must catch the
 * known digest-collision false convergence. At seed 0x5eed with 60
 * injections per cell, the sweep retires FFT/L1D/1-bit run 46 as
 * Masked by convergence at 112,553 cycles, while the straight run of
 * the same (seed, index) is an SDC at 112,562 cycles.
 *
 * Registered with ctest in this package; `run.py --self-test` builds
 * and runs it. Exits 0 when the oracle reports that run as a mismatch.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "util/log.hh"

using namespace mbusim;
using namespace sweepbench;

int
main()
{
    const std::string trace_file = strprintf(
        "%s/sweepbench-selftest-%d.jsonl",
        std::filesystem::current_path().c_str(),
        static_cast<int>(::getpid()));
    const uint32_t threads =
        std::max(1u, std::thread::hardware_concurrency());

    WorkloadSpec spec{"selftest", {"FFT"}, 60, false};
    core::StudyConfig sc = studyConfig(
        spec, 0x5eed, threads, "", std::make_shared<JsonlWriter>(trace_file));
    {
        core::Study study(sc);
        core::SweepReport report = study.runSweep();
        if (report.runsSimulated != 18u * 60u) {
            std::fprintf(stderr, "selftest: sweep simulated %llu runs\n",
                         static_cast<unsigned long long>(
                             report.runsSimulated));
            return 1;
        }
    }
    sc.trace->close();
    std::vector<TraceRecord> records = readTrace(trace_file);
    std::filesystem::remove(trace_file);

    // Every converged run, no sample of the other paths.
    sc.trace.reset();
    OracleResult o = runOracle(sc, records, 0, threads, true);

    const std::string want =
        "FFT/l1d/f1 run 46: sweep Masked (exit=converged, 112553 "
        "cycles) vs straight SDC (112562 cycles): outcome mismatch";
    for (const std::string& f : o.failures) {
        if (f == want) {
            std::printf("selftest: PASS (%llu converged runs checked, "
                        "%llu mismatches)\n",
                        static_cast<unsigned long long>(
                            o.convergedChecked),
                        static_cast<unsigned long long>(o.mismatches));
            return 0;
        }
    }
    std::fprintf(stderr,
                 "selftest: FAIL: the oracle did not report\n  %s\n"
                 "(%llu converged runs checked, %llu mismatches)\n",
                 want.c_str(),
                 static_cast<unsigned long long>(o.convergedChecked),
                 static_cast<unsigned long long>(o.mismatches));
    return 1;
}
