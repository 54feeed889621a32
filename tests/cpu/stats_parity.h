/**
 * @file
 * Field-by-field RunStats equality for the engine-parity suites: the
 * decode-per-fetch, scalar predecode and blocks engines must agree on
 * every counter and flag a run produces.
 */

#ifndef RTDC_TESTS_CPU_STATS_PARITY_H
#define RTDC_TESTS_CPU_STATS_PARITY_H

#include <string>

#include <gtest/gtest.h>

#include "cpu/cpu.h"

namespace rtd::cpu {

/** Field-by-field RunStats equality with a labelled failure message. */
inline void
expectIdenticalStats(const RunStats &on, const RunStats &off,
                     const std::string &label)
{
    EXPECT_EQ(on.cycles, off.cycles) << label;
    EXPECT_EQ(on.userInsns, off.userInsns) << label;
    EXPECT_EQ(on.handlerInsns, off.handlerInsns) << label;
    EXPECT_EQ(on.icacheAccesses, off.icacheAccesses) << label;
    EXPECT_EQ(on.icacheMisses, off.icacheMisses) << label;
    EXPECT_EQ(on.compressedMisses, off.compressedMisses) << label;
    EXPECT_EQ(on.nativeMisses, off.nativeMisses) << label;
    EXPECT_EQ(on.dcacheAccesses, off.dcacheAccesses) << label;
    EXPECT_EQ(on.dcacheMisses, off.dcacheMisses) << label;
    EXPECT_EQ(on.writebacks, off.writebacks) << label;
    EXPECT_EQ(on.branchLookups, off.branchLookups) << label;
    EXPECT_EQ(on.branchMispredicts, off.branchMispredicts) << label;
    EXPECT_EQ(on.loadUseStalls, off.loadUseStalls) << label;
    EXPECT_EQ(on.exceptions, off.exceptions) << label;
    EXPECT_EQ(on.procFaults, off.procFaults) << label;
    EXPECT_EQ(on.procEvictions, off.procEvictions) << label;
    EXPECT_EQ(on.procCompactedBytes, off.procCompactedBytes) << label;
    EXPECT_EQ(on.procDecompressedBytes, off.procDecompressedBytes)
        << label;
    EXPECT_EQ(on.dmemFaults, off.dmemFaults) << label;
    EXPECT_EQ(on.dmemEvictions, off.dmemEvictions) << label;
    EXPECT_EQ(on.dmemSpills, off.dmemSpills) << label;
    EXPECT_EQ(on.dmemDecompressedBytes, off.dmemDecompressedBytes)
        << label;
    EXPECT_EQ(on.l2Hits, off.l2Hits) << label;
    EXPECT_EQ(on.l2Misses, off.l2Misses) << label;
    EXPECT_EQ(on.machineChecks, off.machineChecks) << label;
    EXPECT_EQ(on.integrityRetries, off.integrityRetries) << label;
    EXPECT_EQ(on.machineCheckHalt, off.machineCheckHalt) << label;
    EXPECT_EQ(on.cancelled, off.cancelled) << label;
    EXPECT_EQ(on.faultKind, off.faultKind) << label;
    EXPECT_EQ(on.faultAddr, off.faultAddr) << label;
    EXPECT_EQ(on.halted, off.halted) << label;
    EXPECT_EQ(on.timedOut, off.timedOut) << label;
    EXPECT_EQ(on.exitCode, off.exitCode) << label;
    EXPECT_EQ(on.resultValue, off.resultValue) << label;
}

} // namespace rtd::cpu

#endif // RTDC_TESTS_CPU_STATS_PARITY_H
