/**
 * @file
 * Predecode fast-path guardrails.
 *
 * The decode-once caches (I-cache decoded lines, predecoded handler RAM)
 * are pure host-side memoization: a run with CpuConfig::predecode on
 * must produce *identical* RunStats — cycles, misses, exceptions,
 * everything — to the same run with predecode forced off, for every
 * compression scheme. A second set of tests checks the cache-level
 * invariant directly: the decoded entry of a line always mirrors its
 * data bytes, including across swic overwrites and re-fills.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/system.h"
#include "stats_parity.h"
#include "isa/decode.h"
#include "isa/predecode.h"
#include "mem/handler_ram.h"
#include "runtime/handlers.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;

class PredecodeParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();
    }

    RunStats
    runWith(Scheme scheme, bool predecode, bool rf = false)
    {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.predecode = predecode;
        config.scheme = scheme;
        config.secondRegFile = rf;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    }

    prog::Program program_;
};

TEST_F(PredecodeParity, NativeRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::None, true),
                         runWith(Scheme::None, false), "native");
}

TEST_F(PredecodeParity, DictionaryRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::Dictionary, true),
                         runWith(Scheme::Dictionary, false), "dictionary");
    expectIdenticalStats(runWith(Scheme::Dictionary, true, true),
                         runWith(Scheme::Dictionary, false, true),
                         "dictionary+RF");
}

TEST_F(PredecodeParity, CodePackRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::CodePack, true),
                         runWith(Scheme::CodePack, false), "codepack");
}

TEST_F(PredecodeParity, HuffmanRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::HuffmanLine, true),
                         runWith(Scheme::HuffmanLine, false), "huffman");
}

TEST_F(PredecodeParity, ProcCacheRunIsIdentical)
{
    // Small capacity forces faults, evictions and compaction, exercising
    // the procedure-fault flow (invalidation, coherence flush) under
    // both fetch paths.
    auto run = [&](bool predecode) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.predecode = predecode;
        config.scheme = Scheme::ProcLzrw1;
        config.procCache.capacityBytes = 4 * 1024;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    };
    RunStats on = run(true);
    RunStats off = run(false);
    EXPECT_GT(on.procFaults, 0u);
    EXPECT_GT(on.procEvictions, 0u);
    expectIdenticalStats(on, off, "proccache");
}

// ---------------------------------------------------------------------
// Cache-level decoded-store invariants.
// ---------------------------------------------------------------------

TEST(PredecodeCache, FillDecodesWholeLine)
{
    cache::Cache icache("icache", {1024, 32, 2});
    icache.enablePredecode();

    uint8_t line[32];
    for (uint32_t w = 0; w < 8; ++w) {
        uint32_t word = isa::encodeI(isa::Op::Addiu, 0, isa::T0,
                                     static_cast<uint16_t>(w));
        std::memcpy(line + w * 4, &word, 4);
    }
    icache.fillLine(0x1000, line);
    for (uint32_t w = 0; w < 8; ++w) {
        const isa::DecodedInst &d = icache.decodedAt(0x1000 + w * 4);
        EXPECT_EQ(d.inst.op, isa::Op::Addiu);
        EXPECT_EQ(d.inst.imm, w);
        EXPECT_EQ(d.dest, isa::T0);
        EXPECT_FALSE(d.isLoad);
    }
}

TEST(PredecodeCache, SwicOverwriteInvalidatesDecodedEntry)
{
    cache::Cache icache("icache", {1024, 32, 2});
    icache.enablePredecode();

    // Install a line of nops, then overwrite one cached word with a
    // different instruction via swic: the decoded entry must follow.
    uint8_t line[32];
    uint32_t nop = isa::nopWord();
    for (uint32_t w = 0; w < 8; ++w)
        std::memcpy(line + w * 4, &nop, 4);
    icache.fillLine(0x2000, line);
    ASSERT_EQ(icache.decodedAt(0x2008).inst.op, isa::Op::Sll);

    uint32_t lw = isa::encodeI(isa::Op::Lw, isa::Sp, isa::T1, 16);
    icache.swicWrite(0x2008, lw);
    const isa::DecodedInst &d = icache.decodedAt(0x2008);
    EXPECT_EQ(d.inst.op, isa::Op::Lw);
    EXPECT_TRUE(d.isLoad);
    EXPECT_EQ(d.dest, isa::T1);
    // Neighbouring words keep their decode.
    EXPECT_EQ(icache.decodedAt(0x2004).inst.op, isa::Op::Sll);
    EXPECT_EQ(icache.decodedAt(0x200c).inst.op, isa::Op::Sll);
    // The raw data and the decoded mirror agree.
    EXPECT_EQ(icache.read32(0x2008), lw);
}

TEST(PredecodeCache, AccessFetchMatchesAccessReadAndDecode)
{
    cache::Cache a("a", {1024, 32, 2});
    cache::Cache b("b", {1024, 32, 2});
    a.enablePredecode();

    uint8_t line[32];
    for (uint32_t w = 0; w < 8; ++w) {
        uint32_t word =
            isa::encodeR(isa::Op::Addu, isa::T0, isa::T1, isa::T2);
        std::memcpy(line + w * 4, &word, 4);
    }
    a.fillLine(0x3000, line);
    b.fillLine(0x3000, line);

    // Miss: both combined entry points count one miss, read nothing.
    EXPECT_EQ(a.accessFetch(0x4000), nullptr);
    uint32_t word = 0xdeadbeef;
    EXPECT_FALSE(b.accessRead(0x4000, word));
    EXPECT_EQ(word, 0xdeadbeefu);
    EXPECT_EQ(a.misses(), 1u);
    EXPECT_EQ(b.misses(), 1u);

    // Hit: one lookup yields the decoded entry / the word.
    const isa::DecodedInst *d = a.accessFetch(0x3004);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(b.accessRead(0x3004, word));
    EXPECT_EQ(d->word, word);
    EXPECT_EQ(d->inst.op, isa::decode(word).op);
    EXPECT_EQ(a.hits(), 1u);
    EXPECT_EQ(b.hits(), 1u);
}

TEST(PredecodeHandlerRam, LoadPredecodesWholeHandler)
{
    runtime::HandlerBuild handler =
        runtime::buildHandler(Scheme::Dictionary, false, 32);
    mem::HandlerRam ram;
    ram.load(handler.code);
    for (uint32_t i = 0; i < handler.staticInsns(); ++i) {
        uint32_t addr = mem::HandlerRam::base + i * 4;
        const isa::DecodedInst &d = ram.fetchDecoded(addr);
        uint32_t word = ram.fetch(addr);
        EXPECT_EQ(d.word, word);
        EXPECT_EQ(d.inst.op, isa::decode(word).op);
        uint8_t srcs[2];
        EXPECT_EQ(d.nsrc, isa::srcRegs(d.inst, srcs));
        EXPECT_EQ(d.isLoad, isa::isLoad(d.inst.op));
        EXPECT_EQ(d.isCondBranch, isa::isCondBranch(d.inst.op));
        EXPECT_EQ(d.dest, isa::destReg(d.inst));
    }
}

} // namespace
} // namespace rtd::cpu
