/**
 * @file
 * Block-execution engine guardrails.
 *
 * The block engine (CpuConfig::blockExec) dispatches straight-line runs
 * of predecoded instructions with one I-cache tag check and one batched
 * stats add per block. It is pure host-side memoization: a run with
 * blocks on must produce *identical* RunStats — cycles, misses,
 * interlock stalls, everything — to the same run with blocks off, for
 * every compression scheme, including while decompression handlers
 * swic-install words into lines whose blocks are being dispatched.
 * Below: the backward block scanner (named cases, then every word of
 * random windows against a forward oracle), the I-cache frame's block
 * metas (rescanned after every change to the frame's words), the
 * handler RAM's load-time blocks, and end-to-end RunStats parity across
 * schemes, eviction pressure, mid-block timeouts, handler instruction
 * budgets that expire mid-block, and machine checks raised in the
 * middle of a block.
 */

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "core/system.h"
#include "fault/fault.h"
#include "isa/blocks.h"
#include "isa/predecode.h"
#include "mem/handler_ram.h"
#include "obs/observer.h"
#include "runtime/handlers.h"
#include "stats_parity.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;

isa::DecodedInst
di(uint32_t word)
{
    return isa::predecode(word);
}

uint32_t
addiuWord(uint8_t rs, uint8_t rt, uint16_t imm)
{
    return isa::encodeI(isa::Op::Addiu, rs, rt, imm);
}

uint32_t
iretWord()
{
    isa::Instruction inst;
    inst.op = isa::Op::Iret;
    return isa::encode(inst);
}

/** An unassigned primary opcode: the word does not decode. */
constexpr uint32_t kInvalidWord = 0x3eu << 26;

/**
 * The forward scanner the backward pass replaced, kept as the oracle:
 * the block entered at insts[0], looking at most @p n words ahead.
 */
isa::BlockMeta
forwardScan(const isa::DecodedInst *insts, uint32_t n, bool swic_ends)
{
    isa::BlockMeta meta;
    if (!insts[0].inst.valid()) {
        meta.len = 1;
        meta.startsInvalid = true;
        return meta;
    }
    uint32_t limit = std::min(n, isa::kMaxBlockWords);
    for (uint32_t i = 0; i < limit; ++i) {
        const isa::DecodedInst &d = insts[i];
        if (!d.inst.valid())
            break;
        if (i > 0 && insts[i - 1].isLoad && insts[i - 1].dest != 0) {
            for (unsigned s = 0; s < d.nsrc; ++s) {
                if (d.srcs[s] == insts[i - 1].dest) {
                    meta.stallMask |= 1u << i;
                    break;
                }
            }
        }
        ++meta.len;
        if (isa::endsBlock(d) && (swic_ends || d.inst.op != isa::Op::Swic))
            break;
    }
    meta.internalStalls =
        static_cast<uint8_t>(std::popcount(meta.stallMask));
    const isa::DecodedInst &last = insts[meta.len - 1];
    meta.lastLoadDest = last.isLoad ? last.dest : 0;
    return meta;
}

void
expectSameMeta(const isa::BlockMeta &got, const isa::BlockMeta &want,
               const std::string &label)
{
    EXPECT_EQ(got.len, want.len) << label;
    EXPECT_EQ(got.stallMask, want.stallMask) << label;
    EXPECT_EQ(got.internalStalls, want.internalStalls) << label;
    EXPECT_EQ(got.lastLoadDest, want.lastLoadDest) << label;
    EXPECT_EQ(got.startsInvalid, want.startsInvalid) << label;
}

/** The block entered at the first word of a @p n-word window. */
isa::BlockMeta
scanFirst(const isa::DecodedInst *insts, uint32_t n, bool swic_ends = true)
{
    std::vector<isa::BlockMeta> out(n);
    isa::scanBlocks(insts, n, out.data(), swic_ends);
    return out[0];
}

// ---------------------------------------------------------------------
// scanBlocks: named cases, then the forward oracle on random windows.
// ---------------------------------------------------------------------

TEST(ScanBlock, ControlTransfersTerminate)
{
    const uint32_t words[] = {
        addiuWord(0, isa::T0, 1),
        addiuWord(0, isa::T1, 2),
        isa::encodeI(isa::Op::Beq, isa::T0, isa::T1, 8),
        addiuWord(0, isa::T2, 3),  // starts the next block
    };
    isa::DecodedInst insts[4];
    for (int i = 0; i < 4; ++i)
        insts[i] = di(words[i]);
    isa::BlockMeta out[4];
    isa::scanBlocks(insts, 4, out, true);
    EXPECT_EQ(out[0].len, 3u);  // block includes its terminating branch
    EXPECT_EQ(out[1].len, 2u);
    EXPECT_EQ(out[2].len, 1u);
    EXPECT_EQ(out[3].len, 1u);
    EXPECT_FALSE(out[0].startsInvalid);

    isa::DecodedInst jr[2] = {di(isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0)),
                              di(addiuWord(0, isa::T0, 1))};
    EXPECT_EQ(scanFirst(jr, 2).len, 1u);

    isa::DecodedInst j[2] = {di(isa::encodeJ(isa::Op::J, 0x100)),
                             di(addiuWord(0, isa::T0, 1))};
    EXPECT_EQ(scanFirst(j, 2).len, 1u);
}

TEST(ScanBlock, SwicTerminatesIcacheBlocksOnly)
{
    // swic must end a block fetched from the I-cache (it can overwrite
    // the very words the block is executing) but not a handler-RAM
    // block (handler text is immutable).
    isa::DecodedInst insts[3] = {
        di(isa::encodeI(isa::Op::Swic, isa::T0, isa::T1, 0)),
        di(addiuWord(0, isa::T2, 1)),
        di(addiuWord(0, isa::T3, 2)),
    };
    EXPECT_EQ(scanFirst(insts, 3).len, 1u);
    EXPECT_EQ(scanFirst(insts, 3, /*swic_ends=*/false).len, 3u);
}

TEST(ScanBlock, LineBoundaryCapsLength)
{
    isa::DecodedInst insts[40];
    for (int i = 0; i < 40; ++i)
        insts[i] = di(addiuWord(0, isa::T0, static_cast<uint16_t>(i)));
    // No terminator: the window (a line's remaining words) caps the
    // block, and so does kMaxBlockWords.
    EXPECT_EQ(scanFirst(insts, 8).len, 8u);
    EXPECT_EQ(scanFirst(insts, 3).len, 3u);
    EXPECT_EQ(scanFirst(insts, 1).len, 1u);
    isa::BlockMeta out[40];
    isa::scanBlocks(insts, 40, out, true);
    for (uint32_t i = 0; i < 40; ++i)
        EXPECT_EQ(out[i].len, std::min(40 - i, isa::kMaxBlockWords)) << i;
}

TEST(ScanBlock, StallMaskCountsInBlockLoadUse)
{
    isa::DecodedInst insts[4] = {
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T1, 0)),
        di(isa::encodeR(isa::Op::Addu, isa::T1, isa::T0, isa::T2)),
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T3, 4)),
        di(addiuWord(isa::T0, isa::T4, 1)),  // does not consume t3
    };
    isa::BlockMeta m = scanFirst(insts, 4);
    EXPECT_EQ(m.len, 4u);
    // Only instruction 1 consumes the destination of the load right
    // before it; bit 0 is reserved for the dynamic dispatch-time check.
    EXPECT_EQ(m.stallMask, 0b0010u);
    EXPECT_EQ(m.internalStalls, 1u);
    // The block ends on a non-load, so no interlock state leaves it.
    EXPECT_EQ(m.lastLoadDest, 0u);
    // Entered one word later, the same stall is the entry interlock,
    // checked at dispatch: no in-block stall remains.
    isa::BlockMeta out[4];
    isa::scanBlocks(insts, 4, out, true);
    EXPECT_EQ(out[1].stallMask, 0u);
    EXPECT_EQ(out[1].internalStalls, 0u);
}

TEST(ScanBlock, LastLoadDestCarriesOut)
{
    isa::DecodedInst insts[2] = {
        di(addiuWord(0, isa::T0, 1)),
        di(isa::encodeI(isa::Op::Lw, isa::Sp, isa::T5, 0)),
    };
    isa::BlockMeta m = scanFirst(insts, 2);
    EXPECT_EQ(m.len, 2u);
    EXPECT_EQ(m.lastLoadDest, isa::T5);
}

TEST(ScanBlock, InvalidWordStartsItsOwnBlock)
{
    isa::DecodedInst bad = di(kInvalidWord);
    ASSERT_FALSE(bad.inst.valid());

    // First word invalid: one-instruction block flagged startsInvalid.
    isa::BlockMeta m = scanFirst(&bad, 1);
    EXPECT_EQ(m.len, 1u);
    EXPECT_TRUE(m.startsInvalid);

    // Later word invalid: the block ends *before* it, so the faulting
    // word is dispatched (and faults) at its own PC, exactly like the
    // per-instruction path.
    isa::DecodedInst insts[3] = {di(addiuWord(0, isa::T0, 1)),
                                 di(addiuWord(0, isa::T1, 2)), bad};
    isa::BlockMeta m2 = scanFirst(insts, 3);
    EXPECT_EQ(m2.len, 2u);
    EXPECT_FALSE(m2.startsInvalid);
}

TEST(ScanBlock, MatchesTheForwardOracleOnEveryWord)
{
    // Words skewed toward long straight-line runs over four registers,
    // so load-use pairs are common and many windows hit the 32-word
    // cap; the rest are every kind of block end and undecodable words.
    const uint8_t regs[] = {isa::T0, isa::T1, isa::T2, isa::T3};
    std::mt19937_64 rng(17);
    auto reg = [&] { return regs[rng() % 4]; };
    auto word = [&]() -> uint32_t {
        switch (rng() % 20) {
          case 0: return isa::encodeI(isa::Op::Beq, reg(), reg(), 4);
          case 1: return isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0);
          case 2: return isa::encodeI(isa::Op::Swic, reg(), reg(), 0);
          case 3: return rng() % 2 ? iretWord()
                                   : isa::encodeI(isa::Op::Halt, 0, 0, 0);
          case 4: return kInvalidWord;
          case 5: case 6: case 7: case 8:
            return isa::encodeI(isa::Op::Lw, isa::Sp, reg(), 0);
          case 9: case 10: case 11:
            return isa::encodeR(isa::Op::Addu, reg(), reg(), reg());
          default:
            return addiuWord(reg(), reg(), 1);
        }
    };
    unsigned capped = 0, stalled = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        uint32_t n = 1 + static_cast<uint32_t>(rng() % 40);
        // A third of the windows have no block end at all: handler
        // spans longer than a block, which only the cap cuts.
        bool straight = trial % 3 == 0;
        std::vector<isa::DecodedInst> insts(n);
        for (isa::DecodedInst &d : insts) {
            d = di(straight ? (rng() % 2 ? isa::encodeI(isa::Op::Lw,
                                                        isa::Sp, reg(), 0)
                                         : addiuWord(reg(), reg(), 1))
                            : word());
        }
        for (bool swic_ends : {true, false}) {
            std::vector<isa::BlockMeta> out(n);
            isa::scanBlocks(insts.data(), n, out.data(), swic_ends);
            for (uint32_t i = 0; i < n; ++i) {
                isa::BlockMeta want =
                    forwardScan(insts.data() + i, n - i, swic_ends);
                expectSameMeta(out[i], want,
                               "trial " + std::to_string(trial) +
                                   " word " + std::to_string(i) +
                                   (swic_ends ? "" : " handler"));
                capped += want.len == isa::kMaxBlockWords;
                stalled += want.internalStalls > 0;
            }
        }
    }
    // The cases the backward pass can get wrong did occur.
    EXPECT_GT(capped, 100u);
    EXPECT_GT(stalled, 1000u);
}

// ---------------------------------------------------------------------
// I-cache frame metas: after any change to a frame's words, the next
// whole-line fetch must return metas equal to a fresh scan of the
// frame's decoded mirror. (The suite keeps the name it had when frames
// carried generation stamps instead.)
// ---------------------------------------------------------------------

class CacheGen : public ::testing::Test
{
  protected:
    CacheGen() : icache_("icache", {1024, 32, 2})
    {
        icache_.enablePredecode();
    }

    void
    fillWith(uint32_t addr, uint32_t word)
    {
        uint8_t line[32];
        for (int w = 0; w < 8; ++w)
            std::memcpy(line + w * 4, &word, 4);
        icache_.fillLine(addr, line);
    }

    /**
     * Fetch the (present) line at @p addr without counting it, and
     * check both frame invariants: the mirror decodes the line's bytes,
     * and the metas are a fresh scan of the mirror.
     */
    cache::FetchLine
    expectFresh(uint32_t addr)
    {
        cache::FetchLine line;
        icache_.peekFetchLine(addr, line);
        const uint32_t words = icache_.config().lineBytes / 4;
        const uint32_t base = icache_.lineAddr(addr);
        std::vector<isa::BlockMeta> want(words);
        isa::scanBlocks(line.decoded, words, want.data(), true);
        for (uint32_t w = 0; w < words; ++w) {
            EXPECT_EQ(line.decoded[w].word, icache_.read32(base + w * 4));
            expectSameMeta(line.meta[w], want[w],
                           "word " + std::to_string(w));
        }
        return line;
    }

    cache::Cache icache_;
};

TEST_F(CacheGen, FillAndRefillBump)
{
    fillWith(0x1000, isa::nopWord());
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 8u);
    // In-place refill of the same line: tag and frame are unchanged,
    // but the contents differ, so the frame must be rescanned.
    fillWith(0x1000, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 1u);
}

TEST_F(CacheGen, SwicOverwriteBumps)
{
    fillWith(0x1000, isa::nopWord());
    expectFresh(0x1000);
    icache_.swicWrite(0x1008, addiuWord(0, isa::T1, 3));
    icache_.swicWrite(0x1010, isa::encodeI(isa::Op::Halt, 0, 0, 0));
    cache::FetchLine line = expectFresh(0x1000);
    EXPECT_EQ(line.meta[0].len, 5u);
    // The decoded mirror followed the overwrite (predecode invariant).
    EXPECT_EQ(icache_.decodedAt(0x1008).inst.op, isa::Op::Addiu);
}

TEST_F(CacheGen, EvictionReuseGetsFreshGen)
{
    // 1KB/32B/2-way = 16 sets: addresses 1024 bytes apart share a set.
    fillWith(0x1000, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 1u);
    fillWith(0x1400, isa::nopWord());
    fillWith(0x1800, isa::nopWord());  // evicts 0x1000 (LRU)
    EXPECT_FALSE(icache_.probe(0x1000));
    // 0x1800 reuses 0x1000's frame: its metas describe the new words.
    EXPECT_EQ(expectFresh(0x1800).meta[0].len, 8u);
    // A swic allocation reuses a frame too, with only one word written:
    // the rescan covers the words the frame kept from before.
    icache_.swicWrite(0x1004, isa::encodeI(isa::Op::Halt, 0, 0, 0));
    EXPECT_TRUE(icache_.probe(0x1000));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 2u);
}

TEST_F(CacheGen, WritePathsBump)
{
    fillWith(0x1000, isa::nopWord());
    expectFresh(0x1000);
    const uint32_t jr = isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0);
    icache_.write32(0x101c, jr);
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 8u);
    ASSERT_TRUE(icache_.accessWrite(0x1018, jr, 4));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 7u);
    // A halfword and a byte store each turn a nop into a branch.
    const uint32_t beq = isa::encodeI(isa::Op::Beq, 0, 0, 0);
    icache_.write16(0x1012, static_cast<uint16_t>(beq >> 16));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 5u);
    icache_.write8(0x100b, static_cast<uint8_t>(beq >> 24));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 3u);
    ASSERT_TRUE(icache_.accessWrite(0x1006, beq >> 16, 2));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 2u);
}

TEST_F(CacheGen, FlushAndInvalidationThenRefillRescan)
{
    fillWith(0x1000, isa::nopWord());
    expectFresh(0x1000);
    icache_.flush();
    EXPECT_FALSE(icache_.probe(0x1000));
    fillWith(0x1000, isa::encodeI(isa::Op::Lw, isa::Sp, isa::T0, 0));
    cache::FetchLine line = expectFresh(0x1000);
    EXPECT_EQ(line.meta[0].stallMask, 0u);  // loads into t0, none read it
    EXPECT_EQ(line.meta[0].lastLoadDest, isa::T0);

    EXPECT_EQ(icache_.invalidateRange(0x1000, 32), 1u);
    fillWith(0x1000, addiuWord(isa::T0, isa::T0, 1));
    EXPECT_EQ(expectFresh(0x1000).meta[0].lastLoadDest, 0u);
}

TEST_F(CacheGen, MetasRescanAtTheNextFetch)
{
    // Changes only mark the frame stale; the rescan happens when the
    // line is next fetched, into the same per-frame storage.
    fillWith(0x1000, isa::nopWord());
    cache::FetchLine line;
    ASSERT_TRUE(icache_.accessFetchLine(0x1000, line));
    EXPECT_EQ(line.meta[0].len, 8u);
    icache_.swicWrite(0x1008, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    EXPECT_EQ(line.meta[0].len, 8u);  // not rescanned yet
    cache::FetchLine after;
    ASSERT_TRUE(icache_.accessFetchLine(0x1000, after));
    EXPECT_EQ(after.meta, line.meta);
    EXPECT_EQ(line.meta[0].len, 3u);  // now ended by the installed jr
    // A clean frame is returned as it is.
    ASSERT_TRUE(icache_.accessFetchLine(0x1004, after));
    EXPECT_EQ(after.meta[1].len, 2u);
}

TEST_F(CacheGen, AccessFetchLineCountsLikeAccess)
{
    fillWith(0x1000, isa::nopWord());
    uint64_t hits0 = icache_.hits(), misses0 = icache_.misses();

    cache::FetchLine line;
    EXPECT_FALSE(icache_.accessFetchLine(0x2000, line));
    EXPECT_EQ(icache_.misses(), misses0 + 1);

    ASSERT_TRUE(icache_.accessFetchLine(0x1010, line));
    EXPECT_EQ(icache_.hits(), hits0 + 1);
    // The mirror pointer is line-base-relative and matches decodedAt.
    EXPECT_EQ(line.decoded + 4, &icache_.decodedAt(0x1010));

    // peekFetchLine: same answers, no statistics, no LRU touch.
    uint64_t hits1 = icache_.hits(), misses1 = icache_.misses();
    cache::FetchLine peeked;
    icache_.peekFetchLine(0x1010, peeked);
    EXPECT_EQ(peeked.decoded, line.decoded);
    EXPECT_EQ(peeked.meta, line.meta);
    EXPECT_EQ(icache_.hits(), hits1);
    EXPECT_EQ(icache_.misses(), misses1);

    // creditFetchHits: the batched stand-in for the k-1 fetches a block
    // dispatch collapsed away.
    icache_.creditFetchHits(5);
    EXPECT_EQ(icache_.hits(), hits1 + 5);
}

TEST_F(CacheGen, SwicInvalidatesCachedBlock)
{
    // The coherence story end-to-end at cache level: the block entered
    // at a line's first word must change when a swic lands in that
    // line, and the new block must see the new instruction.
    fillWith(0x1000, addiuWord(0, isa::T0, 1));
    EXPECT_EQ(expectFresh(0x1000).meta[0].len, 8u);
    icache_.swicWrite(0x1008, isa::encodeR(isa::Op::Jr, isa::Ra, 0, 0));
    cache::FetchLine after = expectFresh(0x1000);
    EXPECT_EQ(after.meta[0].len, 3u);  // now terminated by the installed jr
    EXPECT_EQ(after.meta[3].len, 5u);  // the words after it: a new block
}

TEST(FrameMetas, LinesOver128BytesCapBlocksAt32Words)
{
    // CacheConfig allows lines longer than a block can be: a 256-byte
    // line of straight-line code holds blocks of at most 32 words.
    cache::Cache icache("icache", {4096, 256, 2});
    icache.enablePredecode();
    std::vector<uint8_t> bytes(256);
    for (uint32_t w = 0; w < 64; ++w) {
        uint32_t word = addiuWord(0, isa::T0, static_cast<uint16_t>(w));
        std::memcpy(bytes.data() + w * 4, &word, 4);
    }
    icache.fillLine(0x4000, bytes.data());
    cache::FetchLine line;
    ASSERT_TRUE(icache.accessFetchLine(0x4000, line));
    for (uint32_t w = 0; w < 64; ++w)
        EXPECT_EQ(line.meta[w].len, std::min(64 - w, isa::kMaxBlockWords))
            << w;
}

// ---------------------------------------------------------------------
// Handler-RAM blocks: scanned at load, swic does not split them.
// ---------------------------------------------------------------------

TEST(HandlerBlocks, LoadPrecomputesConsistentBlocks)
{
    runtime::HandlerBuild handler =
        runtime::buildHandler(Scheme::Dictionary, false, 32);
    mem::HandlerRam ram;
    ram.load(handler.code);

    bool saw_interior_swic = false;
    for (uint32_t i = 0; i < handler.staticInsns(); ++i) {
        uint32_t addr = mem::HandlerRam::base + i * 4;
        const isa::DecodedInst *insts = nullptr;
        const isa::BlockMeta &m = ram.blockAt(addr, insts);
        EXPECT_EQ(insts, &ram.fetchDecoded(addr));
        ASSERT_GE(m.len, 1u);
        // The load-time scan must agree with the forward oracle over
        // the remaining handler text, swic non-terminating.
        expectSameMeta(m,
                       forwardScan(insts, handler.staticInsns() - i,
                                   /*swic_ends=*/false),
                       "handler word " + std::to_string(i));
        for (uint32_t w = 0; w + 1 < m.len; ++w) {
            if (insts[w].inst.op == isa::Op::Swic)
                saw_interior_swic = true;
        }
    }
    // The dictionary handler's install loop swics mid-block; if this
    // ever fails the swic_ends=false load-time scan regressed.
    EXPECT_TRUE(saw_interior_swic);
}

// ---------------------------------------------------------------------
// End-to-end parity: RunStats must not depend on blockExec.
// ---------------------------------------------------------------------

class BlockParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();
    }

    RunStats
    runWith(Scheme scheme, bool block_exec, bool rf = false)
    {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
        config.scheme = scheme;
        config.secondRegFile = rf;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    }

    prog::Program program_;
};

TEST_F(BlockParity, NativeRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::None, true),
                         runWith(Scheme::None, false), "native");
}

TEST_F(BlockParity, DictionaryRunIsIdentical)
{
    // The decompression handler swic-installs words into lines whose
    // blocks are being dispatched: the stale frames must be rescanned
    // or these counters diverge.
    expectIdenticalStats(runWith(Scheme::Dictionary, true),
                         runWith(Scheme::Dictionary, false), "dictionary");
    expectIdenticalStats(runWith(Scheme::Dictionary, true, true),
                         runWith(Scheme::Dictionary, false, true),
                         "dictionary+RF");
}

TEST_F(BlockParity, CodePackRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::CodePack, true),
                         runWith(Scheme::CodePack, false), "codepack");
}

TEST_F(BlockParity, HuffmanRunIsIdentical)
{
    expectIdenticalStats(runWith(Scheme::HuffmanLine, true),
                         runWith(Scheme::HuffmanLine, false), "huffman");
}

TEST_F(BlockParity, ProcCacheRunFallsBackIdentically)
{
    // The procedure-cache baseline invalidates I-lines on faults, so
    // user dispatch falls back to per-instruction stepping; the config
    // flag must still be safe to leave on.
    auto run = [&](bool block_exec) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
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
    expectIdenticalStats(on, off, "proccache");
}

TEST_F(BlockParity, EvictionPressureIsIdentical)
{
    // A 1KB I-cache forces constant eviction and refill, so frames are
    // reused for other lines mid-run and must be rescanned each time.
    auto run = [&](Scheme scheme, bool block_exec) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.cpu.blockExec = block_exec;
        config.cpu.icache.sizeBytes = 1024;
        config.scheme = scheme;
        core::System system(program_, config);
        RunStats stats = system.run().stats;
        EXPECT_TRUE(stats.halted);
        return stats;
    };
    for (Scheme scheme : {Scheme::None, Scheme::Dictionary}) {
        RunStats on = run(scheme, true);
        RunStats off = run(scheme, false);
        EXPECT_GT(on.icacheMisses, 1000u);
        expectIdenticalStats(on, off, "eviction pressure");
    }
}

TEST_F(BlockParity, MidBlockTimeoutIsIdentical)
{
    // A budget that expires mid-block must stop on exactly the same
    // instruction, cycle and stall counts as per-instruction stepping.
    for (uint64_t budget : {1u, 1000u, 12'345u, 54'321u}) {
        auto run = [&](bool block_exec) {
            core::SystemConfig config;
            config.cpu.maxUserInsns = budget;
            config.cpu.blockExec = block_exec;
                config.scheme = Scheme::Dictionary;
            core::System system(program_, config);
            return system.run().stats;
        };
        RunStats on = run(true);
        RunStats off = run(false);
        EXPECT_TRUE(on.timedOut) << budget;
        EXPECT_EQ(on.userInsns, budget);
        expectIdenticalStats(on, off, "timeout");
    }
}

/** Blocks vs scalar predecode with a handler instruction budget. */
RunStats
runWithHandlerBudget(const prog::Program &program, Scheme scheme,
                     bool block_exec, uint64_t budget)
{
    core::SystemConfig config;
    config.cpu.maxUserInsns = 20'000'000;
    config.cpu.blockExec = block_exec;
    config.cpu.handlerInsnBudget = budget;
    config.scheme = scheme;
    core::System system(program, config);
    return system.run().stats;
}

TEST_F(BlockParity, HandlerBudgetLatchesAtTheScalarInstruction)
{
    // A handler budget that expires in the middle of a handler block
    // must raise HandlerRunaway at the same instruction, hpc, cycle and
    // counts as per-instruction stepping: the block is cut to the
    // budget, never run to its end first. With the budget equal to the
    // longest handler invocation, that invocation's iret is the
    // budget's last instruction, and neither engine latches.
    for (Scheme scheme : {Scheme::Dictionary, Scheme::CodePack}) {
        core::SystemConfig config;
        config.cpu.maxUserInsns = 20'000'000;
        config.scheme = scheme;
        config.observe.enabled = true;
        core::System system(program_, config);
        ASSERT_TRUE(system.run().stats.halted);
        const obs::Log2Histogram *per_call =
            system.observer()->registry().findHistogram(
                "handler_insns_per_invocation");
        ASSERT_NE(per_call, nullptr);
        const uint64_t longest = per_call->max();
        ASSERT_GT(longest, 7u);

        for (uint64_t budget :
             {uint64_t{7}, uint64_t{64}, uint64_t{65}, uint64_t{1000},
              longest - 1, longest}) {
            std::string label = std::string(compress::schemeName(scheme)) +
                                " budget " + std::to_string(budget);
            RunStats scalar =
                runWithHandlerBudget(program_, scheme, false, budget);
            EXPECT_EQ(scalar.machineCheckHalt, budget < longest) << label;
            if (budget < longest) {
                EXPECT_EQ(scalar.faultKind, McKind::HandlerRunaway)
                    << label;
            }
            expectIdenticalStats(
                runWithHandlerBudget(program_, scheme, true, budget),
                scalar, label);
        }
    }
}

TEST_F(BlockParity, MidBlockMachineCheckStopsAtTheFaultingInstruction)
{
    // Corrupted images without integrity checks install wrong words
    // that run as user code; a misaligned access in the middle of a
    // block halts the run there. The block was charged up front, so
    // the engine must take back its tail to land on the counts
    // per-instruction stepping stops at.
    struct Case
    {
        Scheme scheme;
        uint64_t firstSeed;
    };
    unsigned user_faults = 0;
    for (const Case &c : {Case{Scheme::Dictionary, 33},
                          Case{Scheme::CodePack, 5},
                          Case{Scheme::HuffmanLine, 20}}) {
        for (uint64_t seed = c.firstSeed; seed < c.firstSeed + 8; ++seed) {
            auto run = [&](bool block_exec) {
                core::SystemConfig config;
                config.cpu.maxUserInsns = 3'000'000;
                config.cpu.blockExec = block_exec;
                config.cpu.mcRetryLimit = 1;
                config.cpu.handlerInsnBudget = 1'000'000;
                config.scheme = c.scheme;
                fault::FaultPlan plan;
                plan.seed = seed;
                plan.site = fault::Site::Any;
                plan.count = 1 + seed % 3;
                config.fault.plans.push_back(plan);
                core::System system(program_, config);
                return system.run().stats;
            };
            RunStats scalar = run(false);
            if (scalar.faultKind == McKind::MisalignedData)
                ++user_faults;
            expectIdenticalStats(run(true), scalar,
                                 std::string(compress::schemeName(
                                     c.scheme)) +
                                     " seed " + std::to_string(seed));
        }
    }
    // The seeds were picked so that several runs do fault mid-block.
    EXPECT_GE(user_faults, 3u);
}

} // namespace
} // namespace rtd::cpu
