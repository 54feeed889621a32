/**
 * @file
 * Tests for the fault-injection subsystem and the hardened recovery
 * paths it exercises (DESIGN.md section 12): deterministic injection,
 * CRC integrity metadata, structured (non-fatal) error reporting,
 * machine-check halts, and the sweep harness's crash isolation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compress/codepack.h"
#include "compress/dictionary.h"
#include "compress/huffman.h"
#include "compress/integrity.h"
#include "core/experiment.h"
#include "core/system.h"
#include "fault/fault.h"
#include "harness/artifact_cache.h"
#include "harness/runner.h"
#include "support/crc32.h"
#include "support/logging.h"
#include "support/rng.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::fault {
namespace {

using compress::CompressedImage;
using compress::Scheme;

/** A small dictionary-compressed image to inject into. */
CompressedImage
smallImage()
{
    Rng rng(7);
    std::vector<uint32_t> words(512);
    for (auto &w : words)
        w = static_cast<uint32_t>(rng.nextBelow(32)) * 0x01010101u;
    CompressedImage image = compress::DictionaryCompressor::buildImage(
        words, 0x00400000);
    compress::attachIntegrity(image, words, 32);
    return image;
}

TEST(FaultSites, SegmentMappingPerScheme)
{
    EXPECT_STREQ(siteSegmentName(Scheme::Dictionary, Site::Stream),
                 ".indices");
    EXPECT_STREQ(siteSegmentName(Scheme::Dictionary, Site::Dictionary),
                 ".dictionary");
    EXPECT_EQ(siteSegmentName(Scheme::Dictionary, Site::HighDict),
              nullptr);
    EXPECT_STREQ(siteSegmentName(Scheme::CodePack, Site::Stream),
                 ".codewords");
    EXPECT_STREQ(siteSegmentName(Scheme::CodePack, Site::MapTable),
                 ".map");
    EXPECT_STREQ(siteSegmentName(Scheme::CodePack, Site::HighDict),
                 ".highdict");
    EXPECT_STREQ(siteSegmentName(Scheme::HuffmanLine, Site::Stream),
                 ".huffstream");
    EXPECT_STREQ(siteSegmentName(Scheme::HuffmanLine, Site::MapTable),
                 ".hufflat");
    EXPECT_STREQ(siteSegmentName(Scheme::HuffmanLine, Site::Dictionary),
                 ".hufftab");
    EXPECT_STREQ(siteSegmentName(Scheme::Dictionary, Site::CrcTable),
                 ".crc");
    EXPECT_EQ(siteSegmentName(Scheme::None, Site::Stream), nullptr);
    EXPECT_EQ(siteSegmentName(Scheme::ProcLzrw1, Site::Stream), nullptr);
}

TEST(FaultSites, NameRoundTrip)
{
    for (Site s : {Site::Stream, Site::Dictionary, Site::HighDict,
                   Site::LowDict, Site::MapTable, Site::CrcTable,
                   Site::Truncate, Site::Any}) {
        Site parsed;
        ASSERT_TRUE(siteFromName(siteName(s), parsed)) << siteName(s);
        EXPECT_EQ(parsed, s);
    }
    Site parsed;
    EXPECT_FALSE(siteFromName("no-such-site", parsed));
}

TEST(FaultInject, DeterministicPerSeed)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.site = Site::Any;
    plan.count = 5;

    CompressedImage a = smallImage();
    CompressedImage b = smallImage();
    FaultReport ra = inject(a, plan);
    FaultReport rb = inject(b, plan);

    ASSERT_EQ(ra.injections.size(), 5u);
    ASSERT_EQ(rb.injections.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(ra.injections[i].segment, rb.injections[i].segment);
        EXPECT_EQ(ra.injections[i].offset, rb.injections[i].offset);
        EXPECT_EQ(ra.injections[i].bitMask, rb.injections[i].bitMask);
    }
    for (size_t s = 0; s < a.segments.size(); ++s)
        EXPECT_EQ(a.segments[s].bytes, b.segments[s].bytes);

    // A different seed must corrupt differently.
    CompressedImage c = smallImage();
    plan.seed = 43;
    FaultReport rc = inject(c, plan);
    bool differs = false;
    for (size_t s = 0; s < a.segments.size(); ++s)
        differs |= a.segments[s].bytes != c.segments[s].bytes;
    EXPECT_TRUE(differs) << rc.summary();
}

TEST(FaultInject, BitFlipChangesExactlyOneBit)
{
    CompressedImage clean = smallImage();
    CompressedImage faulted = smallImage();
    FaultPlan plan;
    plan.seed = 9;
    plan.site = Site::Stream;
    plan.count = 1;
    FaultReport report = inject(faulted, plan);
    ASSERT_EQ(report.injections.size(), 1u);
    const Injection &inj = report.injections[0];
    EXPECT_EQ(inj.segment, ".indices");

    const compress::CompressedSegment *cs = clean.segment(".indices");
    const compress::CompressedSegment *fs = faulted.segment(".indices");
    ASSERT_NE(cs, nullptr);
    ASSERT_NE(fs, nullptr);
    for (size_t i = 0; i < cs->bytes.size(); ++i) {
        uint8_t diff = cs->bytes[i] ^ fs->bytes[i];
        if (i == inj.offset)
            EXPECT_EQ(diff, inj.bitMask);
        else
            EXPECT_EQ(diff, 0);
    }
}

TEST(FaultInject, TruncationZeroesTailOnly)
{
    CompressedImage clean = smallImage();
    CompressedImage faulted = smallImage();
    FaultPlan plan;
    plan.seed = 11;
    plan.site = Site::Truncate;
    FaultReport report = inject(faulted, plan);
    ASSERT_EQ(report.injections.size(), 1u);
    const Injection &inj = report.injections[0];
    ASSERT_GT(inj.truncatedBytes, 0u);

    const compress::CompressedSegment *cs = clean.segment(".indices");
    const compress::CompressedSegment *fs = faulted.segment(".indices");
    ASSERT_EQ(fs->bytes.size(), cs->bytes.size());  // size unchanged
    for (size_t i = 0; i < fs->bytes.size(); ++i) {
        if (i >= inj.offset)
            EXPECT_EQ(fs->bytes[i], 0);
        else
            EXPECT_EQ(fs->bytes[i], cs->bytes[i]);
    }
}

TEST(FaultInject, InapplicableSiteFallsBackToStream)
{
    CompressedImage faulted = smallImage();
    FaultPlan plan;
    plan.seed = 3;
    plan.site = Site::HighDict;  // CodePack-only; image is Dictionary
    FaultReport report = inject(faulted, plan);
    ASSERT_EQ(report.injections.size(), 1u);
    EXPECT_EQ(report.injections[0].segment, ".indices");
}

TEST(Integrity, CrcsMatchManualComputation)
{
    std::vector<uint32_t> words = {1, 2, 3, 4, 5, 6, 7, 8,
                                   9, 10, 11, 12};
    std::vector<uint32_t> crcs = compress::computeUnitCrcs(words, 32);
    ASSERT_EQ(crcs.size(), 2u);  // 8 words + partial unit of 4
    Crc32 first;
    for (size_t i = 0; i < 8; ++i)
        first.updateWord(words[i]);
    EXPECT_EQ(crcs[0], first.value());
    Crc32 second;
    for (size_t i = 8; i < 12; ++i)
        second.updateWord(words[i]);
    EXPECT_EQ(crcs[1], second.value());
}

TEST(Integrity, AttachAndSyncRoundTrip)
{
    CompressedImage image = smallImage();  // attachIntegrity(32) inside
    EXPECT_EQ(image.crcUnitBytes, 32u);
    EXPECT_EQ(image.unitCrcs.size(), 512u * 4 / 32);
    const compress::CompressedSegment *crc = image.segment(".crc");
    ASSERT_NE(crc, nullptr);
    EXPECT_EQ(crc->bytes.size(), image.unitCrcs.size() * 4);

    // Corrupting the raw .crc bytes then syncing re-parses the table.
    std::vector<uint32_t> before = image.unitCrcs;
    for (auto &seg : image.segments) {
        if (seg.name == ".crc")
            seg.bytes[1] ^= 0x40;
    }
    compress::syncCrcsFromSegment(image);
    EXPECT_NE(image.unitCrcs, before);
    EXPECT_EQ(image.unitCrcs.size(), before.size());
}

TEST(StructuredErrors, DictionaryOverflowThrows)
{
    // More than 64K unique instructions cannot be indexed by 16-bit
    // codewords; this must surface as a catchable error, not exit(1).
    std::vector<uint32_t> words(65537);
    for (size_t i = 0; i < words.size(); ++i)
        words[i] = static_cast<uint32_t>(i);
    EXPECT_THROW(compress::DictionaryCompressor::compress(words),
                 SimError);
}

TEST(StructuredErrors, ErrorTrapConvertsPanicAndFatal)
{
    EXPECT_FALSE(ScopedErrorTrap::active());
    {
        ScopedErrorTrap trap;
        EXPECT_TRUE(ScopedErrorTrap::active());
        EXPECT_THROW(panic("synthetic panic"), SimError);
        EXPECT_THROW(fatal("synthetic fatal"), SimError);
        try {
            panic("formatted %d", 42);
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("formatted 42"),
                      std::string::npos);
        }
    }
    EXPECT_FALSE(ScopedErrorTrap::active());
}

TEST(CheckedDecoders, CodePackRejectsCorruptMapTable)
{
    Rng rng(5);
    std::vector<uint32_t> words(64);
    for (auto &w : words)
        w = static_cast<uint32_t>(rng.nextBelow(16)) << 16 |
            static_cast<uint32_t>(rng.nextBelow(16));
    compress::CodePackCompressed cp = compress::CodePack::compress(words);

    uint32_t out[16];
    std::string error;
    // Clean decode succeeds and matches the asserting decoder.
    ASSERT_TRUE(compress::CodePack::tryDecompressGroup(cp, 0, out,
                                                       &error))
        << error;
    uint32_t ref[16];
    compress::CodePack::decompressGroup(cp, 0, ref);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], ref[i]);

    // Group index past the map table.
    EXPECT_FALSE(compress::CodePack::tryDecompressGroup(
        cp, cp.mapTable.size() * 2 + 2, out, &error));
    EXPECT_FALSE(error.empty());

    // Offset pointing far outside the stream.
    compress::CodePackCompressed bad = cp;
    bad.mapTable[0] = 0x00ffffffu;
    EXPECT_FALSE(
        compress::CodePack::tryDecompressGroup(bad, 0, out, &error));

    // Truncated stream: decode runs off the end.
    compress::CodePackCompressed cut = cp;
    cut.stream.resize(1);
    EXPECT_FALSE(
        compress::CodePack::tryDecompressGroup(cut, 0, out, &error));
}

TEST(CheckedDecoders, HuffmanRejectsCorruptLat)
{
    Rng rng(6);
    std::vector<uint32_t> words(64);
    for (auto &w : words)
        w = static_cast<uint32_t>(rng.next());
    compress::HuffmanCompressed hc =
        compress::HuffmanLine::compress(words, 32);

    std::vector<uint8_t> out(32);
    std::string error;
    ASSERT_TRUE(compress::HuffmanLine::tryDecompressLine(hc, 0,
                                                         out.data(),
                                                         &error))
        << error;

    // Line index past the LAT.
    EXPECT_FALSE(compress::HuffmanLine::tryDecompressLine(
        hc, hc.numLines + 7, out.data(), &error));
    EXPECT_FALSE(error.empty());

    // LAT offset outside the stream.
    compress::HuffmanCompressed bad = hc;
    bad.lat[0] = 0x00ffffffu;
    EXPECT_FALSE(compress::HuffmanLine::tryDecompressLine(
        bad, 0, out.data(), &error));

    // Truncated stream.
    compress::HuffmanCompressed cut = hc;
    cut.stream.resize(cut.stream.size() / 8);
    bool any_rejected = false;
    for (size_t line = 0; line < cut.numLines; ++line) {
        if (!compress::HuffmanLine::tryDecompressLine(cut, line,
                                                      out.data()))
            any_rejected = true;
    }
    EXPECT_TRUE(any_rejected);
}

/** Fixture: a tiny workload run end-to-end with faults. */
class FaultSystem : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        workload::WorkloadGenerator gen(workload::tinySpec());
        program_ = gen.generate();

        core::SystemConfig clean = config(Scheme::Dictionary);
        core::System system(program_, clean);
        cleanResult_ = system.run();
        ASSERT_TRUE(cleanResult_.stats.halted);
        ASSERT_EQ(cleanResult_.stats.machineChecks, 0u);
    }

    core::SystemConfig
    config(Scheme scheme) const
    {
        core::SystemConfig cfg;
        cfg.scheme = scheme;
        cfg.secondRegFile = true;
        cfg.integrity = true;
        cfg.cpu.mcRetryLimit = 1;
        cfg.cpu.handlerInsnBudget = 1'000'000;
        cfg.cpu.maxUserInsns =
            cleanResult_.stats.userInsns
                ? cleanResult_.stats.userInsns * 2 + 100'000
                : 20'000'000;
        return cfg;
    }

    prog::Program program_;
    core::SystemResult cleanResult_;
};

TEST_F(FaultSystem, DisabledFaultsLeaveStatsUntouched)
{
    // FaultConfig with no plans must not perturb anything (acceptance:
    // default-off fault injection is byte-invisible).
    core::SystemConfig cfg = config(Scheme::Dictionary);
    ASSERT_FALSE(cfg.fault.enabled());
    core::System system(program_, cfg);
    core::SystemResult again = system.run();
    EXPECT_EQ(again.stats.cycles, cleanResult_.stats.cycles);
    EXPECT_EQ(again.stats.resultValue, cleanResult_.stats.resultValue);
    EXPECT_EQ(again.stats.machineChecks, 0u);
    EXPECT_TRUE(again.faultReports.empty());
}

TEST_F(FaultSystem, CorruptedRunsNeverSilentlyMisexecute)
{
    // A spread of corruption plans per scheme: every run must end
    // halted-correct, machine-check halted, or insn-limited — and the
    // injector's report must ride along in the result.
    for (Scheme scheme :
         {Scheme::Dictionary, Scheme::CodePack, Scheme::HuffmanLine}) {
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            core::SystemConfig cfg = config(scheme);
            FaultPlan plan;
            plan.seed = seed;
            plan.site = Site::Any;
            plan.count = 1 + seed % 3;
            cfg.fault.plans.push_back(plan);

            core::System system(program_, cfg);
            core::SystemResult r = system.run();
            ASSERT_EQ(r.faultReports.size(), 1u);
            EXPECT_FALSE(r.faultReports[0].injections.empty());

            bool correct = r.stats.halted &&
                           r.stats.resultValue ==
                               cleanResult_.stats.resultValue;
            bool diagnosed = r.stats.machineCheckHalt &&
                             r.stats.machineChecks > 0 &&
                             r.stats.faultKind != cpu::McKind::None;
            bool bounded = r.stats.timedOut;
            EXPECT_TRUE(correct || diagnosed || bounded)
                << compress::schemeName(scheme) << " seed " << seed
                << ": " << r.faultReports[0].summary();
        }
    }
}

TEST_F(FaultSystem, SameplanIsDeterministic)
{
    core::SystemConfig cfg = config(Scheme::CodePack);
    FaultPlan plan;
    plan.seed = 12345;
    plan.site = Site::Stream;
    plan.count = 2;
    cfg.fault.plans.push_back(plan);

    core::System a(program_, cfg);
    core::SystemResult ra = a.run();
    core::System b(program_, cfg);
    core::SystemResult rb = b.run();
    EXPECT_EQ(ra.stats.cycles, rb.stats.cycles);
    EXPECT_EQ(ra.stats.machineChecks, rb.stats.machineChecks);
    EXPECT_EQ(ra.stats.machineCheckHalt, rb.stats.machineCheckHalt);
    EXPECT_EQ(ra.stats.faultKind, rb.stats.faultKind);
    EXPECT_EQ(ra.stats.resultValue, rb.stats.resultValue);
}

TEST_F(FaultSystem, RetryRecoversFromNothingButCountsAttempts)
{
    // Persistent image corruption deterministically re-fails: when the
    // executed path hits it, a retry is counted and the run still ends
    // in a machine-check halt (or the fault was off-path and the run is
    // simply correct).
    core::SystemConfig cfg = config(Scheme::Dictionary);
    cfg.cpu.mcRetryLimit = 2;
    FaultPlan plan;
    plan.seed = 77;
    plan.site = Site::Dictionary;
    cfg.fault.plans.push_back(plan);

    core::System system(program_, cfg);
    core::SystemResult r = system.run();
    if (r.stats.machineCheckHalt) {
        EXPECT_EQ(r.stats.integrityRetries, 2u);
        EXPECT_GE(r.stats.machineChecks, 3u);  // one per attempt
    } else {
        EXPECT_TRUE(r.stats.halted || r.stats.timedOut);
    }
}

TEST_F(FaultSystem, ValidateRejectsStructurallyCorruptImages)
{
    core::SystemConfig cfg = config(Scheme::Dictionary);
    core::BuiltImage built = core::buildImage(program_, cfg);
    ASSERT_TRUE(core::validateBuiltImage(built, cfg).empty());

    // Drop a required segment: validation reports, System throws.
    core::BuiltImage missing = built;
    missing.cimage.segments.erase(missing.cimage.segments.begin());
    EXPECT_FALSE(core::validateBuiltImage(missing, cfg).empty());
    EXPECT_THROW(
        core::System(
            std::make_shared<const core::BuiltImage>(std::move(missing)),
            cfg),
        SimError);

    // Undersized index stream.
    core::BuiltImage undersized = built;
    for (auto &seg : undersized.cimage.segments) {
        if (seg.name == ".indices")
            seg.bytes.resize(seg.bytes.size() / 2);
    }
    EXPECT_FALSE(core::validateBuiltImage(undersized, cfg).empty());

    // Inconsistent c0 base register.
    core::BuiltImage badc0 = built;
    badc0.cimage.c0[isa::C0DecompBase] ^= 0x1000;
    EXPECT_FALSE(core::validateBuiltImage(badc0, cfg).empty());
}

TEST(FaultHarness, PoisonedJobIsIsolatedAndRetried)
{
    workload::WorkloadSpec good = workload::tinySpec();
    workload::WorkloadSpec poison = workload::tinySpec();
    poison.name = "poisoned";
    poison.hotProcs = 0;  // workload generator asserts on this

    std::vector<harness::Job> jobs(3);
    jobs[0].tag = "good/0";
    jobs[0].workload = good;
    jobs[0].config.scheme = Scheme::Dictionary;
    jobs[1].tag = "poison";
    jobs[1].workload = poison;
    jobs[1].config.scheme = Scheme::Dictionary;
    jobs[1].maxAttempts = 2;
    jobs[2].tag = "good/1";
    jobs[2].workload = good;
    jobs[2].config.scheme = Scheme::CodePack;

    harness::ArtifactCache cache;
    harness::SweepRunner runner(2);
    std::vector<harness::JobResult> results =
        runner.run("poison-test", jobs, cache);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[0].result.stats.halted);
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].timedOut);
    EXPECT_EQ(results[1].attempts, 2u);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok);
    EXPECT_TRUE(results[2].result.stats.halted);
    EXPECT_EQ(results[0].result.stats.resultValue,
              results[2].result.stats.resultValue);
}

TEST(FaultHarness, WatchdogCancelsWedgedJob)
{
    workload::WorkloadSpec spec = workload::tinySpec();
    spec.name = "wedged";
    spec.targetDynamicInsns = 2'000'000'000ull;

    std::vector<harness::Job> jobs(1);
    jobs[0].tag = "wedged";
    jobs[0].workload = spec;
    jobs[0].config.scheme = Scheme::Dictionary;
    jobs[0].timeoutSeconds = 0.05;

    harness::ArtifactCache cache;
    harness::SweepRunner runner(1);
    std::vector<harness::JobResult> results =
        runner.run("watchdog-test", jobs, cache);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_TRUE(results[0].timedOut);
    EXPECT_TRUE(results[0].result.stats.cancelled);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(ErrorTrap, NestedTrapsStayArmedUntilTheOutermostExits)
{
    EXPECT_FALSE(ScopedErrorTrap::active());
    {
        ScopedErrorTrap outer;
        EXPECT_TRUE(ScopedErrorTrap::active());
        {
            ScopedErrorTrap inner;
            EXPECT_TRUE(ScopedErrorTrap::active());
            EXPECT_THROW(fatal("inner trap"), SimError);
        }
        // The inner trap's destruction must not disarm the outer one.
        EXPECT_TRUE(ScopedErrorTrap::active());
        EXPECT_THROW(fatal("outer trap"), SimError);
    }
    EXPECT_FALSE(ScopedErrorTrap::active());
}

TEST(ErrorTrap, TrapIsPerThread)
{
    ScopedErrorTrap trap;
    ASSERT_TRUE(ScopedErrorTrap::active());
    bool other_thread_active = true;
    std::thread([&] {
        other_thread_active = ScopedErrorTrap::active();
    }).join();
    EXPECT_FALSE(other_thread_active)
        << "a trap must only arm the thread that created it";
}

TEST(Cancellation, EveryEngineHonorsTheCancelFlag)
{
    // A long workload with the cancel flag already raised: each engine
    // must notice at its next (rate-limited) poll and stop with
    // stats.cancelled, never running to completion. This is the
    // invariant the harness watchdog depends on, checked per engine so
    // a new fast path cannot silently skip the poll.
    workload::WorkloadSpec spec = workload::tinySpec();
    spec.targetDynamicInsns = 2'000'000'000ull;
    workload::WorkloadGenerator gen(spec);
    prog::Program program = gen.generate();

    struct Engine
    {
        const char *name;
        bool predecode, blockExec;
    };
    for (const Engine &engine :
         {Engine{"legacy", false, false},
          Engine{"predecode", true, false},
          Engine{"blocks", true, true}}) {
        std::atomic<bool> cancel{true};
        core::SystemConfig config;
        config.cpu = core::paperMachine();
        config.cpu.predecode = engine.predecode;
        config.cpu.blockExec = engine.blockExec;
        config.cpu.cancel = &cancel;
        config.scheme = Scheme::Dictionary;
        core::System system(program, config);
        core::SystemResult result = system.run();
        EXPECT_TRUE(result.stats.cancelled) << engine.name;
        EXPECT_FALSE(result.stats.halted) << engine.name;
        EXPECT_LT(result.stats.userInsns, spec.targetDynamicInsns)
            << engine.name;
    }
}

} // namespace
} // namespace rtd::fault
