/**
 * @file
 * Generated-configuration engine parity.
 *
 * The hand-picked parity suites (test_blocks.cc, test_predecode.cc, the
 * engine_parity_smoke ctest) run fixed programs on fixed machines. Here
 * a seeded generator draws both: a WorkloadSpec with random branch,
 * memory and repetition densities, and a machine with a random I-cache
 * geometry (down to 512 B, 16-128 B lines, 1-4 ways), compression
 * scheme, register-file mode, data-compression mode, and user and
 * handler instruction budgets that usually expire in the middle of a
 * block. Every configuration runs on all three engines — decode per
 * fetch, scalar predecode and blocks — and the RunStats must be
 * identical. The seed list is fixed, so the suite is deterministic; a
 * seed that ever fails lands below as a named regression case.
 */

#include <memory>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "core/system.h"
#include "stats_parity.h"
#include "workload/benchmarks.h"
#include "workload/generator.h"

namespace rtd::cpu {
namespace {

using compress::Scheme;
using core::DataCompression;

/** One generated point: the program's spec and the machine. */
struct FuzzCase
{
    workload::WorkloadSpec spec;
    core::SystemConfig config;
    std::string label;
};

FuzzCase
generateCase(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](auto... values) {
        using T = std::common_type_t<decltype(values)...>;
        const T options[] = {static_cast<T>(values)...};
        return options[rng() % sizeof...(values)];
    };
    auto uniform = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };

    FuzzCase c;
    c.spec = workload::tinySpec(rng());
    c.spec.name = "fuzz";
    c.spec.targetTextBytes = pick(8u, 12u, 16u, 24u) * 1024;
    c.spec.hotProcs = pick(1u, 2u, 3u);
    c.spec.coldProcs = pick(6u, 12u, 20u);
    c.spec.branchDensity = uniform(0.0, 0.3);
    c.spec.memDensity = uniform(0.0, 0.45);
    c.spec.uniqueFraction = uniform(0.02, 0.7);
    c.spec.targetDynamicInsns = 15'000 + rng() % 30'000;

    core::SystemConfig &config = c.config;
    config.scheme = pick(Scheme::None, Scheme::Dictionary,
                         Scheme::CodePack, Scheme::HuffmanLine);
    // CodePack's handler decodes whole 64-byte groups into 32 B lines.
    uint32_t line = config.scheme == Scheme::CodePack
                        ? 32u
                        : pick(16u, 32u, 64u, 128u);
    unsigned assoc = pick(1u, 2u, 4u);
    uint32_t size = pick(512u, 1024u, 2048u, 4096u, 16384u);
    while (size < line * assoc)
        size *= 2;
    config.cpu.icache = {size, line, assoc};
    config.secondRegFile = config.scheme != Scheme::None && (rng() & 1);

    config.dataCompression = config.scheme == Scheme::None
                                 ? pick(DataCompression::Off,
                                        DataCompression::DataOnly)
                                 : pick(DataCompression::Off,
                                        DataCompression::Both);
    config.dmem.scheme =
        pick(dmem::DataScheme::Dictionary, dmem::DataScheme::Lzrw1);
    config.dmem.stagingPages = pick(0u, 1u, 4u);

    // Budgets: mostly odd values, so they land inside a block. Half the
    // runs get a user budget far past the program's halt, which stops
    // only an engine that has gone astray.
    config.cpu.maxUserInsns =
        pick(0u, 1u) ? 1'000'000 : 1 + rng() % 40'000;
    config.cpu.handlerInsnBudget =
        rng() % 3 == 0 ? 8 + rng() % 1'500 : 0;

    c.label = "seed " + std::to_string(seed) + ": " +
              compress::schemeName(config.scheme) + " " +
              core::dataCompressionName(config.dataCompression) +
              (config.secondRegFile ? " rf" : "") + " icache " +
              std::to_string(size) + "/" + std::to_string(line) + "/" +
              std::to_string(assoc) + " user budget " +
              std::to_string(config.cpu.maxUserInsns) +
              " handler budget " +
              std::to_string(config.cpu.handlerInsnBudget);
    return c;
}

/** Run @p seed's configuration on every engine and compare. */
void
checkSeed(uint64_t seed)
{
    FuzzCase c = generateCase(seed);
    SCOPED_TRACE(c.label);
    workload::WorkloadGenerator gen(c.spec);
    prog::Program program = gen.generate();
    auto built = std::make_shared<const core::BuiltImage>(
        core::buildImage(program, c.config));

    struct Engine
    {
        const char *name;
        bool predecode, blockExec;
    };
    RunStats reference;
    for (const Engine &engine : {Engine{"legacy", false, false},
                                 Engine{"predecode", true, false},
                                 Engine{"blocks", true, true}}) {
        core::SystemConfig config = c.config;
        config.cpu.predecode = engine.predecode;
        config.cpu.blockExec = engine.blockExec;
        core::System system(built, config);
        RunStats stats = system.run().stats;
        if (!engine.predecode) {
            reference = stats;
            // Every run ends by halt, budget or machine check.
            EXPECT_TRUE(stats.halted || stats.timedOut ||
                        stats.machineCheckHalt);
            continue;
        }
        expectIdenticalStats(stats, reference, engine.name);
    }
}

TEST(EngineFuzz, GeneratedConfigurationsAgreeOnEveryEngine)
{
    for (uint64_t seed = 1; seed <= 60; ++seed)
        checkSeed(seed);
}

} // namespace
} // namespace rtd::cpu
