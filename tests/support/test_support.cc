/** @file Unit tests for the support module. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "support/bitops.h"
#include "support/crc32.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace rtd {
namespace {

TEST(Bitops, ExtractInsertRoundTrip)
{
    uint32_t word = 0;
    word = insertBits(word, 26, 6, 0x2b);
    word = insertBits(word, 21, 5, 29);
    word = insertBits(word, 16, 5, 7);
    word = insertBits(word, 0, 16, 0xfffc);
    EXPECT_EQ(bits(word, 26, 6), 0x2bu);
    EXPECT_EQ(bits(word, 21, 5), 29u);
    EXPECT_EQ(bits(word, 16, 5), 7u);
    EXPECT_EQ(bits(word, 0, 16), 0xfffcu);
}

TEST(Bitops, SignExtend)
{
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x7fff, 16), 32767);
    EXPECT_EQ(signExtend(0x1, 16), 1);
}

TEST(Bitops, Alignment)
{
    EXPECT_EQ(alignUp(0, 32), 0u);
    EXPECT_EQ(alignUp(1, 32), 32u);
    EXPECT_EQ(alignUp(32, 32), 32u);
    EXPECT_EQ(alignDown(63, 32), 32u);
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(32), 5u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        int64_t v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Zipf, SkewConcentratesMassOnLowRanks)
{
    Rng rng(99);
    ZipfSampler zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 should be sampled far more often than rank 50.
    EXPECT_GT(counts[0], counts[50] * 5);
    // Mass sums to ~1.
    double total = 0;
    for (size_t r = 0; r < 100; ++r)
        total += zipf.mass(r);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    ZipfSampler zipf(10, 0.0);
    for (size_t r = 0; r < 10; ++r)
        EXPECT_NEAR(zipf.mass(r), 0.1, 1e-9);
}

TEST(Stats, GroupBasics)
{
    StatGroup group;
    uint64_t &hits = group.add("hits");
    uint64_t &misses = group.add("misses");
    hits = 10;
    misses = 2;
    EXPECT_EQ(group.get("hits"), 10u);
    EXPECT_EQ(group.get("misses"), 2u);
    EXPECT_TRUE(group.has("hits"));
    EXPECT_FALSE(group.has("nope"));
    group.reset();
    EXPECT_EQ(group.get("hits"), 0u);
}

TEST(Stats, Helpers)
{
    EXPECT_DOUBLE_EQ(percent(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(percent(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
}

TEST(Table, RendersAlignedRows)
{
    Table table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "22"});
    std::string out = table.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(fmtDouble(2.987, 2), "2.99");
    EXPECT_EQ(fmtPercent(65.43, 1), "65.4%");
    EXPECT_EQ(fmtCount(1083168), "1,083,168");
    EXPECT_EQ(fmtCount(42), "42");
}

/** The reference: the bytewise table, one update per byte. */
uint32_t
bytewiseCrc32(const uint8_t *data, size_t size)
{
    Crc32 crc;
    for (size_t i = 0; i < size; ++i)
        crc.update(data[i]);
    return crc.value();
}

TEST(Crc32, CheckValue)
{
    const char text[] = "123456789";
    const auto *bytes = reinterpret_cast<const uint8_t *>(text);
    EXPECT_EQ(crc32(bytes, 9), 0xCBF43926u);
    EXPECT_EQ(bytewiseCrc32(bytes, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(bytes, 0), 0u);
}

TEST(Crc32, BulkPathEqualsTheBytewiseTable)
{
    // Lengths up to 70 KB at every start offset mod 8, so each run
    // covers the slicing loop's misaligned starts and every tail
    // length.
    std::mt19937_64 rng(0x5eedc3c32ull);
    std::vector<uint8_t> buffer((70u << 10) + 8);
    for (uint8_t &byte : buffer)
        byte = static_cast<uint8_t>(rng());
    std::vector<size_t> lengths = {0, 1, 7, 8, 9, 15, 16, 17, 63, 64,
                                   65, 70u << 10};
    for (int i = 0; i < 200; ++i)
        lengths.push_back(rng() % ((70u << 10) + 1));
    for (size_t length : lengths) {
        for (size_t offset = 0; offset < 8; ++offset) {
            const uint8_t *data = buffer.data() + offset;
            ASSERT_EQ(crc32(data, length), bytewiseCrc32(data, length))
                << "length " << length << " offset " << offset;
        }
    }
}

TEST(Crc32, IncrementalUpdatesSplitAnywhereAgree)
{
    std::vector<uint8_t> buffer(4099);
    for (size_t i = 0; i < buffer.size(); ++i)
        buffer[i] = static_cast<uint8_t>(i * 131 + 7);
    const uint32_t whole = bytewiseCrc32(buffer.data(), buffer.size());
    // A bulk run, one bytewise byte, then a bulk run to the end.
    for (size_t cut : {0, 1, 5, 8, 13, 2048, 4098}) {
        Crc32 crc;
        crc.update(buffer.data(), cut);
        crc.update(buffer[cut]);
        crc.update(buffer.data() + cut + 1, buffer.size() - cut - 1);
        EXPECT_EQ(crc.value(), whole) << "cut " << cut;
    }
    // Words feed as their little-endian bytes.
    Crc32 words;
    words.updateWord(0x34333231u);  // "1234"
    words.updateWord(0x38373635u);  // "5678"
    words.update(static_cast<uint8_t>('9'));
    EXPECT_EQ(words.value(), 0xCBF43926u);
}

} // namespace
} // namespace rtd
