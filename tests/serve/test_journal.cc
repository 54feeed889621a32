/**
 * @file
 * Journal + fsio suite: record framing round-trips, torn-tail
 * truncation on replay (garbage appends, mid-record cuts, CRC flips),
 * fsync-policy parsing, checkpoint compaction, and the append-failure
 * contract under injected ENOSPC / short-write faults — the journal
 * must degrade (record dropped, counter bumped, file still valid),
 * never corrupt.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/json.h"
#include "serve/fsio.h"
#include "serve/journal.h"

using namespace rtd;
using harness::Json;
using serve::Journal;
using serve::JournalFsyncPolicy;
using serve::JournalRecord;

namespace {

/** Fresh private directory under /tmp; leaked on purpose (tests are
 *  short-lived and the dir aids post-mortem debugging). */
std::string
tempDir()
{
    char tmpl[] = "/tmp/rtdc_journal_test_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp";
}

Json
payload(const std::string &id, int64_t n)
{
    Json json = Json::object();
    json.set("id", id);
    json.set("n", n);
    return json;
}

/** Replay into a vector of (type, dumped payload). */
std::vector<std::pair<uint32_t, std::string>>
replayAll(Journal &journal)
{
    std::vector<std::pair<uint32_t, std::string>> seen;
    std::string error;
    EXPECT_TRUE(journal.replay(
        [&](uint32_t type, const Json &body) {
            seen.emplace_back(type, body.dump());
        },
        error))
        << error;
    return seen;
}

int64_t
fileSize(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

/** RAII: no fault plan may leak into a later test. */
struct FaultPlanGuard
{
    ~FaultPlanGuard() { serve::fsio::clearFaultPlan(); }
};

} // namespace

TEST(JournalTest, AppendCloseReopenReplayRoundTrip)
{
    std::string path = tempDir() + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        EXPECT_EQ(replayAll(journal).size(), 0u);
        EXPECT_TRUE(journal.append(Journal::kSweepBegin,
                                   payload("s1", 0)));
        EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 1)));
        EXPECT_TRUE(journal.append(Journal::kSweepCancel,
                                   payload("s1", 2)));
        EXPECT_EQ(journal.stats().appended, 3u);
    }
    Journal reopened;
    std::string error;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].first, Journal::kSweepBegin);
    EXPECT_EQ(seen[0].second, payload("s1", 0).dump());
    EXPECT_EQ(seen[1].first, Journal::kJobDone);
    EXPECT_EQ(seen[2].first, Journal::kSweepCancel);
    EXPECT_EQ(reopened.stats().replayedRecords, 3u);
    EXPECT_EQ(reopened.stats().tornBytes, 0u);
    // The journal must be append-ready right after replay.
    EXPECT_TRUE(reopened.append(Journal::kJobDone, payload("s1", 3)));
}

TEST(JournalTest, GarbageTailTruncatedOnReplay)
{
    std::string path = tempDir() + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        journal.append(Journal::kJobDone, payload("s1", 1));
    }
    int64_t clean_size = fileSize(path);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "\x7fgarbage that is definitely not a record";
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(journal).size(), 2u);
    EXPECT_GT(journal.stats().tornBytes, 0u);
    // The torn bytes are physically gone, not just skipped.
    EXPECT_EQ(fileSize(path), clean_size);
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 2)));
    Journal again;
    ASSERT_TRUE(again.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(again).size(), 3u);
}

TEST(JournalTest, MidRecordCutKeepsValidPrefix)
{
    std::string dir = tempDir();
    std::string path = dir + "/j.rtdj";
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        int64_t one = fileSize(path);
        journal.append(Journal::kJobDone, payload("s1", 1));
        // Cut the second record in half: a crash mid-write.
        ASSERT_EQ(::truncate(path.c_str(),
                             one + (fileSize(path) - one) / 2),
                  0);
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    auto seen = replayAll(journal);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, payload("s1", 0).dump());
    EXPECT_GT(journal.stats().tornBytes, 0u);
}

TEST(JournalTest, CrcFlipStopsReplayAtTheFlippedRecord)
{
    std::string path = tempDir() + "/j.rtdj";
    int64_t first_end = 0;
    {
        Journal journal;
        std::string error;
        ASSERT_TRUE(journal.open(path, {}, error)) << error;
        journal.append(Journal::kSweepBegin, payload("s1", 0));
        first_end = fileSize(path);
        journal.append(Journal::kJobDone, payload("s1", 1));
    }
    {
        // Flip one payload byte of the second record (past its 20-byte
        // header): the CRC must reject it and replay stops there.
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(first_end + 20 + 2);
        f.put('#');
    }
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(journal).size(), 1u);
    EXPECT_EQ(fileSize(path), first_end);
}

TEST(JournalTest, FsyncPolicyParse)
{
    JournalFsyncPolicy policy;
    EXPECT_TRUE(JournalFsyncPolicy::parse("none", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::None);
    EXPECT_TRUE(JournalFsyncPolicy::parse("always", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::Always);
    EXPECT_TRUE(JournalFsyncPolicy::parse("every=16", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::Every);
    EXPECT_EQ(policy.interval, 16u);
    EXPECT_FALSE(JournalFsyncPolicy::parse("every=0", policy));
    EXPECT_FALSE(JournalFsyncPolicy::parse("every=", policy));
    EXPECT_FALSE(JournalFsyncPolicy::parse("sometimes", policy));
    // Unset config means the default: empty parses as "none".
    EXPECT_TRUE(JournalFsyncPolicy::parse("", policy));
    EXPECT_EQ(policy.mode, JournalFsyncPolicy::None);
}

TEST(JournalTest, CompactRewritesToExactlyTheGivenRecords)
{
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    for (int i = 0; i < 20; ++i)
        journal.append(Journal::kJobDone, payload("old", i));
    int64_t grown = fileSize(path);

    std::vector<JournalRecord> snapshot(2);
    snapshot[0].type = Journal::kSweepBegin;
    snapshot[0].payload = payload("live", 0).dump();
    snapshot[1].type = Journal::kJobDone;
    snapshot[1].payload = payload("live", 1).dump();
    ASSERT_TRUE(journal.compact(snapshot));
    EXPECT_LT(fileSize(path), grown);
    EXPECT_EQ(journal.stats().compactions, 1u);

    // Appends after compaction land after the snapshot records.
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("live", 2)));
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].second, payload("live", 0).dump());
    EXPECT_EQ(seen[2].second, payload("live", 2).dump());

    // The empty snapshot (clean shutdown) collapses the file to zero.
    ASSERT_TRUE(reopened.compact({}));
    EXPECT_EQ(fileSize(path), 0);
}

TEST(JournalTest, EnospcAppendDegradesAndTruncatesBack)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    ASSERT_TRUE(journal.append(Journal::kSweepBegin, payload("s1", 0)));
    int64_t before = fileSize(path);

    // The very next write-class op fails like a full disk
    // (setFaultPlan zeroes the op counter, so "after=1" is it).
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Enospc);
    EXPECT_FALSE(journal.append(Journal::kJobDone, payload("s1", 1)));
    EXPECT_EQ(journal.stats().appendFailures, 1u);
    EXPECT_EQ(fileSize(path), before);

    // One-shot plan: the journal keeps working afterwards.
    EXPECT_TRUE(journal.append(Journal::kJobDone, payload("s1", 2)));
    journal.close();
    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    auto seen = replayAll(reopened);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].second, payload("s1", 2).dump());
}

TEST(JournalTest, ShortWriteLeavesNoTornTailBehind)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    ASSERT_TRUE(journal.append(Journal::kSweepBegin, payload("s1", 0)));
    int64_t before = fileSize(path);

    // A short write lands half a record; append() must truncate it
    // back off so the file stays replayable without repair.
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Short);
    EXPECT_FALSE(journal.append(Journal::kJobDone, payload("s1", 1)));
    EXPECT_EQ(fileSize(path), before);
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(reopened).size(), 1u);
    EXPECT_EQ(reopened.stats().tornBytes, 0u);
}

TEST(JournalTest, FailedCompactionLeavesOldJournalIntact)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/j.rtdj";
    Journal journal;
    std::string error;
    ASSERT_TRUE(journal.open(path, {}, error)) << error;
    for (int i = 0; i < 5; ++i)
        journal.append(Journal::kJobDone, payload("s1", i));

    std::vector<JournalRecord> snapshot(1);
    snapshot[0].type = Journal::kSweepBegin;
    snapshot[0].payload = payload("live", 0).dump();
    serve::fsio::setFaultPlan(1, 0, serve::fsio::FaultMode::Enospc);
    EXPECT_FALSE(journal.compact(snapshot));
    serve::fsio::clearFaultPlan();
    journal.close();

    Journal reopened;
    ASSERT_TRUE(reopened.open(path, {}, error)) << error;
    EXPECT_EQ(replayAll(reopened).size(), 5u);
}

TEST(FsioTest, FaultPlanCountsAndFiresDeterministically)
{
    FaultPlanGuard guard;
    std::string path = tempDir() + "/f.bin";
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    // setFaultPlan zeroes the op counter: op 2 and then every 2nd
    // after it fail.
    serve::fsio::setFaultPlan(2, 2, serve::fsio::FaultMode::Enospc);
    EXPECT_EQ(serve::fsio::opCount(), 0u);
    char byte = 'x';
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));   // op 1
    EXPECT_FALSE(serve::fsio::writeAll(fd, &byte, 1));  // op 2 fails
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));   // op 3
    EXPECT_FALSE(serve::fsio::writeAll(fd, &byte, 1));  // op 4 fails
    EXPECT_EQ(serve::fsio::opCount(), 4u);
    serve::fsio::clearFaultPlan();
    EXPECT_TRUE(serve::fsio::writeAll(fd, &byte, 1));
    ::close(fd);
}
