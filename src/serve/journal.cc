#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "serve/fsio.h"
#include "support/crc32.h"

namespace rtd::serve {

namespace {

constexpr char kMagic[4] = {'R', 'T', 'D', 'J'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 20;
/** Records larger than this are implausible (a matrix submit is a few
 *  MiB at most) and treated as corruption. */
constexpr uint32_t kMaxPayloadBytes = 256u << 20;

void
putU32(std::string &out, uint32_t value)
{
    out.push_back(static_cast<char>(value));
    out.push_back(static_cast<char>(value >> 8));
    out.push_back(static_cast<char>(value >> 16));
    out.push_back(static_cast<char>(value >> 24));
}

uint32_t
getU32(const char *p)
{
    return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
           static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

std::string
errnoString(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

std::string
sweepBeginPayload(const std::string &id, const std::string &label,
                  int priority, const std::vector<std::string> &jobDumps)
{
    harness::Json head = harness::Json::object();
    head.set("id", id);
    head.set("label", label);
    head.set("priority", int64_t(priority));
    // head.set("jobs", <the dumps as an array>).dump(), framed in
    // place: the head reopened, then each dump copied once.
    std::string payload = head.dump();
    size_t bytes = payload.size() + 10;
    for (const std::string &dump : jobDumps)
        bytes += dump.size() + 1;
    payload.reserve(bytes);
    payload.back() = ',';
    payload += "\"jobs\":[";
    for (size_t i = 0; i < jobDumps.size(); ++i) {
        if (i)
            payload += ',';
        payload += jobDumps[i];
    }
    payload += "]}";
    return payload;
}

std::string
jobDonePayload(const std::string &id, size_t index, bool cached,
               const std::string &rowDump)
{
    harness::Json head = harness::Json::object();
    head.set("id", id);
    head.set("index", uint64_t(index));
    head.set("cached", cached);
    return head.dumpWithRaw("result", rowDump);
}

bool
JournalFsyncPolicy::parse(const std::string &text,
                          JournalFsyncPolicy &out)
{
    if (text == "none" || text.empty()) {
        out.mode = None;
        out.interval = 0;
        return true;
    }
    if (text == "always") {
        out.mode = Always;
        out.interval = 0;
        return true;
    }
    if (text.rfind("every=", 0) == 0) {
        char *end = nullptr;
        unsigned long long n =
            std::strtoull(text.c_str() + 6, &end, 10);
        if (!end || *end != '\0' || n == 0)
            return false;
        out.mode = Every;
        out.interval = n;
        return true;
    }
    return false;
}

Journal::~Journal()
{
    close();
}

void
Journal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Journal::open(const std::string &path, JournalFsyncPolicy policy,
              std::string &error)
{
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0664);
    if (fd_ < 0) {
        error = errnoString("open journal " + path);
        return false;
    }
    path_ = path;
    policy_ = policy;
    appendsSinceSync_ = 0;
    struct stat st;
    stats_.sizeBytes =
        ::fstat(fd_, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    return true;
}

void
Journal::frameRecord(std::string &out, uint32_t type,
                     const std::string &payload)
{
    out.append(kMagic, sizeof kMagic);
    putU32(out, kVersion);
    putU32(out, type);
    putU32(out, static_cast<uint32_t>(payload.size()));
    putU32(out, crc32(reinterpret_cast<const uint8_t *>(payload.data()),
                      payload.size()));
    out += payload;
}

bool
Journal::replay(
    const std::function<void(uint32_t type,
                             const harness::Json &payload)> &visit,
    std::string &error)
{
    if (fd_ < 0) {
        error = "journal not open";
        return false;
    }
    if (::lseek(fd_, 0, SEEK_SET) != 0) {
        error = errnoString("lseek journal");
        return false;
    }
    std::string bytes;
    char chunk[1 << 16];
    for (;;) {
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("read journal");
            return false;
        }
        if (n == 0)
            break;
        bytes.append(chunk, static_cast<size_t>(n));
    }

    // Walk valid records; the first framing/CRC/parse failure marks the
    // torn tail — everything before it is good, everything after it is
    // unreachable anyway (record boundaries are unrecoverable once one
    // length field is untrustworthy).
    size_t offset = 0;
    while (bytes.size() - offset >= kHeaderBytes) {
        const char *p = bytes.data() + offset;
        if (std::memcmp(p, kMagic, sizeof kMagic) != 0 ||
            getU32(p + 4) != kVersion)
            break;
        uint32_t type = getU32(p + 8);
        uint32_t payload_len = getU32(p + 12);
        uint32_t stored_crc = getU32(p + 16);
        if (payload_len > kMaxPayloadBytes ||
            bytes.size() - offset - kHeaderBytes < payload_len)
            break;
        const char *payload = p + kHeaderBytes;
        if (crc32(reinterpret_cast<const uint8_t *>(payload),
                  payload_len) != stored_crc)
            break;
        harness::Json parsed;
        if (!harness::Json::parse(std::string_view(payload, payload_len),
                                  &parsed))
            break;
        visit(type, parsed);
        ++stats_.replayedRecords;
        offset += kHeaderBytes + payload_len;
    }

    if (offset != bytes.size()) {
        stats_.tornBytes += bytes.size() - offset;
        // Truncating the torn tail restores the append invariant: the
        // file ends exactly at a record boundary.
        if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
            error = errnoString("truncate torn journal tail");
            return false;
        }
    }
    stats_.sizeBytes = offset;
    if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
        error = errnoString("lseek journal end");
        return false;
    }
    return true;
}

bool
Journal::append(uint32_t type, const harness::Json &payload)
{
    return appendDumped(type, payload.dump());
}

bool
Journal::appendDumped(uint32_t type, const std::string &payload)
{
    if (fd_ < 0)
        return false;
    std::string record;
    record.reserve(kHeaderBytes + payload.size());
    frameRecord(record, type, payload);
    if (!fsio::writeAll(fd_, record.data(), record.size())) {
        // A failed (possibly short) append leaves a torn tail; cut it
        // back off so the journal stays valid and the *next* append
        // starts at a record boundary. If even the truncate fails the
        // tail stays torn — replay()'s torn-tail handling still
        // recovers everything before it.
        ++stats_.appendFailures;
        if (::ftruncate(fd_, static_cast<off_t>(stats_.sizeBytes)) ==
            0) {
            ::lseek(fd_, static_cast<off_t>(stats_.sizeBytes),
                    SEEK_SET);
        }
        return false;
    }
    stats_.sizeBytes += record.size();
    ++stats_.appended;
    bool want_sync = policy_.mode == JournalFsyncPolicy::Always ||
                     (policy_.mode == JournalFsyncPolicy::Every &&
                      ++appendsSinceSync_ >= policy_.interval);
    if (want_sync) {
        appendsSinceSync_ = 0;
        fsio::syncFd(fd_);  // best effort; the data is still written
    }
    return true;
}

bool
Journal::compact(const std::vector<JournalRecord> &records)
{
    if (fd_ < 0)
        return false;
    std::string tmp_path =
        path_ + "." + std::to_string(static_cast<long>(::getpid())) +
        ".tmp";
    int tmp = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0664);
    if (tmp < 0)
        return false;
    std::string bytes;
    for (const JournalRecord &record : records)
        frameRecord(bytes, record.type, record.payload);
    // One write, one fsync, one rename: a crash at any point leaves
    // either the old journal or the new one, never a mix (a torn temp
    // file is simply never renamed into place).
    bool ok = fsio::writeAll(tmp, bytes.data(), bytes.size()) &&
              fsio::syncFd(tmp);
    ::close(tmp);
    if (!ok || !fsio::renameFile(tmp_path, path_)) {
        ::unlink(tmp_path.c_str());
        ++stats_.appendFailures;
        return false;
    }
    // Reopen: the old fd still points at the unlinked pre-compaction
    // inode.
    ::close(fd_);
    fd_ = ::open(path_.c_str(), O_RDWR, 0664);
    if (fd_ < 0)
        return false;
    ::lseek(fd_, 0, SEEK_END);
    stats_.sizeBytes = bytes.size();
    appendsSinceSync_ = 0;
    ++stats_.compactions;
    return true;
}

} // namespace rtd::serve
