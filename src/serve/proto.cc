#include "serve/proto.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rtd::serve {

namespace {

/**
 * Fill a sockaddr_un for @p path. Unix socket paths are limited to
 * sizeof(sun_path)-1 bytes; overlong paths are rejected up front rather
 * than silently truncated to a different filesystem location.
 */
bool
fillAddr(const std::string &path, sockaddr_un &addr, std::string &error)
{
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        error = "socket path empty or longer than " +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes: " +
                path;
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

std::string
errnoString(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr, error))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = errnoString("socket");
        return -1;
    }
    // A previous daemon that died without cleanup leaves the socket file
    // behind; bind() would fail with EADDRINUSE even though nobody is
    // listening. Unlink first — a *live* daemon still holds the fd, so
    // its clients keep working, but new connects go to us.
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        error = errnoString("bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        error = errnoString("listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr, error))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = errnoString("socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        error = errnoString("connect " + path);
        ::close(fd);
        return -1;
    }
    return fd;
}

LineChannel::~LineChannel()
{
    close();
}

void
LineChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
LineChannel::readLine(std::string &line)
{
    for (;;) {
        size_t newline = buffer_.find('\n', scanned_);
        if (newline != std::string::npos) {
            if (newline - start_ > maxLine_) {
                lineTooLong_ = true;
                return false;
            }
            line.assign(buffer_, start_, newline - start_);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            start_ = scanned_ = newline + 1;
            return true;
        }
        scanned_ = buffer_.size();
        // Anti-OOM bound: a peer may not stream an unbounded line.
        // Failing here (instead of buffering forever) caps the damage
        // at maxLine_ bytes; the daemon replies with a structured
        // line_too_long error and drops the connection.
        if (buffer_.size() - start_ > maxLine_) {
            lineTooLong_ = true;
            return false;
        }
        if (fd_ < 0)
            return false;
        // Drop the lines already returned once per read, not per line.
        buffer_.erase(0, start_);
        scanned_ -= start_;
        start_ = 0;
        char chunk[kReadChunk];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;  // EOF; a trailing unterminated line is junk
        buffer_.append(chunk, static_cast<size_t>(n));
    }
}

bool
LineChannel::writeLine(std::string line)
{
    if (fd_ < 0)
        return false;
    line.push_back('\n');
    size_t sent = 0;
    while (sent < line.size()) {
        // MSG_NOSIGNAL: a peer that hung up turns into an EPIPE error
        // return instead of killing the whole daemon with SIGPIPE.
        ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

bool
LineChannel::writeJson(const harness::Json &message)
{
    return writeLine(message.dump());
}

bool
LineChannel::readJson(harness::Json &message, std::string &error)
{
    error.clear();
    std::string line;
    if (!readLine(line))
        return false;
    return harness::Json::parse(line, &message, &error);
}

harness::Json
okReply()
{
    harness::Json reply = harness::Json::object();
    reply.set("ok", true);
    return reply;
}

harness::Json
errorReply(const std::string &message)
{
    harness::Json reply = harness::Json::object();
    reply.set("ok", false);
    reply.set("error", message);
    return reply;
}

std::string
resultRowLine(size_t job, bool cached, const std::string &rowDump)
{
    harness::Json head = okReply();
    head.set("job", uint64_t(job));
    head.set("cached", cached);
    return head.dumpWithRaw("result", rowDump);
}

} // namespace rtd::serve
