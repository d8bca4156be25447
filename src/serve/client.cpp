#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace mm::serve {

std::string
requestToJson(const ServeRequest &req)
{
    std::string out = "{\"id\":" + jsonQuote(req.id)
                      + ",\"arch\":" + jsonQuote(req.arch)
                      + ",\"algo\":" + jsonQuote(req.algo)
                      + ",\"problem\":" + jsonQuote(req.problemName)
                      + ",\"bounds\":[";
    for (size_t i = 0; i < req.bounds.size(); ++i) {
        if (i > 0)
            out.push_back(',');
        out += std::to_string(req.bounds[i]);
    }
    out += "],\"method\":" + jsonQuote(req.method)
           + ",\"steps\":" + std::to_string(req.steps)
           + ",\"runs\":" + std::to_string(req.runs)
           + ",\"seed\":" + std::to_string(req.seed)
           + ",\"progressEvery\":" + std::to_string(req.progressEvery)
           + ",\"trace\":" + (req.trace ? "true" : "false");
    // Budgets ride the wire as quoted hexfloats like every other double
    // in the protocol: %.17g round-trips, but its text depends on the
    // libc's shortest-representation rounding, and the server-side cap
    // intersection must see bit-identical budgets regardless of which
    // client produced the line.
    if (req.virtualSec > 0.0)
        out += ",\"virtualSec\":" + jsonHexDouble(req.virtualSec);
    if (req.wallSec > 0.0)
        out += ",\"wallSec\":" + jsonHexDouble(req.wallSec);
    out.push_back('}');
    return out;
}

bool
ServeClient::connectTo(int port, std::string *error)
{
    close();
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error != nullptr)
            *error = std::string("socket() failed: ")
                     + std::strerror(errno);
        return false;
    }
    // A request is one small write; without NODELAY it can wait for
    // the server's delayed ACK of the previous one.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(uint16_t(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        if (error != nullptr)
            *error = std::string("connect() failed: ")
                     + std::strerror(errno);
        ::close(fd);
        fd = -1;
        return false;
    }
    return true;
}

bool
ServeClient::sendLine(std::string line)
{
    if (fd < 0)
        return false;
    line.push_back('\n');
    size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += size_t(n);
    }
    return true;
}

std::optional<std::string>
ServeClient::readLine()
{
    if (fd < 0)
        return std::nullopt;
    for (;;) {
        size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            return line;
        }
        if (buf.size() > kMaxLineBytes) {
            // A peer streaming a newline-free flood must not grow our
            // memory without bound; treat it as a broken connection.
            close();
            return std::nullopt;
        }
        char chunk[4096];
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return std::nullopt;
        buf.append(chunk, size_t(n));
    }
}

std::optional<JsonValue>
ServeClient::readEvent()
{
    std::optional<std::string> line = readLine();
    if (!line.has_value())
        return std::nullopt;
    return parseJson(*line);
}

std::optional<JsonValue>
ServeClient::waitFor(const std::string &type, const std::string &id)
{
    for (;;) {
        std::optional<JsonValue> event = readEvent();
        if (!event.has_value())
            return std::nullopt;
        if (event->getStr("type", "") == type
            && event->getStr("id", "") == id)
            return event;
    }
}

void
ServeClient::closeWrite()
{
    if (fd >= 0)
        ::shutdown(fd, SHUT_WR);
}

void
ServeClient::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    buf.clear();
}

} // namespace mm::serve
