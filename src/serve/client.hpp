/**
 * @file
 * Blocking line-oriented client for the serve protocol — the thin
 * counterpart tests and examples/mm_client.cpp talk through. One
 * ServeClient owns one TCP connection; send request lines, read tagged
 * event lines back (serve/protocol.hpp documents both directions).
 */
#pragma once

#include <optional>
#include <string>

#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace mm::serve {

/** Serialize a request into its one-line JSON wire form. */
std::string requestToJson(const ServeRequest &req);

/** One blocking client connection. */
class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient() { close(); }

    ServeClient(ServeClient &&other) noexcept { *this = std::move(other); }
    ServeClient &
    operator=(ServeClient &&other) noexcept
    {
        if (this != &other) {
            close();
            fd = other.fd;
            buf = std::move(other.buf);
            other.fd = -1;
        }
        return *this;
    }
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to 127.0.0.1:@p port. False (and @p error) on failure. */
    bool connectTo(int port, std::string *error = nullptr);

    bool connected() const { return fd >= 0; }

    /** Send one line; the '\n' is appended in place, and both leave
     * in one send(). */
    bool sendLine(std::string line);

    /** Send a request in wire form. */
    bool
    sendRequest(const ServeRequest &req)
    {
        return sendLine(requestToJson(req));
    }

    /** Next line from the server (blocking); nullopt on EOF/error. */
    std::optional<std::string> readLine();

    /** Next line parsed as JSON; nullopt on EOF or a malformed line. */
    std::optional<JsonValue> readEvent();

    /**
     * Read events until one of type @p type for request @p id arrives;
     * nullopt on EOF. Other events stream past unrecorded.
     */
    std::optional<JsonValue> waitFor(const std::string &type,
                                     const std::string &id);

    /** Half-close the write side (server keeps streaming). */
    void closeWrite();

    /** Hard close; readers on the server side see the disconnect. */
    void close();

  private:
    int fd = -1;
    std::string buf;
};

} // namespace mm::serve
