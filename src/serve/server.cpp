#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "mapping/map_space.hpp"
#include "serve/trace_sink.hpp"

namespace mm::serve {

namespace {

/** Set by the SIGUSR1 handler, drained by the accept loop. */
std::atomic<bool> gSigusr1Dump{false};

void
sigusr1Handler(int)
{
    gSigusr1Dump.store(true, std::memory_order_relaxed);
}

} // namespace

/** One client socket: a write mutex, a liveness flag, owned jobs. */
struct SearchServer::Connection
{
    explicit Connection(int fd_) : fd(fd_) {}

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    /** Send one line (appends '\n' in place); a failed send marks
     * the connection dead so later writes become no-ops. */
    bool
    writeLine(std::string line) MM_EXCLUDES(writeMtx)
    {
        MutexLock lock(writeMtx);
        return writeLineLocked(std::move(line));
    }

    /** The line and its newline leave in one send() (one segment under
     * TCP_NODELAY); only a short write sends the rest separately. */
    bool
    writeLineLocked(std::string line) MM_REQUIRES(writeMtx)
    {
        if (!alive.load(std::memory_order_relaxed))
            return false;
        line.push_back('\n');
        size_t sent = 0;
        while (sent < line.size()) {
            ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                // Includes EAGAIN from SO_SNDTIMEO: a client that
                // stopped reading must not wedge a worker, so the
                // connection is declared dead and its jobs cancelled.
                alive.store(false, std::memory_order_relaxed);
                cancelJobs();
                return false;
            }
            sent += size_t(n);
        }
        return true;
    }

    void
    registerJob(const std::shared_ptr<Job> &job) MM_EXCLUDES(jobsMtx)
    {
        MutexLock lock(jobsMtx);
        // Finished jobs leave expired weak_ptrs behind; prune here so
        // a long-lived connection's list stays proportional to its
        // in-flight work, not its lifetime request count.
        jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                                  [](const std::weak_ptr<Job> &w) {
                                      return w.expired();
                                  }),
                   jobs.end());
        jobs.push_back(job);
    }

    /** Disconnect/shutdown path: stop every search this client owns. */
    void cancelJobs() MM_EXCLUDES(jobsMtx);

    int fd;
    Mutex writeMtx;
    std::atomic<bool> alive{true};
    std::atomic<bool> readerDone{false};
    Mutex jobsMtx;
    std::vector<std::weak_ptr<Job>> jobs MM_GUARDED_BY(jobsMtx);
};

/** One admitted request: its spec, its client, its stop token. */
struct SearchServer::Job
{
    ServeRequest req;
    std::shared_ptr<Connection> conn;
    StopToken stop;
};

void
SearchServer::Connection::cancelJobs()
{
    MutexLock lock(jobsMtx);
    for (const std::weak_ptr<Job> &weak : jobs)
        if (std::shared_ptr<Job> job = weak.lock())
            job->stop.requestStop();
}

ServeConfig
ServeConfig::fromEnv()
{
    ServeConfig cfg;
    cfg.port = int(envInt("MM_SERVE_PORT", cfg.port));
    cfg.workers = int(envInt("MM_SERVE_WORKERS", cfg.workers));
    cfg.queueCap = envSize("MM_SERVE_QUEUE", cfg.queueCap);
    cfg.maxWallSec = envDouble("MM_SERVE_MAX_WALL_SEC", cfg.maxWallSec);
    return cfg;
}

SearchServer::SearchServer(ServeConfig cfg_) : cfg(std::move(cfg_))
{
    if (cfg.workers < 1)
        fatal("serve: workers must be >= 1");
    if (cfg.queueCap < 1)
        fatal("serve: queue capacity must be >= 1");
    surrogates = std::make_unique<SurrogatePool>(
        cfg.phase1, cfg.cacheDir, cfg.useCache, &counters, cfg.trainer);
}

SearchServer::~SearchServer()
{
    stop();
}

void
SearchServer::start()
{
    if (running.load())
        return;

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal(std::string("serve: socket() failed: ")
              + std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(uint16_t(cfg.port));
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
        != 0) {
        ::close(listenFd);
        listenFd = -1;
        fatal(std::string("serve: bind() failed: ") + std::strerror(errno));
    }
    if (::listen(listenFd, 16) != 0) {
        ::close(listenFd);
        listenFd = -1;
        fatal(std::string("serve: listen() failed: ")
              + std::strerror(errno));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort = int(ntohs(addr.sin_port));

    if (::pipe(wakePipe) != 0) {
        ::close(listenFd);
        listenFd = -1;
        fatal(std::string("serve: pipe() failed: ") + std::strerror(errno));
    }

    stopping.store(false);
    running.store(true);
    for (int w = 0; w < cfg.workers; ++w)
        workers.emplace_back([this] { workerLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });
}

void
SearchServer::stop()
{
    if (!running.exchange(false))
        return;
    stopping.store(true);

    // Wake the accept loop and join it before touching its state.
    (void)!::write(wakePipe[1], "x", 1);
    if (acceptThread.joinable())
        acceptThread.join();
    ::close(listenFd);
    listenFd = -1;
    ::close(wakePipe[0]);
    ::close(wakePipe[1]);
    wakePipe[0] = wakePipe[1] = -1;

    // Flush the queue as cancelled and stop the in-flight searches.
    {
        MutexLock lock(jobMtx);
        counters.cancelled.fetch_add(queue.size(),
                                     std::memory_order_relaxed);
        queue.clear();
        counters.queueDepth.store(0, std::memory_order_relaxed);
    }
    // Kill the connections BEFORE joining workers: shutdown() makes a
    // worker blocked in send() (slow client) and a reader blocked in
    // recv() return immediately — joining first could deadlock on a
    // worker wedged inside a progress write.
    {
        MutexLock lock(connMtx);
        for (ReaderSlot &slot : readers) {
            slot.conn->alive.store(false, std::memory_order_relaxed);
            slot.conn->cancelJobs();
            ::shutdown(slot.conn->fd, SHUT_RDWR);
        }
    }
    jobCv.notify_all();
    for (std::thread &w : workers)
        if (w.joinable())
            w.join();
    workers.clear();

    // Join the readers, then drop the connections.
    for (;;) {
        ReaderSlot slot;
        {
            MutexLock lock(connMtx);
            if (readers.empty())
                break;
            slot = std::move(readers.front());
            readers.pop_front();
        }
        if (slot.thread.joinable())
            slot.thread.join();
    }
}

void
SearchServer::dumpMetrics(std::ostream &os) const
{
    counters.dump(os);
}

void
SearchServer::installSigusr1(SearchServer *server)
{
    (void)server;
    std::signal(SIGUSR1, sigusr1Handler);
}

void
SearchServer::reapFinishedReaders()
{
    // Splice finished slots out under the lock, then join them outside
    // it: a reader that has set readerDone is past its last guarded
    // access but may still be running its epilogue, and joining while
    // holding connMtx would stall the accept loop (and every new
    // client) behind that epilogue for no reason.
    std::list<ReaderSlot> finished;
    {
        MutexLock lock(connMtx);
        for (auto it = readers.begin(); it != readers.end();) {
            auto next = std::next(it);
            if (it->conn->readerDone.load(std::memory_order_acquire))
                finished.splice(finished.end(), readers, it);
            it = next;
        }
    }
    for (ReaderSlot &slot : finished)
        slot.thread.join();
}

void
SearchServer::acceptLoop()
{
    pollfd fds[2];
    fds[0] = {listenFd, POLLIN, 0};
    fds[1] = {wakePipe[0], POLLIN, 0};
    while (!stopping.load()) {
        int rc = ::poll(fds, 2, 200);
        if (dumpFlag.exchange(false) || gSigusr1Dump.exchange(false))
            dumpMetrics(std::cerr);
        if (rc <= 0)
            continue;
        if ((fds[1].revents & POLLIN) != 0)
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Bound every send so a client that stops reading turns into a
        // dead connection instead of a wedged worker (see
        // writeLineLocked).
        timeval sendTimeout{};
        sendTimeout.tv_sec = 5;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &sendTimeout,
                     sizeof(sendTimeout));
        // Events are small and each is one send: without NODELAY, Nagle
        // holds every write after `accepted` until the client's delayed
        // ACK (~40 ms), which would set the served latency.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        reapFinishedReaders();
        auto conn = std::make_shared<Connection>(fd);
        MutexLock lock(connMtx);
        readers.push_back(
            {conn, std::thread([this, conn] { readerLoop(conn); })});
    }
}

void
SearchServer::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buf;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        buf.append(chunk, size_t(n));
        size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.find_first_not_of(" \t") == std::string::npos)
                continue;
            handleLine(conn, line);
        }
        if (buf.size() > kMaxLineBytes) {
            // Newline-free flood: reject and drop instead of growing
            // server memory with the client's buffer.
            counters.rejected.fetch_add(1, std::memory_order_relaxed);
            conn->writeLine(makeRejected("", "request line too long"));
            break;
        }
    }
    // EOF or error: the client is gone. Cancel everything it owns so
    // in-flight workers free up at their next step check.
    conn->alive.store(false, std::memory_order_relaxed);
    conn->cancelJobs();
    conn->readerDone.store(true, std::memory_order_release);
}

void
SearchServer::handleLine(const std::shared_ptr<Connection> &conn,
                         const std::string &line)
{
    std::string err;
    std::optional<ServeRequest> req = parseRequest(line, &err);
    if (!req.has_value()) {
        counters.rejected.fetch_add(1, std::memory_order_relaxed);
        conn->writeLine(makeRejected("", err));
        return;
    }

    // Admission decision and the accepted line are made under the
    // connection's write lock, so a fast worker cannot emit progress
    // for this job before its accepted line is on the wire.
    const std::string id = req->id;
    MutexLock writeLock(conn->writeMtx);
    bool admitted = false;
    {
        MutexLock lock(jobMtx);
        if (!stopping.load() && queue.size() < cfg.queueCap) {
            auto job = std::make_shared<Job>();
            job->req = std::move(*req);
            job->conn = conn;
            conn->registerJob(job);
            queue.push_back(std::move(job));
            counters.queueDepth.store(int64_t(queue.size()),
                                      std::memory_order_relaxed);
            admitted = true;
        }
    }
    if (!admitted) {
        counters.rejected.fetch_add(1, std::memory_order_relaxed);
        conn->writeLineLocked(makeRejected(
            id, stopping.load() ? "server shutting down" : "queue full"));
        return;
    }
    counters.accepted.fetch_add(1, std::memory_order_relaxed);
    conn->writeLineLocked(makeAccepted(id));
    jobCv.notify_one();
}

void
SearchServer::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            MutexLock lock(jobMtx);
            while (!stopping.load() && queue.empty())
                jobCv.wait(jobMtx);
            if (queue.empty())
                return; // stopping and drained
            job = std::move(queue.front());
            queue.pop_front();
            counters.queueDepth.store(int64_t(queue.size()),
                                      std::memory_order_relaxed);
        }
        if (!job->conn->alive.load(std::memory_order_relaxed)) {
            // Client vanished while the job sat in the queue.
            counters.cancelled.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        counters.activeWorkers.fetch_add(1, std::memory_order_relaxed);
        runJob(*job);
        counters.activeWorkers.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
SearchServer::runJob(Job &job)
{
    const ServeRequest &req = job.req;
    Connection &conn = *job.conn;
    try {
        AcceleratorSpec arch = *resolveArch(req.arch);
        const AlgorithmSpec &algo = *resolveAlgo(req.algo);
        Problem problem = makeProblem(algo, req.problemName, req.bounds);
        MapSpace space(arch, problem);
        CostModel model(space);

        // Surrogate-backed methods get a private copy of the pooled
        // master. The copy shares the master's packed, immutable
        // weight panels; what it owns is the per-layer activation and
        // gradient scratch that predict/gradient overwrite on every
        // call, which is why two workers must never share one
        // instance.
        const std::string key = req.method.substr(0, req.method.find(':'));
        std::optional<Surrogate> privateCopy;
        if (SearcherRegistry::instance().contains(key)
            && SearcherRegistry::instance().at(key).needsSurrogate) {
            std::shared_ptr<Surrogate> master =
                surrogates->acquire(arch, algo);
            privateCopy.emplace(*master);
        }
        SearcherBuildContext bctx{
            model, privateCopy.has_value() ? &*privateCopy : nullptr};

        // Per-run streaming sinks: improvements (and heartbeats when
        // progressEvery is set) go straight to the wire; no trace
        // vector is materialized unless the client asked for one.
        std::vector<std::unique_ptr<StreamingTraceSink>> sinks;
        for (int r = 0; r < req.runs; ++r) {
            sinks.push_back(std::make_unique<StreamingTraceSink>(
                r, [this, &conn, &req](const char *event, int run,
                                       const SearchProgress &p) {
                    if (conn.writeLine(
                            makeProgress(req.id, event, run, p)))
                        counters.progressEvents.fetch_add(
                            1, std::memory_order_relaxed);
                }));
        }

        MultiRunOptions opts;
        opts.runs = req.runs;
        opts.baseSeed = req.seed;
        opts.threads = 1; // one worker lane per request
        opts.progressEvery = req.progressEvery;
        opts.collectTrace = req.trace;
        opts.stop = &job.stop;
        opts.observerFor = [&sinks](int run) {
            return sinks[size_t(run)].get();
        };

        MultiRunResult result =
            runMany(req.method, bctx, budgetFor(req, cfg.maxWallSec), opts);

        if (!conn.alive.load(std::memory_order_relaxed)) {
            counters.cancelled.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        conn.writeLine(makeResult(req.id, result, req.trace));
        counters.completed.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception &e) {
        // Per-request failure isolation: report and move on — a bad
        // spec or a failed fleet must never take the server down.
        counters.failed.fetch_add(1, std::memory_order_relaxed);
        conn.writeLine(makeError(req.id, e.what()));
    }
}

} // namespace mm::serve
