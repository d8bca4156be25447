/**
 * @file
 * The mapping-as-a-service daemon: bind a TCP port, serve search
 * requests until SIGINT/SIGTERM, shut down cleanly.
 *
 *   MM_SERVE_PORT=7533 MM_SERVE_WORKERS=4 ./mm_serve
 *
 * Knobs (environment):
 *   MM_SERVE_PORT          port (0 = ephemeral, printed on stdout)
 *   MM_SERVE_WORKERS       concurrent search workers (default 2)
 *   MM_SERVE_QUEUE         admission queue capacity (default 8)
 *   MM_SERVE_MAX_WALL_SEC  per-request wall cap in seconds (0 = none)
 *   MM_TRAIN_SAMPLES / MM_EPOCHS  Phase-1 scale behind the surrogate
 *                                 pool (as in the quickstart)
 *   MM_CACHE_DIR / MM_NO_CACHE    surrogate disk cache (as everywhere)
 *
 * SIGUSR1 dumps the request-level metrics block to stderr. Talk to it
 * with examples/mm_client.cpp or any newline-delimited-JSON client
 * (protocol: src/serve/protocol.hpp).
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "common/env.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<bool> gShutdown{false};

void
shutdownHandler(int)
{
    gShutdown.store(true);
}

} // namespace

int
main()
{
    using namespace mm;
    using namespace mm::serve;

    ServeConfig cfg = ServeConfig::fromEnv();
    cfg.phase1.data.samples =
        envSize("MM_TRAIN_SAMPLES", Phase1Config::kUnsetSamples);
    cfg.phase1.train.epochs =
        int(envInt("MM_EPOCHS", Phase1Config::kUnsetEpochs));

    SearchServer server(cfg);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::cerr << "mm_serve: " << e.what() << "\n";
        return 1;
    }
    SearchServer::installSigusr1(&server);
    std::signal(SIGINT, shutdownHandler);
    std::signal(SIGTERM, shutdownHandler);

    std::cout << "mm_serve listening on 127.0.0.1:" << server.port()
              << " (" << cfg.workers << " workers, queue " << cfg.queueCap
              << ")" << std::endl;

    while (!gShutdown.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::cout << "mm_serve: shutting down" << std::endl;
    server.stop();
    server.dumpMetrics(std::cerr);
    std::cout << "mm_serve: bye" << std::endl;
    return 0;
}
