/**
 * @file
 * The repository benchmark: one process runs one named workload
 * through the public API, checks every answer against
 * ExprPool::evaluate, and prints each metric with its unit. The last
 * line of standard output is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end set, measured with
 * telemetry off. With --trace 1 the run enables the metrics and
 * wall-clock telemetry pillars, records benchmark-side spans around
 * every public call it makes, replays the request sequence through
 * the layers one call at a time, and reports the per-layer set. It
 * also writes a Chrome trace and a per-layer self-time table.
 *
 * Workloads (why each exists is in README.md):
 *   serve-unique   QueryServer, every request its own dataset;
 *   serve-skewed   QueryServer, a hot dataset most requests share;
 *   fleet-8192     QueryService::submit over the Table-1 fleet at
 *                  8192 columns with majority votes.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--shards K] [--workers K] [--out DIR] [--gen-only]
 */

#include <sys/resource.h>

#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "harness.hh"
#include "obs/telemetry.hh"
#include "pud/plan.hh"
#include "pud/service.hh"
#include "serve/server.hh"
#include "verify/certify.hh"
#include "verify/verifier.hh"

using namespace fcdram;
using namespace fcdram::pud;
using namespace fcdram::serve;
using namespace perfbench;

namespace {

// ---- command line ------------------------------------------------

enum class Workload { ServeUnique, ServeSkewed, Fleet8192 };

struct Args
{
    Workload workload = Workload::ServeUnique;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int shards = 2;  ///< QueryServer shards (serve-*).
    int workers = 4; ///< Scheduler workers (fleet-8192).
    std::string outDir = ".bench_build/out";
    bool genOnly = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload serve-unique|serve-skewed|fleet-8192"
                 " --seed N --seconds S --trace 0|1 [--shards K]"
                 " [--workers K] [--out DIR] [--gen-only]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        if (key == "--gen-only") {
            args.genOnly = true;
            continue;
        }
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(argv[0]);
        }
        char *end = nullptr;
        const auto integer = [&](long long lo, long long hi) {
            const long long parsed =
                std::strtoll(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || parsed < lo ||
                parsed > hi)
                usage(argv[0]);
            return parsed;
        };
        if (key == "--workload") {
            args.workloadName = value;
            haveWorkload = true;
            if (value == "serve-unique")
                args.workload = Workload::ServeUnique;
            else if (value == "serve-skewed")
                args.workload = Workload::ServeSkewed;
            else if (value == "fleet-8192")
                args.workload = Workload::Fleet8192;
            else
                usage(argv[0]);
        } else if (key == "--seed") {
            args.seed = static_cast<std::uint64_t>(
                integer(0, (1LL << 62)));
        } else if (key == "--seconds") {
            args.seconds = static_cast<double>(integer(1, 600));
        } else if (key == "--trace") {
            args.trace = integer(0, 1) == 1;
        } else if (key == "--shards") {
            args.shards = static_cast<int>(integer(1, 64));
        } else if (key == "--workers") {
            args.workers = static_cast<int>(integer(1, 64));
        } else if (key == "--out") {
            if (value.empty())
                usage(argv[0]);
            args.outDir = value;
        } else {
            usage(argv[0]);
        }
    }
    if (!haveWorkload)
        usage(argv[0]);
    return args;
}

// ---- process measurements ----------------------------------------

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

// ---- workload constants ------------------------------------------

/** Serve workloads run at the default 256-column geometry. */
constexpr int kServeColumns = 256;
constexpr int kFleetColumns = 8192;
constexpr int kFleetRedundancy = 3;

constexpr std::size_t kTenants = 4000;

/** Skewed datasets: one hot dataset plus a cold tail. */
constexpr std::size_t kSkewedDatasets = 64;
constexpr double kHotShare = 0.6;

/**
 * Closed-loop window of outstanding futures (one client). The skewed
 * client keeps more in flight, as thousands of tenants polling one
 * hot dataset would, so the batching windows find duplicates.
 */
constexpr std::size_t kUniqueWindow = 512;
constexpr std::size_t kSkewedWindow = 2048;

/**
 * Requests (serve) or submits (fleet) every run completes, however
 * slow; the deterministic metrics and RESULT_HASH fold over this
 * prefix, so they repeat exactly across runs, shard and worker
 * counts.
 */
constexpr std::size_t kServeUniquePrefix = 10000;
constexpr std::size_t kServeSkewedPrefix = 20000;
constexpr std::size_t kFleetPrefixSubmits = 2;

/**
 * Open-loop offered rates, well below the closed-loop capacity of
 * either serve workload on a 4-core machine, so the queue stays
 * bounded and latency measures service, not overload.
 */
constexpr double kServeUniqueRate = 1500.0;
constexpr double kServeSkewedRate = 1500.0;

/** Open-loop sender: how long before a due time it starts spinning. */
constexpr double kSpinUs = 300.0;

/** Closed-loop ramp excluded from throughput. */
constexpr double kWarmupSeconds = 1.0;

/**
 * Set-up repetitions; setup_s is their median. A serve set-up takes
 * well under a second, a fleet-8192 set-up over one.
 */
constexpr int kServeSetups = 15;
constexpr int kFleetSetups = 3;

/** Requests replayed through the layers one call at a time. */
constexpr std::size_t kServeReplay = 1500;

/** Stream salts: closed loop, open loop, fleet submits. */
constexpr std::uint64_t kClosedStream = 0xC105EDULL;
constexpr std::uint64_t kOpenStream = 0x0BE11ULL;
constexpr std::uint64_t kFleetStream = 0xF1EE7ULL;

std::uint32_t
pickWeighted(Rng &rng, const std::vector<std::uint32_t> &weights)
{
    std::uint64_t total = 0;
    for (const std::uint32_t w : weights)
        total += w;
    std::uint64_t draw = rng.next() % total;
    for (std::uint32_t i = 0; i < weights.size(); ++i) {
        if (draw < weights[i])
            return i;
        draw -= weights[i];
    }
    return static_cast<std::uint32_t>(weights.size() - 1);
}

using Dataset = std::shared_ptr<const std::map<std::string, BitVector>>;

/** The expressions a workload queries, in one pool. */
struct Catalog
{
    ExprPool pool;
    std::vector<ExprId> roots;
    std::vector<std::uint32_t> weights;
    std::vector<std::string> columns; ///< Union of every shape's.
};

/** The four serving shapes with their 70/15/10/5 popularity. */
Catalog
serveCatalog()
{
    Catalog catalog;
    ExprPool &pool = catalog.pool;
    std::vector<ExprId> c;
    for (int i = 0; i < 4; ++i) {
        catalog.columns.push_back("c" + std::to_string(i));
        c.push_back(pool.column(catalog.columns.back()));
    }
    catalog.roots = {
        pool.mkAnd(c[0], c[1]),
        pool.mkOr({c[0], c[1], c[2]}),
        pool.mkOr(pool.mkAnd(c[0], pool.mkNot(c[1])),
                  pool.mkAnd(c[2], c[3])),
        pool.mkAnd({c[0], c[1], c[2], c[3]}),
    };
    catalog.weights = {70, 15, 10, 5};
    return catalog;
}

/** Paper-scale wide gates plus NOT, XOR-4 and MAJ-3. */
Catalog
fleetCatalog()
{
    Catalog catalog;
    ExprPool &pool = catalog.pool;
    std::vector<ExprId> c;
    for (int i = 0; i < 16; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        catalog.columns.push_back(name);
        c.push_back(pool.column(name));
    }
    const std::vector<ExprId> four(c.begin(), c.begin() + 4);
    catalog.roots = {pool.mkAnd(c),          pool.mkOr(c),
                     pool.mkNand(c),         pool.mkNor(c),
                     pool.mkNot(c[0]),       pool.mkXor(four),
                     pool.mkMaj({c[0], c[1], c[2]})};
    catalog.weights.assign(catalog.roots.size(), 1);
    return catalog;
}

Dataset
randomDataset(const Catalog &catalog, std::size_t bits,
              std::uint64_t seed)
{
    return std::make_shared<const std::map<std::string, BitVector>>(
        PudEngine::randomColumns(catalog.columns, bits, seed));
}

std::uint64_t
hashDataset(std::uint64_t hash, const Dataset &data)
{
    for (const auto &[name, bits] : *data) {
        hash = hashCombine(hash, hashString(name));
        for (const std::uint64_t word : bits.words())
            hash = hashCombine(hash, word);
    }
    return hash;
}

// ---- serve request trace -----------------------------------------

struct Request
{
    std::uint32_t shape = 0;
    std::uint32_t module = 0;
    std::uint32_t tenant = 0;
    std::uint64_t datasetId = 0;
    Dataset data;
};

/**
 * Index-addressable request generator: request (stream, i) is a pure
 * function of (seed, stream, i), so the closed loop, the open loop
 * and the layer replay see the same requests however far each gets.
 */
class ServeTrace
{
  public:
    ServeTrace(Workload workload, std::uint64_t seed,
               const Catalog &catalog, std::size_t modules)
        : workload_(workload), seed_(seed), catalog_(catalog)
    {
        // Zipf-like module popularity: module m weighs 1000/(m+1).
        for (std::size_t m = 0; m < modules; ++m)
            moduleWeights_.push_back(
                static_cast<std::uint32_t>(1000 / (m + 1)));
        if (workload_ == Workload::ServeSkewed) {
            for (std::size_t d = 0; d < kSkewedDatasets; ++d) {
                hot_.push_back(randomDataset(
                    catalog_, kServeColumns,
                    hashCombine(seed_, 0xDA7A0000ULL + d)));
            }
        }
    }

    Request make(std::uint64_t stream, std::uint64_t index) const
    {
        Rng rng(hashCombine(hashCombine(seed_, stream), index));
        Request request;
        request.shape = pickWeighted(rng, catalog_.weights);
        request.module = pickWeighted(rng, moduleWeights_);
        request.tenant = static_cast<std::uint32_t>(rng.next() % kTenants);
        if (workload_ == Workload::ServeSkewed) {
            const bool hot = rng.uniform() < kHotShare;
            request.datasetId =
                hot ? 0 : 1 + rng.next() % (kSkewedDatasets - 1);
            request.data = hot_[request.datasetId];
        } else {
            // A dataset of its own: no two requests share a dataKey.
            request.datasetId = hashCombine(stream, index);
            request.data = randomDataset(catalog_, kServeColumns,
                                         hashCombine(seed_, rng.next()));
        }
        return request;
    }

    /** Reference output of a request (cached for shared datasets). */
    BitVector expected(const Request &request)
    {
        if (workload_ != Workload::ServeSkewed)
            return catalog_.pool.evaluate(catalog_.roots[request.shape],
                                          *request.data);
        const auto key = std::make_pair(request.shape, request.datasetId);
        const auto it = expected_.find(key);
        if (it != expected_.end())
            return it->second;
        BitVector value = catalog_.pool.evaluate(
            catalog_.roots[request.shape], *request.data);
        expected_.emplace(key, value);
        return value;
    }

  private:
    Workload workload_;
    std::uint64_t seed_;
    const Catalog &catalog_;
    std::vector<std::uint32_t> moduleWeights_;
    std::vector<Dataset> hot_;
    std::map<std::pair<std::uint32_t, std::uint64_t>, BitVector>
        expected_;
};

/** Share of requests whose (shape, module, dataset) came earlier. */
double
duplicateShare(const ServeTrace &trace, std::size_t count)
{
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>
        seen;
    std::size_t duplicates = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const Request r = trace.make(kClosedStream, i);
        if (!seen.emplace(r.shape, r.module, r.datasetId).second)
            ++duplicates;
    }
    return count == 0 ? 0.0
                      : static_cast<double>(duplicates) /
                            static_cast<double>(count);
}

std::uint64_t
serveTraceHash(const ServeTrace &trace, std::size_t count)
{
    std::uint64_t hash = 0x7ACE0ULL;
    for (std::size_t i = 0; i < count; ++i) {
        const Request r = trace.make(kClosedStream, i);
        hash = hashCombine(hash, r.shape);
        hash = hashCombine(hash, r.module);
        hash = hashCombine(hash, r.tenant);
        hash = hashDataset(hash, r.data);
    }
    return hash;
}

// ---- result accounting -------------------------------------------

/**
 * What the client saw. The ledger, hash and bit-error counts fold
 * only the deterministic prefix, in request order; the failure count
 * covers every request.
 */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t refused = 0;
    std::size_t errored = 0;
    std::size_t wrong = 0; ///< Oracle failures (broken answers).

    ModelLedger ledger; ///< Prefix only.
    std::uint64_t trustedMismatches = 0; ///< Prefix only.
    std::uint64_t resultHash = 0x5e47e74aff1cULL;

    std::size_t failed() const { return refused + errored + wrong; }

    /** Count another phase's requests and failures into this one. */
    void addRequests(const Tally &other)
    {
        attempted += other.attempted;
        refused += other.refused;
        errored += other.errored;
        wrong += other.wrong;
    }

    double bitErrorRate() const
    {
        return ledger.resultBits == 0
                   ? 0.0
                   : static_cast<double>(trustedMismatches) /
                         static_cast<double>(ledger.resultBits);
    }
};

/** Check one result; fold it when it belongs to the prefix. */
void
account(Tally &tally, const BitVector &expected, const QueryResult &result,
        bool inPrefix)
{
    const OracleVerdict verdict = checkResult(expected, result);
    ++tally.completed;
    if (!verdict.ok()) {
        ++tally.wrong;
        if (tally.wrong <= 3) {
            std::cerr << "oracle: broken answer (size "
                      << (verdict.sizeOk ? "ok" : "bad") << ", golden "
                      << (verdict.goldenOk ? "ok" : "bad") << ", "
                      << verdict.fallbackMismatches
                      << " wrong fallback bits)\n";
        }
    }
    if (inPrefix) {
        tally.ledger.add(result);
        tally.trustedMismatches += verdict.trustedMismatches;
        tally.resultHash = foldResult(tally.resultHash, result);
    }
}

// ---- serve environment -------------------------------------------

struct ServeEnv
{
    std::shared_ptr<FleetSession> session;
    std::shared_ptr<QueryService> service;
    std::vector<PreparedQuery> prepared;
};

CampaignConfig
serveConfig()
{
    CampaignConfig config;
    config.geometry.columns = kServeColumns;
    // Shard threads call submit on one module; no fleet fan-out.
    config.workers = 1;
    return config;
}

/** Session, service, prepared shapes, and every (shape, module) plan. */
ServeEnv
buildServeEnv(const Catalog &catalog)
{
    ServeEnv env;
    env.session = std::make_shared<FleetSession>(serveConfig());
    env.service = std::make_shared<QueryService>(env.session);
    for (const ExprId root : catalog.roots)
        env.prepared.push_back(env.service->prepare(catalog.pool, root));
    const Dataset warmData = randomDataset(catalog, kServeColumns, 0);
    for (const auto &module :
         env.session->modules(FleetSession::Fleet::SkHynix)) {
        std::vector<BoundQuery> batch;
        for (const PreparedQuery &query : env.prepared)
            batch.push_back(query.bind(warmData));
        env.service->collect(env.service->submit(batch, module));
    }
    return env;
}

/** FIFO from the sending to the collecting thread. */
template <class T>
class Channel
{
  public:
    void push(T value)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            items_.push_back(std::move(value));
        }
        ready_.notify_one();
    }

    void close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    /** False once closed and drained. */
    bool pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    /** Everything queued so far, without blocking. */
    std::vector<T> takeAll(bool &closed)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::vector<T> all(std::make_move_iterator(items_.begin()),
                           std::make_move_iterator(items_.end()));
        items_.clear();
        closed = closed_;
        return all;
    }

  private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<T> items_;
    bool closed_ = false;
};

struct Pending
{
    std::uint64_t index = 0;
    Request request;
    std::future<QueryResponse> future;
    double dueUs = 0.0;
    double sentUs = 0.0;
};

ServerOptions
serverOptions(int shards)
{
    ServerOptions options;
    options.shards = shards;
    options.maxBatch = 64;
    options.maxQueueDepth = 4096;
    return options;
}

ClientId
clientOf(const Request &request)
{
    ClientId client;
    client.tenant = "tenant-" + std::to_string(request.tenant);
    return client;
}

/**
 * Closed-loop throughput is measured from the end of a warm-up
 * second to the moment the client stops sending, so neither the
 * ramp nor the drain of the last window counts. The window is cut
 * into one-second slices and the run reports the median slice: a
 * burst of preemption on a shared host then costs one slice, not the
 * run.
 */
struct ClosedLoop
{
    std::vector<double> boundaryUs;  ///< Slice edges, warm-up to stop.
    std::vector<double> boundaryCpu; ///< Process CPU at each edge.
    std::vector<double> doneUs;
    std::size_t measured = 0; ///< Completions inside the window.
    double seconds = 0.0;
    std::uint64_t retries = 0;
    ServerStats stats;
    std::vector<double> batchQueries;
    std::vector<double> enqueueUs;

    /** Completions per slice. */
    std::vector<std::size_t> sliceCounts() const
    {
        std::vector<std::size_t> counts(
            boundaryUs.empty() ? 0 : boundaryUs.size() - 1, 0);
        for (const double t : doneUs) {
            const auto it = std::upper_bound(boundaryUs.begin(),
                                             boundaryUs.end(), t);
            if (it != boundaryUs.begin() && it != boundaryUs.end())
                ++counts[static_cast<std::size_t>(
                    it - boundaryUs.begin() - 1)];
        }
        return counts;
    }

    /** Median over slices of completions per second. */
    double qps() const
    {
        const std::vector<std::size_t> counts = sliceCounts();
        std::vector<double> rates;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            rates.push_back(static_cast<double>(counts[i]) * 1e6 /
                            (boundaryUs[i + 1] - boundaryUs[i]));
        }
        return quantile(rates, 0.5);
    }

    /** Median over slices of process CPU per completion. */
    double cpuUsPerRequest() const
    {
        const std::vector<std::size_t> counts = sliceCounts();
        std::vector<double> perRequest;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] != 0) {
                perRequest.push_back(
                    (boundaryCpu[i + 1] - boundaryCpu[i]) * 1e6 /
                    static_cast<double>(counts[i]));
            }
        }
        return quantile(perRequest, 0.5);
    }
};

/**
 * One client, @p window outstanding futures: a sending thread enqueues
 * (retrying on backpressure) while a collecting thread settles the
 * futures in request order and checks each answer.
 */
ClosedLoop
runClosedLoop(ServeEnv &env, ServeTrace &trace, int shards,
              std::size_t window, double seconds, std::size_t prefix,
              Tally &tally)
{
    const auto &modules =
        env.session->modules(FleetSession::Fleet::SkHynix);
    ClosedLoop loop;
    QueryServer server(env.service, serverOptions(shards));
    std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(window));
    Channel<Pending> channel;
    std::mutex errorMutex;
    std::exception_ptr threadError;

    const double startUs = nowUs();
    const double warmUs = startUs + kWarmupSeconds * 1e6;
    const double deadlineUs = warmUs + seconds * 1e6;

    std::thread collector([&] {
        try {
            Pending pending;
            while (channel.pop(pending)) {
                try {
                    ScopedSpan span(spans(), "serve.wait", pending.index);
                    const QueryResponse response = pending.future.get();
                    loop.batchQueries.push_back(
                        static_cast<double>(response.batchQueries));
                    loop.doneUs.push_back(nowUs());
                    account(tally, trace.expected(pending.request),
                            response.stats.result, pending.index < prefix);
                } catch (const std::exception &error) {
                    ++tally.errored;
                    std::cerr << "serve: request " << pending.index
                              << " failed: " << error.what() << "\n";
                }
                slots.release();
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(errorMutex);
            threadError = std::current_exception();
        }
    });

    try {
        double nextEdgeUs = warmUs;
        for (std::uint64_t i = 0;; ++i) {
            const double now = nowUs();
            if (i >= prefix && now >= deadlineUs)
                break;
            if (now >= nextEdgeUs) {
                loop.boundaryUs.push_back(now);
                loop.boundaryCpu.push_back(cpuSeconds());
                nextEdgeUs = now + 1e6;
            }
            slots.acquire();
            Pending pending;
            pending.index = i;
            pending.request = trace.make(kClosedStream, i);
            const Request &r = pending.request;
            ++tally.attempted;
            ScopedSpan span(spans(), "serve.enqueue", i);
            for (;;) {
                try {
                    const double t0 = nowUs();
                    pending.future = server.enqueue(
                        env.prepared[r.shape].bind(r.data),
                        modules[r.module], clientOf(r));
                    loop.enqueueUs.push_back(nowUs() - t0);
                    break;
                } catch (const AdmissionError &) {
                    ++loop.retries;
                    std::this_thread::yield();
                }
            }
            channel.push(std::move(pending));
        }
    } catch (...) {
        channel.close();
        collector.join();
        throw;
    }
    loop.boundaryUs.push_back(nowUs());
    loop.boundaryCpu.push_back(cpuSeconds());
    channel.close();
    collector.join();
    server.drain();
    loop.stats = server.stats();
    for (const std::size_t count : loop.sliceCounts())
        loop.measured += count;
    loop.seconds = (loop.boundaryUs.back() - loop.boundaryUs.front()) / 1e6;
    if (threadError)
        std::rethrow_exception(threadError);
    return loop;
}

struct OpenLoop
{
    std::vector<OpenLoopRecord> records;
    std::vector<double> queueUs;
    std::vector<double> enqueueUs;
};

/**
 * Seeded Poisson arrivals at @p rate: the sender enqueues each
 * request at its due time (no retry: a refusal is a failure), and a
 * polling collector stamps each future when it becomes ready, so a
 * request's latency runs from its due time to its completion.
 */
OpenLoop
runOpenLoop(ServeEnv &env, ServeTrace &trace, std::uint64_t seed,
            int shards, double rate, double seconds, Tally &tally)
{
    const auto &modules =
        env.session->modules(FleetSession::Fleet::SkHynix);
    const auto count =
        static_cast<std::size_t>(std::llround(rate * seconds));
    const std::vector<double> due =
        poissonSchedule(hashCombine(seed, kOpenStream), rate, count);
    OpenLoop loop;
    loop.records.reserve(count);
    QueryServer server(env.service, serverOptions(shards));
    Channel<Pending> channel;
    std::exception_ptr threadError;
    const double startUs = nowUs();

    std::thread collector([&] {
        try {
            std::vector<Pending> outstanding;
            bool closed = false;
            while (!closed || !outstanding.empty()) {
                for (Pending &fresh : channel.takeAll(closed))
                    outstanding.push_back(std::move(fresh));
                for (std::size_t k = 0; k < outstanding.size();) {
                    Pending &p = outstanding[k];
                    if (p.future.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
                        ++k;
                        continue;
                    }
                    const double doneUs = nowUs() - startUs;
                    try {
                        const QueryResponse response = p.future.get();
                        loop.records.push_back({p.dueUs, p.sentUs, doneUs});
                        loop.queueUs.push_back(response.queueUs);
                        account(tally, trace.expected(p.request),
                                response.stats.result, false);
                    } catch (const std::exception &error) {
                        ++tally.errored;
                        std::cerr << "serve: open-loop request failed: "
                                  << error.what() << "\n";
                    }
                    outstanding[k] = std::move(outstanding.back());
                    outstanding.pop_back();
                }
                // Poll, leaving the cores to the shards and the sender.
                std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
        } catch (...) {
            threadError = std::current_exception();
        }
    });

    try {
        for (std::size_t i = 0; i < count; ++i) {
            Pending pending;
            pending.index = i;
            pending.request = trace.make(kOpenStream, i);
            pending.dueUs = due[i];
            const Request &r = pending.request;
            // Build the binding before the due time: it is client
            // work, not part of the request's latency.
            BoundQuery bound = env.prepared[r.shape].bind(r.data);
            const ClientId client = clientOf(r);
            // Sleep to just short of the due time, then spin: a
            // timer wake-up alone runs tens of microseconds late.
            const double wakeUs = startUs + due[i] - kSpinUs;
            if (nowUs() < wakeUs) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::micro>(
                        wakeUs - nowUs()));
            }
            while (nowUs() < startUs + due[i])
                std::this_thread::yield();
            ++tally.attempted;
            pending.sentUs = nowUs() - startUs;
            try {
                ScopedSpan span(spans(), "serve.enqueue", i);
                const double t0 = nowUs();
                pending.future = server.enqueue(std::move(bound),
                                                modules[r.module], client);
                loop.enqueueUs.push_back(nowUs() - t0);
            } catch (const AdmissionError &) {
                ++tally.refused;
                continue;
            }
            channel.push(std::move(pending));
        }
    } catch (...) {
        channel.close();
        collector.join();
        throw;
    }
    channel.close();
    collector.join();
    server.drain();
    if (threadError)
        std::rethrow_exception(threadError);
    return loop;
}

// ---- fleet environment -------------------------------------------

struct FleetEnv
{
    std::shared_ptr<FleetSession> session;
    std::shared_ptr<QueryService> service;
    std::vector<PreparedQuery> prepared;
};

CampaignConfig
fleetConfig(int workers)
{
    CampaignConfig config;
    config.geometry.columns = kFleetColumns;
    config.workers = workers;
    return config;
}

EngineOptions
fleetEngineOptions()
{
    EngineOptions options;
    options.redundancy = kFleetRedundancy;
    return options;
}

/** One dataset per shape, fresh for every submit. */
std::vector<Dataset>
fleetDatasets(const Catalog &catalog, std::uint64_t seed,
              std::uint64_t submit)
{
    std::vector<Dataset> data;
    for (std::size_t q = 0; q < catalog.roots.size(); ++q) {
        data.push_back(randomDataset(
            catalog, kFleetColumns,
            hashCombine(hashCombine(hashCombine(seed, kFleetStream),
                                    submit),
                        q)));
    }
    return data;
}

std::uint64_t
fleetTraceHash(const Catalog &catalog, std::uint64_t seed)
{
    std::uint64_t hash = 0x7ACE0ULL;
    for (std::uint64_t s = 0; s < kFleetPrefixSubmits; ++s) {
        for (const Dataset &data : fleetDatasets(catalog, seed, s))
            hash = hashDataset(hash, data);
    }
    return hash;
}

std::vector<BoundQuery>
fleetBatch(const FleetEnv &env, const std::vector<Dataset> &data)
{
    std::vector<BoundQuery> batch;
    for (std::size_t q = 0; q < env.prepared.size(); ++q)
        batch.push_back(env.prepared[q].bind(data[q]));
    return batch;
}

FleetEnv
buildFleetEnv(const Catalog &catalog, int workers)
{
    FleetEnv env;
    env.session = std::make_shared<FleetSession>(fleetConfig(workers));
    env.service =
        std::make_shared<QueryService>(env.session, fleetEngineOptions());
    for (const ExprId root : catalog.roots)
        env.prepared.push_back(env.service->prepare(catalog.pool, root));
    // One pass over the fleet derives every (shape, module) plan.
    const std::vector<Dataset> warmData(
        catalog.roots.size(), randomDataset(catalog, kFleetColumns, 0));
    env.service->collect(env.service->submit(
        fleetBatch(env, warmData), FleetSession::Fleet::Table1));
    return env;
}

/**
 * Per-submit figures; the run reports medians over submits, so a
 * burst of host preemption costs the submits it covers, not the run.
 */
struct FleetRun
{
    std::vector<double> latencyMs;
    std::vector<double> executionsPerSecond;
    std::vector<double> cpuUsPerExecution;
    double busySeconds = 0.0;
    double serialNs = 0.0;
    double interleavedNs = 0.0;
};

/** Submit fresh batches back to back until the time is up. */
FleetRun
runFleet(FleetEnv &env, const Catalog &catalog, std::uint64_t seed,
         double seconds, std::uint64_t firstSubmit, bool countPrefix,
         Tally &tally)
{
    FleetRun run;
    const double deadlineUs = nowUs() + seconds * 1e6;
    const std::size_t modules =
        env.session->modules(FleetSession::Fleet::Table1).size();
    for (std::uint64_t s = firstSubmit;; ++s) {
        const bool inPrefix =
            countPrefix && s - firstSubmit < kFleetPrefixSubmits;
        if (!inPrefix && nowUs() >= deadlineUs)
            break;
        const std::vector<Dataset> data = fleetDatasets(catalog, seed, s);
        std::vector<BoundQuery> batch = fleetBatch(env, data);
        tally.attempted += batch.size() * modules;
        const double cpu0 = cpuSeconds();
        const double t0 = nowUs();
        BatchQueryResult result;
        try {
            ScopedSpan span(spans(), "service.submit_fleet", s);
            const QueryTicket ticket = env.service->submit(
                std::move(batch), FleetSession::Fleet::Table1);
            result = env.service->collect(ticket);
        } catch (const std::exception &error) {
            tally.errored += data.size() * modules;
            std::cerr << "fleet: submit " << s
                      << " failed: " << error.what() << "\n";
            continue;
        }
        const double t1 = nowUs();
        const double cpu = cpuSeconds() - cpu0;
        const auto executions =
            static_cast<double>(data.size() * modules);
        run.busySeconds += (t1 - t0) / 1e6;
        run.latencyMs.push_back((t1 - t0) / 1e3);
        run.executionsPerSecond.push_back(executions * 1e6 / (t1 - t0));
        run.cpuUsPerExecution.push_back(cpu * 1e6 / executions);
        run.serialNs += result.serialLatencyNs;
        run.interleavedNs += result.interleavedLatencyNs;
        for (std::size_t q = 0; q < result.queries.size(); ++q) {
            const BitVector expected =
                catalog.pool.evaluate(catalog.roots[q], *data[q]);
            for (const ModuleQueryStats &stats :
                 result.queries[q].modules)
                account(tally, expected, stats.result, inPrefix);
        }
    }
    return run;
}

// ---- output ------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<std::pair<std::string, Metric>>;

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void
printMetrics(const Metrics &metrics)
{
    for (const auto &[name, metric] : metrics) {
        std::cout << "METRIC " << name << " " << number(metric.value)
                  << " " << metric.unit << "\n";
    }
}

std::string
resultJson(bool correct, const Tally &tally, const Metrics &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << number(metric.value)
           << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

void
printDeterministic(const Tally &tally)
{
    std::printf("RESULT_HASH %016" PRIx64 "\n", tally.resultHash);
    std::printf("DETERMINISTIC dram_coverage=%s modeled_speedup=%s "
                "result_bit_error_rate=%s prefix_executions=%" PRIu64
                "\n",
                number(tally.ledger.coverage()).c_str(),
                number(tally.ledger.speedup()).c_str(),
                number(tally.bitErrorRate()).c_str(),
                static_cast<std::uint64_t>(tally.ledger.executions));
}

/**
 * The end-to-end set, shared by every workload. Latency is printed
 * but carries no bound: on a shared host the wake-up delays of a
 * preempted machine swing it between runs far beyond any usable
 * bound (README.md gives the figures); the traced run reports it as
 * latency.* per-layer metrics.
 */
Metrics
endToEnd(double qps, double p50Ms, double p90Ms, double cpuUsPerReq,
         double setupS, const Tally &tally)
{
    const double failedFrac =
        tally.attempted == 0
            ? 1.0
            : static_cast<double>(tally.failed()) /
                  static_cast<double>(tally.attempted);
    std::cout << "p50_ms " << number(p50Ms) << " ms\n"
              << "p90_ms " << number(p90Ms) << " ms\n"
              << "failed_frac " << number(failedFrac) << " ratio\n"
              << "result_bit_error_rate "
              << number(tally.bitErrorRate()) << " ratio\n";
    return {
        {"qps", {qps, "req/s"}},
        {"cpu_us_per_req", {cpuUsPerReq, "us"}},
        {"success_frac", {1.0 - failedFrac, "ratio"}},
        {"setup_s", {setupS, "s"}},
        {"peak_rss_mb", {peakRssMb(), "MB"}},
        {"dram_coverage", {tally.ledger.coverage(), "ratio"}},
        {"modeled_speedup", {tally.ledger.speedup(), "x"}},
        {"result_bit_accuracy", {1.0 - tally.bitErrorRate(), "ratio"}},
    };
}

// ---- layer replay (traced run) -----------------------------------

/** One request of the single-threaded replay. */
struct ReplayItem
{
    std::size_t shape = 0;
    const FleetSession::Module *module = nullptr;
    Dataset data;
    std::uint64_t request = 0;
};

struct LayerReplay
{
    std::vector<double> submitUs;
    std::vector<double> planUs;
    std::vector<double> checkoutUs;
    std::vector<double> executeUs;
    std::vector<double> goldenUs;
    std::vector<double> deriveMs;
    double directCpuUsPerReq = 0.0;
    double interleaveRatio = 0.0;
    PlanCacheStats coldStats;
    double programsPerExec = 0.0;
    double actsPerExec = 0.0;
    std::size_t mismatches = 0; ///< Replay vs direct-submit results.
};

/**
 * Replays @p items one call at a time. A private PlanCache over the
 * service's engine first derives every plan the items need, cold and
 * timed. Then each request runs twice, back to back so drift in the
 * machine's speed hits both alike: as a direct submit + collect, and
 * through the calls QueryService makes per query (PlanCache::plan ->
 * checkoutChip -> PudEngine::execute), plus ExprPool::evaluate on the
 * same inputs. Every call is a span; both runs must give the same
 * result.
 */
LayerReplay
replayLayers(QueryService &service, const std::vector<PreparedQuery> &prepared,
             const Catalog &catalog, const std::vector<ReplayItem> &items)
{
    LayerReplay replay;
    FleetSession &session = *service.session();
    const PudEngine &engine = service.engine();
    PlanCache cache(engine);
    std::set<std::pair<std::size_t, std::size_t>> derived;
    for (const ReplayItem &item : items) {
        if (!derived.emplace(item.shape, item.module->index).second)
            continue;
        ScopedSpan span(spans(), "plan.derive", item.request);
        const double t0 = nowUs();
        cache.plan(prepared[item.shape].exprHash(), catalog.pool,
                   catalog.roots[item.shape], *item.module,
                   session.chip(*item.module).temperature());
        replay.deriveMs.push_back((nowUs() - t0) / 1e3);
    }
    replay.coldStats = cache.stats();

    obs::Telemetry &tel = obs::global();
    std::uint64_t programs = 0;
    std::uint64_t acts = 0;
    double directCpu = 0.0;
    double serialNs = 0.0;
    double interleavedNs = 0.0;
    for (const ReplayItem &item : items) {
        const FleetSession::Module &module = *item.module;

        double cpu0 = cpuSeconds();
        double t0 = nowUs();
        BatchQueryResult direct;
        {
            ScopedSpan span(spans(), "service.submit", item.request);
            direct = service.collect(service.submit(
                {prepared[item.shape].bind(item.data)}, module));
        }
        replay.submitUs.push_back(nowUs() - t0);
        directCpu += cpuSeconds() - cpu0;
        serialNs += direct.serialLatencyNs;
        interleavedNs += direct.interleavedLatencyNs;

        const std::uint64_t programs0 = tel.value("bender.programs");
        const std::uint64_t acts0 = tel.value("bender.cmd_act");
        ScopedSpan requestSpan(spans(), "replay.request", item.request);
        const Celsius temperature = session.chip(module).temperature();
        t0 = nowUs();
        std::shared_ptr<const PlacementPlan> plan;
        {
            ScopedSpan span(spans(), "plan.plan", item.request);
            plan = cache.plan(prepared[item.shape].exprHash(), catalog.pool,
                              catalog.roots[item.shape], module,
                              temperature);
        }
        double t1 = nowUs();
        replay.planUs.push_back(t1 - t0);

        std::optional<Chip> chip;
        {
            ScopedSpan span(spans(), "session.checkout", item.request);
            chip.emplace(session.checkoutChip(module));
            chip->setTemperature(temperature);
        }
        t0 = nowUs();
        replay.checkoutUs.push_back(t0 - t1);

        QueryResult result;
        {
            ScopedSpan span(spans(), "engine.execute", item.request);
            result = engine.execute(
                *plan->program, plan->placement, plan->temperature, *chip,
                hashCombine(module.seed, engine.options().benderSeedSalt),
                *item.data);
        }
        t1 = nowUs();
        replay.executeUs.push_back(t1 - t0);
        programs += tel.value("bender.programs") - programs0;
        acts += tel.value("bender.cmd_act") - acts0;

        {
            ScopedSpan span(spans(), "engine.golden", item.request);
            const BitVector golden =
                catalog.pool.evaluate(catalog.roots[item.shape], *item.data);
            if (golden != result.golden)
                ++replay.mismatches;
        }
        replay.goldenUs.push_back(nowUs() - t1);
        if (foldResult(0, result) !=
            foldResult(0, direct.queries.front().modules.front().result))
            ++replay.mismatches;
    }
    const auto count = static_cast<double>(items.size());
    replay.directCpuUsPerReq = directCpu * 1e6 / count;
    replay.interleaveRatio =
        serialNs <= 0.0 ? 0.0 : interleavedNs / serialNs;
    replay.programsPerExec = static_cast<double>(programs) / count;
    replay.actsPerExec = static_cast<double>(acts) / count;
    return replay;
}

/** Cold costs of the layers below the plan cache, one call each. */
struct LayerProbe
{
    double sessionBuildS = 0.0;
    std::uint64_t chipBuilds = 0;
    std::vector<double> compileUs;
    double waves = 0.0;
    double ops = 0.0;
    std::vector<double> allocatorBuildMs;
    std::vector<double> placeUs;
    std::vector<double> verifyMs;
    std::vector<double> certifyMs;
};

LayerProbe
probeLayers(const CampaignConfig &config, const EngineOptions &options,
            FleetSession::Fleet fleet, const Catalog &catalog)
{
    LayerProbe probe;
    double t0 = nowUs();
    std::shared_ptr<FleetSession> session;
    {
        ScopedSpan span(spans(), "session.build", 0);
        session = std::make_shared<FleetSession>(config);
        for (const auto &module : session->modules(fleet)) {
            session->chip(module);
            session->pairContexts(module);
        }
    }
    probe.sessionBuildS = (nowUs() - t0) / 1e6;
    probe.chipBuilds = session->cacheStats().chipBuilds;

    const PudEngine engine(session, options);
    const bool rowClone = options.copyIn == CopyInMode::RowClone;
    std::size_t programs = 0;
    for (const auto &module : session->modules(fleet)) {
        const Chip &chip = session->chip(module);
        const Celsius temperature = chip.temperature();
        t0 = nowUs();
        std::optional<RowAllocator> allocator;
        {
            ScopedSpan span(spans(), "allocator.build", module.index);
            allocator.emplace(*session, module, options.allocator,
                              temperature);
        }
        probe.allocatorBuildMs.push_back((nowUs() - t0) / 1e3);
        for (const ExprId root : catalog.roots) {
            t0 = nowUs();
            std::optional<MicroProgram> program;
            {
                ScopedSpan span(spans(), "compiler.compile", module.index);
                program.emplace(engine.compileFor(catalog.pool, root, chip));
            }
            probe.compileUs.push_back(nowUs() - t0);
            probe.waves += program->numWaves;
            probe.ops += static_cast<double>(program->ops.size());
            ++programs;

            t0 = nowUs();
            std::optional<Placement> placement;
            {
                ScopedSpan span(spans(), "allocator.place", module.index);
                placement.emplace(allocator->place(*program));
            }
            probe.placeUs.push_back(nowUs() - t0);

            t0 = nowUs();
            {
                ScopedSpan span(spans(), "verify.verify", module.index);
                verify::verifyPlan(*program, *placement, chip, temperature,
                                   temperature, rowClone);
            }
            probe.verifyMs.push_back((nowUs() - t0) / 1e3);

            t0 = nowUs();
            {
                ScopedSpan span(spans(), "verify.certify", module.index);
                verify::certifyPlan(*program, *placement, chip, temperature,
                                    options.redundancy, rowClone);
            }
            probe.certifyMs.push_back((nowUs() - t0) / 1e3);
        }
    }
    probe.waves /= static_cast<double>(programs);
    probe.ops /= static_cast<double>(programs);
    return probe;
}

/** Serve-side numbers of the traced run (zero on fleet-8192). */
struct ServeLayers
{
    std::vector<double> enqueueUs;
    std::vector<double> queueMs;
    double batchSize = 0.0;
    double coalescedFrac = 0.0;
    double execsPerBatch = 0.0;
    double maxDepth = 0.0;
    double retries = 0.0;
    double cpuUsPerExec = 0.0;
    double lateP99Ms = 0.0;
    double dupFrac = 0.0;
    /** Open-loop (serve) or submit (fleet) latency quantiles. */
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
};

Metrics
perLayer(const ServeLayers &serve, const LayerReplay &replay,
         const LayerProbe &probe, const Tally &tally, double planHitFrac,
         double traceOverheadFrac)
{
    const ModelLedger &ledger = tally.ledger;
    const double submitUs = mean(replay.submitUs);
    const double overheadUs = submitUs - mean(replay.planUs) -
                              mean(replay.checkoutUs) -
                              mean(replay.executeUs);
    const double execCostRatio =
        serve.cpuUsPerExec <= 0.0 || replay.directCpuUsPerReq <= 0.0
            ? 0.0
            : serve.cpuUsPerExec / replay.directCpuUsPerReq;
    return {
        {"serve.enqueue_us.p50", {quantile(serve.enqueueUs, 0.50), "us"}},
        {"serve.enqueue_us.p99", {quantile(serve.enqueueUs, 0.99), "us"}},
        {"serve.queue_ms.p50", {quantile(serve.queueMs, 0.50), "ms"}},
        {"serve.queue_ms.p99", {quantile(serve.queueMs, 0.99), "ms"}},
        {"serve.batch_size", {serve.batchSize, "count"}},
        {"serve.coalesced_frac", {serve.coalescedFrac, "ratio"}},
        {"serve.execs_per_batch", {serve.execsPerBatch, "count"}},
        {"serve.max_depth", {serve.maxDepth, "count"}},
        {"serve.admission_retries", {serve.retries, "count"}},
        {"serve.exec_cost_ratio", {execCostRatio, "x"}},
        {"service.submit_us", {submitUs, "us"}},
        {"service.overhead_us", {overheadUs, "us"}},
        {"plan.hit_us", {mean(replay.planUs), "us"}},
        {"plan.hit_frac", {planHitFrac, "ratio"}},
        {"plan.derive_ms", {mean(replay.deriveMs), "ms"}},
        {"plan.compiles",
         {static_cast<double>(replay.coldStats.compiles), "count"}},
        {"plan.placements",
         {static_cast<double>(replay.coldStats.placements), "count"}},
        {"plan.allocator_builds",
         {static_cast<double>(replay.coldStats.allocatorBuilds), "count"}},
        {"compiler.compile_us", {mean(probe.compileUs), "us"}},
        {"compiler.waves", {probe.waves, "count"}},
        {"compiler.ops", {probe.ops, "count"}},
        {"allocator.build_ms", {mean(probe.allocatorBuildMs), "ms"}},
        {"allocator.place_us", {mean(probe.placeUs), "us"}},
        {"verify.verify_ms", {mean(probe.verifyMs), "ms"}},
        {"verify.certify_ms", {mean(probe.certifyMs), "ms"}},
        {"session.build_s", {probe.sessionBuildS, "s"}},
        {"session.chip_builds",
         {static_cast<double>(probe.chipBuilds), "count"}},
        {"session.checkout_us", {mean(replay.checkoutUs), "us"}},
        {"engine.execute_us.p50", {quantile(replay.executeUs, 0.50), "us"}},
        {"engine.execute_us.p99", {quantile(replay.executeUs, 0.99), "us"}},
        {"engine.golden_us", {mean(replay.goldenUs), "us"}},
        {"engine.placed_frac",
         {static_cast<double>(ledger.placed) /
              static_cast<double>(std::max<std::uint64_t>(1, ledger.executions)),
          "ratio"}},
        {"engine.checked_bits",
         {ledger.perExecution(static_cast<double>(ledger.checkedBits)),
          "count"}},
        {"bender.programs_per_exec", {replay.programsPerExec, "count"}},
        {"bender.cmd_act_per_exec", {replay.actsPerExec, "count"}},
        {"model.dram_ns", {ledger.perExecution(ledger.dramNs), "ns"}},
        {"model.cpu_scan_ns", {ledger.perExecution(ledger.cpuScanNs), "ns"}},
        {"model.fallback_ns", {ledger.perExecution(ledger.fallbackNs), "ns"}},
        {"model.energy_nj", {ledger.perExecution(ledger.energyNj), "nJ"}},
        {"model.commands",
         {ledger.perExecution(static_cast<double>(ledger.commands)),
          "count"}},
        {"model.load_ns", {ledger.perExecution(ledger.loadNs), "ns"}},
        {"model.interleave_ratio", {replay.interleaveRatio, "ratio"}},
        {"obs.trace_overhead_frac", {traceOverheadFrac, "ratio"}},
        {"latency.p50_ms", {serve.p50Ms, "ms"}},
        {"latency.p90_ms", {serve.p90Ms, "ms"}},
        {"latency.p99_ms", {serve.p99Ms, "ms"}},
        {"gen.late_p99_ms", {serve.lateP99Ms, "ms"}},
        {"workload.dup_frac", {serve.dupFrac, "ratio"}},
    };
}

/**
 * Chrome trace plus the self-time table. The table's first block
 * splits one direct submit into the calls QueryService makes and an
 * explicit remainder, so its rows sum to the measured submit time.
 */
void
writeTraceFiles(const Args &args, const LayerReplay &replay)
{
    std::filesystem::create_directories(args.outDir);
    const std::string stem = args.outDir + "/" + args.workloadName +
                             "-seed" + std::to_string(args.seed);
    {
        std::ofstream trace(stem + ".trace.json");
        spans().writeChromeTrace(trace);
    }
    std::ofstream table(stem + ".layers.txt");
    const double submitUs = mean(replay.submitUs);
    const double planUs = mean(replay.planUs);
    const double checkoutUs = mean(replay.checkoutUs);
    const double executeUs = mean(replay.executeUs);
    table << "# per-request self time of one direct submit ("
          << replay.submitUs.size() << " requests, single thread)\n"
          << "layer\tcall\tus_per_request\n"
          << "plan\tPlanCache::plan\t" << number(planUs) << "\n"
          << "session\tFleetSession::checkoutChip\t" << number(checkoutUs)
          << "\n"
          << "engine\tPudEngine::execute\t" << number(executeUs) << "\n"
          << "service\tremainder of QueryService::submit+collect\t"
          << number(submitUs - planUs - checkoutUs - executeUs) << "\n"
          << "total\tQueryService::submit+collect\t" << number(submitUs)
          << "\n\n"
          << "# every benchmark span: count, self time (duration minus "
             "children)\n"
          << "span\tcount\tself_ms_total\tself_us_mean\n";
    for (const auto &[name, entry] : spans().selfTimeUs()) {
        const auto &[count, selfUs] = entry;
        table << name << "\t" << count << "\t" << number(selfUs / 1e3)
              << "\t" << number(selfUs / static_cast<double>(count))
              << "\n";
    }
    std::cout << "TRACE_FILES " << stem << ".trace.json " << stem
              << ".layers.txt\n";
}

/** Plan-cache hits over lookups across the whole run. */
double
planHitFrac(const QueryService &service)
{
    const PlanCacheStats stats = service.planCacheStats();
    return stats.lookups == 0 ? 0.0
                              : static_cast<double>(stats.hits) /
                                    static_cast<double>(stats.lookups);
}

void
enableTelemetry()
{
    obs::TelemetryConfig pillars;
    pillars.metrics = true;
    pillars.wallClock = true;
    obs::global().enable(pillars);
    spans().setEnabled(true);
}

// ---- workload runners --------------------------------------------

int
finish(const Tally &tally, const Metrics &metrics)
{
    printDeterministic(tally);
    printMetrics(metrics);
    const bool correct = tally.wrong == 0 && tally.errored == 0;
    std::cout << resultJson(correct, tally, metrics) << std::endl;
    return correct ? 0 : 1;
}

int
runServe(const Args &args)
{
    const Catalog catalog = serveCatalog();
    const bool unique = args.workload == Workload::ServeUnique;
    const std::size_t prefix =
        unique ? kServeUniquePrefix : kServeSkewedPrefix;
    const double rate = unique ? kServeUniqueRate : kServeSkewedRate;

    std::vector<double> setups;
    ServeEnv env;
    for (int i = 0; i < kServeSetups; ++i) {
        env = ServeEnv(); // Release the previous set-up first.
        const double t0 = nowUs();
        env = buildServeEnv(catalog);
        setups.push_back((nowUs() - t0) / 1e6);
    }
    const double setupS = quantile(setups, 0.5);
    ServeTrace trace(args.workload, args.seed, catalog,
                     env.session->modules(FleetSession::Fleet::SkHynix).size());
    std::printf("TRACE_HASH %016" PRIx64 "\n",
                serveTraceHash(trace, prefix));
    const double dupFrac = duplicateShare(trace, prefix);
    std::cout << "workload.dup_frac " << number(dupFrac) << " ratio ("
              << prefix << " requests)\n";

    Tally tally;
    const std::size_t window = unique ? kUniqueWindow : kSkewedWindow;
    if (!args.trace) {
        // Two thirds closed loop (the bounded figures), one third open
        // loop (latency, printed with its sample counts).
        const ClosedLoop closed =
            runClosedLoop(env, trace, args.shards, window,
                          args.seconds * 2.0 / 3.0, prefix, tally);
        const OpenLoop open =
            runOpenLoop(env, trace, args.seed, args.shards, rate,
                        args.seconds / 3.0, tally);
        std::vector<double> latencyMs;
        std::vector<double> lateMs;
        for (const OpenLoopRecord &record : open.records) {
            latencyMs.push_back(latencyFromDueMs(record));
            lateMs.push_back(generatorLatenessMs(record));
        }
        std::cout << "closed loop: " << closed.measured << " requests in "
                  << number(closed.seconds) << " s after warm-up, "
                  << closed.stats.executions << " executions in "
                  << closed.stats.batches << " batches, "
                  << closed.retries << " admission retries\n"
                  << "open loop: " << latencyMs.size() << " samples at "
                  << rate << " req/s, p99_ms "
                  << number(quantile(latencyMs, 0.99)) << " ms with "
                  << samplesBeyond(latencyMs.size(), 0.99)
                  << " samples beyond (reportable: "
                  << (percentileReportable(latencyMs.size(), 0.99) ? "yes"
                                                                   : "no")
                  << "); generator lateness p50 "
                  << number(quantile(lateMs, 0.5)) << " ms, p99 "
                  << number(quantile(lateMs, 0.99)) << " ms\n";
        return finish(tally, endToEnd(closed.qps(),
                                      slicedLatencyMs(open.records, 1e6, 0.50),
                                      slicedLatencyMs(open.records, 1e6, 0.90),
                                      closed.cpuUsPerRequest(), setupS,
                                      tally));
    }

    // Traced run: untraced closed loop, then the same traced, then
    // a traced open loop, then the single-threaded layer replay.
    const double third = args.seconds / 3.0;
    Tally untracedTally;
    const ClosedLoop untraced = runClosedLoop(
        env, trace, args.shards, window, third, prefix, untracedTally);
    enableTelemetry();
    const ClosedLoop traced =
        runClosedLoop(env, trace, args.shards, window, third, prefix, tally);
    const std::size_t closedDone = tally.completed;
    const OpenLoop open =
        runOpenLoop(env, trace, args.seed, args.shards, rate, third, tally);

    ServeLayers serve;
    serve.enqueueUs = open.enqueueUs;
    for (const double us : open.queueUs)
        serve.queueMs.push_back(us / 1e3);
    std::vector<double> lateMs;
    std::vector<double> latencyMs;
    for (const OpenLoopRecord &record : open.records) {
        lateMs.push_back(generatorLatenessMs(record));
        latencyMs.push_back(latencyFromDueMs(record));
    }
    serve.lateP99Ms = quantile(lateMs, 0.99);
    serve.p50Ms = slicedLatencyMs(open.records, 1e6, 0.50);
    serve.p90Ms = slicedLatencyMs(open.records, 1e6, 0.90);
    serve.p99Ms = quantile(latencyMs, 0.99);
    serve.batchSize = mean(traced.batchQueries);
    const ServerStats &stats = traced.stats;
    serve.coalescedFrac =
        stats.completed == 0 ? 0.0
                             : static_cast<double>(stats.coalesced) /
                                   static_cast<double>(stats.completed);
    serve.execsPerBatch =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.executions) /
                                 static_cast<double>(stats.batches);
    serve.maxDepth = static_cast<double>(stats.maxDepth);
    serve.retries = static_cast<double>(traced.retries);
    // Served CPU per execution: the window's CPU per request, scaled
    // by the requests each execution served.
    serve.cpuUsPerExec =
        stats.executions == 0
            ? 0.0
            : traced.cpuUsPerRequest() * static_cast<double>(stats.completed) /
                  static_cast<double>(stats.executions);
    serve.dupFrac = duplicateShare(trace, closedDone);

    const auto &modules = env.session->modules(FleetSession::Fleet::SkHynix);
    std::vector<ReplayItem> items;
    for (std::size_t i = 0; i < kServeReplay; ++i) {
        const Request r = trace.make(kClosedStream, i);
        items.push_back({r.shape, &modules[r.module], r.data, i});
    }
    const LayerReplay replay =
        replayLayers(*env.service, env.prepared, catalog, items);
    const LayerProbe probe =
        probeLayers(serveConfig(), EngineOptions(),
                    FleetSession::Fleet::SkHynix, catalog);
    if (replay.mismatches != 0) {
        ++tally.wrong;
        std::cerr << "replay: " << replay.mismatches
                  << " results differ from direct submits\n";
    }
    const double overhead =
        untraced.qps() <= 0.0 ? 0.0 : 1.0 - traced.qps() / untraced.qps();
    tally.addRequests(untracedTally);
    writeTraceFiles(args, replay);
    return finish(tally, perLayer(serve, replay, probe, tally,
                                  planHitFrac(*env.service), overhead));
}

int
runFleet(const Args &args)
{
    const Catalog catalog = fleetCatalog();
    std::vector<double> setups;
    FleetEnv env;
    for (int i = 0; i < kFleetSetups; ++i) {
        env = FleetEnv();
        const double t0 = nowUs();
        env = buildFleetEnv(catalog, args.workers);
        setups.push_back((nowUs() - t0) / 1e6);
    }
    const double setupS = quantile(setups, 0.5);
    std::printf("TRACE_HASH %016" PRIx64 "\n",
                fleetTraceHash(catalog, args.seed));
    std::cout << "workload.dup_frac 0 ratio (fresh datasets per submit)\n";

    Tally tally;
    if (!args.trace) {
        const FleetRun run =
            runFleet(env, catalog, args.seed, args.seconds, 0, true, tally);
        std::cout << "fleet: " << run.latencyMs.size() << " submits, "
                  << tally.completed << " executions in "
                  << number(run.busySeconds) << " s; submit latency "
                  << "p99_ms " << number(quantile(run.latencyMs, 0.99))
                  << " ms of " << run.latencyMs.size() << " samples, "
                  << samplesBeyond(run.latencyMs.size(), 0.99)
                  << " beyond (reportable: "
                  << (percentileReportable(run.latencyMs.size(), 0.99)
                          ? "yes"
                          : "no")
                  << ")\n";
        return finish(tally,
                      endToEnd(quantile(run.executionsPerSecond, 0.5),
                               quantile(run.latencyMs, 0.50),
                               quantile(run.latencyMs, 0.90),
                               quantile(run.cpuUsPerExecution, 0.5), setupS,
                               tally));
    }

    const double half = args.seconds / 2.0;
    Tally untracedTally;
    const FleetRun untraced =
        runFleet(env, catalog, args.seed, half, 0, true, untracedTally);
    enableTelemetry();
    const FleetRun traced = runFleet(env, catalog, args.seed, half,
                                     untraced.latencyMs.size(), false, tally);
    // The prefix ledger comes from the untraced pass (same submits).
    tally.ledger = untracedTally.ledger;
    tally.trustedMismatches = untracedTally.trustedMismatches;
    tally.resultHash = untracedTally.resultHash;
    const double overhead =
        1.0 - quantile(traced.executionsPerSecond, 0.5) /
                  quantile(untraced.executionsPerSecond, 0.5);

    // Replay one submit's worth of (shape, module) requests.
    const std::vector<Dataset> data = fleetDatasets(catalog, args.seed, 0);
    std::vector<ReplayItem> items;
    std::uint64_t request = 0;
    for (const auto &module :
         env.session->modules(FleetSession::Fleet::Table1)) {
        for (std::size_t q = 0; q < catalog.roots.size(); ++q)
            items.push_back({q, &module, data[q], request++});
    }
    LayerReplay replay =
        replayLayers(*env.service, env.prepared, catalog, items);
    replay.interleaveRatio = traced.serialNs <= 0.0
                                 ? 0.0
                                 : traced.interleavedNs / traced.serialNs;
    const LayerProbe probe =
        probeLayers(fleetConfig(args.workers), fleetEngineOptions(),
                    FleetSession::Fleet::Table1, catalog);
    if (replay.mismatches != 0) {
        ++tally.wrong;
        std::cerr << "replay: " << replay.mismatches
                  << " results differ from direct submits\n";
    }
    tally.addRequests(untracedTally);
    writeTraceFiles(args, replay);
    ServeLayers serve;
    serve.p50Ms = quantile(traced.latencyMs, 0.50);
    serve.p90Ms = quantile(traced.latencyMs, 0.90);
    serve.p99Ms = quantile(traced.latencyMs, 0.99);
    return finish(tally, perLayer(serve, replay, probe, tally,
                                  planHitFrac(*env.service), overhead));
}

/** Print the generated trace's hash and duplicate share, run nothing. */
int
runGenOnly(const Args &args)
{
    if (args.workload == Workload::Fleet8192) {
        std::printf("TRACE_HASH %016" PRIx64 "\n",
                    fleetTraceHash(fleetCatalog(), args.seed));
        std::cout << "workload.dup_frac 0\n";
        return 0;
    }
    const Catalog catalog = serveCatalog();
    const FleetSession session(serveConfig());
    const ServeTrace trace(args.workload, args.seed, catalog,
                           session.modules(FleetSession::Fleet::SkHynix).size());
    const std::size_t prefix = args.workload == Workload::ServeUnique
                                   ? kServeUniquePrefix
                                   : kServeSkewedPrefix;
    std::printf("TRACE_HASH %016" PRIx64 "\n", serveTraceHash(trace, prefix));
    std::cout << "workload.dup_frac " << number(duplicateShare(trace, prefix))
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        if (args.genOnly)
            return runGenOnly(args);
        if (args.workload == Workload::Fleet8192)
            return runFleet(args);
        return runServe(args);
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
