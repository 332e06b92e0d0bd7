/**
 * @file
 * Simulator performance bench. Three sections:
 *
 *  1. End-to-end operation throughput at full row width (8192
 *     columns): NOT, N-input logic (NAND family) and in-subarray MAJ
 *     rows per second, plus raw row write/read Mbit/s, measured on
 *     BOTH single-trial executor modes.
 *
 *  2. Telemetry overhead guard on the single-trial executor: the run
 *     HARD-FAILS (exit 1) if disabled telemetry keeps less than 97%
 *     of the nullptr-sink throughput, or if any sink changes a trial
 *     outcome. A RESULT_HASH line fingerprints every outcome.
 *
 *  3. google-benchmark microbenchmarks (decoder queries, analytic
 *     sweeps, session pair discovery) for interactive profiling.
 *
 * Sections 1 and 2 land in BENCH_perf_simulator.json (benchutil
 * --json-out=PATH honored).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "common/rng.hh"
#include "fcdram/analytic.hh"
#include "fcdram/ops.hh"
#include "fcdram/session.hh"
#include "obs/telemetry.hh"

namespace fcdram {
namespace {

GeometryConfig
benchGeometry()
{
    GeometryConfig geometry = GeometryConfig::standard();
    geometry.columns = 128;
    geometry.numBanks = 1;
    return geometry;
}

ChipProfile
benchProfile()
{
    return ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133);
}

// ---- Section 1: end-to-end throughput at full row width ------------

/** The realistic row width the ROADMAP targets. */
constexpr int kWideColumns = 8192;

GeometryConfig
wideGeometry()
{
    GeometryConfig geometry = GeometryConfig::standard();
    geometry.columns = kWideColumns;
    geometry.numBanks = 1;
    return geometry;
}

/** Wall-clock ops/second of iters executions of body(). */
template <typename Body>
double
opsPerSecond(Body &&body, int iters)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < iters; ++i)
        body();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return seconds > 0.0 ? static_cast<double>(iters) / seconds : 0.0;
}

/** One operation's throughput in both executor modes. */
struct OpThroughput
{
    std::string name;
    int rowsPerOp = 0;
    double wordRowsPerSec = 0.0;
    double scalarRowsPerSec = 0.0;

    double speedup() const
    {
        return scalarRowsPerSec > 0.0
                   ? wordRowsPerSec / scalarRowsPerSec
                   : 0.0;
    }
};

/**
 * Measure one violated-timing program end to end (fresh chip per
 * mode so both start from identical state).
 */
OpThroughput
measureProgram(const std::string &name, int iters,
               Program (*build)(const Chip &), int rowsPerOp)
{
    OpThroughput row;
    row.name = name;
    row.rowsPerOp = rowsPerOp;
    for (const ExecMode mode :
         {ExecMode::WordParallel, ExecMode::ScalarReference}) {
        Chip chip(benchProfile(), wideGeometry(), 1);
        DramBender bender(chip, 7, mode);
        const Program program = build(chip);
        if (program.commands.empty())
            continue;
        const double ops_per_sec = opsPerSecond(
            [&] { benchmark::DoNotOptimize(bender.execute(program)); },
            iters);
        const double rows_per_sec = ops_per_sec * rowsPerOp;
        if (mode == ExecMode::WordParallel)
            row.wordRowsPerSec = rows_per_sec;
        else
            row.scalarRowsPerSec = rows_per_sec;
    }
    return row;
}

Program
buildNotProgram(const Chip &chip)
{
    const auto pairs = findActivationPairs(chip, 1, 1, 1, 3);
    if (pairs.empty())
        return Program();
    return copyProgram(chip.profile().speed, 0,
                       composeRow(chip.geometry(), 0, pairs[0].first),
                       composeRow(chip.geometry(), 1, pairs[0].second));
}

Program
buildNandProgram(const Chip &chip)
{
    const auto pairs = findActivationPairs(chip, 2, 2, 1, 3);
    if (pairs.empty())
        return Program();
    return doubleActProgram(
        chip.profile().speed, 0,
        composeRow(chip.geometry(), 0, pairs[0].first),
        composeRow(chip.geometry(), 1, pairs[0].second));
}

Program
buildMajProgram(const Chip &chip)
{
    const auto pairs = findSimraPairs(chip, 4, 1, 3);
    if (pairs.empty())
        return Program();
    return doubleActProgram(
        chip.profile().speed, 0,
        composeRow(chip.geometry(), 0, pairs[0].first),
        composeRow(chip.geometry(), 0, pairs[0].second));
}

/** Raw row write + thresholded read, in Mbit/s moved. */
double
rowIoMbitPerSec(ExecMode mode, int iters)
{
    Chip chip(benchProfile(), wideGeometry(), 1);
    DramBender bender(chip, 7, mode);
    BitVector pattern(static_cast<std::size_t>(kWideColumns));
    Rng rng(5);
    pattern.randomize(rng);
    const double ops_per_sec = opsPerSecond(
        [&] {
            bender.writeRow(0, 3, pattern);
            benchmark::DoNotOptimize(bender.readRow(0, 3));
        },
        iters);
    // One row written + one row read per iteration.
    return ops_per_sec * 2.0 * kWideColumns / 1e6;
}

} // namespace

void
runThroughputSection(benchutil::BenchReport &report)
{
    std::vector<OpThroughput> rows;
    rows.push_back(
        measureProgram("not", 150, buildNotProgram, 2));
    rows.push_back(
        measureProgram("nand", 100, buildNandProgram, 4));
    rows.push_back(measureProgram("maj", 60, buildMajProgram, 4));
    report.lap("ops");

    const double word_io = rowIoMbitPerSec(ExecMode::WordParallel, 400);
    const double scalar_io =
        rowIoMbitPerSec(ExecMode::ScalarReference, 400);
    report.lap("row_io");

    Table table({"op", "rows/op", "word rows/s", "scalar rows/s",
                 "speedup"});
    double speedup_product = 1.0;
    int speedup_count = 0;
    for (const OpThroughput &row : rows) {
        if (row.wordRowsPerSec <= 0.0 || row.scalarRowsPerSec <= 0.0)
            continue;
        table.addRow();
        table.addCell(row.name);
        table.addCell(static_cast<std::uint64_t>(row.rowsPerOp));
        table.addCell(row.wordRowsPerSec, 0);
        table.addCell(row.scalarRowsPerSec, 0);
        table.addCell(row.speedup(), 2);
        report.metric(row.name + "_rows_per_s", row.wordRowsPerSec);
        report.metric(row.name + "_rows_per_s_scalar",
                      row.scalarRowsPerSec);
        report.metric(row.name + "_speedup", row.speedup());
        speedup_product *= row.speedup();
        ++speedup_count;
    }
    table.print(std::cout);

    report.metric("row_io_mbit_per_s", word_io);
    report.metric("row_io_mbit_per_s_scalar", scalar_io);
    report.metric("row_io_speedup",
                  scalar_io > 0.0 ? word_io / scalar_io : 0.0);
    std::cout << "row write+read: " << formatDouble(word_io, 1)
              << " Mbit/s word-parallel vs "
              << formatDouble(scalar_io, 1) << " Mbit/s scalar\n";

    if (speedup_count > 0) {
        const double geomean =
            std::pow(speedup_product, 1.0 / speedup_count);
        report.metric("speedup_end_to_end", geomean);
        std::cout << "end-to-end word-parallel speedup (geomean of "
                  << speedup_count << " ops): "
                  << formatDouble(geomean, 2) << "x\n";
    }
}

namespace {

// ---- Section 2: telemetry overhead guard ---------------------------

/** Order-stable fingerprint of one trial's outcomes. */
std::uint64_t
hashExecResult(std::uint64_t h, const ExecResult &result)
{
    h = hashCombine(h, result.reads.size());
    for (const BitVector &bits : result.reads) {
        for (const std::uint64_t word : bits.words())
            h = hashCombine(h, word);
    }
    h = hashCombine(h, result.activations.size());
    for (const ActivationEvent &event : result.activations) {
        h = hashCombine(h,
                        (static_cast<std::uint64_t>(event.firstSubarray)
                         << 32) |
                            static_cast<std::uint64_t>(
                                event.secondSubarray));
        h = hashCombine(h, event.sets.secondRows.size());
    }
    return h;
}

/**
 * NOT with a restored source and a violated destination, followed by
 * a nominal readback of the destination, so the stochastic outcomes
 * surface in ExecResult (and therefore in RESULT_HASH). Empty when
 * the chip has no qualifying pair.
 */
Program
makeNotReadbackProgram(const Chip &chip)
{
    const auto pairs = findActivationPairs(chip, 1, 1, 1, 3);
    if (pairs.empty())
        return Program();
    const GeometryConfig &geometry = chip.geometry();
    const RowId src = composeRow(geometry, 0, pairs[0].first);
    const RowId dst = composeRow(geometry, 1, pairs[0].second);
    ProgramBuilder builder(chip.profile().speed);
    builder.act(0, src, 0.0)
        .pre(0, TimingParams::nominal().tRas)
        .act(0, dst, kViolatedGapTargetNs)
        .preNominal(0)
        .actNominal(0, dst)
        .readNominal(0, dst)
        .preNominal(0);
    return builder.build();
}

/**
 * CPU time of the calling thread. The overhead guard times with it
 * rather than the wall clock, so time the host gives to other
 * processes does not land on whichever sink happened to be running.
 */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/** One telemetry sink the overhead guard measures. */
struct Sink
{
    /** nullptr = the exact pre-telemetry code path. */
    obs::Telemetry *telemetry = nullptr;
    obs::TelemetryConfig config;
    double bestTrialsPerSec = 0.0;
};

/**
 * One repetition of the overhead guard: @p trials single-trial
 * executions of @p program through every sink, interleaved trial by
 * trial with a rotating sink order and timed in thread CPU time, so
 * host noise hits every sink equally. Each sink runs on its own copy
 * of @p base at the same seeds, so all do identical work. Raises each
 * sink's best trials/s and folds the first sink's outcomes into
 * *hash; returns false if any sink's outcomes differ from the first's.
 */
bool
measureSinks(const Chip &base, const Program &program, std::uint64_t salt,
             int trials, std::vector<Sink> &sinks, std::uint64_t *hash)
{
    obs::Telemetry &tel = obs::global();
    const std::size_t n = sinks.size();
    std::vector<Chip> chips(n, base);
    std::vector<double> seconds(n, 0.0);
    std::vector<std::uint64_t> hashes(n, 0);
    for (int t = 0; t < trials; ++t) {
        const std::uint64_t seed =
            hashCombine(salt, static_cast<std::uint64_t>(t));
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (static_cast<std::size_t>(t) + k) % n;
            tel.configure(sinks[i].config);
            const double start = threadCpuSeconds();
            Executor executor(chips[i], seed, TimingParams::nominal(),
                              ExecMode::WordParallel, sinks[i].telemetry);
            const ExecResult result = executor.run(program);
            seconds[i] += threadCpuSeconds() - start;
            hashes[i] = hashExecResult(hashes[i], result);
        }
    }
    bool agree = true;
    for (std::size_t i = 0; i < n; ++i) {
        if (seconds[i] > 0.0) {
            sinks[i].bestTrialsPerSec =
                std::max(sinks[i].bestTrialsPerSec, trials / seconds[i]);
        }
        agree = agree && hashes[i] == hashes[0];
    }
    *hash = hashCombine(*hash, hashes[0]);
    return agree;
}

} // namespace

/** Outcome of the telemetry overhead guard. */
struct TelemetryGuard
{
    /** Disabled-global over nullptr-sink throughput (gated >= 0.97). */
    double disabledRatio = 1.0;
    /** False if any sink changed a trial outcome. */
    bool sinksAgree = true;
};

/**
 * Telemetry overhead guard. Measures single-trial NOT throughput
 * through (a) a nullptr sink -- the exact code path before telemetry
 * existed, (b) the global registry with every pillar disabled, and
 * (c) the global registry with the metrics pillar on. The three
 * alternate trial by trial and each takes its best of 5 repetitions,
 * so scheduler noise on a busy CI core hits every path equally. The
 * disabled/baseline ratio is hard-gated by main; the enabled-metrics
 * overhead is reported as a metric only. Every trial outcome folds
 * into @p resultHash.
 */
TelemetryGuard
runTelemetryOverheadSection(benchutil::BenchReport &report,
                            std::uint64_t *resultHash)
{
    std::cout << "\n-- Telemetry overhead (single-trial NOT) --\n";
    TelemetryGuard guard;
    obs::Telemetry &tel = obs::global();
    const obs::TelemetryConfig saved = tel.config();

    Chip base(benchProfile(), wideGeometry(), 1);
    Rng rng(0xF1E1D);
    for (int sa = 0; sa < 2; ++sa) {
        for (RowId local = 0; local < 2; ++local) {
            BitVector pattern(static_cast<std::size_t>(kWideColumns));
            pattern.randomize(rng);
            base.bank(0).writeRowBits(
                composeRow(base.geometry(),
                           static_cast<SubarrayId>(sa), local),
                pattern);
        }
    }
    const Program program = makeNotReadbackProgram(base);
    if (program.commands.empty()) {
        std::cout << "no qualifying pair, section skipped\n";
        return guard;
    }

    obs::TelemetryConfig metricsOnly;
    metricsOnly.metrics = true;
    std::vector<Sink> sinks = {{nullptr, obs::TelemetryConfig{}},
                               {&tel, obs::TelemetryConfig{}},
                               {&tel, metricsOnly}};
    constexpr int kTrials = 128;
    constexpr int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
        const std::uint64_t salt =
            hashCombine(0x0B5E, static_cast<std::uint64_t>(rep));
        guard.sinksAgree =
            measureSinks(base, program, salt, kTrials, sinks,
                         resultHash) &&
            guard.sinksAgree;
    }
    tel.configure(saved);
    report.lap("telemetry_overhead");

    const double baseline = sinks[0].bestTrialsPerSec;
    const double disabled = sinks[1].bestTrialsPerSec;
    const double enabled = sinks[2].bestTrialsPerSec;
    guard.disabledRatio = baseline > 0.0 ? disabled / baseline : 1.0;
    const double enabledRatio =
        baseline > 0.0 ? enabled / baseline : 1.0;
    report.metric("telemetry_baseline_trials_per_s", baseline);
    report.metric("telemetry_disabled_trials_per_s", disabled);
    report.metric("telemetry_metrics_trials_per_s", enabled);
    report.metric("telemetry_disabled_ratio", guard.disabledRatio);
    report.metric("telemetry_metrics_overhead_pct",
                  100.0 * (1.0 - enabledRatio));
    std::cout << "disabled-telemetry throughput: "
              << formatDouble(guard.disabledRatio * 100.0, 1)
              << "% of the nullptr-sink baseline (gate: >= 97%)\n"
              << "metrics-enabled overhead: "
              << formatDouble(100.0 * (1.0 - enabledRatio), 1)
              << "%\n";
    return guard;
}

namespace {

// ---- Section 3: google-benchmark microbenchmarks -------------------

void
BM_DecoderNeighborActivation(benchmark::State &state)
{
    const Chip chip(benchProfile(), benchGeometry(), 1);
    Rng rng(2);
    for (auto _ : state) {
        const auto rf = static_cast<RowId>(rng.below(512));
        const auto rl = static_cast<RowId>(rng.below(512));
        benchmark::DoNotOptimize(
            chip.decoder().neighborActivation(rf, rl));
    }
}
BENCHMARK(BM_DecoderNeighborActivation);

void
BM_ExecutorNotTrial(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    const auto pairs = findActivationPairs(
        chip, static_cast<int>(state.range(0)),
        static_cast<int>(state.range(0)), 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId src = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId dst = composeRow(chip.geometry(), 1, pairs[0].second);
    const Program program =
        copyProgram(chip.profile().speed, 0, src, dst);
    for (auto _ : state)
        benchmark::DoNotOptimize(bender.execute(program));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorNotTrial)->Arg(1)->Arg(4)->Arg(16);

void
BM_ExecutorLogicTrial(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    const int n = static_cast<int>(state.range(0));
    const auto pairs = findActivationPairs(chip, n, n, 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    const Program program =
        doubleActProgram(chip.profile().speed, 0, ref, com);
    for (auto _ : state)
        benchmark::DoNotOptimize(bender.execute(program));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorLogicTrial)->Arg(2)->Arg(8)->Arg(16);

void
BM_AnalyticLogicSweep(benchmark::State &state)
{
    const Chip chip(benchProfile(), benchGeometry(), 1);
    AnalyticConfig config;
    config.sampleBinomial = false;
    AnalyticAnalyzer analyzer(chip, config, 1);
    const int n = static_cast<int>(state.range(0));
    const auto pairs = findActivationPairs(chip, n, n, 1, 3);
    if (pairs.empty()) {
        state.SkipWithError("no activation pair");
        return;
    }
    const RowId ref = composeRow(chip.geometry(), 0, pairs[0].first);
    const RowId com = composeRow(chip.geometry(), 1, pairs[0].second);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyzer.logicSamples(
            0, BoolOp::And, ref, com, OpConditions(),
            PatternClass::Random));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::size_t>(n) * 64);
}
BENCHMARK(BM_AnalyticLogicSweep)->Arg(2)->Arg(16);

void
BM_RowWriteRead(benchmark::State &state)
{
    Chip chip(benchProfile(), benchGeometry(), 1);
    DramBender bender(chip, 7);
    BitVector pattern(static_cast<std::size_t>(chip.geometry().columns));
    Rng rng(5);
    pattern.randomize(rng);
    for (auto _ : state) {
        bender.writeRow(0, 3, pattern);
        benchmark::DoNotOptimize(bender.readRow(0, 3));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowWriteRead);

void
BM_SessionPairDiscoveryCold(benchmark::State &state)
{
    CampaignConfig config;
    config.geometry = benchGeometry();
    const FleetSession session(config);
    const auto &module = session.modules(FleetSession::Fleet::SkHynix)
                             .front();
    const auto &context = session.pairContexts(module).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(findQualifyingPairs(
            session.chip(module), context, PairQuery::square(4),
            config.probesPerPair, config.pairSamplesPerConfig, 42));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::size_t>(
                                config.probesPerPair));
}
BENCHMARK(BM_SessionPairDiscoveryCold);

void
BM_SessionPairDiscoveryCached(benchmark::State &state)
{
    CampaignConfig config;
    config.geometry = benchGeometry();
    const FleetSession session(config);
    const auto &module = session.modules(FleetSession::Fleet::SkHynix)
                             .front();
    const auto &context = session.pairContexts(module).front();
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.qualifyingPairs(
            module, context, PairQuery::square(4)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionPairDiscoveryCached);

} // namespace
} // namespace fcdram

int
main(int argc, char **argv)
{
    // Peel the benchutil flags off before google-benchmark sees the
    // command line; everything else (--benchmark_min_time etc.)
    // passes through.
    std::vector<char *> passthrough;
    passthrough.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0) {
            fcdram::benchutil::jsonOutPath() = arg.substr(11);
            continue;
        }
        if (arg.rfind("--trace-out=", 0) == 0) {
            fcdram::benchutil::traceOutPath() = arg.substr(12);
            fcdram::obs::global().enable({true, true, true});
            continue;
        }
        if (arg.rfind("--metrics-out=", 0) == 0) {
            fcdram::benchutil::metricsOutPath() = arg.substr(14);
            fcdram::obs::TelemetryConfig config;
            config.metrics = true;
            fcdram::obs::global().enable(config);
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());

    fcdram::benchutil::BenchReport report("perf_simulator");
    report.metric("columns", fcdram::kWideColumns);

    fcdram::runThroughputSection(report);
    std::uint64_t result_hash = 0;
    const fcdram::TelemetryGuard guard =
        fcdram::runTelemetryOverheadSection(report, &result_hash);

    std::printf("RESULT_HASH %016llx\n",
                static_cast<unsigned long long>(result_hash));
    report.metric("result_hash_low32",
                  static_cast<double>(result_hash & 0xFFFFFFFFULL));
    report.save();

    if (!guard.sinksAgree) {
        std::cerr << "FAIL: a telemetry sink changed a trial outcome\n";
        return 1;
    }
    if (guard.disabledRatio < 0.97) {
        std::cerr << "FAIL: disabled-telemetry throughput is "
                  << guard.disabledRatio * 100.0
                  << "% of the nullptr-sink baseline, below the "
                     "required 97%\n";
        return 1;
    }

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
