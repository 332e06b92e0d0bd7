/**
 * @file
 * Tests of the benchmark harness itself (harness.hh): the percentile
 * and sample-count rule, due-time latency accounting in the open
 * loop, the modeled_speedup formula, and the output oracle. Exits
 * non-zero on the first failed check; run through run.py --selftest
 * or ctest in the benchmark build directory.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hh"

using namespace perfbench;
using fcdram::BitVector;
using fcdram::pud::QueryResult;

namespace {

int failures = 0;

void
check(bool condition, const std::string &what)
{
    if (!condition) {
        std::cerr << "FAIL: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testPercentiles()
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(static_cast<double>(101 - i));
    check(quantile(samples, 0.50) == 50.0, "median of 1..100 is 50");
    check(quantile(samples, 0.99) == 99.0, "p99 of 1..100 is 99");
    check(quantile(samples, 1.0) == 100.0, "p100 is the maximum");
    check(quantile({}, 0.5) == 0.0, "empty sample set reads 0");
    check(quantile({7.0}, 0.99) == 7.0, "single sample is every quantile");

    // Ten samples beyond p99 need at least 1000 samples.
    check(samplesBeyond(100, 0.99) == 1, "100 samples leave 1 beyond p99");
    check(!percentileReportable(999, 0.99), "999 samples: p99 not reportable");
    check(percentileReportable(1000, 0.99), "1000 samples: p99 reportable");
    check(percentileReportable(20, 0.50), "20 samples: median reportable");
    check(!percentileReportable(19, 0.50), "19 samples: median not reportable");

}

void
testDueTimeLatency()
{
    // Four requests due 1 ms apart; the generator stalls 10 ms on the
    // first send, so the next three go out late, back to back, and
    // each completes 0.5 ms after it was sent.
    const std::vector<double> dueUs = {0, 1000, 2000, 3000};
    const std::vector<double> sentUs = {0, 10000, 10000, 10000};
    std::vector<double> latencyMs;
    std::vector<double> lateMs;
    for (std::size_t i = 0; i < dueUs.size(); ++i) {
        const OpenLoopRecord record{dueUs[i], sentUs[i], sentUs[i] + 500};
        latencyMs.push_back(latencyFromDueMs(record));
        lateMs.push_back(generatorLatenessMs(record));
    }
    // Timed from the send, every request would read 0.5 ms; timed
    // from the due time, the stall shows in each request behind it.
    check(near(latencyMs[0], 0.5), "on-time request reads its service time");
    check(near(latencyMs[1], 9.5), "stalled request charged 9 ms of wait");
    check(near(latencyMs[2], 8.5), "second queued request charged 8 ms");
    check(near(latencyMs[3], 7.5), "third queued request charged 7 ms");
    check(near(quantile(lateMs, 1.0), 9.0), "generator lateness reported");

    // Sliced quantiles: a stall covering one of five one-second
    // slices moves that slice's p90 only.
    std::vector<OpenLoopRecord> records;
    for (int i = 0; i < 5000; ++i) {
        const double due = i * 1000.0;
        const double service = (i % 10 == 0) ? 2000.0 : 500.0;
        const double stall = (i >= 1000 && i < 2000) ? 50000.0 : 0.0;
        records.push_back({due, due, due + service + stall});
    }
    check(near(slicedLatencyMs(records, 1e6, 0.5), 0.5),
          "sliced median ignores the stalled slice");
    check(near(slicedLatencyMs(records, 1e6, 0.9), 0.5) &&
              near(slicedLatencyMs(records, 1e6, 0.95), 2.0),
          "sliced tail reads the unstalled slices");
    check(quantile(std::vector<double>{50.5, 0.5, 0.5}, 0.9) == 50.5,
          "an unsliced tail would read the stall");

    // The Poisson schedule is seeded, increasing, and near its rate.
    const std::vector<double> a = poissonSchedule(42, 1000.0, 20000);
    const std::vector<double> b = poissonSchedule(42, 1000.0, 20000);
    const std::vector<double> c = poissonSchedule(43, 1000.0, 20000);
    check(a == b, "same seed, same schedule");
    check(a != c, "different seed, different schedule");
    bool increasing = true;
    for (std::size_t i = 1; i < a.size(); ++i)
        increasing = increasing && a[i] > a[i - 1];
    check(increasing, "due times increase");
    check(std::fabs(a.back() / 1e6 - 20.0) < 1.0,
          "20000 arrivals at 1000/s span about 20 s");
}

QueryResult
handBuilt(std::size_t bits, std::size_t dramColumns, double dramNs,
          double cpuNs)
{
    QueryResult result;
    result.output = BitVector(bits);
    result.golden = BitVector(bits);
    result.mask = BitVector(bits);
    for (std::size_t i = 0; i < dramColumns; ++i)
        result.mask.set(i, true);
    result.placed = dramColumns > 0;
    result.dramCoverage =
        static_cast<double>(dramColumns) / static_cast<double>(bits);
    result.dram.latencyNs = dramNs;
    result.cpuBaseline.latencyNs = cpuNs;
    return result;
}

void
testModeledSpeedup()
{
    // Full coverage: speedup is CPU over DRAM time.
    ModelLedger full;
    full.add(handBuilt(64, 64, 100.0, 400.0));
    check(near(full.speedup(), 4.0), "full coverage: 400/100 = 4x");
    check(near(full.coverage(), 1.0), "full coverage reads 1");

    // Half coverage: the fallback half costs half the CPU scan.
    ModelLedger half;
    half.add(handBuilt(64, 32, 100.0, 400.0));
    check(near(half.fallbackNs, 200.0), "fallback is (1-cov) of the scan");
    check(near(half.speedup(), 400.0 / 300.0), "half coverage: 400/300");

    // Sums, not a mean of ratios: 800 / (100 + 200 + 50 + 0).
    ModelLedger mixed;
    mixed.add(handBuilt(64, 32, 100.0, 400.0));
    mixed.add(handBuilt(64, 64, 50.0, 400.0));
    check(near(mixed.speedup(), 800.0 / 350.0), "ratio of sums");
    check(near(mixed.coverage(), 96.0 / 128.0), "coverage over all bits");

    // Nothing placed: everything falls back, speedup is exactly 1.
    ModelLedger none;
    none.add(handBuilt(64, 0, 0.0, 400.0));
    check(near(none.speedup(), 1.0), "no coverage: the CPU scan alone");
}

void
testOracle()
{
    const std::size_t bits = 128;
    BitVector expected(bits);
    for (std::size_t i = 0; i < bits; i += 3)
        expected.set(i, true);
    QueryResult result = handBuilt(bits, 64, 1.0, 1.0);
    result.output = expected;
    result.golden = expected;

    check(checkResult(expected, result).ok(), "a correct answer passes");

    // A wrong bit on a DRAM-trusted column is measured error.
    QueryResult trusted = result;
    trusted.output.set(5, !trusted.output.get(5));
    const OracleVerdict t = checkResult(expected, trusted);
    check(t.ok(), "trusted-column error does not fail the request");
    check(t.trustedMismatches == 1, "trusted-column error is counted");

    // A wrong bit on a fallback (CPU) column is a broken answer.
    QueryResult fallback = result;
    fallback.output.set(100, !fallback.output.get(100));
    const OracleVerdict f = checkResult(expected, fallback);
    check(!f.ok(), "corrupted fallback bit is rejected");
    check(f.fallbackMismatches == 1 && f.trustedMismatches == 0,
          "fallback mismatch is classified as such");

    // The engine's own golden must equal the reference exactly.
    QueryResult golden = result;
    golden.golden.set(5, !golden.golden.get(5));
    check(!checkResult(expected, golden).ok(), "wrong golden is rejected");

    QueryResult shortResult = result;
    shortResult.output = BitVector(bits - 1);
    check(!checkResult(expected, shortResult).ok(), "short output rejected");

    // The request-ordered hash sees order and content.
    const std::uint64_t ab = foldResult(foldResult(0, result), trusted);
    const std::uint64_t ba = foldResult(foldResult(0, trusted), result);
    check(ab != ba, "result hash depends on request order");
}

void
testSelfTime()
{
    SpanLog log;
    log.setEnabled(true);
    {
        ScopedSpan outer(log, "outer", 1);
        {
            ScopedSpan inner(log, "inner", 1);
        }
    }
    const auto table = log.selfTimeUs();
    const auto spans = log.spans();
    check(spans.size() == 2, "two spans recorded");
    double outerUs = 0.0;
    double innerUs = 0.0;
    for (const SpanRecord &span : spans) {
        if (std::string(span.name) == "outer")
            outerUs = span.endUs - span.startUs;
        else
            innerUs = span.endUs - span.startUs;
    }
    check(near(table.at("outer").second + table.at("inner").second,
               outerUs),
          "self times sum to the root span");
    check(near(table.at("inner").second, innerUs),
          "a leaf's self time is its duration");
}

} // namespace

int
main()
{
    testPercentiles();
    testDueTimeLatency();
    testModeledSpeedup();
    testOracle();
    testSelfTime();
    if (failures != 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench harness: all checks passed\n";
    return 0;
}
