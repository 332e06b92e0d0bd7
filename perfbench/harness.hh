/**
 * @file
 * Pure pieces of the benchmark program, kept apart from the workloads
 * so harness_test.cc can pin them on hand-built inputs:
 *
 *  - nearest-rank percentiles and the ten-samples-beyond rule;
 *  - open-loop accounting, which times a request from when it was
 *    due, so a stalled generator charges its delay to every request
 *    queued behind the stall;
 *  - the modeled DRAM/CPU cost ledger over QueryResults, including
 *    the CPU cost of the columns that fell back;
 *  - the output oracle against ExprPool::evaluate;
 *  - benchmark-side spans (name, start, end, parent, request id)
 *    with a Chrome trace export and per-name self time.
 */

#ifndef FCDRAM_PERFBENCH_HARNESS_HH
#define FCDRAM_PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/bitvector.hh"
#include "common/rng.hh"
#include "pud/engine.hh"

namespace perfbench {

// ---- percentiles -------------------------------------------------

/** Nearest-rank quantile of @p samples (0 when empty). */
inline double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size())));
    return samples[index - 1];
}

/** Samples strictly above the nearest-rank @p q quantile's rank. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/**
 * A tail percentile is reported only when at least ten samples lie
 * beyond it; below that it is the maximum of a handful of samples.
 */
inline bool
percentileReportable(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

inline double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const double value : samples)
        sum += value;
    return sum / static_cast<double>(samples.size());
}

// ---- open-loop accounting ----------------------------------------

/** One open-loop request, in microseconds since the phase start. */
struct OpenLoopRecord
{
    double dueUs = 0.0;  ///< When the schedule said to send it.
    double sentUs = 0.0; ///< When the generator actually sent it.
    double doneUs = 0.0; ///< When the client saw its result.
};

/** End-to-end latency counted from the due time, in ms. */
inline double
latencyFromDueMs(const OpenLoopRecord &record)
{
    return (record.doneUs - record.dueUs) / 1e3;
}

/** How late the generator sent the request, in ms. */
inline double
generatorLatenessMs(const OpenLoopRecord &record)
{
    return std::max(0.0, record.sentUs - record.dueUs) / 1e3;
}

/**
 * Latency quantile @p q of each @p sliceUs-long slice of due time,
 * then the median over slices: a burst of host preemption inflates
 * the slices it covers, not the run's figure.
 */
inline double
slicedLatencyMs(const std::vector<OpenLoopRecord> &records,
                double sliceUs, double q)
{
    std::map<long long, std::vector<double>> slices;
    for (const OpenLoopRecord &record : records) {
        slices[static_cast<long long>(record.dueUs / sliceUs)].push_back(
            latencyFromDueMs(record));
    }
    std::vector<double> perSlice;
    for (const auto &[slice, latencies] : slices)
        perSlice.push_back(quantile(latencies, q));
    return quantile(perSlice, 0.5);
}

/**
 * Seeded Poisson schedule: @p count due times at @p ratePerSec, in
 * microseconds from the phase start.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double ratePerSec,
                std::size_t count)
{
    fcdram::Rng rng(seed);
    std::vector<double> due(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        // 1 - uniform() lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform()) / ratePerSec * 1e6;
        due[i] = t;
    }
    return due;
}

// ---- modeled cost ledger -----------------------------------------

/**
 * Sums over executions of the analytic cost the engine reports in
 * each QueryResult. Data is assumed resident, so load cost is kept
 * apart and left out of the speedup.
 */
struct ModelLedger
{
    std::uint64_t executions = 0;
    std::uint64_t placed = 0;
    std::uint64_t resultBits = 0;
    std::uint64_t dramBits = 0;
    std::uint64_t checkedBits = 0;
    std::uint64_t commands = 0;
    double cpuScanNs = 0.0;
    double dramNs = 0.0;
    double fallbackNs = 0.0;
    double energyNj = 0.0;
    double loadNs = 0.0;

    void add(const fcdram::pud::QueryResult &result)
    {
        ++executions;
        placed += result.placed ? 1 : 0;
        resultBits += result.output.size();
        dramBits += result.mask.popcount();
        checkedBits += result.checkedBits;
        commands += result.dram.commands;
        cpuScanNs += result.cpuBaseline.latencyNs;
        dramNs += result.dram.latencyNs;
        fallbackNs +=
            (1.0 - result.dramCoverage) * result.cpuBaseline.latencyNs;
        energyNj += result.dram.energyNj;
        loadNs += result.load.latencyNs;
    }

    /** Result bits computed in DRAM over all result bits. */
    double coverage() const
    {
        return resultBits == 0 ? 0.0
                               : static_cast<double>(dramBits) /
                                     static_cast<double>(resultBits);
    }

    /**
     * Sum of CPU-scan time over the sum of DRAM time plus the CPU
     * scan of the fallback share of each result.
     */
    double speedup() const
    {
        const double hybrid = dramNs + fallbackNs;
        return hybrid <= 0.0 ? 0.0 : cpuScanNs / hybrid;
    }

    double perExecution(double total) const
    {
        return executions == 0
                   ? 0.0
                   : total / static_cast<double>(executions);
    }
};

// ---- output oracle -----------------------------------------------

/**
 * One response checked against the CPU reference. Wrong bits on
 * columns the engine trusted to DRAM are measured error (they feed
 * the bit error rate); anything else is a broken answer.
 */
struct OracleVerdict
{
    bool sizeOk = true;
    bool goldenOk = true;
    std::size_t fallbackMismatches = 0;
    std::size_t trustedMismatches = 0;

    bool ok() const
    {
        return sizeOk && goldenOk && fallbackMismatches == 0;
    }
};

inline OracleVerdict
checkResult(const fcdram::BitVector &expected,
            const fcdram::pud::QueryResult &result)
{
    OracleVerdict verdict;
    const std::size_t bits = expected.size();
    if (result.output.size() != bits || result.golden.size() != bits ||
        result.mask.size() != bits) {
        verdict.sizeOk = false;
        return verdict;
    }
    verdict.goldenOk = result.golden == expected;
    const fcdram::BitVector wrong = result.output ^ expected;
    const std::size_t trusted = (wrong & result.mask).popcount();
    verdict.trustedMismatches = trusted;
    verdict.fallbackMismatches = wrong.popcount() - trusted;
    return verdict;
}

/** Fold one result into a request-ordered hash. */
inline std::uint64_t
foldResult(std::uint64_t hash, const fcdram::pud::QueryResult &result)
{
    for (const std::uint64_t word : result.output.words())
        hash = fcdram::hashCombine(hash, word);
    for (const std::uint64_t word : result.mask.words())
        hash = fcdram::hashCombine(hash, word);
    hash = fcdram::hashCombine(hash, result.checkedBits);
    return fcdram::hashCombine(hash, result.matchingBits);
}

// ---- benchmark-side spans ----------------------------------------

/** Microseconds on the steady clock since the first call. */
inline double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin)
        .count();
}

struct SpanRecord
{
    const char *name = "";
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span.
    std::uint64_t request = 0;
    std::uint64_t thread = 0;
};

/**
 * In-memory span store. Spans on one thread nest strictly (RAII), so
 * a span's children are exactly the later spans of its thread that
 * name it as parent.
 */
class SpanLog
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    std::uint64_t begin(std::uint64_t &parentOut)
    {
        parentOut = stack().empty() ? 0 : stack().back();
        const std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t id = ++nextId_;
        stack().push_back(id);
        return id;
    }

    void end(SpanRecord record)
    {
        stack().pop_back();
        record.thread = threadIndex();
        const std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(record);
    }

    std::vector<SpanRecord> spans() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

    /** Per span name: total self time (duration minus children). */
    std::map<std::string, std::pair<std::size_t, double>>
    selfTimeUs() const;

    void writeChromeTrace(std::ostream &os) const;

  private:
    static std::vector<std::uint64_t> &stack()
    {
        thread_local std::vector<std::uint64_t> ids;
        return ids;
    }

    std::uint64_t threadIndex()
    {
        thread_local std::uint64_t index = 0;
        if (index == 0) {
            const std::lock_guard<std::mutex> lock(mutex_);
            index = ++nextThread_;
        }
        return index;
    }

    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::uint64_t nextId_ = 0;
    std::uint64_t nextThread_ = 0;
    std::vector<SpanRecord> spans_;
};

inline std::map<std::string, std::pair<std::size_t, double>>
SpanLog::selfTimeUs() const
{
    const std::vector<SpanRecord> all = spans();
    std::map<std::uint64_t, double> childUs;
    for (const SpanRecord &span : all) {
        if (span.parent != 0)
            childUs[span.parent] += span.endUs - span.startUs;
    }
    std::map<std::string, std::pair<std::size_t, double>> table;
    for (const SpanRecord &span : all) {
        auto &[count, selfUs] = table[span.name];
        ++count;
        const auto it = childUs.find(span.id);
        selfUs += span.endUs - span.startUs -
                  (it == childUs.end() ? 0.0 : it->second);
    }
    return table;
}

inline void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    const std::vector<SpanRecord> all = spans();
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord &span : all) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
           << ",\"ts\":" << span.startUs
           << ",\"dur\":" << (span.endUs - span.startUs)
           << ",\"args\":{\"id\":" << span.id
           << ",\"parent\":" << span.parent
           << ",\"request\":" << span.request << "}}";
        first = false;
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

/** RAII span; records nothing while the log is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::uint64_t request)
        : log_(log.enabled() ? &log : nullptr)
    {
        if (log_ == nullptr)
            return;
        record_.name = name;
        record_.request = request;
        record_.id = log_->begin(record_.parent);
        record_.startUs = nowUs();
    }

    ~ScopedSpan()
    {
        if (log_ == nullptr)
            return;
        record_.endUs = nowUs();
        log_->end(record_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    SpanRecord record_;
};

} // namespace perfbench

#endif // FCDRAM_PERFBENCH_HARNESS_HH
