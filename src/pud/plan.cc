#include "pud/plan.hh"

#include <cassert>
#include <limits>
#include <sstream>

#include "obs/telemetry.hh"
#include "verify/pressure.hh"
#include "verify/verifier.hh"

namespace fcdram::pud {

namespace {

/** Mirror a PlanCacheStats increment into the metrics registry. */
void
note(const char *name)
{
    obs::Telemetry &tel = obs::global();
    if (tel.metricsOn())
        tel.add(tel.counter(name));
}

} // namespace

PlanCacheStats
PlanCacheStats::operator-(const PlanCacheStats &other) const
{
    PlanCacheStats delta;
    delta.lookups = lookups - other.lookups;
    delta.hits = hits - other.hits;
    delta.misses = misses - other.misses;
    delta.invalidations = invalidations - other.invalidations;
    delta.compiles = compiles - other.compiles;
    delta.placements = placements - other.placements;
    delta.allocatorBuilds = allocatorBuilds - other.allocatorBuilds;
    return delta;
}

PlanCache::PlanCache(const PudEngine &engine) : engine_(&engine) {}

PlanCache::PlanShard &
PlanCache::shardOf(std::uint64_t exprHash, std::size_t module)
{
    // hashCombine-style mix so (expression, module) pairs spread even
    // when expression hashes share low bits.
    const std::uint64_t mixed =
        exprHash ^
        (static_cast<std::uint64_t>(module) + 0x9e3779b97f4a7c15ULL +
         (exprHash << 6) + (exprHash >> 2));
    return planShards_[mixed % kPlanShards];
}

std::shared_ptr<const MicroProgram>
PlanCache::programFor(std::uint64_t exprHash, const ExprPool &pool,
                      ExprId root, const Chip &chip,
                      ComputeBackend backend, int capability)
{
    const auto key = std::make_tuple(
        exprHash, static_cast<std::uint8_t>(backend), capability);
    {
        const std::shared_lock<std::shared_mutex> lock(programMutex_);
        const auto it = programs_.find(key);
        if (it != programs_.end())
            return it->second;
    }
    // Compile outside the lock: concurrent fleet workers may race on
    // the same shape, in which case both derive the identical program
    // (compilation is pure) and the second insert is a no-op.
    auto program = [&] {
        obs::Span span(obs::global(), "plan.compile");
        span.arg("expr", exprHash);
        return std::make_shared<const MicroProgram>(
            engine_->compileFor(pool, root, chip));
    }();
    bool inserted = false;
    std::shared_ptr<const MicroProgram> published;
    {
        const std::unique_lock<std::shared_mutex> lock(programMutex_);
        const auto [it, fresh] = programs_.emplace(key, program);
        inserted = fresh;
        published = it->second;
    }
    if (inserted) {
        const std::lock_guard<std::mutex> lock(statsMutex_);
        ++stats_.compiles;
        note("plancache.compiles");
    }
    return published;
}

std::shared_ptr<const RowAllocator>
PlanCache::allocatorFor(const FleetSession::Module &module,
                        Celsius temperature)
{
    const std::lock_guard<std::mutex> lock(allocatorMutex_);
    const auto key = std::make_pair(module.index, temperature);
    const auto it = allocators_.find(key);
    if (it != allocators_.end())
        return it->second;

    // One live allocator per module: entries at other temperatures
    // are stale (their plans invalidate lazily) and would otherwise
    // accumulate forever under drifting setTemperature. Shared
    // ownership keeps an evicted allocator alive for any placement
    // still running against it.
    const auto begin = allocators_.lower_bound(
        {module.index, std::numeric_limits<Celsius>::lowest()});
    auto end = begin;
    while (end != allocators_.end() &&
           end->first.first == module.index)
        ++end;
    allocators_.erase(begin, end);

    // Slot discovery inside the allocator is lazy (and internally
    // synchronized), so construction under the cache lock is cheap;
    // the expensive mask derivation happens on first use from the
    // placement path.
    auto allocator = [&] {
        obs::Span span(obs::global(), "plan.allocator_build");
        span.arg("module",
                 static_cast<std::uint64_t>(module.index));
        return std::make_shared<const RowAllocator>(
            *engine_->session(), module, engine_->options().allocator,
            temperature);
    }();
    {
        const std::lock_guard<std::mutex> statsLock(statsMutex_);
        ++stats_.allocatorBuilds;
        note("plancache.allocator_builds");
    }
    allocators_.emplace(key, allocator);
    return allocator;
}

std::shared_ptr<const PlacementPlan>
PlanCache::plan(std::uint64_t exprHash, const ExprPool &pool,
                ExprId root, const FleetSession::Module &module,
                Celsius temperature)
{
    const auto key = std::make_pair(exprHash, module.index);
    PlanShard &shard = shardOf(exprHash, module.index);
    bool stale = false;
    std::shared_ptr<const PlacementPlan> hit;
    {
        // Warm path: shared lock only, so concurrent warm submits
        // never serialize on the memoization map.
        const std::shared_lock<std::shared_mutex> lock(shard.mutex);
        const auto it = shard.plans.find(key);
        if (it != shard.plans.end()) {
            if (it->second->temperature == temperature)
                hit = it->second;
            else
                stale = true;
        }
    }
    if (hit) {
        // lookups is bumped together with its hit/miss
        // classification so hits + misses == lookups holds at every
        // instant (QueryService asserts it at collect).
        const std::lock_guard<std::mutex> statsLock(statsMutex_);
        ++stats_.lookups;
        ++stats_.hits;
        note("plancache.lookups");
        note("plancache.hits");
        return hit;
    }

    const Chip &chip = engine_->session()->chip(module);
    const auto [backend, capability] =
        engine_->backendCapability(chip);
    const std::shared_ptr<const MicroProgram> program =
        programFor(exprHash, pool, root, chip, backend, capability);
    const std::shared_ptr<const RowAllocator> allocator =
        allocatorFor(module, temperature);
    assert(allocator->maskTemperature() == temperature);

    auto plan = std::make_shared<PlacementPlan>();
    plan->program = program;
    {
        obs::Span span(obs::global(), "plan.place");
        span.arg("expr", exprHash);
        span.arg("module",
                 static_cast<std::uint64_t>(module.index));
        plan->placement = allocator->place(*program);
    }
    plan->backend = backend;
    plan->capability = capability;
    plan->temperature = temperature;
    plan->exprHash = exprHash;
    plan->moduleIndex = module.index;

    if (engine_->options().verify != VerifyPolicy::Off) {
        // Verify at derivation time so warm submits pay nothing; the
        // verdict rides the cached plan. Masks were derived at
        // `temperature` and the service executes the plan at the same
        // temperature (stale plans re-derive), so both sides of the
        // UPL009 check are `temperature` here.
        obs::Span span(obs::global(), "plan.verify");
        span.arg("expr", exprHash);
        span.arg("module", static_cast<std::uint64_t>(module.index));
        const bool rowClone =
            engine_->options().copyIn == CopyInMode::RowClone;
        plan->verification =
            verify::verifyPlan(*program, plan->placement, chip,
                               temperature, temperature, rowClone);
        obs::Telemetry &tel = obs::global();

        // Certify + pressure ride the same derivation: the abstract
        // interpretation over the placed dataflow (nested span),
        // cached on the plan, and the static activation census, whose
        // over-budget rows (UPL201) land in the verdict.
        {
            obs::Span certifySpan(obs::global(), "plan.certify");
            certifySpan.arg("expr", exprHash);
            certifySpan.arg("module",
                            static_cast<std::uint64_t>(module.index));
            const double startUs = obs::Telemetry::nowUs();
            plan->certificate = verify::certifyPlan(
                *program, plan->placement, chip, temperature,
                engine_->options().redundancy, rowClone);
            verify::analyzeActivationPressure(
                *program, plan->placement, chip,
                engine_->options().redundancy, rowClone,
                verify::PressureBudget{}, plan->verification);
            if (tel.metricsOn()) {
                tel.add(tel.counter("verify.certified_plans"));
                // Wall-clock observations are gated behind the
                // wallClock pillar: they would break the
                // byte-identical metrics contract of the
                // determinism-checked paths.
                if (tel.wallClockOn()) {
                    tel.observe(
                        tel.histogram("verify.certify_ns",
                                      {1e3, 1e4, 1e5, 1e6, 1e7}),
                        (obs::Telemetry::nowUs() - startUs) * 1e3);
                }
            }
        }

        const verify::AccuracySlo &slo = engine_->options().slo;
        if (slo.enabled() && !plan->certificate.meets(slo)) {
            std::ostringstream message;
            message << "certified expectedAccuracy "
                    << plan->certificate.expectedAccuracy
                    << " (SLO min " << slo.minExpectedAccuracy
                    << "), worst column "
                    << plan->certificate.worstColumn
                    << " error bound "
                    << plan->certificate.worstColumnErrorBound
                    << " (SLO max " << slo.maxColumnErrorBound
                    << ") at redundancy "
                    << plan->certificate.redundancy;
            plan->verification.report("UPL202", "plan",
                                      message.str());
        }

        if (tel.metricsOn()) {
            const verify::DiagnosticSink &verdict =
                plan->verification;
            tel.add(tel.counter("verify.plans"));
            tel.add(tel.counter(verdict.hasErrors()
                                    ? "verify.error_plans"
                                    : "verify.clean_plans"));
            if (verdict.errors() != 0)
                tel.add(tel.counter("verify.errors"),
                        verdict.errors());
            if (verdict.warnings() != 0)
                tel.add(tel.counter("verify.warnings"),
                        verdict.warnings());
            if (verdict.notes() != 0)
                tel.add(tel.counter("verify.notes"),
                        verdict.notes());
        }
    }

    {
        // Overwrite on a publish race: both racers derived the
        // identical immutable plan, so last-writer-wins is benign.
        const std::unique_lock<std::shared_mutex> lock(shard.mutex);
        shard.plans[key] = plan;
    }

    const std::lock_guard<std::mutex> statsLock(statsMutex_);
    ++stats_.lookups;
    ++stats_.misses;
    ++stats_.placements;
    note("plancache.lookups");
    note("plancache.misses");
    note("plancache.placements");
    if (stale) {
        ++stats_.invalidations;
        note("plancache.invalidations");
    }
    return plan;
}

PlanCacheStats
PlanCache::stats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex_);
    return stats_;
}

} // namespace fcdram::pud
