/**
 * @file
 * Plan-certifier and activation-pressure tests (src/verify/certify,
 * src/verify/pressure): interval properties of certified bounds on
 * real placed plans, majority-voting amplification, RowClone copy-in
 * widening, the static activation census, and the QueryService SLO
 * integration — an SLO-violating plan rejects under Enforce (UPL202)
 * and executes with its certificate attached under Report — plus the
 * verify.certified_plans / verify.slo_rejections counters and the
 * wallClock-gated verify.certify_ns histogram.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <sstream>

#include "common/mathutil.hh"
#include "obs/telemetry.hh"
#include "pud/service.hh"
#include "verify/certify.hh"
#include "verify/pressure.hh"
#include "verify/verifier.hh"

using namespace fcdram;
using namespace fcdram::pud;
using namespace fcdram::verify;

namespace {

/** Resets obs::global() on entry and exit (no cross-test leakage). */
struct GlobalTelemetryGuard
{
    GlobalTelemetryGuard() { obs::global().reset(); }
    ~GlobalTelemetryGuard() { obs::global().reset(); }
};

/** One compiled-and-placed corpus plan on a chosen profile. */
struct PlacedPlan
{
    std::shared_ptr<FleetSession> session;
    Chip chip;
    MicroProgram program;
    Placement placement;
};

PlacedPlan
placeAnd(int width, Manufacturer manufacturer = Manufacturer::SkHynix,
         int gbits = 4, char die = 'M', std::uint32_t rate = 2666,
         BackendChoice backend = BackendChoice::Auto)
{
    auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    const ChipProfile profile =
        ChipProfile::make(manufacturer, gbits, die, 8, rate);
    Chip chip = session->checkoutChip(profile, 0x11D7);
    const RowAllocator allocator(chip, 0x11D7);

    ExprPool pool;
    std::vector<ExprId> cols;
    for (int i = 0; i < width; ++i)
        cols.push_back(
            pool.column(std::string("c") + std::to_string(i)));
    EngineOptions options;
    options.backend = backend;
    const PudEngine engine(session, options);
    const MicroProgram program =
        engine.compileFor(pool, pool.mkAnd(cols), chip);
    const Placement placement = allocator.place(program);
    return {std::move(session), std::move(chip), program, placement};
}

std::map<std::string, BitVector>
makeData(int count, std::size_t bits, std::uint64_t seed)
{
    std::map<std::string, BitVector> data;
    Rng rng(seed);
    for (int i = 0; i < count; ++i) {
        BitVector column(bits);
        column.randomize(rng);
        data.emplace(std::string("c") + std::to_string(i),
                     std::move(column));
    }
    return data;
}

} // namespace

// ---- Certificate interval properties --------------------------------

TEST(CertifyTest, CleanPlanCertificateIsAConsistentInterval)
{
    const PlacedPlan plan = placeAnd(2);
    const PlanCertificate certificate =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 1, false);

    const std::size_t columns = plan.chip.geometry().columns;
    ASSERT_EQ(certificate.perColumnErrorBound.size(), columns);
    ASSERT_EQ(certificate.perColumnErrorFloor.size(), columns);
    EXPECT_EQ(certificate.redundancy, 1);

    double accuracySum = 0.0;
    double worst = 0.0;
    ColId worstColumn = 0;
    for (std::size_t col = 0; col < columns; ++col) {
        const double upper = certificate.perColumnErrorBound[col];
        const double lower = certificate.perColumnErrorFloor[col];
        EXPECT_GE(upper, 0.0);
        EXPECT_LE(upper, 1.0);
        EXPECT_GE(lower, 0.0);
        EXPECT_LE(lower, upper) << "col " << col;
        accuracySum += 1.0 - upper;
        if (upper > worst) {
            worst = upper;
            worstColumn = static_cast<ColId>(col);
        }
    }
    EXPECT_DOUBLE_EQ(certificate.worstColumnErrorBound, worst);
    EXPECT_EQ(certificate.worstColumn, worstColumn);
    EXPECT_NEAR(certificate.expectedAccuracy,
                accuracySum / static_cast<double>(columns), 1e-12);

    // A placed plan on a real margin model is neither perfect nor
    // useless: some column carries a real (tiny) certified risk.
    EXPECT_GT(certificate.worstColumnErrorBound, 0.0);
    EXPECT_LT(certificate.worstColumnErrorBound, 0.05);
    EXPECT_GT(certificate.expectedAccuracy, 0.99);
}

TEST(CertifyTest, MajorityVotingShrinksCertifiedBounds)
{
    const PlacedPlan plan = placeAnd(2);
    const PlanCertificate single =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 1, false);
    const PlanCertificate voted =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 3, false);

    ASSERT_EQ(single.perColumnErrorBound.size(),
              voted.perColumnErrorBound.size());
    for (std::size_t col = 0; col < single.perColumnErrorBound.size();
         ++col)
        EXPECT_LE(voted.perColumnErrorBound[col],
                  single.perColumnErrorBound[col])
            << "col " << col;
    ASSERT_GT(single.worstColumnErrorBound, 0.0);
    EXPECT_LT(voted.worstColumnErrorBound,
              single.worstColumnErrorBound);
    EXPECT_GE(voted.expectedAccuracy, single.expectedAccuracy);
    EXPECT_EQ(voted.redundancy, 3);
}

TEST(CertifyTest, RowCloneCopyInWidensCertifiedBounds)
{
    const PlacedPlan plan = placeAnd(2);
    const PlanCertificate host =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 1, false);
    const PlanCertificate cloned =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 1, true);

    ASSERT_EQ(host.perColumnErrorBound.size(),
              cloned.perColumnErrorBound.size());
    for (std::size_t col = 0; col < host.perColumnErrorBound.size();
         ++col)
        EXPECT_GE(cloned.perColumnErrorBound[col],
                  host.perColumnErrorBound[col])
            << "col " << col;
    EXPECT_LE(cloned.expectedAccuracy, host.expectedAccuracy);
}

TEST(CertifyTest, UnplacedPlanCertifiesExactlyZero)
{
    // Forcing the SiMRA MAJ basis on a Samsung design leaves the
    // 4-way AND group unplaceable; every column takes the CPU golden
    // fallback, whose error probability is exactly zero.
    const PlacedPlan plan =
        placeAnd(4, Manufacturer::Samsung, 4, 'F', 2666,
                 BackendChoice::SimraMaj);
    const PlanCertificate certificate =
        certifyPlan(plan.program, plan.placement, plan.chip,
                    plan.chip.temperature(), 1, true);
    for (const double bound : certificate.perColumnErrorBound)
        EXPECT_EQ(bound, 0.0);
    EXPECT_EQ(certificate.worstColumnErrorBound, 0.0);
    EXPECT_EQ(certificate.expectedAccuracy, 1.0);

    AccuracySlo strict;
    strict.minExpectedAccuracy = 1.0;
    strict.maxColumnErrorBound = 0.0;
    EXPECT_TRUE(certificate.meets(strict));
}

TEST(CertifyTest, SloDefaultsAcceptEverythingAndBoundsReject)
{
    const AccuracySlo open;
    EXPECT_FALSE(open.enabled());
    PlanCertificate certificate;
    certificate.expectedAccuracy = 0.0;
    certificate.worstColumnErrorBound = 1.0;
    EXPECT_TRUE(certificate.meets(open));

    AccuracySlo slo;
    slo.minExpectedAccuracy = 0.5;
    EXPECT_TRUE(slo.enabled());
    EXPECT_FALSE(certificate.meets(slo));
    certificate.expectedAccuracy = 0.9;
    EXPECT_TRUE(certificate.meets(slo));
    slo.maxColumnErrorBound = 0.5;
    EXPECT_FALSE(certificate.meets(slo));
}

// ---- Activation pressure --------------------------------------------

TEST(PressureTest, CensusCountsScaleWithRedundancy)
{
    const PlacedPlan plan = placeAnd(2);
    DiagnosticSink sink1;
    const ActivationPressureProfile single = analyzeActivationPressure(
        plan.program, plan.placement, plan.chip, 1, true,
        PressureBudget{}, sink1);
    DiagnosticSink sink3;
    const ActivationPressureProfile tripled =
        analyzeActivationPressure(plan.program, plan.placement,
                                  plan.chip, 3, true, PressureBudget{},
                                  sink3);

    ASSERT_FALSE(single.rowActivations.empty());
    EXPECT_GT(single.totalActivations, 0);
    EXPECT_EQ(tripled.totalActivations, 3 * single.totalActivations);
    EXPECT_EQ(tripled.maxRowActivations,
              3 * single.maxRowActivations);
    EXPECT_EQ(single.redundancy, 1);
    EXPECT_EQ(tripled.redundancy, 3);

    // The census is internally consistent: the total is the sum of
    // the per-row cells and the hottest row holds the max.
    std::int64_t sum = 0;
    for (const auto &[addr, count] : single.rowActivations)
        sum += count;
    EXPECT_EQ(sum, single.totalActivations);
    const auto hottest = single.rowActivations.find(
        {single.hottestBank, single.hottestRow});
    ASSERT_NE(hottest, single.rowActivations.end());
    EXPECT_EQ(hottest->second, single.maxRowActivations);

    // Well under the default disturbance budget: no UPL201.
    EXPECT_TRUE(sink1.empty());
    EXPECT_TRUE(sink3.empty());
}

TEST(PressureTest, TinyBudgetFiresUpl201PerHotRow)
{
    const PlacedPlan plan = placeAnd(2);
    PressureBudget budget;
    budget.maxRowActivations = 0;
    DiagnosticSink sink;
    const ActivationPressureProfile profile =
        analyzeActivationPressure(plan.program, plan.placement,
                                  plan.chip, 1, true, budget, sink);
    ASSERT_FALSE(sink.empty());
    EXPECT_EQ(sink.warnings(), profile.rowActivations.size());
    for (const Diagnostic &diagnostic : sink.diagnostics()) {
        EXPECT_EQ(diagnostic.rule, "UPL201");
        EXPECT_EQ(diagnostic.severity, Severity::Warning);
    }
}

TEST(PressureTest, CensusCountsTheActivationsExecutionIssues)
{
    // Every readRow is exactly one ACT, so with metrics on
    // bender.cmd_act - bender.row_reads counts the violated-timing
    // ACTs a run issued. HostWrite copy-in must match the census
    // exactly; RowClone copy-in lies between the census without
    // clones and the census with a clone for every staged row (the
    // engine clones only operands a Load defines).
    const auto session =
        std::make_shared<FleetSession>(CampaignConfig::forTests());
    const Chip base = session->checkoutChip(
        ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666),
        0x11D7);
    const RowAllocator allocator(base, 0x11D7);
    const auto data = makeData(9, base.geometry().columns, 0xC0FFEE);
    for (const BackendChoice backend :
         {BackendChoice::NandNor, BackendChoice::SimraMaj}) {
        for (const int width : {2, 8}) {
            for (const bool withNot : {false, true}) {
                ExprPool pool;
                std::vector<ExprId> cols;
                for (int i = 0; i <= width; ++i)
                    cols.push_back(pool.column(std::string("c") +
                                               std::to_string(i)));
                ExprId root = pool.mkAnd(std::vector<ExprId>(
                    cols.begin(), cols.begin() + width));
                if (withNot)
                    root = pool.mkXor({root, pool.mkNot(cols.back())});
                for (const int redundancy : {1, 3}) {
                    for (const CopyInMode copyIn :
                         {CopyInMode::HostWrite, CopyInMode::RowClone}) {
                        const bool clone = copyIn == CopyInMode::RowClone;
                        SCOPED_TRACE(
                            std::string(backend == BackendChoice::NandNor
                                            ? "NandNor"
                                            : "SimraMaj") +
                            " AND-" + std::to_string(width) +
                            (withNot ? " with NOT/XOR" : "") + " r=" +
                            std::to_string(redundancy) +
                            (clone ? " RowClone" : " HostWrite"));
                        EngineOptions options;
                        options.backend = backend;
                        options.redundancy = redundancy;
                        options.copyIn = copyIn;
                        const PudEngine engine(session, options);
                        Chip chip = base;
                        const MicroProgram program =
                            engine.compileFor(pool, root, chip);
                        const Placement placement =
                            allocator.place(program);
                        ASSERT_TRUE(placement.complete);
                        DiagnosticSink sink;
                        const std::int64_t census =
                            analyzeActivationPressure(
                                program, placement, chip, redundancy,
                                clone, PressureBudget{}, sink)
                                .totalActivations;
                        const std::int64_t withoutClones =
                            analyzeActivationPressure(
                                program, placement, chip, redundancy,
                                false, PressureBudget{}, sink)
                                .totalActivations;

                        const GlobalTelemetryGuard guard;
                        obs::TelemetryConfig config;
                        config.metrics = true;
                        obs::global().configure(config);
                        engine.execute(program, placement,
                                       chip.temperature(), chip, 0xACE,
                                       data);
                        const obs::Telemetry &tel = obs::global();
                        ASSERT_EQ(tel.value("engine.cpu_fallbacks"), 0u);
                        const auto issued = static_cast<std::int64_t>(
                            tel.value("bender.cmd_act") -
                            tel.value("bender.row_reads"));
                        EXPECT_GT(issued, 0);
                        if (clone) {
                            EXPECT_LE(issued, census);
                            EXPECT_GE(issued, withoutClones);
                        } else {
                            EXPECT_EQ(issued, census);
                        }
                    }
                }
            }
        }
    }
}

// ---- QueryService SLO enforcement -----------------------------------

namespace {

class CertifySloTest : public ::testing::Test
{
  protected:
    CertifySloTest()
        : session_(std::make_shared<FleetSession>(
              CampaignConfig::forTests()))
    {
    }

    /** AND-2 on the SK Hynix 'A' 2133 module: placed, clean, and
     *  with nonzero certified bounds under the service's own
     *  allocator (so a zero-error-bound SLO is infeasible). */
    QueryTicket submitAnd2(QueryService &service)
    {
        const auto *module =
            session_->findModule(Manufacturer::SkHynix, 4, 'A', 2133);
        EXPECT_NE(module, nullptr);
        ExprPool pool;
        std::vector<ExprId> cols;
        for (int i = 0; i < 2; ++i)
            cols.push_back(
                pool.column(std::string("c") + std::to_string(i)));
        const PreparedQuery prepared =
            service.prepare(pool, pool.mkAnd(cols));
        const auto data = makeData(
            2,
            static_cast<std::size_t>(
                session_->config().geometry.columns),
            23);
        return service.submit({prepared.bind(data)}, *module);
    }

    std::shared_ptr<FleetSession> session_;
};

} // namespace

TEST_F(CertifySloTest, EnforceRejectsSloInfeasiblePlanWithUpl202)
{
    const GlobalTelemetryGuard guard;
    obs::TelemetryConfig pillars;
    pillars.metrics = true;
    obs::global().configure(pillars);

    EngineOptions options;
    options.slo.maxColumnErrorBound = 0.0; // Unmeetable on DRAM.
    ASSERT_EQ(options.verify, VerifyPolicy::Enforce);
    QueryService service(session_, options);
    try {
        submitAnd2(service);
        FAIL() << "submit accepted an SLO-violating plan";
    } catch (const VerifyError &error) {
        ASSERT_NE(error.report().firstError(), nullptr);
        EXPECT_EQ(error.report().firstError()->rule, "UPL202");
        const std::string what = error.what();
        EXPECT_NE(what.find("fails static verification"),
                  std::string::npos);
        EXPECT_NE(what.find("UPL202"), std::string::npos);
    }
    EXPECT_EQ(obs::global().value("verify.slo_rejections"), 1u);
    EXPECT_EQ(obs::global().value("verify.rejected_plans"), 1u);
    EXPECT_EQ(obs::global().value("verify.certified_plans"), 1u);
}

TEST_F(CertifySloTest, ReportExecutesWithCertificateAttached)
{
    EngineOptions options;
    options.slo.maxColumnErrorBound = 0.0;
    options.verify = VerifyPolicy::Report;
    QueryService service(session_, options);
    QueryTicket ticket;
    ASSERT_NO_THROW(ticket = submitAnd2(service));
    const BatchQueryResult batch = service.collect(ticket);
    const ModuleQueryStats &stats =
        batch.queries.front().modules.front();
    EXPECT_TRUE(stats.result.placed);
    EXPECT_GT(stats.certificate.worstColumnErrorBound, 0.0);
    EXPECT_EQ(stats.certificate.perColumnErrorBound.size(),
              static_cast<std::size_t>(
                  session_->config().geometry.columns));
    EXPECT_EQ(stats.certificate.redundancy, 1);
}

TEST_F(CertifySloTest, FeasibleSloSubmitsUnderEnforce)
{
    EngineOptions options;
    options.slo.minExpectedAccuracy = 0.9;
    options.slo.maxColumnErrorBound = 0.5;
    QueryService service(session_, options);
    QueryTicket ticket;
    ASSERT_NO_THROW(ticket = submitAnd2(service));
    const BatchQueryResult batch = service.collect(ticket);
    const ModuleQueryStats &stats =
        batch.queries.front().modules.front();
    EXPECT_GT(stats.certificate.expectedAccuracy, 0.9);
}

// ---- Telemetry: certify counters, span, wallClock histogram ---------

TEST_F(CertifySloTest, CertifyTelemetryGatesWallClockHistogram)
{
    const GlobalTelemetryGuard guard;
    obs::Telemetry &tel = obs::global();

    // Metrics only: the certified-plans counter fires, but the
    // wall-clock duration histogram must stay silent (it would break
    // the byte-identical metrics contract).
    obs::TelemetryConfig pillars;
    pillars.metrics = true;
    tel.configure(pillars);
    {
        QueryService service(session_, EngineOptions{});
        service.collect(submitAnd2(service));
    }
    EXPECT_EQ(tel.value("verify.certified_plans"), 1u);
    EXPECT_TRUE(tel.histogramCells("verify.certify_ns").empty());

    // With the wallClock pillar on, the histogram records one
    // observation per certified plan.
    tel.reset();
    pillars.metrics = true;
    pillars.spans = true;
    pillars.wallClock = true;
    tel.configure(pillars);
    {
        QueryService service(session_, EngineOptions{});
        service.collect(submitAnd2(service));
    }
    EXPECT_EQ(tel.value("verify.certified_plans"), 1u);
    const std::vector<std::uint64_t> cells =
        tel.histogramCells("verify.certify_ns");
    ASSERT_FALSE(cells.empty());
    // Buckets + overflow + sum; the observation count is the sum of
    // every bucket cell (the last cell is the value sum).
    const std::uint64_t observations = std::accumulate(
        cells.begin(), cells.end() - 1, std::uint64_t{0});
    EXPECT_EQ(observations, 1u);

    // The certifier ran under its own span, nested in plan.verify.
    std::ostringstream trace;
    tel.writeChromeTrace(trace);
    EXPECT_NE(trace.str().find("plan.certify"), std::string::npos);
    EXPECT_NE(trace.str().find("plan.verify"), std::string::npos);
}
