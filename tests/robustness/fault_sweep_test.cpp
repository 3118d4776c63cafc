// Sweeps every registered fault-injection site: an injected failure at any
// seam must leave the pipeline either succeeding with a sound partial
// report or failing with a clean diagnostic — never crashing and never
// dropping a true hazard silently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

/// Parametrized over the worker count: every seam must degrade cleanly in
/// both the sequential engine and under the thread pool (where the injected
/// failure lands on a nondeterministic scenario — the soundness assertions
/// below are schedule-independent by design).
class FaultSweepFixture : public ::testing::TestWithParam<std::size_t> {
protected:
    static void SetUpTestSuite() {
        auto built = WaterTankCaseStudy::build();
        ASSERT_TRUE(built.ok()) << built.error();
        cs_ = new WaterTankCaseStudy(std::move(built).value());
        assessment_ = new RiskAssessment(cs_->system, cs_->requirements,
                                         cs_->topology_requirements, cs_->matrix,
                                         cs_->mitigations);
    }
    static void TearDownTestSuite() {
        delete assessment_;
        delete cs_;
        assessment_ = nullptr;
        cs_ = nullptr;
    }

    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }

    AssessmentConfig config(const std::string& journal) const {
        AssessmentConfig c;
        c.horizon = cs_->horizon;
        c.include_attack_scenarios = false;
        c.journal_path = journal;
        // The static prefilter decides every watertank scenario without a
        // solver call, which would leave the asp.solver.* seams unregistered
        // and unswept. The prefilter's own seam has a dedicated test below.
        c.static_prefilter = false;
        return c;
    }

    /// One run under a fresh context with the parameter's worker lanes.
    static Result<AssessmentReport> run(const AssessmentConfig& c) {
        RunContext ctx;
        ctx.jobs = GetParam();
        return assessment_->run(c, ctx);
    }

    static std::set<std::string> hazard_ids(const AssessmentReport& report) {
        std::set<std::string> ids;
        for (const auto& hazard : report.hazards) ids.insert(hazard.scenario_id);
        return ids;
    }

    static WaterTankCaseStudy* cs_;
    static RiskAssessment* assessment_;
};

WaterTankCaseStudy* FaultSweepFixture::cs_ = nullptr;
RiskAssessment* FaultSweepFixture::assessment_ = nullptr;

TEST_P(FaultSweepFixture, EveryFailureSeamDegradesCleanly) {
    // A clean journaled reference run hits (and thereby registers) every
    // site; the sweep below therefore covers seams added later for free.
    const std::string reference_journal = ::testing::TempDir() + "cprisk_sweep_ref.jsonl";
    auto clean = run(config(reference_journal));
    ASSERT_TRUE(clean.ok()) << clean.error();
    const std::set<std::string> clean_hazards = hazard_ids(clean.value());
    std::remove(reference_journal.c_str());

    const std::vector<std::string> sites = fault::registered_sites();
    for (const char* expected : {"asp.grounder.ground", "asp.solver.solve",
                                 "asp.solver.stability", "core.journal.open",
                                 "core.journal.append"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
            << "seam not exercised by the reference run: " << expected;
    }

    for (const std::string& site : sites) {
        // Fire on the first hit and again in the middle of the run: both the
        // "fails immediately" and the "fails after partial progress" shapes.
        for (int countdown : {1, 4}) {
            SCOPED_TRACE(site + " countdown=" + std::to_string(countdown));
            const std::string journal = ::testing::TempDir() + "cprisk_sweep.jsonl";
            std::remove(journal.c_str());
            fault::reset();
            fault::arm(site, countdown);

            auto report = run(config(journal));
            fault::reset();

            if (!report.ok()) {
                // A hard failure (journal I/O) must carry a diagnostic that
                // names the problem.
                EXPECT_FALSE(report.error().empty());
                EXPECT_NE(report.error().find("journal"), std::string::npos)
                    << report.error();
            } else {
                const AssessmentReport& r = report.value();
                // Sound partial result: no invented hazards...
                for (const auto& id : hazard_ids(r)) {
                    EXPECT_TRUE(clean_hazards.count(id)) << "spurious hazard " << id;
                }
                // ...and no true hazard lost without being flagged.
                std::set<std::string> accounted = hazard_ids(r);
                for (const auto& v : r.undetermined) accounted.insert(v.scenario_id);
                for (const auto& id : clean_hazards) {
                    EXPECT_TRUE(accounted.count(id)) << "lost hazard " << id;
                }
                // Partial runs must say so in every rendering.
                if (!r.complete()) {
                    EXPECT_NE(render_markdown(r).find("PARTIAL RESULT"), std::string::npos);
                }
            }
            std::remove(journal.c_str());
        }
    }
}

TEST_P(FaultSweepFixture, SolverFaultMidRunStillDecidesOtherScenarios) {
    fault::arm("asp.solver.solve", 4);
    auto report = run(config(""));
    fault::reset();
    ASSERT_TRUE(report.ok()) << report.error();
    const AssessmentReport& r = report.value();
    // One injected failure cannot blank the whole run: most scenarios decide.
    EXPECT_LT(r.undetermined.size(), r.scenario_count / 2);
    for (const auto& v : r.undetermined) {
        ASSERT_TRUE(v.undetermined_reason.has_value());
        EXPECT_EQ(*v.undetermined_reason, epa::UndeterminedReason::SolverError);
    }
}

TEST_P(FaultSweepFixture, PrefilterFaultFallsBackToTheSolver) {
    AssessmentConfig prefiltered = config("");
    prefiltered.static_prefilter = true;

    auto clean = run(prefiltered);
    ASSERT_TRUE(clean.ok()) << clean.error();
    ASSERT_GT(clean.value().statically_resolved, 0u);
    const std::vector<std::string> sites = fault::registered_sites();
    ASSERT_NE(std::find(sites.begin(), sites.end(), "epa.absint.prefilter"), sites.end())
        << "prefilter seam not exercised by the reference run";

    // A failing prefilter is invisible except for provenance: the scenario
    // falls back to the solver path and gets the same verdict.
    for (int countdown : {1, 4}) {
        SCOPED_TRACE("countdown=" + std::to_string(countdown));
        fault::reset();
        fault::arm("epa.absint.prefilter", countdown);
        auto report = run(prefiltered);
        fault::reset();
        ASSERT_TRUE(report.ok()) << report.error();
        EXPECT_TRUE(report.value().complete());
        EXPECT_EQ(hazard_ids(report.value()), hazard_ids(clean.value()));
        // The faulted evaluation may not be the one backing a final verdict
        // (an earlier CEGAR stage), so the count can only stay or drop.
        EXPECT_LE(report.value().statically_resolved, clean.value().statically_resolved);
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, FaultSweepFixture, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                             return "jobs" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cprisk::core
