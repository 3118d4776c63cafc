// Graceful degradation under starved budgets: exhausted resources yield
// Undetermined verdicts and a flagged partial report, never a failed run,
// and partial results stay sound (reported hazards are real ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

class DegradationFixture : public ::testing::Test {
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

    static AssessmentConfig base_config() {
        AssessmentConfig config;
        config.horizon = cs_->horizon;
        config.include_attack_scenarios = false;
        return config;
    }

    static std::set<std::string> hazard_ids(const AssessmentReport& report) {
        std::set<std::string> ids;
        for (const auto& hazard : report.hazards) ids.insert(hazard.scenario_id);
        return ids;
    }

    /// One run under a fresh, default RunContext.
    static Result<AssessmentReport> run(const AssessmentConfig& config) {
        RunContext ctx;
        return assessment_->run(config, ctx);
    }

    static WaterTankCaseStudy* cs_;
    static RiskAssessment* assessment_;
};

WaterTankCaseStudy* DegradationFixture::cs_ = nullptr;
RiskAssessment* DegradationFixture::assessment_ = nullptr;

TEST_F(DegradationFixture, CancelledRunSucceedsWithEverythingUndetermined) {
    AssessmentConfig config = base_config();
    CancelToken cancel;
    cancel.request_cancel();  // starved from the first budget check
    config.cancel = cancel;

    auto report = run(config);
    ASSERT_TRUE(report.ok()) << report.error();
    const AssessmentReport& r = report.value();
    EXPECT_FALSE(r.complete());
    EXPECT_EQ(r.undetermined.size(), r.scenario_count);
    EXPECT_TRUE(r.hazards.empty());
    for (const auto& verdict : r.undetermined) {
        ASSERT_TRUE(verdict.undetermined_reason.has_value()) << verdict.scenario_id;
        EXPECT_EQ(*verdict.undetermined_reason, epa::UndeterminedReason::Cancelled);
        EXPECT_NE(verdict.undetermined_detail.find(verdict.scenario_id), std::string::npos);
    }
}

TEST_F(DegradationFixture, UndeterminedScenariosAreSortedById) {
    AssessmentConfig config = base_config();
    CancelToken cancel;
    cancel.request_cancel();
    config.cancel = cancel;
    auto report = run(config);
    ASSERT_TRUE(report.ok());
    const auto& u = report.value().undetermined;
    ASSERT_GT(u.size(), 1u);
    for (std::size_t i = 0; i + 1 < u.size(); ++i) {
        EXPECT_LT(u[i].scenario_id, u[i + 1].scenario_id);
    }
}

TEST_F(DegradationFixture, PartialReportRenderingsFlagIncompleteness) {
    AssessmentConfig config = base_config();
    CancelToken cancel;
    cancel.request_cancel();
    config.cancel = cancel;
    auto report = run(config);
    ASSERT_TRUE(report.ok());
    const AssessmentReport& r = report.value();

    const std::string md = render_markdown(r);
    EXPECT_NE(md.find("## Completeness"), std::string::npos);
    EXPECT_NE(md.find("PARTIAL RESULT"), std::string::npos);
    EXPECT_NE(md.find("NOT exhaustive"), std::string::npos);

    // One CSV row per undetermined scenario on top of the (empty) risk rows.
    const std::string csv = render_risk_csv(r);
    EXPECT_NE(csv.find("undetermined:cancelled"), std::string::npos);

    const std::string json_doc = render_report_json(r);
    EXPECT_NE(json_doc.find("\"complete\":false"), std::string::npos);

    EXPECT_EQ(r.completeness_table().rows(), r.undetermined.size());
}

TEST_F(DegradationFixture, CompleteRunRendersExhaustive) {
    auto report = run(base_config());
    ASSERT_TRUE(report.ok()) << report.error();
    EXPECT_TRUE(report.value().complete());
    const std::string md = render_markdown(report.value());
    EXPECT_NE(md.find("exhaustive: all"), std::string::npos);
    EXPECT_EQ(md.find("PARTIAL RESULT"), std::string::npos);
}

TEST_F(DegradationFixture, InjectedSolverFailureDegradesOneScenarioSoundly) {
    auto clean = run(base_config());
    ASSERT_TRUE(clean.ok()) << clean.error();
    const std::set<std::string> clean_hazards = hazard_ids(clean.value());

    fault::arm("asp.solver.solve", 1);
    auto partial = run(base_config());
    fault::reset();
    ASSERT_TRUE(partial.ok()) << partial.error();
    const AssessmentReport& r = partial.value();

    // Reported hazards are a subset of the true ones...
    for (const auto& id : hazard_ids(r)) EXPECT_TRUE(clean_hazards.count(id)) << id;
    // ...and no true hazard silently disappears: anything missing is
    // accounted for in the undetermined list.
    std::set<std::string> accounted = hazard_ids(r);
    for (const auto& verdict : r.undetermined) accounted.insert(verdict.scenario_id);
    for (const auto& id : clean_hazards) EXPECT_TRUE(accounted.count(id)) << id;
    for (const auto& verdict : r.undetermined) {
        ASSERT_TRUE(verdict.undetermined_reason.has_value());
    }
}

TEST_F(DegradationFixture, StarvedRunRecordsDegradedRetryInJournal) {
    const std::string journal = ::testing::TempDir() + "cprisk_degraded.jsonl";
    AssessmentConfig config = base_config();
    CancelToken cancel;
    cancel.request_cancel();
    config.cancel = cancel;
    config.journal_path = journal;

    auto report = run(config);
    ASSERT_TRUE(report.ok()) << report.error();

    auto contents = load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    // Every scenario walked the full ladder and was retried once on the
    // previous, cheaper stage before being recorded undetermined.
    bool saw_degraded = false;
    for (const auto& record : contents.value().records) {
        EXPECT_EQ(record.outcome, hierarchy::ScenarioOutcome::Undetermined);
        for (const auto& stage : record.stages) saw_degraded |= stage.degraded;
    }
    EXPECT_TRUE(saw_degraded);
    std::remove(journal.c_str());
}

}  // namespace
}  // namespace cprisk::core
