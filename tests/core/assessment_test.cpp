// Full seven-step pipeline on the case study.
#include <gtest/gtest.h>

#include "core/assessment.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

class AssessmentFixture : public ::testing::Test {
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

    /// One run under a fresh, default RunContext.
    static Result<AssessmentReport> run(const AssessmentConfig& config) {
        RunContext ctx;
        return assessment_->run(config, ctx);
    }

    static WaterTankCaseStudy* cs_;
    static RiskAssessment* assessment_;
};

WaterTankCaseStudy* AssessmentFixture::cs_ = nullptr;
RiskAssessment* AssessmentFixture::assessment_ = nullptr;

TEST_F(AssessmentFixture, FullPipelineRuns) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.max_simultaneous_faults = 2;
    config.include_attack_scenarios = false;

    auto report = run(config);
    ASSERT_TRUE(report.ok()) << report.error();
    const AssessmentReport& r = report.value();

    EXPECT_EQ(r.component_count, 9u);
    EXPECT_GT(r.scenario_count, 0u);
    EXPECT_FALSE(r.hazards.empty());
    EXPECT_EQ(r.risks.size(), r.hazards.size());
    EXPECT_GT(r.spurious_eliminated, 0u);
    EXPECT_EQ(r.cegar_iterations.size(), 2u);
    // Risks are sorted descending.
    for (std::size_t i = 0; i + 1 < r.risks.size(); ++i) {
        EXPECT_GE(r.risks[i].risk, r.risks[i + 1].risk);
    }
    // The optimizer proposes something against the confirmed hazards.
    EXPECT_FALSE(r.selection.chosen.empty());
}

TEST_F(AssessmentFixture, CegarOffGivesSameHazards) {
    AssessmentConfig with_cegar;
    with_cegar.horizon = cs_->horizon;
    with_cegar.include_attack_scenarios = false;
    with_cegar.use_cegar = true;

    AssessmentConfig without = with_cegar;
    without.use_cegar = false;

    auto a = run(with_cegar);
    auto b = run(without);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    ASSERT_EQ(a.value().hazards.size(), b.value().hazards.size());
    for (std::size_t i = 0; i < a.value().hazards.size(); ++i) {
        EXPECT_EQ(a.value().hazards[i].scenario_id, b.value().hazards[i].scenario_id);
    }
}

TEST_F(AssessmentFixture, DeployedMitigationsReduceHazards) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.include_attack_scenarios = false;
    auto baseline = run(config);
    config.active_mitigations = {"M-TRAIN", "M-ENDPOINT"};
    auto hardened = run(config);
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(hardened.ok());
    EXPECT_LT(hardened.value().hazards.size(), baseline.value().hazards.size());
}

TEST_F(AssessmentFixture, BudgetLimitsSelection) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.include_attack_scenarios = false;
    config.budget = 2;  // only User Training is affordable
    auto report = run(config);
    ASSERT_TRUE(report.ok()) << report.error();
    EXPECT_LE(report.value().selection.mitigation_cost, 2);
}

TEST_F(AssessmentFixture, MultiPhasePlanning) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.include_attack_scenarios = false;
    config.phase_budget = 4;
    auto report = run(config);
    ASSERT_TRUE(report.ok()) << report.error();
    EXPECT_FALSE(report.value().phases.empty());
    for (const auto& phase : report.value().phases) {
        EXPECT_LE(phase.selection.mitigation_cost, 4);
    }
}

TEST_F(AssessmentFixture, RiskRatingsUseOraMatrix) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.include_attack_scenarios = false;
    auto report = run(config);
    ASSERT_TRUE(report.ok());
    for (const ScenarioRisk& risk : report.value().risks) {
        EXPECT_EQ(risk.risk, risk::ora_risk(risk.loss_magnitude, risk.loss_event_frequency));
        EXPECT_FALSE(risk.violated_requirements.empty());
    }
}

TEST_F(AssessmentFixture, ReportTablesRender) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.include_attack_scenarios = false;
    config.phase_budget = 4;
    auto report = run(config);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report.value().hazard_table().rows(), 0u);
    EXPECT_GT(report.value().risk_table().rows(), 0u);
    EXPECT_GT(report.value().mitigation_table().rows(), 0u);
    EXPECT_NE(report.value().risk_table().render().find("Risk"), std::string::npos);
}

TEST_F(AssessmentFixture, AttackScenariosIncluded) {
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.max_simultaneous_faults = 1;
    config.include_attack_scenarios = true;
    auto with_attacks = run(config);
    config.include_attack_scenarios = false;
    auto without = run(config);
    ASSERT_TRUE(with_attacks.ok()) << with_attacks.error();
    ASSERT_TRUE(without.ok());
    EXPECT_GT(with_attacks.value().scenario_count, without.value().scenario_count);
}


TEST_F(AssessmentFixture, CatalogAddsVulnerabilityScenarios) {
    RiskAssessment with_catalog(cs_->system, cs_->requirements, cs_->topology_requirements,
                                cs_->matrix, cs_->mitigations, &cs_->catalog);
    AssessmentConfig config;
    config.horizon = cs_->horizon;
    config.max_simultaneous_faults = 1;
    config.include_attack_scenarios = false;
    RunContext catalog_ctx;
    auto with = with_catalog.run(config, catalog_ctx);
    auto without = run(config);
    ASSERT_TRUE(with.ok()) << with.error();
    ASSERT_TRUE(without.ok());
    EXPECT_GT(with.value().scenario_count, without.value().scenario_count);
}

}  // namespace
}  // namespace cprisk::core
