// Report emitters and §II-A parameter-criticality support.
#include <gtest/gtest.h>

#include "common/schema.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

const AssessmentReport& sample_report() {
    static const AssessmentReport report = [] {
        auto built = WaterTankCaseStudy::build();
        EXPECT_TRUE(built.ok()) << built.error();
        RiskAssessment assessment(built.value().system, built.value().requirements,
                                  built.value().topology_requirements, built.value().matrix,
                                  built.value().mitigations);
        AssessmentConfig config;
        config.horizon = built.value().horizon;
        config.include_attack_scenarios = false;
        config.phase_budget = 6;
        RunContext ctx;
        auto run = assessment.run(config, ctx);
        EXPECT_TRUE(run.ok()) << run.error();
        return run.ok() ? std::move(run).value() : AssessmentReport{};
    }();
    return report;
}

TEST(Report, MarkdownSections) {
    const std::string md = render_markdown(sample_report());
    EXPECT_NE(md.find("# Preliminary risk assessment"), std::string::npos);
    EXPECT_NE(md.find("## System"), std::string::npos);
    EXPECT_NE(md.find("## Refinement trace (CEGAR)"), std::string::npos);
    EXPECT_NE(md.find("## Hazards and qualitative risk"), std::string::npos);
    EXPECT_NE(md.find("## Critical parameter estimates"), std::string::npos);
    EXPECT_NE(md.find("## Mitigation strategy"), std::string::npos);
    EXPECT_NE(md.find("### Phased roll-out"), std::string::npos);
}

TEST(Report, MarkdownOptionsToggleSections) {
    ReportOptions options;
    options.include_sensitivity = false;
    options.include_cegar_trace = false;
    options.title = "Custom title";
    const std::string md = render_markdown(sample_report(), options);
    EXPECT_NE(md.find("# Custom title"), std::string::npos);
    EXPECT_EQ(md.find("## Critical parameter estimates"), std::string::npos);
    EXPECT_EQ(md.find("## Refinement trace"), std::string::npos);
}

TEST(Report, CsvHasOneRowPerHazard) {
    const std::string csv = render_risk_csv(sample_report());
    const std::size_t lines = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(lines, sample_report().risks.size() + 1);  // header + rows
    EXPECT_NE(csv.find("Scenario,LM,LEF,Risk"), std::string::npos);
}

TEST(Report, CriticalityMatchesOraMatrix) {
    const auto criticality = analyze_parameter_criticality(sample_report());
    ASSERT_EQ(criticality.size(), sample_report().risks.size());
    for (std::size_t i = 0; i < criticality.size(); ++i) {
        const auto& c = criticality[i];
        const auto& risk = sample_report().risks[i];
        EXPECT_EQ(c.rating, risk.risk);
        // The unperturbed rating lies inside both sweep ranges.
        EXPECT_TRUE(c.rating_range_severity.contains(c.rating));
        EXPECT_TRUE(c.rating_range_likelihood.contains(c.rating));
        // Sensitivity flags match the ranges.
        EXPECT_EQ(c.sensitive_to_severity, !c.rating_range_severity.is_exact());
        EXPECT_EQ(c.sensitive_to_likelihood, !c.rating_range_likelihood.is_exact());
    }
}

TEST(Report, JsonExportLeadsWithTheSchemaVersion) {
    const std::string json = render_report_json(sample_report());
    const std::string expected =
        "{\"schema_version\":" + std::to_string(kSchemaVersion) + ",";
    EXPECT_EQ(json.rfind(expected, 0), 0u) << json.substr(0, 60);
}

TEST(Report, CompletenessCarriesThePriorityCoverageSummary) {
    // sample_report runs under the default ExpectedRisk policy.
    ASSERT_TRUE(sample_report().priority.enabled);
    const std::string md = render_markdown(sample_report());
    EXPECT_NE(md.find("- priority policy: expected_risk"), std::string::npos);
    EXPECT_NE(md.find("- expected-risk coverage: "), std::string::npos);
    // A complete run covers the whole mass and bounds near certainty.
    EXPECT_EQ(sample_report().priority.covered_risk_micros,
              sample_report().priority.total_risk_micros);

    const std::string json = render_report_json(sample_report());
    EXPECT_NE(json.find("\"priority\":{\"policy\":\"expected_risk\""), std::string::npos);
    EXPECT_NE(json.find("\"covered_risk_micros\":"), std::string::npos);
    EXPECT_NE(json.find("\"coverage_lower_bound_micros\":"), std::string::npos);
}

TEST(Report, ParetoSectionRendersOnlyWhenComputed) {
    // The base report was run without --pareto: no section, empty table,
    // empty CSV, knee index -1.
    EXPECT_FALSE(sample_report().pareto.has_value());
    EXPECT_EQ(render_markdown(sample_report()).find("### Pareto front"),
              std::string::npos);
    EXPECT_TRUE(render_pareto_csv(sample_report()).empty());
    EXPECT_EQ(render_report_json(sample_report()).find("\"pareto\""), std::string::npos);

    auto built = WaterTankCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    RiskAssessment assessment(built.value().system, built.value().requirements,
                              built.value().topology_requirements, built.value().matrix,
                              built.value().mitigations);
    AssessmentConfig config;
    config.horizon = built.value().horizon;
    config.include_attack_scenarios = false;
    config.pareto = true;
    RunContext ctx;
    auto run = assessment.run(config, ctx);
    ASSERT_TRUE(run.ok()) << run.error();
    const AssessmentReport& report = run.value();
    ASSERT_TRUE(report.pareto.has_value());
    ASSERT_FALSE(report.pareto->empty());

    const std::string md = render_markdown(report);
    EXPECT_NE(md.find("### Pareto front (cost / residual risk / coverage)"),
              std::string::npos);
    // Exactly one row wears the knee marker.
    const std::string csv = render_pareto_csv(report);
    EXPECT_FALSE(csv.empty());
    std::size_t knees = 0;
    std::size_t from = 0;
    while ((from = csv.find("*", from)) != std::string::npos) {
        ++knees;
        ++from;
    }
    EXPECT_EQ(knees, 1u);

    const std::string json = render_report_json(report);
    EXPECT_NE(json.find("\"pareto\":{\"points\":["), std::string::npos);
    EXPECT_NE(json.find("\"knee\":"), std::string::npos);
    // The knee the JSON names is the front's knee() point.
    const auto knee_pos = json.find("\"knee\":", json.find("\"pareto\":"));
    ASSERT_NE(knee_pos, std::string::npos);
    const long long knee_index = std::stoll(json.substr(knee_pos + 7));
    ASSERT_GE(knee_index, 0);
    ASSERT_LT(static_cast<std::size_t>(knee_index), report.pareto->size());
    EXPECT_EQ(&report.pareto->points()[static_cast<std::size_t>(knee_index)],
              &report.pareto->knee());
}

TEST(Report, SensitivityBandWidthFollowsThePriorRadius) {
    AssessmentReport report;
    for (const int radius : {0, 1, 2}) {
        ScenarioRisk risk;
        risk.scenario_id = "r" + std::to_string(radius);
        risk.loss_magnitude = qual::Level::Medium;
        risk.loss_event_frequency = qual::Level::Medium;
        risk.risk = risk::ora_risk(risk.loss_magnitude, risk.loss_event_frequency);
        risk.likelihood_band_radius = radius;
        report.risks.push_back(risk);
    }
    const auto criticality = analyze_parameter_criticality(report);
    ASSERT_EQ(criticality.size(), 3u);
    // Radius 0: the likelihood sweep is a point — never sensitive.
    EXPECT_EQ(criticality[0].likelihood_band_radius, 0);
    EXPECT_TRUE(criticality[0].rating_range_likelihood.is_exact());
    EXPECT_FALSE(criticality[0].sensitive_to_likelihood);
    // Wider radii sweep wider level bands (M±1 vs M±2 on the LEF axis).
    EXPECT_EQ(criticality[1].likelihood_band_radius, 1);
    EXPECT_EQ(criticality[2].likelihood_band_radius, 2);
    // The markdown table spells the band out per row.
    const std::string md = render_markdown(report);
    EXPECT_NE(md.find("| likelihood band |"), std::string::npos);
    EXPECT_NE(md.find("(+/-0)"), std::string::npos);
    EXPECT_NE(md.find("(+/-2)"), std::string::npos);
}

TEST(Report, SaturatedEstimatesAreRobust) {
    // A hazard with VH severity and VH likelihood rates VH under any one-step
    // perturbation (Table I corner) — criticality must report insensitive
    // only if the matrix says so.
    AssessmentReport report;
    ScenarioRisk risk;
    risk.scenario_id = "corner";
    risk.loss_magnitude = qual::Level::VeryHigh;
    risk.loss_event_frequency = qual::Level::VeryHigh;
    risk.risk = risk::ora_risk(risk.loss_magnitude, risk.loss_event_frequency);
    report.risks.push_back(risk);
    const auto criticality = analyze_parameter_criticality(report);
    ASSERT_EQ(criticality.size(), 1u);
    // Risk(H,VH) = VH and Risk(VH,H) = VH: the corner is insensitive.
    EXPECT_FALSE(criticality[0].sensitive_to_severity);
    EXPECT_FALSE(criticality[0].sensitive_to_likelihood);
}

}  // namespace
}  // namespace cprisk::core
