// Full assessment of the batch-reactor case study (second physical domain):
// demonstrates defence-in-depth verdicts, the silent-sabotage SCADA
// compromise, and the RST-extended uncertain analysis on a fault whose
// existence the analyst is unsure about.
#include <cstdio>

#include "cprisk.hpp"

using namespace cprisk;

int main() {
    auto built = core::ReactorCaseStudy::build();
    if (!built.ok()) {
        std::printf("case study failed: %s\n", built.error().c_str());
        return 1;
    }
    const auto& cs = built.value();

    core::RiskAssessment assessment(cs.system, cs.requirements, cs.topology_requirements,
                                    cs.matrix, cs.mitigations);
    core::AssessmentConfig config;
    config.horizon = cs.horizon;
    config.max_simultaneous_faults = 3;  // the rupture needs three actuator faults
    config.include_attack_scenarios = false;
    config.budget = 10;

    core::RunContext ctx;
    auto report = assessment.run(config, ctx);
    if (!report.ok()) {
        std::printf("assessment failed: %s\n", report.error().c_str());
        return 1;
    }
    const auto& r = report.value();

    std::printf("=== Batch reactor: preliminary risk assessment ===\n\n");
    std::printf("scenarios: %zu   confirmed hazards: %zu   spurious eliminated: %zu\n\n",
                r.scenario_count, r.hazards.size(), r.spurious_eliminated);
    std::printf("%s\n", r.risk_table().render().c_str());
    std::printf("mitigation (budget 10): cost=%lld residual=%lld chosen={",
                static_cast<long long>(r.selection.mitigation_cost),
                static_cast<long long>(r.selection.residual_loss));
    for (std::size_t i = 0; i < r.selection.chosen.size(); ++i) {
        std::printf("%s%s", i > 0 ? ", " : "", r.selection.chosen[i].c_str());
    }
    std::printf("}\n\n");

    // Uncertain analysis: the maintenance log is ambiguous about whether the
    // relief valve was left in a blocked state after service. Combined with
    // a frozen temperature sensor, does the plant rupture?
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Behavioral;
    options.horizon = cs.horizon;
    auto analysis = epa::ErrorPropagationAnalysis::create(cs.system, cs.requirements,
                                                          cs.mitigations, options);
    require(analysis.ok(), analysis.error());

    epa::UncertainScenario uncertain;
    uncertain.id = "post_maintenance";
    uncertain.certain = {{core::reactor_ids::kTempSensor, "frozen_reading"}};
    uncertain.uncertain = {{core::reactor_ids::kReliefValve, "stuck_closed"}};
    auto verdict = epa::evaluate_uncertain(analysis.value(), uncertain, {});
    require(verdict.ok(), verdict.error());

    std::printf("=== RST-extended analysis: ambiguous maintenance state ===\n");
    std::printf("worlds evaluated: %zu\n", verdict.value().worlds_evaluated);
    for (const auto& [requirement, region] : verdict.value().regions) {
        std::printf("  %-4s -> %s region (%zu/%zu worlds violate)\n", requirement.c_str(),
                    std::string(epa::to_string(region)).c_str(),
                    verdict.value().violating_worlds.at(requirement),
                    verdict.value().worlds_evaluated);
    }
    std::printf(
        "\nThe rupture requirement lands in the boundary region: the analyst must\n"
        "verify the relief valve's state before restart (the paper's escalation rule).\n");
    return 0;
}
