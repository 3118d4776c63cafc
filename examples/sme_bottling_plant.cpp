// A second IT/OT scenario of the kind the paper's introduction motivates: a
// small bottling SME whose office IT (public-facing) bridges into the OT
// bottling line through an engineering workstation. The example builds the
// model from the standard component library, derives the attack scenario
// space from the ATT&CK-style matrix per threat actor, and produces a
// budget-constrained, multi-phase security consolidation plan — the gradual
// hardening roadmap an SME would actually execute.
#include <cstdio>

#include "cprisk.hpp"

using namespace cprisk;

namespace {

Result<model::SystemModel> build_plant() {
    model::SystemModel system;
    const auto library = model::ComponentLibrary::standard_cps();

    struct Spec {
        const char* type;
        const char* id;
        const char* name;
    };
    const Spec specs[] = {
        {"office_network", "office_net", "Office Network"},
        {"engineering_workstation", "eng_ws", "Engineering Workstation"},
        {"email_client", "mail", "E-mail Client"},
        {"web_browser", "browser", "Web Browser"},
        {"control_network", "control_net", "Control Network"},
        {"plc", "line_plc", "Bottling Line PLC"},
        {"valve_actuator", "filler_valve", "Filler Valve"},
        {"level_sensor", "fill_sensor", "Fill Level Sensor"},
        {"hmi", "line_hmi", "Line HMI"},
        {"water_tank", "buffer_tank", "Buffer Tank"},
    };
    for (const Spec& spec : specs) {
        auto added = library.instantiate(spec.type, spec.id, spec.name, system);
        if (!added.ok()) return Result<model::SystemModel>::failure(added.error());
    }

    using RT = model::RelationType;
    const model::Relation relations[] = {
        {"mail", "eng_ws", RT::SignalFlow, "attachments"},
        {"browser", "eng_ws", RT::SignalFlow, "downloads"},
        {"office_net", "eng_ws", RT::SignalFlow, "lan"},
        {"eng_ws", "control_net", RT::SignalFlow, "engineering"},
        {"control_net", "line_plc", RT::SignalFlow, "fieldbus"},
        {"line_plc", "filler_valve", RT::Triggering, "actuate"},
        {"fill_sensor", "line_plc", RT::SignalFlow, "measurement"},
        {"line_plc", "line_hmi", RT::SignalFlow, "status"},
        {"filler_valve", "buffer_tank", RT::QuantityFlow, "liquid"},
        {"buffer_tank", "fill_sensor", RT::SignalFlow, "level"},
    };
    for (const auto& relation : relations) {
        auto added = system.add_relation(relation);
        if (!added.ok()) return Result<model::SystemModel>::failure(added.error());
    }
    return system;
}

}  // namespace

int main() {
    auto system = build_plant();
    if (!system.ok()) {
        std::printf("model failed: %s\n", system.error().c_str());
        return 1;
    }

    const auto matrix = security::AttackMatrix::standard_ics();
    const auto mitigations =
        epa::MitigationMap::from_attack_matrix(system.value(), matrix);

    // Protect the production-critical OT assets (topology-level goals —
    // appropriate for a preliminary SME assessment without behaviour models).
    std::vector<epa::Requirement> requirements = {
        epa::Requirement::no_error_reaches("line_plc"),
        epa::Requirement::no_error_reaches("buffer_tank"),
    };

    core::RiskAssessment assessment(system.value(), requirements, requirements, matrix,
                                    mitigations);
    core::AssessmentConfig config;
    config.horizon = 8;
    config.max_simultaneous_faults = 1;
    config.include_attack_scenarios = true;  // actor-driven scenario space
    config.use_cegar = false;                // single-level topology analysis
    config.phase_budget = 5;

    core::RunContext ctx;
    auto report = assessment.run(config, ctx);
    if (!report.ok()) {
        std::printf("assessment failed: %s\n", report.error().c_str());
        return 1;
    }
    const auto& r = report.value();

    std::printf("=== SME bottling plant: preliminary security consolidation plan ===\n\n");
    std::printf("threat actors considered:\n");
    for (const auto& actor : security::standard_threat_actors()) {
        std::printf("  %-10s %-24s capability=%s\n", actor.id.c_str(), actor.name.c_str(),
                    std::string(qual::to_short_string(actor.capability)).c_str());
    }
    std::printf("\nscenarios: %zu   hazards: %zu\n\n", r.scenario_count, r.hazards.size());
    std::printf("-- top risks --\n%s\n", r.risk_table().render().c_str());
    std::printf("-- phased hardening roadmap (budget 5 per phase) --\n%s\n",
                r.mitigation_table().render().c_str());
    return 0;
}
