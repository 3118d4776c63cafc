// Differential test for the ground-once/solve-many cache: with the cache on
// (assumption-pinned shared grounding) and off (full per-scenario reground),
// every verdict field that carries analysis meaning must agree, over both
// case-study bundles, with and without active mitigations, and in trace
// mode. Solver statistics are exempt: the two paths search different (but
// projection-equivalent) groundings.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/reactor.hpp"
#include "core/watertank.hpp"
#include "epa/epa.hpp"
#include "security/scenario.hpp"
#include "security/threat_actor.hpp"

namespace cprisk::epa {
namespace {

/// One case study prepared for a differential run.
struct Study {
    std::string name;
    std::shared_ptr<void> owner;
    const model::SystemModel* system = nullptr;
    std::vector<Requirement> requirements;
    const MitigationMap* mitigations = nullptr;
    const security::AttackMatrix* matrix = nullptr;
    int horizon = 4;
};

Study make_watertank() {
    auto built = core::WaterTankCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<core::WaterTankCaseStudy>(std::move(built).value());
    Study study;
    study.name = "watertank";
    study.system = &cs->system;
    study.requirements = cs->requirements;
    study.mitigations = &cs->mitigations;
    study.matrix = &cs->matrix;
    study.horizon = cs->horizon;
    study.owner = cs;
    return study;
}

Study make_reactor() {
    auto built = core::ReactorCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<core::ReactorCaseStudy>(std::move(built).value());
    Study study;
    study.name = "reactor";
    study.system = &cs->system;
    study.requirements = cs->requirements;
    study.mitigations = &cs->mitigations;
    study.matrix = &cs->matrix;
    study.horizon = cs->horizon;
    study.owner = cs;
    return study;
}

/// Everything a verdict claims about the scenario, minus search effort.
std::string signature(const ScenarioVerdict& verdict) {
    std::string out = verdict.scenario_id;
    out += "|status=" + std::string(to_string(verdict.status));
    if (verdict.undetermined_reason) {
        out += "|reason=" + std::string(to_string(*verdict.undetermined_reason));
    }
    out += "|violated=";
    for (const auto& id : verdict.violated_requirements) out += id + ",";
    out += "|injected=";
    for (const auto& mutation : verdict.injected) out += mutation.to_string() + ",";
    out += "|propagation=";
    for (const auto& step : verdict.propagation) {
        out += std::to_string(step.time) + ":" + step.component + ",";
    }
    out += "|severity=" + std::string(qual::to_short_string(verdict.severity));
    out += "|likelihood=" + std::string(qual::to_short_string(verdict.likelihood));
    out += "|mitigations=";
    for (const auto& id : verdict.active_mitigations) out += id + ",";
    return out;
}

/// Prints the study's name, not the factory's address, so discovered test
/// names are the same in every build.
void PrintTo(Study (*make)(), std::ostream* os) {
    *os << (make == &make_watertank ? "watertank" : "reactor");
}

class GroundCacheDifferential : public ::testing::TestWithParam<Study (*)()> {};

TEST_P(GroundCacheDifferential, CachedAndRegroundPathsAgreeOnEveryScenario) {
    const Study study = GetParam()();
    ASSERT_NE(study.system, nullptr);

    security::ScenarioSpaceOptions space_options;
    space_options.include_attack_scenarios = false;
    const auto space = security::ScenarioSpace::build(
        *study.system, *study.matrix, security::standard_threat_actors(), space_options);
    ASSERT_GT(space.size(), 0u);

    // One mitigated configuration exercises the active_mitigation pins.
    std::vector<std::vector<std::string>> mitigation_sets = {{}};
    if (!study.mitigations->entries().empty()) {
        mitigation_sets.push_back({study.mitigations->entries().front().mitigation_id});
    }

    for (const auto& active : mitigation_sets) {
        EpaOptions cached_options;
        cached_options.horizon = study.horizon;
        cached_options.ground_once = true;
        EpaOptions reground_options = cached_options;
        reground_options.ground_once = false;

        auto cached = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                       *study.mitigations, cached_options);
        ASSERT_TRUE(cached.ok()) << cached.error();
        auto reground = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                         *study.mitigations, reground_options);
        ASSERT_TRUE(reground.ok()) << reground.error();

        auto cached_verdicts = cached.value().evaluate_all(space, active);
        ASSERT_TRUE(cached_verdicts.ok()) << cached_verdicts.error();
        auto reground_verdicts = reground.value().evaluate_all(space, active);
        ASSERT_TRUE(reground_verdicts.ok()) << reground_verdicts.error();

        ASSERT_EQ(cached_verdicts.value().size(), reground_verdicts.value().size());
        for (std::size_t i = 0; i < cached_verdicts.value().size(); ++i) {
            EXPECT_EQ(signature(cached_verdicts.value()[i]),
                      signature(reground_verdicts.value()[i]))
                << study.name << " scenario " << i
                << (active.empty() ? "" : " (mitigated)");
        }
    }
}

TEST_P(GroundCacheDifferential, TraceModeProducesIdenticalCounterexamples) {
    const Study study = GetParam()();
    ASSERT_NE(study.system, nullptr);

    security::ScenarioSpaceOptions space_options;
    space_options.include_attack_scenarios = false;
    space_options.max_simultaneous_faults = 1;
    const auto space = security::ScenarioSpace::build(
        *study.system, *study.matrix, security::standard_threat_actors(), space_options);
    ASSERT_GT(space.size(), 0u);

    EpaOptions cached_options;
    cached_options.horizon = study.horizon;
    cached_options.collect_trace = true;
    cached_options.ground_once = true;
    EpaOptions reground_options = cached_options;
    reground_options.ground_once = false;

    auto cached = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                   *study.mitigations, cached_options);
    ASSERT_TRUE(cached.ok()) << cached.error();
    auto reground = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                     *study.mitigations, reground_options);
    ASSERT_TRUE(reground.ok()) << reground.error();

    for (const auto& scenario : space.scenarios()) {
        auto a = cached.value().evaluate(scenario, {});
        auto b = reground.value().evaluate(scenario, {});
        ASSERT_TRUE(a.ok()) << a.error();
        ASSERT_TRUE(b.ok()) << b.error();
        EXPECT_EQ(signature(a.value()), signature(b.value())) << scenario.id;
        // The full qualitative trace (every projected state atom per step)
        // must be identical: the cache's pinned delta atoms mirror the
        // legacy path's facts exactly.
        EXPECT_EQ(a.value().trace, b.value().trace) << scenario.id;
    }
}

INSTANTIATE_TEST_SUITE_P(Bundles, GroundCacheDifferential,
                         ::testing::Values(&make_watertank, &make_reactor),
                         [](const ::testing::TestParamInfo<Study (*)()>& info) {
                             return info.index == 0 ? "watertank" : "reactor";
                         });

}  // namespace
}  // namespace cprisk::epa
