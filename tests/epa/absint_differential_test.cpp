// Differential test for the static ternary prefilter (asp/absint,
// docs/static-analysis.md): with the prefilter on (certified scenarios
// skip the CDCL search) and off (every scenario solved), every verdict
// field that carries analysis meaning must agree — over both case-study
// bundles, at jobs 1 and 4, with the ground-once cache on and off, and
// with an injected prefilter fault mid-run. Exempt by design: solver
// statistics (static verdicts report zero effort) and `provenance` (the
// one field the prefilter exists to change).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/reactor.hpp"
#include "core/watertank.hpp"
#include "epa/epa.hpp"
#include "obs/run_context.hpp"
#include "security/scenario.hpp"
#include "security/threat_actor.hpp"

namespace cprisk::epa {
namespace {

/// One case study prepared for a differential run (ground_cache_test.cpp
/// idiom).
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

/// Prints the bundle's name, not the factory's address, so discovered test
/// names are the same in every build.
void PrintTo(Study (*make)(), std::ostream* os) {
    *os << (make == &make_watertank ? "watertank" : "reactor");
}

/// Everything a verdict claims about the scenario, minus search effort and
/// provenance.
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

std::size_t static_count(const std::vector<ScenarioVerdict>& verdicts) {
    std::size_t count = 0;
    for (const ScenarioVerdict& verdict : verdicts) {
        if (verdict.provenance == VerdictProvenance::Static) ++count;
    }
    return count;
}

std::vector<ScenarioVerdict> run_sweep(const Study& study, const security::ScenarioSpace& space,
                                       bool prefilter, bool ground_once, std::size_t jobs,
                                       const std::vector<std::string>& active) {
    RunContext ctx;
    ctx.jobs = jobs;
    EpaOptions options;
    options.horizon = study.horizon;
    options.ground_once = ground_once;
    options.static_prefilter = prefilter;
    options.ctx = &ctx;
    auto analysis = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                     *study.mitigations, options);
    EXPECT_TRUE(analysis.ok()) << analysis.error();
    auto verdicts = analysis.value().evaluate_all(space, active);
    EXPECT_TRUE(verdicts.ok()) << verdicts.error();
    return std::move(verdicts).value();
}

class AbsintDifferential : public ::testing::TestWithParam<Study (*)()> {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_P(AbsintDifferential, PrefilterOnAndOffAgreeAcrossJobsAndCacheModes) {
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
        for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
            for (bool ground_once : {true, false}) {
                SCOPED_TRACE(study.name + " jobs=" + std::to_string(jobs) +
                             " cache=" + (ground_once ? "on" : "off") +
                             (active.empty() ? "" : " mitigated"));
                const auto on = run_sweep(study, space, true, ground_once, jobs, active);
                const auto off = run_sweep(study, space, false, ground_once, jobs, active);
                ASSERT_EQ(on.size(), off.size());
                for (std::size_t i = 0; i < on.size(); ++i) {
                    EXPECT_EQ(signature(on[i]), signature(off[i])) << "scenario " << i;
                }
                // With the prefilter off, nothing may claim static
                // provenance; the prefilter itself only exists on the
                // cached path.
                EXPECT_EQ(static_count(off), 0u);
                if (!ground_once) {
                    EXPECT_EQ(static_count(on), 0u);
                }
            }
        }
    }
}

TEST_P(AbsintDifferential, PrefilterResolvesScenariosStaticallyOnTheCachedPath) {
    const Study study = GetParam()();
    ASSERT_NE(study.system, nullptr);

    security::ScenarioSpaceOptions space_options;
    space_options.include_attack_scenarios = false;
    const auto space = security::ScenarioSpace::build(
        *study.system, *study.matrix, security::standard_threat_actors(), space_options);
    const auto verdicts = run_sweep(study, space, true, true, 1, {});
    EXPECT_GT(static_count(verdicts), 0u)
        << study.name << ": the prefilter certified no scenario at all";
}

TEST_P(AbsintDifferential, InjectedPrefilterFaultDegradesToIdenticalVerdicts) {
    const Study study = GetParam()();
    ASSERT_NE(study.system, nullptr);

    security::ScenarioSpaceOptions space_options;
    space_options.include_attack_scenarios = false;
    const auto space = security::ScenarioSpace::build(
        *study.system, *study.matrix, security::standard_threat_actors(), space_options);
    const auto reference = run_sweep(study, space, false, true, 1, {});

    for (int countdown : {1, 4}) {
        SCOPED_TRACE(study.name + " countdown=" + std::to_string(countdown));
        fault::reset();
        fault::arm("epa.absint.prefilter", countdown);
        const auto faulted = run_sweep(study, space, true, true, 1, {});
        fault::reset();
        ASSERT_EQ(faulted.size(), reference.size());
        for (std::size_t i = 0; i < faulted.size(); ++i) {
            EXPECT_EQ(signature(faulted[i]), signature(reference[i])) << "scenario " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bundles, AbsintDifferential,
                         ::testing::Values(&make_watertank, &make_reactor),
                         [](const ::testing::TestParamInfo<Study (*)()>& info) {
                             return info.index == 0 ? "watertank" : "reactor";
                         });

}  // namespace
}  // namespace cprisk::epa
