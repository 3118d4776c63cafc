// Exhaustive hazard frontier (epa/frontier): the antichain of minimal
// hazardous fault sets must equal a brute-force 2^n ground truth on small
// models, across cache on/off x prefilter on/off x jobs {1,4}; a monotone
// certificate must prune supersets, a mixed certificate must degrade to
// full enumeration with the same antichain; --exhaustive journals resume
// byte-identically after a mid-run kill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/antichain.hpp"
#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"
#include "epa/frontier.hpp"

namespace cprisk::epa {
namespace {

using security::Mutation;

/// A study prepared for a frontier-vs-brute-force differential.
struct Study {
    std::string name;
    std::shared_ptr<void> owner;
    const model::SystemModel* system = nullptr;
    std::vector<Requirement> requirements;
    MitigationMap mitigations;
    AnalysisFocus focus = AnalysisFocus::Behavioral;
    int horizon = 4;
    bool expect_monotone = false;
    std::size_t max_card = 0;  ///< 0 = full lattice; else layer cap for big universes
};

/// c0 -> c1 -> ... -> c{n-1}; every component has one `fail` mode and the
/// tail is the high-value asset. Negation-free under Topology focus, so the
/// polarity certifier proves it monotone.
Study make_chain(int n) {
    auto system = std::make_shared<model::SystemModel>();
    for (int i = 0; i < n; ++i) {
        model::Component component;
        component.id = "c" + std::to_string(i);
        component.name = component.id;
        component.type =
            i + 1 == n ? model::ElementType::Equipment : model::ElementType::Controller;
        component.asset_value = i + 1 == n ? qual::Level::VeryHigh : qual::Level::Medium;
        component.fault_modes = {model::FaultMode{"fail", model::FaultEffect::Corruption, "",
                                                  qual::Level::Medium, qual::Level::Low}};
        EXPECT_TRUE(system->add_component(std::move(component)).ok());
    }
    for (int i = 0; i + 1 < n; ++i) {
        EXPECT_TRUE(system
                        ->add_relation({"c" + std::to_string(i), "c" + std::to_string(i + 1),
                                        model::RelationType::SignalFlow, ""})
                        .ok());
    }
    Study study;
    study.name = "chain" + std::to_string(n);
    study.system = system.get();
    study.owner = std::move(system);
    study.requirements = {Requirement::no_error_reaches("c" + std::to_string(n - 1))};
    study.focus = AnalysisFocus::Topology;
    study.horizon = n + 1;
    study.expect_monotone = true;
    return study;
}

/// The behavioural case study: `not eff_fault(..)` negations in the
/// fragments make the certificate mixed, exercising the degraded sweep.
Study make_watertank() {
    auto built = core::WaterTankCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<core::WaterTankCaseStudy>(std::move(built).value());
    Study study;
    study.name = "watertank";
    study.system = &cs->system;
    study.requirements = cs->requirements;
    study.mitigations = cs->mitigations;
    study.focus = AnalysisFocus::Behavioral;
    study.horizon = cs->horizon;
    study.expect_monotone = false;
    // 14 fault modes: the full 2^14 behavioural brute force would dominate
    // the suite, so the differential covers the cardinality-<=2 layers.
    study.max_card = 2;
    study.owner = std::move(cs);
    return study;
}

/// Number of subsets of an n-element universe with cardinality <= k.
std::size_t layered_candidates(std::size_t n, std::size_t k) {
    std::size_t total = 0;
    std::size_t binom = 1;
    for (std::size_t card = 0; card <= k && card <= n; ++card) {
        total += binom;
        binom = binom * (n - card) / (card + 1);
    }
    return total;
}

std::vector<Mutation> fault_universe(const model::SystemModel& model) {
    std::vector<Mutation> universe;
    for (const model::Component& component : model.components()) {
        for (const model::FaultMode& mode : component.fault_modes) {
            universe.push_back(Mutation{component.id, mode.id});
        }
    }
    std::sort(universe.begin(), universe.end());
    return universe;
}

/// Brute-force ground truth: evaluate every subset of the universe and keep
/// the inclusion-minimal hazardous ones, as scenario-id strings.
std::set<std::string> brute_force_minimal_hazards(const ErrorPropagationAnalysis& epa,
                                                  std::size_t max_card) {
    const std::vector<Mutation> universe = fault_universe(epa.system_model());
    std::vector<std::vector<Mutation>> hazardous;
    for (std::size_t mask = 0; mask < (std::size_t{1} << universe.size()); ++mask) {
        std::vector<Mutation> subset;
        for (std::size_t i = 0; i < universe.size(); ++i) {
            if ((mask >> i) & 1u) subset.push_back(universe[i]);
        }
        if (subset.size() > max_card) continue;
        auto verdict = epa.evaluate(frontier_scenario(epa.system_model(), subset), {});
        EXPECT_TRUE(verdict.ok()) << verdict.error();
        if (verdict.ok() && verdict.value().status == VerdictStatus::Hazard) {
            hazardous.push_back(std::move(subset));
        }
    }
    std::set<std::string> minimal;
    for (const std::vector<Mutation>& subset : minimal_sets(std::move(hazardous))) {
        minimal.insert(frontier_scenario_id(subset));
    }
    return minimal;
}

std::set<std::string> frontier_ids(const FrontierResult& result) {
    std::set<std::string> ids;
    for (const ScenarioVerdict& hazard : result.minimal_hazards) {
        ids.insert(hazard.scenario_id);
    }
    return ids;
}

TEST(FrontierScenario, IdsAreDeterministic) {
    EXPECT_EQ(frontier_scenario_id({}), "exh:none");
    EXPECT_EQ(frontier_scenario_id({{"a", "f"}, {"b", "g"}}), "exh:a.f+b.g");
}

/// Prints the study's name, not the factory's address, so discovered test
/// names are the same in every build.
void PrintTo(Study (*make)(), std::ostream* os) {
    *os << (make == &make_watertank ? "watertank" : "chain6");
}

class FrontierDifferential : public ::testing::TestWithParam<Study (*)()> {};

TEST_P(FrontierDifferential, AntichainMatchesBruteForceAcrossConfigurations) {
    const Study study = GetParam()();
    ASSERT_NE(study.system, nullptr);

    // Reference ground truth from a plain cached engine.
    EpaOptions reference_options;
    reference_options.focus = study.focus;
    reference_options.horizon = study.horizon;
    auto reference = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                      study.mitigations, reference_options);
    ASSERT_TRUE(reference.ok()) << reference.error();
    const std::size_t universe_size = fault_universe(*study.system).size();
    ASSERT_TRUE(universe_size <= 10u || study.max_card > 0)
        << "unbounded brute force needs n <= 10";
    const std::size_t effective_card =
        study.max_card > 0 ? study.max_card : universe_size;
    const std::set<std::string> truth =
        brute_force_minimal_hazards(reference.value(), effective_card);
    const std::size_t expected_candidates = layered_candidates(universe_size, effective_card);

    for (const bool ground_once : {true, false}) {
        for (const bool static_prefilter : {true, false}) {
            for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
                const std::string label = study.name + " cache=" +
                                          std::to_string(ground_once) + " prefilter=" +
                                          std::to_string(static_prefilter) + " jobs=" +
                                          std::to_string(jobs);
                RunContext ctx;
                ctx.jobs = jobs;
                EpaOptions epa_options;
                epa_options.focus = study.focus;
                epa_options.horizon = study.horizon;
                epa_options.ground_once = ground_once;
                epa_options.static_prefilter = static_prefilter;
                epa_options.ctx = &ctx;
                auto epa = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                            study.mitigations, epa_options);
                ASSERT_TRUE(epa.ok()) << label << ": " << epa.error();

                FrontierOptions options;
                options.ctx = &ctx;
                options.max_card = study.max_card;
                auto result = run_frontier(epa.value(), options);
                ASSERT_TRUE(result.ok()) << label << ": " << result.error();
                const FrontierResult& frontier = result.value();

                EXPECT_EQ(frontier_ids(frontier), truth) << label;
                EXPECT_EQ(frontier.universe_size, universe_size) << label;
                EXPECT_EQ(frontier.candidates, expected_candidates) << label;
                if (!ground_once) {
                    // No cache, no certificate, no claim: degraded sweep.
                    EXPECT_FALSE(frontier.certificate.has_value()) << label;
                    EXPECT_FALSE(frontier.pruning) << label;
                    EXPECT_EQ(frontier.pruned, 0u) << label;
                } else if (study.expect_monotone) {
                    ASSERT_TRUE(frontier.certificate.has_value()) << label;
                    EXPECT_TRUE(frontier.certificate->monotone) << label;
                    EXPECT_TRUE(frontier.pruning) << label;
                    EXPECT_EQ(frontier.evaluated + frontier.pruned, frontier.candidates)
                        << label;
                    EXPECT_GT(frontier.pruned, 0u) << label;
                } else {
                    ASSERT_TRUE(frontier.certificate.has_value()) << label;
                    EXPECT_FALSE(frontier.certificate->monotone) << label;
                    EXPECT_FALSE(frontier.certificate->offenders.empty()) << label;
                    EXPECT_FALSE(frontier.pruning) << label;
                    EXPECT_EQ(frontier.evaluated, frontier.candidates) << label;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Studies, FrontierDifferential,
                         ::testing::Values(+[] { return make_chain(6); }, &make_watertank),
                         [](const ::testing::TestParamInfo<Study (*)()>& info) {
                             return info.index == 0 ? "chain6" : "watertank";
                         });

TEST(Frontier, MonotoneChainPrunesEverythingAboveTheSingletons) {
    const Study study = make_chain(5);
    EpaOptions epa_options;
    epa_options.focus = study.focus;
    epa_options.horizon = study.horizon;
    auto epa = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                study.mitigations, epa_options);
    ASSERT_TRUE(epa.ok()) << epa.error();
    auto result = run_frontier(epa.value(), {});
    ASSERT_TRUE(result.ok()) << result.error();
    const FrontierResult& frontier = result.value();
    // Every singleton fault propagates to the tail asset, so the antichain
    // is exactly the 5 singletons; the empty set plus the singletons are the
    // only evaluations, everything larger is pruned by the certificate.
    EXPECT_TRUE(frontier.pruning);
    EXPECT_EQ(frontier.minimal_hazards.size(), 5u);
    EXPECT_EQ(frontier.candidates, 32u);
    EXPECT_EQ(frontier.evaluated, 6u);
    EXPECT_EQ(frontier.pruned, 26u);
}

TEST(Frontier, MaxCardBoundsTheSweepAndComponentFilterShrinksTheUniverse) {
    const Study study = make_chain(6);
    EpaOptions epa_options;
    epa_options.focus = study.focus;
    epa_options.horizon = study.horizon;
    auto epa = ErrorPropagationAnalysis::create(*study.system, study.requirements,
                                                study.mitigations, epa_options);
    ASSERT_TRUE(epa.ok()) << epa.error();

    FrontierOptions options;
    options.max_card = 1;
    const std::set<model::ComponentId> keep = {"c0", "c2", "c4"};
    options.component_filter = &keep;
    auto result = run_frontier(epa.value(), options);
    ASSERT_TRUE(result.ok()) << result.error();
    const FrontierResult& frontier = result.value();
    EXPECT_EQ(frontier.universe_size, 3u);
    EXPECT_EQ(frontier.skipped_faults, 3u);
    EXPECT_EQ(frontier.max_card, 1u);
    EXPECT_EQ(frontier.candidates, 4u);  // empty set + 3 singletons
    EXPECT_EQ(frontier.minimal_hazards.size(), 3u);
}

/// Every user-visible rendering of a report, for byte-identity checks.
std::string renderings(const core::AssessmentReport& report) {
    return core::render_markdown(report) + "\n===\n" + core::render_risk_csv(report) +
           "\n===\n" + core::render_report_json(report);
}

/// One run under a fresh context with `jobs` worker lanes.
Result<core::AssessmentReport> run_at(const core::RiskAssessment& assessment,
                                      const core::AssessmentConfig& config,
                                      std::size_t jobs = 1) {
    RunContext ctx;
    ctx.jobs = jobs;
    return assessment.run(config, ctx);
}

class ExhaustiveJournalTest : public ::testing::Test {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(ExhaustiveJournalTest, ResumeAfterMidRunKillReproducesCleanReport) {
    auto built = core::WaterTankCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<core::WaterTankCaseStudy>(std::move(built).value());
    core::RiskAssessment assessment(cs->system, cs->requirements, cs->topology_requirements,
                                    cs->matrix, cs->mitigations);
    core::AssessmentConfig config;
    config.horizon = cs->horizon;
    config.include_attack_scenarios = false;
    config.exhaustive = true;
    config.max_card = 2;

    auto clean = run_at(assessment, config);
    ASSERT_TRUE(clean.ok()) << clean.error();
    EXPECT_TRUE(clean.value().exhaustive.enabled);

    const std::string journal = ::testing::TempDir() + "cprisk_exhaustive_kill.jsonl";
    std::remove(journal.c_str());
    core::AssessmentConfig journaled = config;
    journaled.journal_path = journal;
    fault::arm("core.journal.append", 3);
    auto killed = run_at(assessment, journaled);
    fault::reset();
    ASSERT_FALSE(killed.ok());

    auto contents = core::load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    EXPECT_EQ(contents.value().records.size(), 2u);

    // Resume under a different job count: frontier journals drain in strict
    // candidate order, so the bytes and the report are identical anyway.
    journaled.resume = true;
    auto resumed = run_at(assessment, journaled, 4);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ(resumed.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed.value()), renderings(clean.value()));

    auto replayed = run_at(assessment, journaled);
    ASSERT_TRUE(replayed.ok()) << replayed.error();
    EXPECT_EQ(replayed.value().resumed_scenarios, replayed.value().scenario_count);
    EXPECT_EQ(renderings(replayed.value()), renderings(clean.value()));
    std::remove(journal.c_str());
}

TEST_F(ExhaustiveJournalTest, ExhaustiveJournalRefusesNonExhaustiveResume) {
    auto built = core::WaterTankCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<core::WaterTankCaseStudy>(std::move(built).value());
    core::RiskAssessment assessment(cs->system, cs->requirements, cs->topology_requirements,
                                    cs->matrix, cs->mitigations);
    const std::string journal = ::testing::TempDir() + "cprisk_exhaustive_cfg.jsonl";
    std::remove(journal.c_str());

    core::AssessmentConfig config;
    config.horizon = cs->horizon;
    config.include_attack_scenarios = false;
    config.exhaustive = true;
    config.max_card = 2;
    config.journal_path = journal;
    ASSERT_TRUE(run_at(assessment, config).ok());

    core::AssessmentConfig mismatched = config;
    mismatched.resume = true;
    mismatched.exhaustive = false;
    auto refused = run_at(assessment, mismatched);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().find("configuration"), std::string::npos) << refused.error();

    core::AssessmentConfig card_mismatch = config;
    card_mismatch.resume = true;
    card_mismatch.max_card = 3;
    auto card_refused = run_at(assessment, card_mismatch);
    ASSERT_FALSE(card_refused.ok());
    EXPECT_NE(card_refused.error().find("configuration"), std::string::npos)
        << card_refused.error();
    std::remove(journal.c_str());
}

}  // namespace
}  // namespace cprisk::epa
