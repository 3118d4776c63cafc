// FTA baseline: tree construction, minimal cut sets, qualitative top
// likelihood, and the EPA -> FTA bridge on the case study.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/antichain.hpp"

#include "common/strings.hpp"
#include "core/watertank.hpp"
#include "fta/fault_tree.hpp"
#include "security/threat_actor.hpp"

namespace cprisk::fta {
namespace {

FaultTree classic_tree() {
    // top = OR(and1, e3); and1 = AND(e1, e2)
    FaultTree tree;
    EXPECT_TRUE(tree.add_event({"e1", "", qual::Level::Low}).ok());
    EXPECT_TRUE(tree.add_event({"e2", "", qual::Level::Medium}).ok());
    EXPECT_TRUE(tree.add_event({"e3", "", qual::Level::VeryLow}).ok());
    EXPECT_TRUE(tree.add_gate({"and1", GateType::And, {"e1", "e2"}}).ok());
    EXPECT_TRUE(tree.add_gate({"top", GateType::Or, {"and1", "e3"}}).ok());
    EXPECT_TRUE(tree.set_top("top").ok());
    return tree;
}

TEST(FaultTree, Validation) {
    auto tree = classic_tree();
    EXPECT_TRUE(tree.validate().ok());

    FaultTree no_top;
    ASSERT_TRUE(no_top.add_event({"e", "", qual::Level::Low}).ok());
    EXPECT_FALSE(no_top.validate().ok());

    FaultTree dangling;
    ASSERT_TRUE(dangling.add_gate({"g", GateType::Or, {"ghost"}}).ok());
    ASSERT_TRUE(dangling.set_top("g").ok());
    EXPECT_FALSE(dangling.validate().ok());
}

TEST(FaultTree, CycleDetected) {
    FaultTree tree;
    ASSERT_TRUE(tree.add_event({"e", "", qual::Level::Low}).ok());
    ASSERT_TRUE(tree.add_gate({"g1", GateType::Or, {"g2"}}).ok());
    ASSERT_TRUE(tree.add_gate({"g2", GateType::Or, {"g1", "e"}}).ok());
    ASSERT_TRUE(tree.set_top("g1").ok());
    auto result = tree.validate();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().find("cycle"), std::string::npos);
}

TEST(FaultTree, DuplicateAndEmptyRejected) {
    FaultTree tree;
    ASSERT_TRUE(tree.add_event({"x", "", qual::Level::Low}).ok());
    EXPECT_FALSE(tree.add_event({"x", "", qual::Level::Low}).ok());
    EXPECT_FALSE(tree.add_gate({"x", GateType::Or, {"x"}}).ok());
    EXPECT_FALSE(tree.add_gate({"g", GateType::Or, {}}).ok());
    EXPECT_FALSE(tree.set_top("ghost").ok());
}

TEST(FaultTree, MinimalCutSets) {
    auto cut_sets = classic_tree().minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok()) << cut_sets.error();
    // {e3} and {e1, e2}.
    ASSERT_EQ(cut_sets.value().size(), 2u);
    EXPECT_EQ(cut_sets.value()[0], (CutSet{"e3"}));
    EXPECT_EQ(cut_sets.value()[1], (CutSet{"e1", "e2"}));
}

TEST(FaultTree, AbsorptionRemovesSupersets) {
    // top = OR(e1, AND(e1, e2)): {e1} absorbs {e1,e2}.
    FaultTree tree;
    ASSERT_TRUE(tree.add_event({"e1", "", qual::Level::Low}).ok());
    ASSERT_TRUE(tree.add_event({"e2", "", qual::Level::Low}).ok());
    ASSERT_TRUE(tree.add_gate({"and1", GateType::And, {"e1", "e2"}}).ok());
    ASSERT_TRUE(tree.add_gate({"top", GateType::Or, {"e1", "and1"}}).ok());
    ASSERT_TRUE(tree.set_top("top").ok());
    auto cut_sets = tree.minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok());
    ASSERT_EQ(cut_sets.value().size(), 1u);
    EXPECT_EQ(cut_sets.value()[0], (CutSet{"e1"}));
}

TEST(FaultTree, NestedGates) {
    // top = AND(OR(a,b), OR(c,d)) -> 4 minimal cut sets of size 2.
    FaultTree tree;
    for (const char* id : {"a", "b", "c", "d"}) {
        ASSERT_TRUE(tree.add_event({id, "", qual::Level::Low}).ok());
    }
    ASSERT_TRUE(tree.add_gate({"or1", GateType::Or, {"a", "b"}}).ok());
    ASSERT_TRUE(tree.add_gate({"or2", GateType::Or, {"c", "d"}}).ok());
    ASSERT_TRUE(tree.add_gate({"top", GateType::And, {"or1", "or2"}}).ok());
    ASSERT_TRUE(tree.set_top("top").ok());
    auto cut_sets = tree.minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok());
    EXPECT_EQ(cut_sets.value().size(), 4u);
}

TEST(FaultTree, TopLikelihood) {
    // OR picks the most likely path: single event e3 (VL) vs AND(L, M)
    // degraded by one step: min(L,M)=L -> VL. Top = max(VL, VL) = VL.
    auto likelihood = classic_tree().top_likelihood();
    ASSERT_TRUE(likelihood.ok());
    EXPECT_EQ(likelihood.value(), qual::Level::VeryLow);
}

TEST(FaultTree, SingleEventDominates) {
    FaultTree tree;
    ASSERT_TRUE(tree.add_event({"rare", "", qual::Level::VeryLow}).ok());
    ASSERT_TRUE(tree.add_event({"common", "", qual::Level::High}).ok());
    ASSERT_TRUE(tree.add_gate({"top", GateType::Or, {"rare", "common"}}).ok());
    ASSERT_TRUE(tree.set_top("top").ok());
    EXPECT_EQ(tree.top_likelihood().value(), qual::Level::High);
}

TEST(FaultTree, Importance) {
    auto tree = classic_tree();
    // e3 sits in the likeliest (equal) cut set on its own.
    EXPECT_EQ(tree.importance("e3").value(), qual::Level::VeryLow);
    EXPECT_EQ(tree.importance("e1").value(), qual::Level::VeryLow);
    EXPECT_FALSE(tree.importance("ghost").ok());
}

TEST(FaultTree, ToStringRendersStructure) {
    const std::string text = classic_tree().to_string();
    EXPECT_NE(text.find("top (OR)"), std::string::npos);
    EXPECT_NE(text.find("and1 (AND)"), std::string::npos);
    EXPECT_NE(text.find("e3 [VL]"), std::string::npos);
}

// --- EPA -> FTA bridge on the case study -----------------------------------

class FtaBridgeFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        auto built = core::WaterTankCaseStudy::build();
        ASSERT_TRUE(built.ok()) << built.error();
        cs_ = new core::WaterTankCaseStudy(std::move(built).value());

        epa::EpaOptions options;
        options.focus = epa::AnalysisFocus::Behavioral;
        options.horizon = cs_->horizon;
        auto epa = epa::ErrorPropagationAnalysis::create(cs_->system, cs_->requirements,
                                                         cs_->mitigations, options);
        ASSERT_TRUE(epa.ok()) << epa.error();

        // Exhaustive verdicts over fault combinations (no mitigations).
        security::ScenarioSpaceOptions space_options;
        space_options.max_simultaneous_faults = 2;
        space_options.include_attack_scenarios = false;
        auto space = security::ScenarioSpace::build(cs_->system, cs_->matrix,
                                                    security::standard_threat_actors(),
                                                    space_options);
        auto verdicts = epa.value().evaluate_all(space, {});
        ASSERT_TRUE(verdicts.ok()) << verdicts.error();
        verdicts_ = new std::vector<epa::ScenarioVerdict>(std::move(verdicts).value());
    }
    static void TearDownTestSuite() {
        delete verdicts_;
        delete cs_;
        verdicts_ = nullptr;
        cs_ = nullptr;
    }

    static core::WaterTankCaseStudy* cs_;
    static std::vector<epa::ScenarioVerdict>* verdicts_;
};

core::WaterTankCaseStudy* FtaBridgeFixture::cs_ = nullptr;
std::vector<epa::ScenarioVerdict>* FtaBridgeFixture::verdicts_ = nullptr;

TEST_F(FtaBridgeFixture, R1TreeHasExpectedMinimalCutSets) {
    auto tree = from_verdicts("r1", *verdicts_, cs_->system);
    ASSERT_TRUE(tree.ok()) << tree.error();
    ASSERT_TRUE(tree.value().validate().ok());
    auto cut_sets = tree.value().minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok());
    // The overflow hazard has two first-order causes: F2 (output valve stuck
    // closed) and F4 (workstation compromise); every multi-fault violating
    // combination contains one of them and is absorbed.
    std::set<CutSet> expected = {{"output_valve.stuck_at_closed"}, {"workstation.infected"}};
    std::set<CutSet> actual(cut_sets.value().begin(), cut_sets.value().end());
    // Additional independent causes may exist (e.g. controller compromise);
    // the two canonical ones must be present as singletons.
    for (const CutSet& cut : expected) {
        EXPECT_TRUE(actual.count(cut) > 0) << "missing cut set";
    }
    for (const CutSet& cut : actual) {
        // Minimality: no cut set may strictly contain a canonical singleton.
        for (const CutSet& singleton : expected) {
            if (cut != singleton) {
                EXPECT_FALSE(std::includes(cut.begin(), cut.end(), singleton.begin(),
                                           singleton.end()))
                    << "absorption failed";
            }
        }
    }
}

TEST_F(FtaBridgeFixture, R2TreeRequiresAlarmSuppression) {
    auto tree = from_verdicts("r2", *verdicts_, cs_->system);
    ASSERT_TRUE(tree.ok()) << tree.error();
    auto cut_sets = tree.value().minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok());
    // R2 (missed alert) needs overflow AND a silenced operator view: either
    // the single-point workstation compromise, or F2 combined with an
    // alarm-path fault.
    for (const CutSet& cut : cut_sets.value()) {
        const bool has_compromise =
            cut.count("workstation.infected") > 0 || cut.count("tank_ctrl.compromised") > 0;
        const bool has_overflow_and_silence =
            cut.size() >= 2 && cut.count("output_valve.stuck_at_closed") > 0;
        EXPECT_TRUE(has_compromise || has_overflow_and_silence)
            << "unexpected cut set for r2";
    }
}

TEST_F(FtaBridgeFixture, TopLikelihoodMatchesDominantCause) {
    auto tree = from_verdicts("r1", *verdicts_, cs_->system);
    ASSERT_TRUE(tree.ok());
    auto top = tree.value().top_likelihood();
    ASSERT_TRUE(top.ok());
    // The workstation infection (M likelihood) dominates the rare valve
    // fault: the FTA qualitative top likelihood agrees.
    EXPECT_EQ(top.value(), qual::Level::Medium);
}

TEST_F(FtaBridgeFixture, UnviolatedRequirementYieldsNoTree) {
    EXPECT_FALSE(from_verdicts("nonexistent", *verdicts_, cs_->system).ok());
}

TEST(FaultTree, MinimalCutSetsMatchSharedAntichainAbsorption) {
    // Differential for the extracted absorption (common/antichain.hpp): an
    // OR-of-ANDs tree expands to exactly its gate family, so its minimal
    // cut sets must equal minimal_sets() applied to the family directly.
    std::uint32_t state = 0x9e3779b9u;
    const auto next = [&state] {
        state = state * 1664525u + 1013904223u;
        return state >> 16;
    };
    FaultTree tree;
    for (int e = 0; e < 8; ++e) {
        ASSERT_TRUE(tree.add_event({numbered("e", e), "", qual::Level::Low}).ok());
    }
    std::vector<CutSet> family;
    Gate top{"top", GateType::Or, {}};
    for (int g = 0; g < 12; ++g) {
        CutSet members;
        const std::size_t size = 1 + next() % 3;
        while (members.size() < size) members.insert(numbered("e", next() % 8));
        Gate gate{numbered("g", g), GateType::And,
                  std::vector<std::string>(members.begin(), members.end())};
        ASSERT_TRUE(tree.add_gate(std::move(gate)).ok());
        top.inputs.push_back(numbered("g", g));
        family.push_back(std::move(members));
    }
    ASSERT_TRUE(tree.add_gate(std::move(top)).ok());
    ASSERT_TRUE(tree.set_top("top").ok());

    auto cut_sets = tree.minimal_cut_sets();
    ASSERT_TRUE(cut_sets.ok()) << cut_sets.error();
    EXPECT_EQ(cut_sets.value(), minimal_sets(family));
}

}  // namespace
}  // namespace cprisk::fta
