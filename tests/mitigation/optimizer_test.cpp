// Mitigation selection: exact B&B, ASP engine agreement (ablation), budget
// constraints, multi-phase planning.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "mitigation/optimizer.hpp"

namespace cprisk::mitigation {
namespace {

/// Two threats: t1 coverable by m1 (cost 2) or m2 (cost 5); t2 needs m3
/// (cost 4) for one mutation and m1/m3 for the other.
MitigationProblem small_problem() {
    MitigationProblem problem;
    problem.candidates = {
        {"m1", "Patch", 2},
        {"m2", "Segment", 5},
        {"m3", "Train", 4},
    };
    Threat t1;
    t1.scenario_id = "t1";
    t1.loss = 100;
    t1.mutation_covers = {{"m1", "m2"}};
    Threat t2;
    t2.scenario_id = "t2";
    t2.loss = 50;
    t2.mutation_covers = {{"m3"}, {"m1", "m3"}};
    problem.threats = {t1, t2};
    return problem;
}

TEST(Problem, BlockingSemantics) {
    auto problem = small_problem();
    EXPECT_TRUE(MitigationProblem::blocks(problem.threats[0], {"m1"}));
    EXPECT_TRUE(MitigationProblem::blocks(problem.threats[0], {"m2"}));
    EXPECT_FALSE(MitigationProblem::blocks(problem.threats[0], {"m3"}));
    EXPECT_TRUE(MitigationProblem::blocks(problem.threats[1], {"m3"}));
    EXPECT_FALSE(MitigationProblem::blocks(problem.threats[1], {"m1"}));  // first mutation open
}

TEST(Problem, TotalCost) {
    auto problem = small_problem();
    EXPECT_EQ(problem.total_cost({}), 150);          // all losses
    EXPECT_EQ(problem.total_cost({"m1"}), 2 + 50);   // t1 blocked
    EXPECT_EQ(problem.total_cost({"m1", "m3"}), 6);  // everything blocked
}

TEST(Problem, Blockable) {
    Threat hopeless;
    hopeless.mutation_covers = {{}};
    EXPECT_FALSE(hopeless.blockable());
    Threat fine;
    fine.mutation_covers = {{"m"}};
    EXPECT_TRUE(fine.blockable());
}

TEST(ExactOptimizer, FindsOptimum) {
    auto selection = optimize_exact(small_problem());
    EXPECT_EQ(selection.chosen, (std::vector<std::string>{"m1", "m3"}));
    EXPECT_EQ(selection.mitigation_cost, 6);
    EXPECT_EQ(selection.residual_loss, 0);
    EXPECT_TRUE(selection.unblocked.empty());
}

TEST(ExactOptimizer, LeavesCheapThreatsUnblocked) {
    auto problem = small_problem();
    problem.threats[1].loss = 3;  // blocking t2 costs 4 via m3 — not worth it
    auto selection = optimize_exact(problem);
    EXPECT_EQ(selection.chosen, (std::vector<std::string>{"m1"}));
    EXPECT_EQ(selection.residual_loss, 3);
    EXPECT_EQ(selection.unblocked, (std::vector<std::string>{"t2"}));
}

TEST(ExactOptimizer, BudgetConstraint) {
    OptimizerOptions options;
    options.budget = 4;  // cannot afford m1+m3
    auto selection = optimize_exact(small_problem(), options);
    EXPECT_LE(selection.mitigation_cost, 4);
    // Best under budget: m3 (cost 4) blocks t2 (50); t1 (100) stays... or
    // m1 (cost 2) blocks t1. m1 is better: residual 50 vs 100.
    EXPECT_EQ(selection.chosen, (std::vector<std::string>{"m1"}));
    EXPECT_EQ(selection.residual_loss, 50);
}

TEST(ExactOptimizer, ZeroBudgetChoosesNothing) {
    OptimizerOptions options;
    options.budget = 0;
    auto selection = optimize_exact(small_problem(), options);
    EXPECT_TRUE(selection.chosen.empty());
    EXPECT_EQ(selection.residual_loss, 150);
}

TEST(ExactOptimizer, UnblockableThreatIgnoredGracefully) {
    auto problem = small_problem();
    Threat hopeless;
    hopeless.scenario_id = "t3";
    hopeless.loss = 1000;
    hopeless.mutation_covers = {{}};
    problem.threats.push_back(hopeless);
    auto selection = optimize_exact(problem);
    EXPECT_EQ(selection.chosen, (std::vector<std::string>{"m1", "m3"}));
    EXPECT_EQ(selection.residual_loss, 1000);
}

TEST(AspOptimizer, AgreesWithExact) {
    auto problem = small_problem();
    auto exact = optimize_exact(problem);
    auto asp = optimize_asp(problem);
    ASSERT_TRUE(asp.ok()) << asp.error();
    EXPECT_EQ(asp.value().total_cost(), exact.total_cost());
    EXPECT_EQ(asp.value().chosen, exact.chosen);
}

TEST(AspOptimizer, AgreesWithExactUnderBudget) {
    OptimizerOptions options;
    options.budget = 4;
    auto exact = optimize_exact(small_problem(), options);
    auto asp = optimize_asp(small_problem(), options);
    ASSERT_TRUE(asp.ok()) << asp.error();
    EXPECT_EQ(asp.value().total_cost(), exact.total_cost());
}

TEST(AspOptimizer, RandomizedAgreementSweep) {
    // Property: both engines find the same optimal total cost across a
    // deterministic family of generated problems.
    for (int seed = 0; seed < 12; ++seed) {
        MitigationProblem problem;
        const int n_mitigations = 3 + seed % 3;
        for (int m = 0; m < n_mitigations; ++m) {
            problem.candidates.push_back(Candidate{
                numbered("m", m), numbered("M", m), 1 + (seed * 7 + m * 3) % 5});
        }
        const int n_threats = 2 + seed % 3;
        for (int t = 0; t < n_threats; ++t) {
            Threat threat;
            threat.scenario_id = numbered("t", t);
            threat.loss = 5 + (seed * 11 + t * 13) % 40;
            const int n_mutations = 1 + (seed + t) % 2;
            for (int u = 0; u < n_mutations; ++u) {
                std::vector<std::string> covers;
                for (int m = 0; m < n_mitigations; ++m) {
                    if ((seed + t + u + m) % 2 == 0) covers.push_back(numbered("m", m));
                }
                threat.mutation_covers.push_back(std::move(covers));
            }
            problem.threats.push_back(std::move(threat));
        }
        auto exact = optimize_exact(problem);
        auto asp = optimize_asp(problem);
        ASSERT_TRUE(asp.ok()) << asp.error();
        EXPECT_EQ(asp.value().total_cost(), exact.total_cost()) << "seed " << seed;
    }
}

TEST(Phases, MultiPhasePlanCoversEverythingEventually) {
    auto phases = plan_phases(small_problem(), /*budget_per_phase=*/4);
    ASSERT_GE(phases.size(), 2u);
    EXPECT_EQ(phases[0].number, 1);
    // Phase budgets respected.
    for (const Phase& phase : phases) {
        EXPECT_LE(phase.selection.mitigation_cost, 4);
    }
    // Across phases, both threats end up blocked.
    std::vector<std::string> all_chosen;
    for (const Phase& phase : phases) {
        all_chosen.insert(all_chosen.end(), phase.selection.chosen.begin(),
                          phase.selection.chosen.end());
    }
    auto problem = small_problem();
    for (const Threat& threat : problem.threats) {
        EXPECT_TRUE(MitigationProblem::blocks(threat, all_chosen)) << threat.scenario_id;
    }
}

TEST(Phases, FirstPhaseTakesHighestValueAction) {
    // "if a company has a limited budget let's first deal with the most
    // potential and severe risk" — phase 1 must block the 100-loss threat.
    auto phases = plan_phases(small_problem(), 4);
    ASSERT_FALSE(phases.empty());
    auto problem = small_problem();
    EXPECT_TRUE(MitigationProblem::blocks(problem.threats[0], phases[0].selection.chosen));
}

TEST(Phases, NoThreatsNoPhases) {
    MitigationProblem empty;
    empty.candidates = {{"m1", "M1", 1}};
    EXPECT_TRUE(plan_phases(empty, 10).empty());
}

TEST(Encoding, AspProgramShape) {
    auto text = encode_asp(small_problem());
    EXPECT_NE(text.find("cand(m1)"), std::string::npos);
    EXPECT_NE(text.find("{ active(M) : cand(M) }."), std::string::npos);
    EXPECT_NE(text.find(":~ active(M), cost(M, C). [C@1, M]"), std::string::npos);
    EXPECT_NE(text.find("loss(t1, 100)"), std::string::npos);
}

}  // namespace
}  // namespace cprisk::mitigation
