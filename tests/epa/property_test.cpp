// EPA property tests over generated random models: monotonicity of
// violations in the mutation set (topology focus), anti-monotonicity in the
// mitigation set, and propagation-path invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.hpp"
#include "epa/epa.hpp"

namespace cprisk::epa {
namespace {

using model::Component;
using model::ElementType;
using model::RelationType;
using security::AttackScenario;
using security::Mutation;

class Rng {
public:
    explicit Rng(unsigned seed) : state_(seed * 2654435761u + 17) {}
    unsigned next() {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 17;
        state_ ^= state_ << 5;
        return state_;
    }
    int below(int n) { return static_cast<int>(next() % static_cast<unsigned>(n)); }

private:
    unsigned state_;
};

/// Random DAG model: n components, forward edges, every component carries a
/// "fail" mode.
model::SystemModel random_model(unsigned seed, int n) {
    Rng rng(seed);
    model::SystemModel m;
    for (int i = 0; i < n; ++i) {
        Component c;
        c.id = numbered("c", i);
        c.name = c.id;
        c.type = i + 1 == n ? ElementType::Equipment : ElementType::Controller;
        c.asset_value = qual::level_from_index(rng.below(5));
        c.fault_modes = {model::FaultMode{"fail", model::FaultEffect::Corruption, "",
                                          qual::Level::Medium, qual::Level::Low}};
        EXPECT_TRUE(m.add_component(std::move(c)).ok());
    }
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (rng.below(3) != 0) continue;
            EXPECT_TRUE(m.add_relation({numbered("c", i), numbered("c", j),
                                        RelationType::SignalFlow, ""})
                            .ok());
        }
    }
    return m;
}

AttackScenario scenario_of(std::vector<Mutation> mutations) {
    AttackScenario s;
    s.id = "p";
    s.mutations = std::move(mutations);
    return s;
}

class EpaProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(EpaProperties, ViolationsMonotoneInMutations) {
    const unsigned seed = GetParam();
    const int n = 6;
    auto m = random_model(seed, n);
    std::vector<Requirement> requirements;
    for (int i = 0; i < n; ++i) {
        requirements.push_back(Requirement::no_error_reaches(numbered("c", i)));
    }
    EpaOptions options;
    options.focus = AnalysisFocus::Topology;
    options.horizon = n;
    auto epa = ErrorPropagationAnalysis::create(m, requirements, {}, options);
    ASSERT_TRUE(epa.ok()) << epa.error();

    Rng rng(seed + 99);
    std::vector<Mutation> small;
    for (int i = 0; i < n; ++i) {
        if (rng.below(3) == 0) small.push_back({numbered("c", i), "fail"});
    }
    std::vector<Mutation> large = small;
    large.push_back({numbered("c", rng.below(n)), "fail"});

    auto small_verdict = epa.value().evaluate(scenario_of(small), {});
    auto large_verdict = epa.value().evaluate(scenario_of(large), {});
    ASSERT_TRUE(small_verdict.ok()) << small_verdict.error();
    ASSERT_TRUE(large_verdict.ok()) << large_verdict.error();

    // Every violation of the smaller mutation set persists in the superset.
    for (const std::string& requirement : small_verdict.value().violated_requirements) {
        EXPECT_TRUE(large_verdict.value().violates(requirement))
            << "seed " << seed << ": adding a fault removed violation " << requirement;
    }
    // And the propagation reach can only grow.
    EXPECT_GE(large_verdict.value().propagation.size(),
              small_verdict.value().propagation.size());
}

TEST_P(EpaProperties, MitigationsAntiMonotone) {
    const unsigned seed = GetParam();
    const int n = 5;
    auto m = random_model(seed, n);
    MitigationMap map;
    for (int i = 0; i < n; ++i) {
        map.add(numbered("patch", i), numbered("c", i), "fail");
    }
    std::vector<Requirement> requirements = {
        Requirement::no_error_reaches(numbered("c", n - 1))};
    EpaOptions options;
    options.focus = AnalysisFocus::Topology;
    options.horizon = n;
    auto epa = ErrorPropagationAnalysis::create(m, requirements, map, options);
    ASSERT_TRUE(epa.ok()) << epa.error();

    std::vector<Mutation> mutations;
    for (int i = 0; i < n; ++i) mutations.push_back({numbered("c", i), "fail"});
    const auto scenario = scenario_of(mutations);

    std::vector<std::string> active;
    std::size_t previous_violations = requirements.size() + 1;
    for (int i = 0; i < n; ++i) {
        auto verdict = epa.value().evaluate(scenario, active);
        ASSERT_TRUE(verdict.ok()) << verdict.error();
        EXPECT_LE(verdict.value().violated_requirements.size(), previous_violations)
            << "seed " << seed << ": adding a mitigation added a violation";
        previous_violations = verdict.value().violated_requirements.size();
        active.push_back(numbered("patch", i));
    }
    // With every component patched, nothing is injected.
    auto fully_mitigated = epa.value().evaluate(scenario, active);
    ASSERT_TRUE(fully_mitigated.ok());
    EXPECT_TRUE(fully_mitigated.value().injected.empty());
    EXPECT_FALSE(fully_mitigated.value().any_violation());
}

TEST_P(EpaProperties, PropagationCoversInjectedComponents) {
    const unsigned seed = GetParam();
    const int n = 6;
    auto m = random_model(seed, n);
    EpaOptions options;
    options.focus = AnalysisFocus::Topology;
    options.horizon = n;
    auto epa = ErrorPropagationAnalysis::create(m, {}, {}, options);
    ASSERT_TRUE(epa.ok()) << epa.error();

    Rng rng(seed + 7);
    std::vector<Mutation> mutations = {{numbered("c", rng.below(n)), "fail"},
                                       {numbered("c", rng.below(n)), "fail"}};
    auto verdict = epa.value().evaluate(scenario_of(mutations), {});
    ASSERT_TRUE(verdict.ok()) << verdict.error();

    // Every injected component appears in the propagation trace at t=0, and
    // the trace is a subset of the injected components' forward closures.
    for (const Mutation& mutation : verdict.value().injected) {
        const bool present = std::any_of(
            verdict.value().propagation.begin(), verdict.value().propagation.end(),
            [&](const PropagationStep& step) {
                return step.component == mutation.component && step.time == 0;
            });
        EXPECT_TRUE(present) << "seed " << seed;
    }
    std::set<model::ComponentId> closure;
    for (const Mutation& mutation : mutations) {
        closure.insert(mutation.component);
        auto reachable = m.reachable_from(mutation.component);
        closure.insert(reachable.begin(), reachable.end());
    }
    for (const PropagationStep& step : verdict.value().propagation) {
        EXPECT_TRUE(closure.count(step.component) > 0)
            << "seed " << seed << ": error appeared outside the reachable closure";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpaProperties, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace cprisk::epa
