// Influence graphs: sign propagation, ambiguity, cycles, the water-balance
// example.
#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "qualitative/influence.hpp"

namespace cprisk::qual {
namespace {

/// Open-loop water balance: inflow raises the level, outflow lowers it.
InfluenceGraph water_balance() {
    InfluenceGraph g;
    EXPECT_TRUE(g.add_influence("inflow", "level", Sign::Positive).ok());
    EXPECT_TRUE(g.add_influence("outflow", "level", Sign::Negative).ok());
    return g;
}

/// Closed-loop variant: the level raises the (proportional) outflow.
InfluenceGraph water_balance_with_control() {
    InfluenceGraph g = water_balance();
    EXPECT_TRUE(g.add_influence("level", "outflow", Sign::Positive).ok());
    return g;
}

TEST(Influence, Basics) {
    auto g = water_balance_with_control();
    EXPECT_EQ(g.variable_count(), 3u);
    EXPECT_TRUE(g.has_variable("level"));
    EXPECT_FALSE(g.has_variable("pressure"));
    EXPECT_FALSE(g.add_influence("x", "x", Sign::Positive).ok());
    EXPECT_FALSE(g.add_influence("a", "b", Sign::Ambiguous).ok());
}

TEST(Influence, DirectEffect) {
    auto g = water_balance();
    EXPECT_EQ(g.effect("inflow", Sign::Positive, "level").value(), Sign::Positive);
    EXPECT_EQ(g.effect("inflow", Sign::Negative, "level").value(), Sign::Negative);
    EXPECT_EQ(g.effect("outflow", Sign::Positive, "level").value(), Sign::Negative);
}

TEST(Influence, NegativeFeedbackIsHonestlyAmbiguous) {
    // The classic QR over-abstraction: with the control loop closed, a
    // higher inflow raises the level, which raises the outflow, which pushes
    // the level back down — pure sign calculus cannot rank the magnitudes,
    // so the steady-state trend of the level is Ambiguous. This is exactly
    // the kind of spurious uncertainty the paper's refinement step (or the
    // quantitative simulator) resolves.
    auto g = water_balance_with_control();
    EXPECT_EQ(g.effect("inflow", Sign::Positive, "level").value(), Sign::Ambiguous);
    auto ambiguous = g.ambiguous_under("inflow", Sign::Positive);
    ASSERT_TRUE(ambiguous.ok());
    EXPECT_FALSE(ambiguous.value().empty());
}

TEST(Influence, UnaffectedVariablesStayZero) {
    InfluenceGraph g;
    ASSERT_TRUE(g.add_influence("a", "b", Sign::Positive).ok());
    g.add_variable("isolated");
    EXPECT_EQ(g.effect("a", Sign::Positive, "isolated").value(), Sign::Zero);
}

TEST(Influence, OpposingPathsAreAmbiguous) {
    // a -> x (+) and a -> y (-) -> x (+) gives x both + and - contributions.
    InfluenceGraph g;
    ASSERT_TRUE(g.add_influence("a", "x", Sign::Positive).ok());
    ASSERT_TRUE(g.add_influence("a", "y", Sign::Negative).ok());
    ASSERT_TRUE(g.add_influence("y", "x", Sign::Positive).ok());
    EXPECT_EQ(g.effect("a", Sign::Positive, "x").value(), Sign::Ambiguous);
    auto ambiguous = g.ambiguous_under("a", Sign::Positive);
    ASSERT_TRUE(ambiguous.ok());
    EXPECT_EQ(ambiguous.value(), std::vector<std::string>{"x"});
}

TEST(Influence, NegativeFeedbackCycleConverges) {
    // level -> outflow (+) -> level (-): the fixpoint must terminate and the
    // root keeps its exogenous direction.
    auto g = water_balance_with_control();
    auto trend = g.propagate("level", Sign::Positive);
    ASSERT_TRUE(trend.ok());
    EXPECT_EQ(trend.value().at("level"), Sign::Positive);
    EXPECT_EQ(trend.value().at("outflow"), Sign::Positive);
}

TEST(Influence, PositiveFeedbackCycleConverges) {
    InfluenceGraph g;
    ASSERT_TRUE(g.add_influence("a", "b", Sign::Positive).ok());
    ASSERT_TRUE(g.add_influence("b", "a", Sign::Positive).ok());
    auto trend = g.propagate("a", Sign::Positive);
    ASSERT_TRUE(trend.ok());
    EXPECT_EQ(trend.value().at("b"), Sign::Positive);
}

TEST(Influence, LongChainSignComposition) {
    // Chain of alternating influences: sign flips per negative edge.
    InfluenceGraph g;
    ASSERT_TRUE(g.add_influence("v0", "v1", Sign::Negative).ok());
    ASSERT_TRUE(g.add_influence("v1", "v2", Sign::Negative).ok());
    ASSERT_TRUE(g.add_influence("v2", "v3", Sign::Positive).ok());
    EXPECT_EQ(g.effect("v0", Sign::Positive, "v1").value(), Sign::Negative);
    EXPECT_EQ(g.effect("v0", Sign::Positive, "v2").value(), Sign::Positive);
    EXPECT_EQ(g.effect("v0", Sign::Positive, "v3").value(), Sign::Positive);
}

TEST(Influence, ErrorsOnUnknowns) {
    auto g = water_balance();
    EXPECT_FALSE(g.propagate("ghost", Sign::Positive).ok());
    EXPECT_FALSE(g.effect("inflow", Sign::Positive, "ghost").ok());
    EXPECT_FALSE(g.propagate("level", Sign::Zero).ok());
}

TEST(Influence, SoundnessAgainstLinearSystem) {
    // Property: for a random acyclic signed graph interpreted as a linear
    // system y = sum(sign * x), the qualitative trend must over-approximate
    // the concrete derivative sign.
    for (unsigned seed = 1; seed <= 10; ++seed) {
        InfluenceGraph g;
        const int n = 6;
        unsigned state = seed * 2654435761u;
        auto rand_bit = [&]() {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            return state & 1u;
        };
        // Edges only forward (acyclic), random signs.
        std::vector<std::vector<std::pair<int, double>>> incoming(n);
        for (int i = 0; i < n; ++i) {
            for (int j = i + 1; j < n; ++j) {
                if (rand_bit()) continue;
                const double w = rand_bit() ? 1.0 : -1.0;
                ASSERT_TRUE(g.add_influence(numbered("v", i), numbered("v", j), sign_of(w)).ok());
                incoming[j].push_back({i, w});
            }
        }
        if (!g.has_variable("v0")) g.add_variable("v0");
        auto trend = g.propagate("v0", Sign::Positive);
        ASSERT_TRUE(trend.ok());

        // Concrete: derivative of each vj w.r.t. v0 via forward accumulation.
        std::vector<double> derivative(n, 0.0);
        derivative[0] = 1.0;
        for (int j = 1; j < n; ++j) {
            for (const auto& [i, w] : incoming[j]) derivative[j] += w * derivative[i];
        }
        for (int j = 0; j < n; ++j) {
            const std::string name = numbered("v", j);
            if (trend.value().count(name) == 0) continue;
            EXPECT_TRUE(refines(sign_of(derivative[j]), trend.value().at(name)))
                << "seed " << seed << " variable " << name;
        }
    }
}

}  // namespace
}  // namespace cprisk::qual
