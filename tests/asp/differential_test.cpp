// Differential testing of the stable-model solver against the brute-force
// reference (reference_solver.hpp), which enumerates every subset of ground
// atoms, builds the reduct, computes its least model, and compares with the
// candidate. Random programs are generated from a deterministic PRNG so
// failures are reproducible.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "asp/absint/absint.hpp"
#include "asp/asp.hpp"
#include "common/strings.hpp"
#include "reference_solver.hpp"

namespace cprisk::asp {
namespace {

using reference::expect_text_matches_reference;

TEST(Differential, HandPickedPrograms) {
    const char* programs[] = {
        "a. b :- a. c :- b, not d.",
        "a :- not b. b :- not a.",
        "a :- not a.",  // unsat
        "a :- b. b :- a.",
        "a :- b. b :- a. b :- c. { c }.",
        "{ a }. { b }. :- a, b.",
        "{ a ; b ; c }. :- not a, not b, not c.",
        "1 { a ; b } 1.",
        "0 { a ; b } 1. c :- a.",
        "a :- not b. b :- not c. c :- not a.",  // odd loop through 3 -> unsat
        "{ a }. b :- a. c :- not b.",
        "p(1). p(2). { q(X) : p(X) } 1.",
        "p(1..3). q(X) :- p(X), not r(X). { r(2) }.",
        "a. { b } :- a. :- b, not c. { c } :- b.",
        "x :- y, not z. y :- x. { z }. y :- w. { w }.",
    };
    for (const char* text : programs) expect_text_matches_reference(text);
}

// Clingo counts each distinct (weight, priority, tuple) once. Two weak
// constraints sharing a tuple but not a weight are two cost elements, so
// the cost must not depend on statement order.
TEST(Differential, WeakConstraintsWithSharedTupleCountEachWeight) {
    const char* orders[] = {
        "a. b. :~ a. [2@1, x] :~ b. [3@1, x]",
        "a. b. :~ b. [3@1, x] :~ a. [2@1, x]",
    };
    for (const char* text : orders) {
        SCOPED_TRACE(text);
        expect_text_matches_reference(text);
        auto grounded = ground(parse_program(text).value());
        ASSERT_TRUE(grounded.ok()) << grounded.error();
        auto solved = solve(grounded.value());
        ASSERT_TRUE(solved.ok()) << solved.error();
        EXPECT_EQ(solved.value().best_cost, (std::map<long long, long long>{{1, 5}}));
        // The static certifier prices the same unique answer set.
        const auto analysis = absint::evaluate(grounded.value());
        ASSERT_TRUE(analysis.certified);
        EXPECT_EQ(absint::certified_cost(grounded.value(), analysis),
                  (std::map<long long, long long>{{1, 5}}));
    }

    // {a} costs 2, {b} costs 3, {a, b} costs 5: {a} is the only optimum.
    const char* choice = "{ a ; b }. :- not a, not b. :~ a. [2@1, x] :~ b. [3@1, x]";
    expect_text_matches_reference(choice);
    auto grounded = ground(parse_program(choice).value());
    ASSERT_TRUE(grounded.ok()) << grounded.error();
    auto solved = solve(grounded.value());
    ASSERT_TRUE(solved.ok()) << solved.error();
    ASSERT_EQ(solved.value().models.size(), 1u);
    EXPECT_EQ(solved.value().models[0].to_string(), "a [cost 2@1]");
}

// Deterministic xorshift PRNG for reproducible random programs.
class Rng {
public:
    explicit Rng(unsigned seed) : state_(seed * 2654435761u + 1) {}
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

/// Generates a random propositional program over `n_atoms` atoms a0..a{n-1}.
std::string random_program(unsigned seed, int n_atoms, int n_rules) {
    Rng rng(seed);
    auto atom = [&](int i) { return numbered("a", i); };
    std::string text;

    // A couple of choice atoms give the program non-trivial answer sets.
    const int n_choice = 1 + rng.below(2);
    for (int i = 0; i < n_choice; ++i) {
        text += "{ " + atom(rng.below(n_atoms)) + " }.\n";
    }
    for (int r = 0; r < n_rules; ++r) {
        const int kind = rng.below(10);
        std::string body;
        const int body_len = 1 + rng.below(3);
        for (int b = 0; b < body_len; ++b) {
            if (!body.empty()) body += ", ";
            if (rng.below(3) == 0) body += "not ";
            body += atom(rng.below(n_atoms));
        }
        if (kind == 0) {
            text += ":- " + body + ".\n";  // constraint
        } else {
            text += atom(rng.below(n_atoms)) + " :- " + body + ".\n";
        }
    }
    return text;
}

class DifferentialRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialRandom, RandomProgramsMatchReference) {
    const unsigned seed = GetParam();
    expect_text_matches_reference(random_program(seed, /*n_atoms=*/5, /*n_rules=*/7));
    expect_text_matches_reference(random_program(seed + 1000, /*n_atoms=*/7, /*n_rules=*/10));
    expect_text_matches_reference(random_program(seed + 2000, /*n_atoms=*/4, /*n_rules=*/12));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandom,
                         ::testing::Range(0u, 40u));

}  // namespace
}  // namespace cprisk::asp
