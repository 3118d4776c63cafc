// Differential testing of the CDCL engine against the brute-force reference
// (reference_solver.hpp): both must produce the same projected answer sets,
// costs, and optima on random ground programs, including bounded choices and
// weak constraints whose tuples collide. Seeds are deterministic so failures
// are reproducible.
#include <gtest/gtest.h>

#include <string>

#include "asp/asp.hpp"
#include "common/strings.hpp"
#include "reference_solver.hpp"

namespace cprisk::asp {
namespace {

// Deterministic xorshift PRNG (same recipe as differential_test.cpp).
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

/// Random propositional program over `n_atoms` atoms with choices (sometimes
/// bounded), normal rules, constraints, and weak constraints — the full
/// surface the engine must agree with the reference on. Weak constraints
/// reuse an earlier tuple name at random, so cost elements collide on the
/// tuple while differing in weight or priority.
std::string random_program(unsigned seed, int n_atoms, int n_rules) {
    Rng rng(seed);
    auto atom = [&](int i) { return numbered("a", i); };
    std::string text;

    const int n_choice = 1 + rng.below(3);
    for (int i = 0; i < n_choice; ++i) {
        if (rng.below(3) == 0) {
            // Bounded pair: exercises the bound-propagation learning path.
            const int x = rng.below(n_atoms);
            int y = rng.below(n_atoms);
            if (y == x) y = (y + 1) % n_atoms;
            const int lower = rng.below(2);
            text += std::to_string(lower) + " { " + atom(x) + " ; " + atom(y) + " } 1.\n";
        } else {
            text += "{ " + atom(rng.below(n_atoms)) + " }.\n";
        }
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
            text += ":- " + body + ".\n";
        } else {
            text += atom(rng.below(n_atoms)) + " :- " + body + ".\n";
        }
    }
    const int n_weaks = rng.below(4);
    for (int w = 0; w < n_weaks; ++w) {
        const int target = rng.below(n_atoms);
        text += ":~ " + atom(target) + ". [" + std::to_string(1 + rng.below(3)) + "@" +
                std::to_string(1 + rng.below(2)) + ", w" + std::to_string(rng.below(w + 1)) +
                "]\n";
    }
    return text;
}

class CdclDifferential : public ::testing::TestWithParam<unsigned> {};

// Compared against the brute-force reference; the test IDs are historical and
// kept stable.
TEST_P(CdclDifferential, RandomProgramsMatchDpll) {
    const unsigned seed = GetParam();
    using reference::expect_text_matches_reference;
    expect_text_matches_reference(random_program(seed, /*n_atoms=*/6, /*n_rules=*/8));
    expect_text_matches_reference(random_program(seed + 5000, /*n_atoms=*/9, /*n_rules=*/12));
    expect_text_matches_reference(random_program(seed + 9000, /*n_atoms=*/5, /*n_rules=*/14));
}

// 70 seeds x 3 shapes = 210 random programs.
INSTANTIATE_TEST_SUITE_P(Seeds, CdclDifferential, ::testing::Range(0u, 70u));

}  // namespace
}  // namespace cprisk::asp
