// Differential testing of the CDCL engine against the brute-force reference
// (reference_solver.hpp): both must produce the same projected answer sets,
// costs, and optima on random ground programs, including bounded choices and
// weak constraints whose tuples collide. The same programs check the ternary
// analysis (asp/absint): whenever it certifies, its model and cost are the
// reference's unique answer set. Seeds are deterministic so failures are
// reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "asp/absint/absint.hpp"
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

/// Every answer set of `program` under `pins`, by brute force over the
/// reference's textbook stability check (reference_solver.hpp).
std::vector<reference::Candidate> all_answer_sets(const GroundProgram& program,
                                                  const reference::Pins& pins) {
    const std::size_t n = program.atom_count();
    std::vector<reference::Candidate> found;
    for (unsigned long mask = 0; mask < (1ul << n); ++mask) {
        reference::Candidate m(n);
        for (std::size_t a = 0; a < n; ++a) m[a] = ((mask >> a) & 1ul) != 0;
        bool agrees = true;
        for (const auto& [atom, value] : pins) {
            agrees = agrees && m[static_cast<std::size_t>(atom)] == value;
        }
        if (agrees && reference::is_answer_set(program, m)) found.push_back(std::move(m));
    }
    return found;
}

/// The ternary analysis on one random program, open, under every pin
/// combination of its choice atoms and under a single pin on each atom: the
/// compiled plan agrees with the one-shot evaluation, every answer set lies
/// inside the bracket, a conflict means no answer set, and a certified
/// analysis names the unique answer set with its projection and cost.
/// Returns how many configurations certified.
int expect_absint_matches_reference(const std::string& text) {
    SCOPED_TRACE(text);
    auto parsed = parse_program(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error();
    if (!parsed.ok()) return 0;
    auto grounded = ground(parsed.value());
    EXPECT_TRUE(grounded.ok()) << grounded.error();
    if (!grounded.ok()) return 0;
    const GroundProgram& program = grounded.value();
    EXPECT_LE(program.atom_count(), reference::kMaxAtoms);

    std::vector<int> choices;
    for (const GroundRule& rule : program.rules()) {
        choices.insert(choices.end(), rule.choice_heads.begin(), rule.choice_heads.end());
    }
    std::sort(choices.begin(), choices.end());
    choices.erase(std::unique(choices.begin(), choices.end()), choices.end());

    const absint::Plan plan = absint::compile(program);
    std::vector<reference::Pins> configurations{{}};
    for (unsigned mask = 0; mask < (1u << choices.size()); ++mask) {
        reference::Pins pins;
        for (std::size_t i = 0; i < choices.size(); ++i) {
            pins.emplace_back(choices[i], ((mask >> i) & 1u) != 0);
        }
        configurations.push_back(std::move(pins));
    }
    // Single pins on any atom, choice or not: a pinned-true atom needs
    // support from outside the pins.
    for (int atom = 0; atom < static_cast<int>(program.atom_count()); ++atom) {
        configurations.push_back({{atom, true}});
        configurations.push_back({{atom, false}});
    }
    int certified = 0;
    for (const reference::Pins& pins : configurations) {
        absint::AbsintOptions options;
        options.pins = &pins;
        const absint::Analysis analysis = absint::evaluate(program, plan, options);
        const absint::Analysis one_shot = absint::evaluate(program, options);
        EXPECT_EQ(analysis.values, one_shot.values);
        EXPECT_EQ(analysis.certified, one_shot.certified);
        EXPECT_EQ(analysis.conflict, one_shot.conflict);
        EXPECT_EQ(analysis.decided, one_shot.decided);

        const auto answer_sets = all_answer_sets(program, pins);
        if (analysis.conflict) {
            EXPECT_TRUE(answer_sets.empty());
        }
        for (const reference::Candidate& m : answer_sets) {
            for (std::size_t a = 0; a < m.size(); ++a) {
                const int atom = static_cast<int>(a);
                EXPECT_TRUE(!analysis.must(atom) || m[a]) << "must-true atom " << a;
                EXPECT_TRUE(analysis.possible(atom) || !m[a]) << "impossible atom " << a;
            }
        }
        if (!analysis.certified) continue;
        ++certified;
        const reference::Solution expected = reference::solve(program, pins);
        if (answer_sets.size() != 1 || expected.models.size() != 1) {
            ADD_FAILURE() << "certified, but " << answer_sets.size() << " answer sets";
            continue;
        }
        const reference::Model& model = *expected.models.begin();
        std::set<std::string> shown;
        for (const Atom& atom : absint::certified_model(program, plan, analysis)) {
            shown.insert(atom.to_string());
        }
        EXPECT_EQ(shown, model.first);
        EXPECT_EQ(absint::certified_cost(program, analysis), model.second);
    }
    return certified;
}

class AbsintCertification : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbsintCertification, CertifiedModelIsTheReferenceAnswerSet) {
    const unsigned seed = GetParam();
    int certified = expect_absint_matches_reference(random_program(seed, 6, 8));
    certified += expect_absint_matches_reference(random_program(seed + 5000, 9, 12));
    certified += expect_absint_matches_reference(random_program(seed + 9000, 5, 14));
    RecordProperty("certified", certified);
}

// The CdclDifferential generator and seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, AbsintCertification, ::testing::Range(0u, 70u));

}  // namespace
}  // namespace cprisk::asp
