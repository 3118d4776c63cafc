// Ternary abstract interpretation (asp/absint): bracket property, the
// well-founded fixpoint on loops, certification against the solver, and the
// model-preserving simplifier — differentially tested against full solves
// under every pin configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "asp/absint/absint.hpp"
#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "asp/solver.hpp"
#include "common/budget.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace cprisk::asp::absint {
namespace {

GroundProgram must_ground(std::string_view text) {
    auto program = parse_program(text);
    EXPECT_TRUE(program.ok()) << program.error();
    auto grounded = ground(program.value());
    EXPECT_TRUE(grounded.ok()) << grounded.error();
    return grounded.ok() ? std::move(grounded).value() : GroundProgram{};
}

Ternary value_of(const GroundProgram& program, const Analysis& analysis,
                 std::string_view atom_text) {
    auto atom = parse_atom(atom_text);
    EXPECT_TRUE(atom.ok()) << atom.error();
    const int id = program.find(atom.value());
    EXPECT_GE(id, 0) << atom_text << " not interned";
    return analysis.value(id);
}

TEST(Absint, StratifiedProgramIsTotalAndCertified) {
    auto ground = must_ground("r. q :- not r. p :- not q. s :- p, r.");
    auto analysis = evaluate(ground);
    EXPECT_TRUE(analysis.total);
    EXPECT_TRUE(analysis.certified);
    EXPECT_FALSE(analysis.conflict);
    EXPECT_EQ(value_of(ground, analysis, "r"), Ternary::True);
    EXPECT_EQ(value_of(ground, analysis, "q"), Ternary::False);
    EXPECT_EQ(value_of(ground, analysis, "p"), Ternary::True);
    EXPECT_EQ(value_of(ground, analysis, "s"), Ternary::True);

    // The certified model is exactly the solver's unique answer set.
    auto solved = solve(ground);
    ASSERT_TRUE(solved.ok());
    ASSERT_EQ(solved.value().models.size(), 1u);
    EXPECT_EQ(certified_model(ground, compile(ground), analysis),
              solved.value().models[0].atoms);
}

// The text pipeline's bottom-up grounder pre-filters underivable rules, so
// the no-rule and unfounded-loop shapes are built through the GroundProgram
// API directly — exactly what absint sees after simplify deletes rules.
GroundRule normal_rule(int head, std::vector<int> positive, std::vector<int> negative = {}) {
    GroundRule rule;
    rule.head = head;
    rule.positive_body = std::move(positive);
    rule.negative_body = std::move(negative);
    return rule;
}

/// a.  b :- c.  (c has no rule)
GroundProgram underivable_program() {
    GroundProgram ground;
    const int a = ground.intern(parse_atom("a").value());
    const int b = ground.intern(parse_atom("b").value());
    const int c = ground.intern(parse_atom("c").value());
    ground.add_rule(normal_rule(a, {}));
    ground.add_rule(normal_rule(b, {c}));
    return ground;
}

/// a :- b.  b :- a.  c :- not a.
GroundProgram unfounded_loop_program() {
    GroundProgram ground;
    const int a = ground.intern(parse_atom("a").value());
    const int b = ground.intern(parse_atom("b").value());
    const int c = ground.intern(parse_atom("c").value());
    ground.add_rule(normal_rule(a, {b}));
    ground.add_rule(normal_rule(b, {a}));
    ground.add_rule(normal_rule(c, {}, {a}));
    return ground;
}

TEST(Absint, UnderivableAtomIsFalse) {
    auto ground = underivable_program();
    const int a = 0;
    const int b = 1;
    const int c = 2;

    auto analysis = evaluate(ground);
    EXPECT_TRUE(analysis.total);
    EXPECT_TRUE(analysis.certified);
    EXPECT_EQ(analysis.value(a), Ternary::True);
    EXPECT_EQ(analysis.value(b), Ternary::False);
    EXPECT_EQ(analysis.value(c), Ternary::False);
}

TEST(Absint, EvenNegativeLoopStaysUnknown) {
    auto ground = must_ground("a :- not b. b :- not a. c :- a. c :- b.");
    auto analysis = evaluate(ground);
    EXPECT_FALSE(analysis.total);
    EXPECT_FALSE(analysis.certified);
    EXPECT_EQ(value_of(ground, analysis, "a"), Ternary::Unknown);
    EXPECT_EQ(value_of(ground, analysis, "b"), Ternary::Unknown);
}

TEST(Absint, UnfoundedPositiveLoopIsFalse) {
    auto ground = unfounded_loop_program();
    const int a = 0;
    const int b = 1;
    const int c = 2;

    auto analysis = evaluate(ground);
    EXPECT_TRUE(analysis.total);
    EXPECT_TRUE(analysis.certified);
    EXPECT_EQ(analysis.value(a), Ternary::False);
    EXPECT_EQ(analysis.value(b), Ternary::False);
    EXPECT_EQ(analysis.value(c), Ternary::True);
}

TEST(Absint, PinnedOffSupportPrunesPositiveLoop) {
    // The loop a/b is reachable only through the choice atom; pinning the
    // choice off must collapse the whole loop to false.
    auto ground = must_ground("{ seed }. a :- seed. a :- b. b :- a.");
    const int seed = ground.find(parse_atom("seed").value());
    ASSERT_GE(seed, 0);

    auto open = evaluate(ground);
    EXPECT_EQ(value_of(ground, open, "a"), Ternary::Unknown);
    EXPECT_EQ(value_of(ground, open, "b"), Ternary::Unknown);

    std::vector<std::pair<int, bool>> pins{{seed, false}};
    AbsintOptions options;
    options.pins = &pins;
    auto pinned = evaluate(ground, options);
    EXPECT_TRUE(pinned.total);
    EXPECT_TRUE(pinned.certified);
    EXPECT_EQ(value_of(ground, pinned, "a"), Ternary::False);
    EXPECT_EQ(value_of(ground, pinned, "b"), Ternary::False);
}

TEST(Absint, FoundedLoopMemberStaysTrue) {
    auto ground = must_ground("a :- b. b :- a. b. d :- a.");
    auto analysis = evaluate(ground);
    EXPECT_TRUE(analysis.total);
    EXPECT_TRUE(analysis.certified);
    EXPECT_EQ(value_of(ground, analysis, "a"), Ternary::True);
    EXPECT_EQ(value_of(ground, analysis, "d"), Ternary::True);
}

TEST(Absint, ChoiceHeadsStayUnknownWithoutPins) {
    auto ground = must_ground("{ a }. b :- a. c :- not a. d.");
    auto analysis = evaluate(ground);
    EXPECT_FALSE(analysis.total);
    EXPECT_EQ(value_of(ground, analysis, "a"), Ternary::Unknown);
    EXPECT_EQ(value_of(ground, analysis, "b"), Ternary::Unknown);
    EXPECT_EQ(value_of(ground, analysis, "c"), Ternary::Unknown);
    EXPECT_EQ(value_of(ground, analysis, "d"), Ternary::True);
}

TEST(Absint, PinsDecideChoiceAtomsAndCertify) {
    auto ground = must_ground("{ a }. b :- a. c :- not a.");
    const int a = ground.find(parse_atom("a").value());
    ASSERT_GE(a, 0);

    for (bool truth : {true, false}) {
        std::vector<std::pair<int, bool>> pins{{a, truth}};
        AbsintOptions options;
        options.pins = &pins;
        auto analysis = evaluate(ground, options);
        EXPECT_TRUE(analysis.total);
        EXPECT_TRUE(analysis.certified) << "pin a=" << truth;
        EXPECT_EQ(value_of(ground, analysis, "b"),
                  truth ? Ternary::True : Ternary::False);
        EXPECT_EQ(value_of(ground, analysis, "c"),
                  truth ? Ternary::False : Ternary::True);

        SolveOptions solve_options;
        solve_options.assumptions = pins;
        auto solved = solve(ground, solve_options);
        ASSERT_TRUE(solved.ok());
        ASSERT_EQ(solved.value().models.size(), 1u);
        EXPECT_EQ(certified_model(ground, compile(ground), analysis),
              solved.value().models[0].atoms);
    }
}

TEST(Absint, PinnedTrueAtomWithoutSupportIsNotCertified) {
    // Pinning a true while its only support x is pinned false: the solver
    // rejects every candidate as unstable (unsatisfiable); the analysis must
    // refuse to certify rather than invent a model.
    auto ground = must_ground("{ x }. a :- x. b :- not a.");
    const int a = ground.find(parse_atom("a").value());
    const int x = ground.find(parse_atom("x").value());
    ASSERT_GE(a, 0);
    ASSERT_GE(x, 0);
    std::vector<std::pair<int, bool>> pins{{a, true}, {x, false}};
    AbsintOptions options;
    options.pins = &pins;
    auto analysis = evaluate(ground, options);
    EXPECT_FALSE(analysis.certified);

    SolveOptions solve_options;
    solve_options.assumptions = pins;
    auto solved = solve(ground, solve_options);
    ASSERT_TRUE(solved.ok());
    EXPECT_FALSE(solved.value().satisfiable);
}

TEST(Absint, FiringConstraintBlocksCertification) {
    auto ground = must_ground("a. :- a.");
    auto analysis = evaluate(ground);
    EXPECT_FALSE(analysis.certified);

    auto solved = solve(ground);
    ASSERT_TRUE(solved.ok());
    EXPECT_FALSE(solved.value().satisfiable);
}

TEST(Absint, ContradictoryPinsAreAConflict) {
    auto ground = must_ground("a. b :- a.");
    const int a = ground.find(parse_atom("a").value());
    std::vector<std::pair<int, bool>> pins{{a, false}};
    AbsintOptions options;
    options.pins = &pins;
    auto analysis = evaluate(ground, options);
    EXPECT_TRUE(analysis.conflict);
    EXPECT_FALSE(analysis.certified);
}

TEST(Absint, CertifiedCostMatchesSolver) {
    auto ground = must_ground("a. b :- a. :~ a. [2@1, t1] :~ b. [3@2, t2]");
    auto analysis = evaluate(ground);
    ASSERT_TRUE(analysis.certified);
    auto solved = solve(ground);
    ASSERT_TRUE(solved.ok());
    ASSERT_EQ(solved.value().models.size(), 1u);
    EXPECT_EQ(certified_cost(ground, analysis), solved.value().models[0].cost);
}

TEST(Absint, TrippedBudgetInterruptsWithAllUnknown) {
    auto ground = must_ground("a. b :- a. c :- b. d :- c.");
    Budget budget;
    budget.set_max_steps(1);
    AbsintOptions options;
    options.budget = &budget;
    auto analysis = evaluate(ground, options);
    EXPECT_TRUE(analysis.interrupted);
    EXPECT_FALSE(analysis.certified);
    EXPECT_TRUE(std::all_of(analysis.values.begin(), analysis.values.end(),
                            [](Ternary v) { return v == Ternary::Unknown; }));
}

TEST(Absint, DeepChainCertifies) {
    // a0. a1 :- a0. ... a99 :- a98, listed deepest rule first, so support
    // reaches the tail only through one derivation per level.
    constexpr int kDepth = 100;
    GroundProgram ground;
    std::vector<int> chain;
    for (int i = 0; i < kDepth; ++i) chain.push_back(ground.intern(Atom{numbered("a", i), {}}));
    for (int i = kDepth - 1; i > 0; --i) {
        ground.add_rule(normal_rule(chain[static_cast<std::size_t>(i)],
                                    {chain[static_cast<std::size_t>(i - 1)]}));
    }
    ground.add_rule(normal_rule(chain.front(), {}));

    auto analysis = evaluate(ground);
    EXPECT_TRUE(analysis.total);
    EXPECT_TRUE(analysis.certified);
    EXPECT_EQ(analysis.decided, static_cast<std::size_t>(kDepth));
    EXPECT_EQ(analysis.value(chain.back()), Ternary::True);
    EXPECT_EQ(certified_model(ground, compile(ground), analysis).size(),
              static_cast<std::size_t>(kDepth));
}

TEST(Absint, PinnedTrueAtomOnUnfoundedLoopIsNotCertified) {
    // Pinning a true decides the whole loop a/b, but nothing outside the
    // loop supports it: the solver finds no answer set, so the analysis
    // must not certify one.
    auto ground = unfounded_loop_program();
    const int a = 0;
    const int b = 1;
    const std::vector<std::pair<int, bool>> pins{{a, true}};
    AbsintOptions options;
    options.pins = &pins;
    auto analysis = evaluate(ground, options);
    EXPECT_TRUE(analysis.total);
    EXPECT_FALSE(analysis.conflict);
    EXPECT_EQ(analysis.value(b), Ternary::True);
    EXPECT_FALSE(analysis.certified);

    SolveOptions solve_options;
    solve_options.assumptions = pins;
    auto solved = solve(ground, solve_options);
    ASSERT_TRUE(solved.ok());
    EXPECT_FALSE(solved.value().satisfiable);
}

TEST(Absint, PinnedTrueAtomWithBlockedSupportIsNotCertified) {
    // q. p :- not q.  Pinning p true decides every atom without a conflict,
    // but p's only rule is blocked by q, so no answer set contains p.
    GroundProgram ground;
    const int q = ground.intern(parse_atom("q").value());
    const int p = ground.intern(parse_atom("p").value());
    ground.add_rule(normal_rule(q, {}));
    ground.add_rule(normal_rule(p, {}, {q}));
    const std::vector<std::pair<int, bool>> pins{{p, true}};
    AbsintOptions options;
    options.pins = &pins;
    auto analysis = evaluate(ground, options);
    EXPECT_TRUE(analysis.total);
    EXPECT_FALSE(analysis.certified);

    SolveOptions solve_options;
    solve_options.assumptions = pins;
    auto solved = solve(ground, solve_options);
    ASSERT_TRUE(solved.ok());
    EXPECT_FALSE(solved.value().satisfiable);
}

TEST(Absint, ChoiceSelfSupportCertifies) {
    // The chosen atoms support themselves, and the loop b/a closes through
    // the choice rule.
    auto ground = must_ground("{ a ; c }. b :- a. a :- b. d :- a, c.");
    const int a = ground.find(parse_atom("a").value());
    const int c = ground.find(parse_atom("c").value());
    ASSERT_GE(a, 0);
    ASSERT_GE(c, 0);
    const std::vector<std::pair<int, bool>> pins{{a, true}, {c, true}};
    AbsintOptions options;
    options.pins = &pins;
    auto analysis = evaluate(ground, options);
    EXPECT_TRUE(analysis.certified);
    EXPECT_EQ(value_of(ground, analysis, "d"), Ternary::True);

    SolveOptions solve_options;
    solve_options.assumptions = pins;
    auto solved = solve(ground, solve_options);
    ASSERT_TRUE(solved.ok());
    ASSERT_EQ(solved.value().models.size(), 1u);
    EXPECT_EQ(certified_model(ground, compile(ground), analysis),
              solved.value().models[0].atoms);
}

/// Every hand program of this file, grounded.
std::vector<GroundProgram> hand_programs() {
    std::vector<GroundProgram> programs;
    for (const char* text : {
             "r. q :- not r. p :- not q. s :- p, r.",
             "a :- not b. b :- not a. c :- a. c :- b.",
             "{ seed }. a :- seed. a :- b. b :- a.",
             "a :- b. b :- a. b. d :- a.",
             "{ a }. b :- a. c :- not a. d.",
             "{ x }. a :- x. b :- not a.",
             "a. :- a.",
             "a. b :- a.",
             "a. b :- a. :~ a. [2@1, t1] :~ b. [3@2, t2]",
             "a. b :- a. c :- b. d :- c.",
             "{ f1 }. { f2 }. base. x :- base. y :- x, f1. z :- y, not f2. "
             "w :- z. w :- f2. dead :- gone. :- y, f2, not x.",
             "{ pick }. cost :- pick. free :- not pick. base. "
             ":~ cost. [5@1, c] :~ base. [1@1, b]",
             "{ a ; c }. b :- a. a :- b. d :- a, c.",
             "1 { p ; q } 1. r :- p. :- r, q.",
         }) {
        programs.push_back(must_ground(text));
    }
    programs.push_back(underivable_program());
    programs.push_back(unfounded_loop_program());
    return programs;
}

/// The solver's projection computed directly: shown must-true atoms, sorted.
std::vector<Atom> projection(const GroundProgram& ground, const Analysis& analysis) {
    std::vector<Atom> atoms;
    for (int a = 0; a < static_cast<int>(ground.atom_count()); ++a) {
        if (analysis.must(a) && ground.is_shown(a)) atoms.push_back(ground.atom(a));
    }
    std::sort(atoms.begin(), atoms.end());
    return atoms;
}

void expect_same_analysis(const Analysis& a, const Analysis& b) {
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.conflict, b.conflict);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.certified, b.certified);
    EXPECT_EQ(a.decided, b.decided);
}

TEST(Absint, CompiledPlanMatchesOneShotUnderEveryPinCombination) {
    for (const GroundProgram& ground : hand_programs()) {
        SCOPED_TRACE(ground.to_string());
        std::vector<int> choices;
        for (const GroundRule& rule : ground.rules()) {
            choices.insert(choices.end(), rule.choice_heads.begin(), rule.choice_heads.end());
        }
        std::sort(choices.begin(), choices.end());
        choices.erase(std::unique(choices.begin(), choices.end()), choices.end());
        ASSERT_LE(choices.size(), 10u);

        // One plan serves the open evaluation and every pin combination.
        const Plan plan = compile(ground);
        expect_same_analysis(evaluate(ground, plan), evaluate(ground));
        for (unsigned mask = 0; mask < (1u << choices.size()); ++mask) {
            std::vector<std::pair<int, bool>> pins;
            for (std::size_t i = 0; i < choices.size(); ++i) {
                pins.emplace_back(choices[i], ((mask >> i) & 1u) != 0);
            }
            AbsintOptions options;
            options.pins = &pins;
            const Analysis planned = evaluate(ground, plan, options);
            expect_same_analysis(planned, evaluate(ground, options));
            if (planned.certified) {
                EXPECT_EQ(certified_model(ground, plan, planned), projection(ground, planned));
            }
        }
    }
}

TEST(Absint, PlanOfAnotherProgramIsRejected) {
    auto ground = must_ground("a. b :- a.");
    auto other = must_ground("a. b :- a.");
    const Plan plan = compile(ground);
    EXPECT_THROW(evaluate(other, plan), Error);
    const Analysis analysis = evaluate(ground, plan);
    EXPECT_THROW(certified_model(other, plan, analysis), Error);
    // A program that changed after compilation is another program too.
    ground.add_rule(normal_rule(ground.find(parse_atom("a").value()), {}));
    EXPECT_THROW(evaluate(ground, plan), Error);
}

TEST(Absint, ChargesOneUnitPerRulePerFixpointPass) {
    // A single-rule component that derives its head takes two must passes
    // (derive, confirm) and one possible pass, then one more round of each
    // to see nothing move: 5 units. q, which never derives, takes one must
    // pass per round: 4. The loop a/b is one component that charges all of its
    // rules per pass.
    const std::vector<std::pair<std::string, std::size_t>> expected{
        {"a. b :- a. c :- b. d :- c.", 20},
        {"r. q :- not r. p :- not q. s :- p, r.", 19},
        {"a :- b. b :- a. b. d :- a.", 20},
    };
    for (const auto& [text, steps] : expected) {
        auto ground = must_ground(text);
        Budget budget;
        AbsintOptions options;
        options.budget = &budget;
        evaluate(ground, compile(ground), options);
        EXPECT_EQ(budget.stats().steps, steps) << text;
    }
}

// --- simplify -------------------------------------------------------------

std::vector<std::vector<Atom>> all_models(const GroundProgram& program,
                                          const std::vector<std::pair<int, bool>>& pins) {
    SolveOptions options;
    options.assumptions = pins;
    options.optimize = false;
    auto result = solve(program, options);
    EXPECT_TRUE(result.ok()) << result.error();
    std::vector<std::vector<Atom>> models;
    if (!result.ok()) return models;
    for (const auto& model : result.value().models) models.push_back(model.atoms);
    std::sort(models.begin(), models.end());
    return models;
}

TEST(Absint, SimplifyPreservesModelsUnderEveryPinConfiguration) {
    const std::string text =
        "{ f1 }. { f2 }. base. "
        "x :- base. y :- x, f1. z :- y, not f2. "
        "w :- z. w :- f2. dead :- gone. "
        ":- y, f2, not x.";
    auto original = must_ground(text);
    auto simplified = must_ground(text);

    auto analysis = evaluate(simplified);
    auto stats = simplify(simplified, analysis);
    EXPECT_TRUE(stats.changed());
    EXPECT_GT(stats.facts_added, 0u);

    const int f1 = original.find(parse_atom("f1").value());
    const int f2 = original.find(parse_atom("f2").value());
    ASSERT_GE(f1, 0);
    ASSERT_GE(f2, 0);
    // Atom ids must survive simplification unchanged.
    EXPECT_EQ(simplified.find(parse_atom("f1").value()), f1);
    EXPECT_EQ(simplified.find(parse_atom("f2").value()), f2);

    for (bool v1 : {false, true}) {
        for (bool v2 : {false, true}) {
            std::vector<std::pair<int, bool>> pins{{f1, v1}, {f2, v2}};
            EXPECT_EQ(all_models(original, pins), all_models(simplified, pins))
                << "pins f1=" << v1 << " f2=" << v2;
        }
    }
}

TEST(Absint, SimplifyKeepsUnsatProgramsUnsat) {
    const std::string text = "a. b :- a. :- b.";
    auto original = must_ground(text);
    auto simplified = must_ground(text);
    auto analysis = evaluate(simplified);
    simplify(simplified, analysis);

    for (const GroundProgram* program : {&original, &simplified}) {
        auto solved = solve(*program);
        ASSERT_TRUE(solved.ok());
        EXPECT_FALSE(solved.value().satisfiable);
    }
}

TEST(Absint, SimplifyPreservesOptimizationCosts) {
    const std::string text =
        "{ pick }. cost :- pick. free :- not pick. base. "
        ":~ cost. [5@1, c] :~ base. [1@1, b]";
    auto original = must_ground(text);
    auto simplified = must_ground(text);
    auto analysis = evaluate(simplified);
    simplify(simplified, analysis);

    const int pick = original.find(parse_atom("pick").value());
    ASSERT_GE(pick, 0);
    for (bool v : {false, true}) {
        std::vector<std::pair<int, bool>> pins{{pick, v}};
        SolveOptions options;
        options.assumptions = pins;
        auto a = solve(original, options);
        auto b = solve(simplified, options);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a.value().best_cost, b.value().best_cost) << "pick=" << v;
    }
}

}  // namespace
}  // namespace cprisk::asp::absint
