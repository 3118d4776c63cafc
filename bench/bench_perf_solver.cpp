// Performance of the embedded ASP engine (grounder + stable-model solver):
// grounding throughput, satisfiability search, full enumeration, and
// temporal unrolling — the scaling knobs behind the paper's exhaustive
// hazard identification. Also covers DESIGN.md ablation 2 by comparing a
// stratified (propagation-only) program against one requiring stable-model
// search.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "asp/asp.hpp"
#include "asp/incremental.hpp"

namespace {

using namespace cprisk::asp;

std::string chain_program(int n) {
    std::string p = "edge(0,1).\n";
    for (int i = 1; i < n; ++i) {
        p += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    p += "reach(X,Y) :- edge(X,Y).\n";
    p += "reach(X,Z) :- reach(X,Y), edge(Y,Z).\n";
    return p;
}

void BM_GroundTransitiveClosure(benchmark::State& state) {
    const std::string text = chain_program(static_cast<int>(state.range(0)));
    auto program = parse_program(text).value();
    for (auto _ : state) {
        auto grounded = ground(program);
        benchmark::DoNotOptimize(grounded);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GroundTransitiveClosure)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_SolveStratified(benchmark::State& state) {
    // Deterministic (stratified) program: a single answer set found without
    // search — the common case for EPA scenario programs.
    const std::string text = chain_program(static_cast<int>(state.range(0)));
    auto program = parse_program(text).value();
    auto grounded = ground(program).value();
    for (auto _ : state) {
        auto result = solve(grounded);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SolveStratified)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SolveGraphColoringFirstModel(benchmark::State& state) {
    // Stable-model *search*: 3-coloring of a cycle, stop at the first model.
    const int n = static_cast<int>(state.range(0));
    std::string text = "node(1.." + std::to_string(n) + "). color(r). color(g). color(b).\n";
    for (int i = 1; i < n; ++i) {
        text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    text += "edge(" + std::to_string(n) + ",1).\n";
    text += "1 { assign(N,C) : color(C) } 1 :- node(N).\n";
    text += ":- edge(X,Y), assign(X,C), assign(Y,C).\n";
    auto program = parse_program(text).value();
    auto grounded = ground(program).value();
    SolveOptions options;
    options.max_models = 1;
    for (auto _ : state) {
        auto result = solve(grounded, options);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SolveGraphColoringFirstModel)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_EnumerateChoiceSpace(benchmark::State& state) {
    // Exhaustive enumeration of 2^k answer sets (the scenario-space shape).
    const int k = static_cast<int>(state.range(0));
    std::string text = "item(1.." + std::to_string(k) + "). { pick(X) : item(X) }.\n";
    auto grounded = ground(parse_program(text).value()).value();
    for (auto _ : state) {
        auto result = solve(grounded);
        benchmark::DoNotOptimize(result);
    }
    state.counters["models"] = static_cast<double>(1 << k);
}
BENCHMARK(BM_EnumerateChoiceSpace)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_TemporalUnroll(benchmark::State& state) {
    // Telingo-style unrolling + solving of a frame-axiom program over a
    // growing horizon (the EPA's temporal depth knob).
    const int horizon = static_cast<int>(state.range(0));
    const std::string text =
        "#const horizon = " + std::to_string(horizon) + ".\n" +
        "#program initial. level(normal).\n"
        "#program dynamic. level(X) :- prev_level(X).\n"
        "#program always. observed :- level(normal).\n";
    auto program = parse_program(text).value();
    PipelineOptions options;
    for (auto _ : state) {
        auto result = solve_program(program, options);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_TemporalUnroll)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_OptimizationBranchAndBound(benchmark::State& state) {
    // Weak-constraint optimization over k binary choices.
    const int k = static_cast<int>(state.range(0));
    std::string text = "item(1.." + std::to_string(k) + "). { pick(X) : item(X) }.\n";
    text += "covered :- pick(X), item(X).\n:- not covered.\n";
    text += ":~ pick(X), item(X). [X@1, X]\n";
    auto grounded = ground(parse_program(text).value()).value();
    for (auto _ : state) {
        auto result = solve(grounded);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_OptimizationBranchAndBound)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

void BM_BoundPropagationAblation(benchmark::State& state) {
    // Ablation: cardinality-bound propagation on vs leaf-only checking,
    // on a tightly-bounded coloring instance.
    const int n = 8;
    std::string text = "node(1.." + std::to_string(n) + "). color(r). color(g). color(b).\n";
    for (int i = 1; i < n; ++i) {
        text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    text += "edge(" + std::to_string(n) + ",1).\n";
    text += "1 { assign(N,C) : color(C) } 1 :- node(N).\n";
    text += ":- edge(X,Y), assign(X,C), assign(Y,C).\n";
    auto grounded = ground(parse_program(text).value()).value();
    SolveOptions options;
    options.max_models = 1;
    options.propagate_bounds = state.range(0) != 0;
    for (auto _ : state) {
        auto result = solve(grounded, options);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(options.propagate_bounds ? "propagation_on" : "leaf_only");
}
BENCHMARK(BM_BoundPropagationAblation)->Arg(1)->Arg(0);

void BM_CancellationCheckOverhead(benchmark::State& state) {
    // Cost of the cooperative budget checks on the hot search loop: the same
    // enumeration with no budget attached vs. a generous budget that never
    // trips (decision charges + strided clock sampling). The delta is the
    // governance overhead documented in EXPERIMENTS.md (<2% target).
    const int k = 10;
    std::string text = "item(1.." + std::to_string(k) + "). { pick(X) : item(X) }.\n";
    auto grounded = ground(parse_program(text).value()).value();
    const bool governed = state.range(0) != 0;
    for (auto _ : state) {
        cprisk::Budget budget;
        SolveOptions options;
        if (governed) {
            budget.set_deadline_after(std::chrono::hours(1));
            budget.set_max_decisions(1u << 30);
            options.budget = &budget;
        }
        auto result = solve(grounded, options);
        benchmark::DoNotOptimize(result);
    }
    state.SetLabel(governed ? "budget_attached" : "ungoverned");
}
BENCHMARK(BM_CancellationCheckOverhead)->Arg(0)->Arg(1);

// --- CDCL engine: refutation throughput and cross-solve clause reuse -----

/// The ground-once/solve-many shape (docs/solver.md): 48 assumption slots
/// (one scenario each), a choice the solver must refute per solve (the
/// jam-gated pigeonhole contradiction), and positive loops whose cuts are
/// entailed by the base program — everything a persistent solver can keep.
constexpr const char* kAssumptionSweepProgram = R"(
slot(1..48).
{ pin(S) : slot(S) }.
sidx(1..12).
ping(N) :- pong(N), sidx(N).
pong(N) :- ping(N), sidx(N).
ping(N) :- jam, sidx(N).
{ jam }.
pigeon(1..7). hole(1..6).
{ place(P, H) } :- pigeon(P), hole(H).
:- place(P, H), not jam.
placed(P) :- place(P, H).
:- jam, pigeon(P), not placed(P).
:- place(P1, H), place(P2, H), P1 < P2.
boom(S) :- pin(S), not jam.
)";

void BM_CdclRefutation(benchmark::State& state) {
    // One cold full enumeration per iteration, every slot pinned off:
    // exhausting the model space forces the jam-gated pigeonhole branch to
    // be refuted, so the run measures the engine's raw search throughput on
    // a refutation. Counters report propagations/sec and conflicts/sec.
    auto grounded = ground(parse_program(kAssumptionSweepProgram).value()).value();
    std::vector<std::pair<int, bool>> off;
    for (int id = 0; id < static_cast<int>(grounded.atom_count()); ++id) {
        if (grounded.atom(id).predicate == "pin") off.emplace_back(id, false);
    }
    std::size_t propagations = 0;
    std::size_t conflicts = 0;
    for (auto _ : state) {
        SolveOptions options;
        options.assumptions = off;
        auto result = solve(grounded, options);
        benchmark::DoNotOptimize(result);
        propagations += result.value().stats.propagations;
        conflicts += result.value().stats.conflicts;
    }
    state.counters["propagations_per_s"] =
        benchmark::Counter(static_cast<double>(propagations), benchmark::Counter::kIsRate);
    state.counters["conflicts_per_s"] =
        benchmark::Counter(static_cast<double>(conflicts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CdclRefutation);

void BM_AssumptionSweep48(benchmark::State& state) {
    // The sweep idiom end to end: 48 assumption contexts (slot i pinned
    // true, the rest false) solved in sequence. Arg 0: cold CDCL, completion
    // rebuilt and clauses relearned per context. Arg 1: persistent CDCL
    // (IncrementalSolver) — the completion is built once and entailed
    // clauses learned by earlier contexts propagate for later ones;
    // `reuse_rate` is the fraction of propagations driven by a clause
    // learned in an earlier solve.
    auto grounded = ground(parse_program(kAssumptionSweepProgram).value()).value();
    std::vector<int> pins;
    for (int id = 0; id < static_cast<int>(grounded.atom_count()); ++id) {
        if (grounded.atom(id).predicate == "pin") pins.push_back(id);
    }
    const bool persistent = state.range(0) != 0;
    IncrementalSolver warm(grounded);
    std::size_t propagations = 0;
    std::size_t conflicts = 0;
    std::size_t reused = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < pins.size(); ++i) {
            SolveOptions options;
            if (persistent) options.incremental = &warm;
            options.assumptions.reserve(pins.size());
            for (std::size_t j = 0; j < pins.size(); ++j) {
                options.assumptions.emplace_back(pins[j], i == j);
            }
            auto result = solve(grounded, options);
            benchmark::DoNotOptimize(result);
            const SolveStats& stats = result.value().stats;
            propagations += stats.propagations;
            conflicts += stats.conflicts;
            reused += stats.reused_clause_propagations;
        }
    }
    state.counters["propagations_per_s"] =
        benchmark::Counter(static_cast<double>(propagations), benchmark::Counter::kIsRate);
    state.counters["conflicts_per_s"] =
        benchmark::Counter(static_cast<double>(conflicts), benchmark::Counter::kIsRate);
    state.counters["reuse_rate"] =
        propagations > 0 ? static_cast<double>(reused) / static_cast<double>(propagations)
                         : 0.0;
    state.SetLabel(persistent ? "cdcl_warm" : "cdcl_cold");
}
BENCHMARK(BM_AssumptionSweep48)->Arg(0)->Arg(1);

void BM_ParseLargeProgram(benchmark::State& state) {
    const std::string text = chain_program(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto program = parse_program(text);
        benchmark::DoNotOptimize(program);
    }
}
BENCHMARK(BM_ParseLargeProgram)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
