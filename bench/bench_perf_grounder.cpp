// Grounder ordering ablation: SCC-ordered bottom-up grounding
// (GrounderOptions::scc_order, analysis/dependency_graph.hpp) against the
// global fixpoint, on the shapes that separate them — deeply stratified
// layer chains (the global fixpoint re-scans every rule each round), the
// unrolled case-study bundles, and a flat fact base (where ordering cannot
// help and must not hurt).
#include <benchmark/benchmark.h>

#include <string>

#include "asp/grounder.hpp"
#include "asp/parser.hpp"
#include "asp/temporal.hpp"
#include "common/strings.hpp"
#include "core/loader.hpp"
#include "epa/epa.hpp"
#include "security/attack_matrix.hpp"

namespace {

using namespace cprisk;
using namespace cprisk::asp;

GrounderOptions options_for(bool scc_order) {
    GrounderOptions options;
    options.scc_order = scc_order;
    return options;
}

/// `layers` strata, each derived from the previous through negation of a
/// sibling, over a domain of `width` constants. The global fixpoint grounds
/// every layer's rules in every round (O(layers) rounds); SCC order visits
/// each layer once.
std::string layered_program(int layers, int width) {
    std::string text = "d0(1.." + std::to_string(width) + ").\n";
    for (int layer = 1; layer <= layers; ++layer) {
        const std::string prev = numbered("d", layer - 1);
        const std::string cur = numbered("d", layer);
        text += cur + "(X) :- " + prev + "(X), not blocked" + std::to_string(layer) + "(X).\n";
        text += numbered("blocked", layer) + "(X) :- " + prev + "(X), X > " +
                std::to_string(width) + ".\n";
    }
    text += "#show d" + std::to_string(layers) + "/1.\n";
    return text;
}

void BM_GroundLayeredChain(benchmark::State& state) {
    const int layers = static_cast<int>(state.range(0));
    auto program = parse_program(layered_program(layers, 40)).value();
    const bool scc_order = state.range(1) != 0;
    for (auto _ : state) {
        auto grounded = ground(program, options_for(scc_order));
        benchmark::DoNotOptimize(grounded);
    }
    state.SetLabel(scc_order ? "scc_order" : "global_fixpoint");
    state.SetComplexityN(layers);
}
BENCHMARK(BM_GroundLayeredChain)
    ->Args({8, 1})->Args({8, 0})
    ->Args({16, 1})->Args({16, 0})
    ->Args({32, 1})->Args({32, 0})
    ->Args({64, 1})->Args({64, 0});

void BM_GroundTransitiveClosure(benchmark::State& state) {
    // One big recursive SCC: both paths must iterate it to the same
    // fixpoint, so SCC order can only save the non-recursive rules.
    const int n = static_cast<int>(state.range(0));
    std::string text = "edge(0,1).\n";
    for (int i = 1; i < n; ++i) {
        text += "edge(" + std::to_string(i) + "," + std::to_string(i + 1) + ").\n";
    }
    text += "reach(X,Y) :- edge(X,Y).\nreach(X,Z) :- reach(X,Y), edge(Y,Z).\n";
    auto program = parse_program(text).value();
    const bool scc_order = state.range(1) != 0;
    for (auto _ : state) {
        auto grounded = ground(program, options_for(scc_order));
        benchmark::DoNotOptimize(grounded);
    }
    state.SetLabel(scc_order ? "scc_order" : "global_fixpoint");
}
BENCHMARK(BM_GroundTransitiveClosure)->Args({32, 1})->Args({32, 0})->Args({64, 1})->Args({64, 0});

void BM_GroundFactsOnly(benchmark::State& state) {
    // Flat fact base: no dependencies at all. Measures the overhead of
    // building the dependency graph when it cannot pay off.
    const int n = static_cast<int>(state.range(0));
    std::string text;
    for (int i = 0; i < n; ++i) text += "f(" + std::to_string(i) + ", a, b).\n";
    auto program = parse_program(text).value();
    const bool scc_order = state.range(1) != 0;
    for (auto _ : state) {
        auto grounded = ground(program, options_for(scc_order));
        benchmark::DoNotOptimize(grounded);
    }
    state.SetLabel(scc_order ? "scc_order" : "global_fixpoint");
}
BENCHMARK(BM_GroundFactsOnly)->Args({512, 1})->Args({512, 0});

/// The real workload: a case-study bundle's EPA base program unrolled to
/// `horizon` (facts + propagation rules + requirement automata).
Program bundle_program(const std::string& relative_path, int horizon) {
    auto bundle = core::load_bundle_file(std::string(CPRISK_SOURCE_DIR) + relative_path).value();
    const auto mitigations = epa::MitigationMap::from_attack_matrix(
        bundle.model, security::AttackMatrix::standard_ics());
    epa::EpaOptions epa_options;
    epa_options.focus = epa::AnalysisFocus::Behavioral;
    epa_options.horizon = horizon;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        bundle.model, bundle.effective_behavioral(), mitigations, epa_options).value();
    UnrollOptions unroll_options;
    unroll_options.horizon = horizon;
    return unroll(analysis.base_program(), unroll_options).value();
}

void BM_GroundWatertankBundle(benchmark::State& state) {
    const Program program = bundle_program("/examples/models/watertank.cpm", 6);
    const bool scc_order = state.range(0) != 0;
    for (auto _ : state) {
        auto grounded = ground(program, options_for(scc_order));
        benchmark::DoNotOptimize(grounded);
    }
    state.SetLabel(scc_order ? "scc_order" : "global_fixpoint");
}
BENCHMARK(BM_GroundWatertankBundle)->Arg(1)->Arg(0);

void BM_GroundReactorBundle(benchmark::State& state) {
    const Program program = bundle_program("/examples/models/reactor.cpm", 7);
    const bool scc_order = state.range(0) != 0;
    for (auto _ : state) {
        auto grounded = ground(program, options_for(scc_order));
        benchmark::DoNotOptimize(grounded);
    }
    state.SetLabel(scc_order ? "scc_order" : "global_fixpoint");
}
BENCHMARK(BM_GroundReactorBundle)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
