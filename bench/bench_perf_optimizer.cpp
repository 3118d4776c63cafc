// Mitigation optimizer scaling and the DESIGN.md ablation 1: exact
// branch-and-bound vs the ASP weak-constraint encoding on the same problem
// family, with and without budget constraints.
#include <benchmark/benchmark.h>

#include <string>

#include "common/strings.hpp"
#include "mitigation/optimizer.hpp"

namespace {

using cprisk::numbered;
using namespace cprisk::mitigation;

/// Deterministic pseudo-random problem: m mitigations, t threats.
MitigationProblem generated(int mitigations, int threats, int seed = 7) {
    MitigationProblem problem;
    for (int i = 0; i < mitigations; ++i) {
        problem.candidates.push_back(
            Candidate{numbered("m", i), numbered("M", i), 1 + (seed * 5 + i * 3) % 7});
    }
    for (int t = 0; t < threats; ++t) {
        Threat threat;
        threat.scenario_id = numbered("t", t);
        threat.loss = 10 + (seed * 13 + t * 17) % 60;
        const int mutations = 1 + (t + seed) % 3;
        for (int u = 0; u < mutations; ++u) {
            std::vector<std::string> covers;
            for (int i = 0; i < mitigations; ++i) {
                if ((seed + t * 3 + u * 5 + i) % 3 == 0) {
                    covers.push_back(numbered("m", i));
                }
            }
            if (covers.empty()) covers.push_back(numbered("m", (t + u) % mitigations));
            threat.mutation_covers.push_back(std::move(covers));
        }
        problem.threats.push_back(std::move(threat));
    }
    return problem;
}

void BM_ExactUnconstrained(benchmark::State& state) {
    auto problem = generated(static_cast<int>(state.range(0)), 12);
    for (auto _ : state) {
        auto selection = optimize_exact(problem);
        benchmark::DoNotOptimize(selection);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactUnconstrained)->Arg(6)->Arg(10)->Arg(14)->Arg(18)->Complexity();

void BM_ExactWithBudget(benchmark::State& state) {
    auto problem = generated(static_cast<int>(state.range(0)), 12);
    OptimizerOptions options;
    options.budget = 10;
    for (auto _ : state) {
        auto selection = optimize_exact(problem, options);
        benchmark::DoNotOptimize(selection);
    }
}
BENCHMARK(BM_ExactWithBudget)->Arg(6)->Arg(10)->Arg(14)->Arg(18);

void BM_AspEngine(benchmark::State& state) {
    // Ablation 1: the same problems through the embedded ASP engine
    // (declarative encoding + weak-constraint branch & bound).
    auto problem = generated(static_cast<int>(state.range(0)), 12);
    for (auto _ : state) {
        auto selection = optimize_asp(problem);
        benchmark::DoNotOptimize(selection);
    }
}
BENCHMARK(BM_AspEngine)->Arg(6)->Arg(8)->Arg(10);

void BM_ThreatSweep(benchmark::State& state) {
    auto problem = generated(10, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto selection = optimize_exact(problem);
        benchmark::DoNotOptimize(selection);
    }
}
BENCHMARK(BM_ThreatSweep)->Arg(8)->Arg(32)->Arg(128);

void BM_MultiPhasePlanning(benchmark::State& state) {
    auto problem = generated(static_cast<int>(state.range(0)), 16);
    for (auto _ : state) {
        auto phases = plan_phases(problem, /*budget_per_phase=*/8);
        benchmark::DoNotOptimize(phases);
    }
}
BENCHMARK(BM_MultiPhasePlanning)->Arg(6)->Arg(10)->Arg(14);

}  // namespace

int main(int argc, char** argv) {
    // Ablation sanity printed once: the two engines agree on the optimum.
    {
        auto problem = generated(8, 10);
        auto exact = optimize_exact(problem);
        auto asp = optimize_asp(problem);
        std::printf("ablation check (m=8, t=10): exact total=%lld, ASP total=%lld -> %s\n",
                    static_cast<long long>(exact.total_cost()),
                    asp.ok() ? static_cast<long long>(asp.value().total_cost()) : -1,
                    asp.ok() && asp.value().total_cost() == exact.total_cost() ? "AGREE"
                                                                               : "DISAGREE");
    }
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
