// Solver metrics taxonomy (docs/solver.md, docs/observability.md): the CDCL
// counters asp.solve.{restarts,learned_clauses,reused_propagations,core_size}
// are recorded, and they stay jobs-invariant on the two workload shapes that
// guarantee it by construction:
//
//  - hazard-core probes, which run sequentially after each frontier layer
//    barrier (epa/frontier.cpp), and
//  - propagation-only scenario sweeps, where no search means no learning and
//    the warm pool has nothing schedule-dependent to accumulate.
//
// Search-heavy sweeps at jobs > 1 are deliberately NOT asserted invariant:
// each pool solver learns its own clauses, so the learned/reused totals scale
// with lease scheduling while the verdicts stay identical (the contract the
// parallel-determinism suite pins instead).
#include <gtest/gtest.h>

#include <string>

#include "common/strings.hpp"
#include "epa/epa.hpp"
#include "epa/frontier.hpp"
#include "epa/requirement.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "security/scenario.hpp"

namespace cprisk {
namespace {

model::SystemModel chain_model(int n) {
    model::SystemModel m;
    for (int i = 0; i < n; ++i) {
        model::Component c;
        c.id = numbered("c", i);
        c.name = c.id;
        c.type = i + 1 == n ? model::ElementType::Equipment : model::ElementType::Controller;
        c.asset_value = i + 1 == n ? qual::Level::VeryHigh : qual::Level::Medium;
        c.fault_modes = {model::FaultMode{"fail", model::FaultEffect::Corruption, "",
                                          qual::Level::Medium, qual::Level::Low}};
        (void)m.add_component(std::move(c));
    }
    for (int i = 0; i + 1 < n; ++i) {
        (void)m.add_relation({numbered("c", i), numbered("c", i + 1),
                              model::RelationType::SignalFlow, ""});
    }
    return m;
}

/// Extracts one top-level section ("counters", "histograms") from a metrics
/// export; the sections appear in a fixed order, so substring splicing is
/// exact (the determinism_test idiom).
std::string section(const std::string& json, const std::string& name, const std::string& next) {
    const std::size_t from = json.find("\"" + name + "\":");
    const std::size_t to = next.empty() ? json.size() : json.find("\"" + next + "\":");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return json.substr(from, to - from);
}

/// Full-lattice frontier over chain(n) at the given lane count. The chain is
/// negation-free under Topology focus, so the certificate is monotone,
/// supersets prune, and every confirmed hazard fires a hazard-core probe —
/// a real (UNSAT) CDCL solve with an assumption core.
std::string frontier_metrics(int n, std::size_t jobs) {
    auto m = chain_model(n);
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.jobs = jobs;
    ctx.metrics = &metrics;

    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches(numbered("c", n - 1))}, {}, options);
    EXPECT_TRUE(analysis.ok()) << analysis.error();

    epa::FrontierOptions frontier_options;
    frontier_options.ctx = &ctx;
    auto frontier = epa::run_frontier(analysis.value(), frontier_options);
    EXPECT_TRUE(frontier.ok()) << frontier.error();
    EXPECT_TRUE(frontier.value().pruning);
    EXPECT_EQ(frontier.value().minimal_hazards.size(), static_cast<std::size_t>(n));
    return metrics.export_json();
}

/// 12-scenario sweep on chain(5) with the static prefilter disabled, so every
/// scenario reaches the solver but the negation-free program needs no search.
std::string prefilter_off_sweep_metrics(std::size_t jobs) {
    const int n = 5;
    auto m = chain_model(n);
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.jobs = jobs;
    ctx.metrics = &metrics;

    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.static_prefilter = false;
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c4")}, {}, options);
    EXPECT_TRUE(analysis.ok()) << analysis.error();

    std::vector<security::AttackScenario> list;
    for (int i = 0; i < 12; ++i) {
        security::AttackScenario s;
        s.id = numbered("s", i);
        s.mutations = {{numbered("c", i % n), "fail"}};
        s.likelihood = qual::Level::Low;
        list.push_back(std::move(s));
    }
    auto verdicts =
        analysis.value().evaluate_all(security::ScenarioSpace(std::move(list)), {}).value();
    EXPECT_EQ(verdicts.size(), 12u);
    return metrics.export_json();
}

TEST(SolverMetricsTest, FrontierProbesRecordTheCdclCounters) {
    const std::string json = frontier_metrics(6, 2);
    // Hazard-core probes are cold CDCL solves, so the engine counters appear
    // even though the scenario verdicts themselves were decided statically.
    EXPECT_NE(json.find("\"asp.solve.calls\":"), std::string::npos);
    EXPECT_NE(json.find("\"asp.solve.restarts\":"), std::string::npos);
    EXPECT_NE(json.find("\"asp.solve.learned_clauses\":"), std::string::npos);
    EXPECT_NE(json.find("\"asp.solve.reused_propagations\":"), std::string::npos);
    // Every probe refutes its violation-free pin set, so each completed solve
    // carries an assumption core and the core-size counter fires.
    EXPECT_NE(json.find("\"asp.solve.core_size\":"), std::string::npos);
    EXPECT_NE(json.find("\"epa.hazard_core.extracted\":"), std::string::npos);
}

TEST(SolverMetricsTest, FrontierCountersAreJobsInvariant) {
    const std::string sequential = frontier_metrics(6, 1);
    const std::string parallel = frontier_metrics(6, 8);
    // Probes run sequentially after each layer barrier, so even the
    // learning-dependent counters agree byte-for-byte across lane counts.
    EXPECT_EQ(section(sequential, "counters", "gauges"), section(parallel, "counters", "gauges"));
    EXPECT_EQ(section(sequential, "histograms", ""), section(parallel, "histograms", ""));
}

TEST(SolverMetricsTest, PropagationOnlySweepCountersAreJobsInvariant) {
    const std::string sequential = prefilter_off_sweep_metrics(1);
    const std::string parallel = prefilter_off_sweep_metrics(8);
    EXPECT_NE(sequential.find("\"asp.solve.calls\":"), std::string::npos);
    // No conflicts means no learning, so the warm pool accumulates nothing
    // schedule-dependent and the CDCL counters stay invariant.
    EXPECT_EQ(section(sequential, "counters", "gauges"), section(parallel, "counters", "gauges"));
}

}  // namespace
}  // namespace cprisk
