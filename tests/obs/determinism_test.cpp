// Cross-jobs observability determinism (docs/observability.md): the same
// sweep run at --jobs 1 and --jobs 8 must produce
//
//  - trace exports that are byte-identical once the wall-clock fields
//    (ts/dur/tid) are masked, and
//  - metrics exports whose counters and histograms sections are
//    byte-identical (gauges are schedule-dependent by contract and are
//    excluded).
#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "epa/epa.hpp"
#include "epa/requirement.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
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

struct ObservedSweep {
    std::string trace_json;
    std::string metrics_json;
};

/// Runs a 12-scenario sweep on chain(5) with the given lane count, recording
/// through a fresh trace sink + metrics registry.
ObservedSweep observed_sweep(std::size_t jobs) {
    const int n = 5;
    auto m = chain_model(n);

    obs::ChromeTraceSink trace;
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.jobs = jobs;
    ctx.trace = &trace;
    ctx.metrics = &metrics;

    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c4")}, {}, options);

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

    return {trace.export_json(), metrics.export_json()};
}

std::string mask_wall_clock(const std::string& json) {
    std::string out = std::regex_replace(json, std::regex("\"ts\":-?[0-9]+"), "\"ts\":0");
    out = std::regex_replace(out, std::regex("\"dur\":-?[0-9]+"), "\"dur\":0");
    return std::regex_replace(out, std::regex("\"tid\":[0-9]+"), "\"tid\":0");
}

/// Extracts one top-level section ("counters", "histograms") from a metrics
/// export; the sections appear in a fixed order, so substring splicing is
/// exact.
std::string section(const std::string& json, const std::string& name,
                    const std::string& next) {
    const std::size_t from = json.find("\"" + name + "\":");
    const std::size_t to = next.empty() ? json.size() : json.find("\"" + next + "\":");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return json.substr(from, to - from);
}

TEST(ObsDeterminismTest, TraceExportIsJobsInvariantModuloWallClock) {
    const ObservedSweep sequential = observed_sweep(1);
    const ObservedSweep parallel = observed_sweep(8);
    EXPECT_EQ(mask_wall_clock(sequential.trace_json), mask_wall_clock(parallel.trace_json));
}

TEST(ObsDeterminismTest, CountersAndHistogramsAreJobsInvariant) {
    const ObservedSweep sequential = observed_sweep(1);
    const ObservedSweep parallel = observed_sweep(8);
    EXPECT_EQ(section(sequential.metrics_json, "counters", "gauges"),
              section(parallel.metrics_json, "counters", "gauges"));
    EXPECT_EQ(section(sequential.metrics_json, "histograms", ""),
              section(parallel.metrics_json, "histograms", ""));
}

TEST(ObsDeterminismTest, RepeatedSequentialRunsAreByteIdentical) {
    const ObservedSweep first = observed_sweep(1);
    const ObservedSweep second = observed_sweep(1);
    EXPECT_EQ(mask_wall_clock(first.trace_json), mask_wall_clock(second.trace_json));
    EXPECT_EQ(section(first.metrics_json, "counters", "gauges"),
              section(second.metrics_json, "counters", "gauges"));
}

TEST(ObsDeterminismTest, SweepRecordsTheExpectedInstruments) {
    const ObservedSweep run = observed_sweep(2);
    // Spot-check the instrument taxonomy (docs/observability.md).
    EXPECT_NE(run.trace_json.find("\"name\":\"epa.evaluate\""), std::string::npos);
    EXPECT_NE(run.trace_json.find("\"name\":\"epa.absint_prefilter\""), std::string::npos);
    EXPECT_NE(run.metrics_json.find("\"epa.ground_cache.hits\":"), std::string::npos);
    // The static prefilter decides every scenario of this model, so the
    // solver counters are absent; the ground and absint instruments replace
    // them (docs/static-analysis.md).
    EXPECT_NE(run.metrics_json.find("\"asp.ground.calls\":"), std::string::npos);
    EXPECT_NE(run.metrics_json.find("\"epa.absint.atoms_decided\":"), std::string::npos);
    EXPECT_NE(run.metrics_json.find("\"epa.pool.lanes\":"), std::string::npos);
}

}  // namespace
}  // namespace cprisk
