// Retry observability contract (common/retry.hpp, docs/serve.md): a
// transient injected solver fault repaired by one retry leaves the same
// counters — epa.retry.attempts == 1, no exhaustion — and the same verdicts
// at any job count, because the armed fault fires exactly once globally no
// matter which lane draws it. Exhausted retries are counted separately, and
// the backoff schedule itself is deterministic.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/retry.hpp"
#include "epa/epa.hpp"
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
        c.id = "c" + std::to_string(i);
        c.name = c.id;
        c.type = i + 1 == n ? model::ElementType::Equipment : model::ElementType::Controller;
        c.asset_value = i + 1 == n ? qual::Level::VeryHigh : qual::Level::Medium;
        c.fault_modes = {model::FaultMode{"fail", model::FaultEffect::Corruption, "",
                                          qual::Level::Medium, qual::Level::Low}};
        (void)m.add_component(std::move(c));
    }
    for (int i = 0; i + 1 < n; ++i) {
        (void)m.add_relation({"c" + std::to_string(i), "c" + std::to_string(i + 1),
                              model::RelationType::SignalFlow, ""});
    }
    return m;
}

struct SweepResult {
    std::string metrics_json;
    std::vector<epa::ScenarioVerdict> verdicts;
};

/// Runs an 8-scenario sweep on the solver path (prefilter off, so the armed
/// asp.solver.solve seam is actually consulted) with the given lane count
/// and retry budget.
SweepResult faulted_sweep(std::size_t jobs, std::size_t retries) {
    const int n = 4;
    auto m = chain_model(n);

    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.jobs = jobs;
    ctx.metrics = &metrics;
    ctx.retry.max_retries = retries;
    ctx.retry.base_backoff = std::chrono::milliseconds(1);  // keep the test fast
    ctx.retry.max_backoff = std::chrono::milliseconds(2);

    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.static_prefilter = false;
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c3")}, {}, options);
    EXPECT_TRUE(analysis.ok()) << analysis.error();

    std::vector<security::AttackScenario> list;
    for (int i = 0; i < 8; ++i) {
        security::AttackScenario s;
        s.id = "s" + std::to_string(i);
        s.mutations = {{"c" + std::to_string(i % n), "fail"}};
        s.likelihood = qual::Level::Low;
        list.push_back(std::move(s));
    }
    auto verdicts =
        analysis.value().evaluate_all(security::ScenarioSpace(std::move(list)), {}).value();
    EXPECT_EQ(verdicts.size(), 8u);
    return {metrics.export_json(), std::move(verdicts)};
}

std::string counters_section(const std::string& json) {
    const std::size_t from = json.find("\"counters\":");
    const std::size_t to = json.find("\"gauges\":");
    EXPECT_NE(from, std::string::npos);
    return json.substr(from, to - from);
}

std::string verdict_summary(const std::vector<epa::ScenarioVerdict>& verdicts) {
    std::string out;
    for (const auto& v : verdicts) {
        out += v.scenario_id + "=" + std::to_string(static_cast<int>(v.status)) + ";";
    }
    return out;
}

class RetryMetricsTest : public ::testing::Test {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(RetryMetricsTest, RepairedTransientFaultIsJobsInvariant) {
    // The armed fault fires on exactly one solve call, whichever lane draws
    // it; one retry repairs it. Counters and verdicts must not depend on the
    // lane count.
    fault::arm("asp.solver.solve", 1);
    const SweepResult sequential = faulted_sweep(1, 1);
    EXPECT_NE(sequential.metrics_json.find("\"epa.retry.attempts\":1"), std::string::npos)
        << sequential.metrics_json;
    EXPECT_EQ(sequential.metrics_json.find("\"epa.retry.exhausted\""), std::string::npos);

    fault::reset();
    fault::arm("asp.solver.solve", 1);
    const SweepResult parallel = faulted_sweep(4, 1);

    EXPECT_EQ(counters_section(sequential.metrics_json),
              counters_section(parallel.metrics_json));
    EXPECT_EQ(verdict_summary(sequential.verdicts), verdict_summary(parallel.verdicts));

    // And both match a run that never saw the fault at all.
    fault::reset();
    const SweepResult clean = faulted_sweep(1, 1);
    EXPECT_EQ(verdict_summary(clean.verdicts), verdict_summary(sequential.verdicts));
    for (const auto& v : clean.verdicts) {
        EXPECT_NE(v.status, epa::VerdictStatus::Undetermined) << v.scenario_id;
    }
}

TEST_F(RetryMetricsTest, DisabledRetryLeavesTheFaultAsSolverError) {
    fault::arm("asp.solver.solve", 1);
    const SweepResult result = faulted_sweep(1, 0);
    EXPECT_EQ(result.metrics_json.find("\"epa.retry.attempts\""), std::string::npos);
    std::size_t solver_errors = 0;
    for (const auto& v : result.verdicts) {
        if (v.status == epa::VerdictStatus::Undetermined &&
            v.undetermined_reason == epa::UndeterminedReason::SolverError) {
            ++solver_errors;
        }
    }
    EXPECT_EQ(solver_errors, 1u);
}

TEST_F(RetryMetricsTest, ExhaustedRetriesAreCounted) {
    // The registry's trigger is one-shot, so a persistent fault is staged by
    // re-arming the site during the victim's backoff sleep: the generous
    // base_backoff guarantees the helper thread lands its re-arm before the
    // retry's solve call.
    const int n = 4;
    auto m = chain_model(n);

    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.jobs = 1;
    ctx.metrics = &metrics;
    ctx.retry.max_retries = 1;
    ctx.retry.base_backoff = std::chrono::milliseconds(200);
    ctx.retry.max_backoff = std::chrono::milliseconds(200);

    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.static_prefilter = false;
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c3")}, {}, options);
    ASSERT_TRUE(analysis.ok()) << analysis.error();

    security::AttackScenario victim;
    victim.id = "victim";
    victim.mutations = {{"c0", "fail"}};
    victim.likelihood = qual::Level::Low;

    fault::arm("asp.solver.solve", 1);
    std::thread rearm([] {
        while (fault::hits("asp.solver.solve") < 1) std::this_thread::yield();
        fault::arm("asp.solver.solve", 1);  // re-trip the retry attempt too
    });
    auto verdicts =
        analysis.value().evaluate_all(security::ScenarioSpace({victim}), {}).value();
    rearm.join();

    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].status, epa::VerdictStatus::Undetermined);
    EXPECT_EQ(verdicts[0].undetermined_reason, epa::UndeterminedReason::SolverError);
    const std::string exported = metrics.export_json();
    EXPECT_NE(exported.find("\"epa.retry.attempts\":1"), std::string::npos) << exported;
    EXPECT_NE(exported.find("\"epa.retry.exhausted\":1"), std::string::npos) << exported;
}

TEST_F(RetryMetricsTest, BackoffScheduleIsDeterministicJitteredAndClamped) {
    RetryPolicy policy;
    policy.max_retries = 3;
    policy.base_backoff = std::chrono::milliseconds(10);
    policy.max_backoff = std::chrono::milliseconds(35);
    const auto first = policy.backoff(0, 42);
    const auto second = policy.backoff(1, 42);
    const auto third = policy.backoff(2, 42);
    // Jittered into [ceil(step/2), step], exponentially growing, clamped.
    EXPECT_GE(first.count(), 5);
    EXPECT_LE(first.count(), 10);
    EXPECT_GE(second.count(), 10);
    EXPECT_LE(second.count(), 20);
    EXPECT_GE(third.count(), 18);
    EXPECT_LE(third.count(), 35);
    // Deterministic: same (seed, salt, attempt) => same delay, every time.
    EXPECT_EQ(policy.backoff(1, 42), policy.backoff(1, 42));
    EXPECT_EQ(policy.backoff(2, 7), policy.backoff(2, 7));
}

}  // namespace
}  // namespace cprisk
