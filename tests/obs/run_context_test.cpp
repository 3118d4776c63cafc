// RunContext tests (docs/observability.md): defaults reproduce the old
// behaviour exactly, the pool is built lazily and shared, and the EpaOptions/
// CegarOptions accessors resolve everything through the attached context
// (plain options without one run inline and unbudgeted).
#include "common/strings.hpp"
#include "obs/run_context.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "epa/epa.hpp"
#include "epa/requirement.hpp"
#include "hierarchy/cegar.hpp"
#include "security/scenario.hpp"

namespace cprisk {
namespace {

TEST(RunContextTest, DefaultsMatchLegacyBehaviour) {
    RunContext ctx;
    EXPECT_EQ(ctx.jobs, 1u);
    EXPECT_EQ(ctx.trace, nullptr);
    EXPECT_EQ(ctx.metrics, nullptr);
    EXPECT_EQ(ctx.faults, &fault::global_registry());
    EXPECT_FALSE(ctx.budget.limited());
}

TEST(RunContextTest, PoolIsLazyAndSticky) {
    RunContext ctx;
    ctx.jobs = 2;
    ThreadPool& pool = ctx.pool();
    EXPECT_EQ(pool.jobs(), 2u);
    ctx.jobs = 8;  // post-construction change has no effect on the pool
    EXPECT_EQ(&ctx.pool(), &pool);
    EXPECT_EQ(ctx.pool().jobs(), 2u);
}

TEST(RunContextTest, EpaOptionsResolveThroughContext) {
    epa::EpaOptions options;
    // No context: unbudgeted, uninstrumented.
    EXPECT_EQ(options.effective_budget(), nullptr);
    EXPECT_EQ(options.trace_sink(), nullptr);
    EXPECT_EQ(options.metrics_sink(), nullptr);

    RunContext ctx;
    ctx.jobs = 2;
    obs::MetricsRegistry metrics;
    ctx.metrics = &metrics;
    options.ctx = &ctx;
    EXPECT_EQ(options.effective_budget(), &ctx.budget);
    EXPECT_EQ(options.metrics_sink(), &metrics);
}

TEST(RunContextTest, CegarOptionsResolveThroughContext) {
    hierarchy::CegarOptions options;
    EXPECT_EQ(options.effective_budget(), nullptr);
    RunContext ctx;
    ctx.jobs = 3;
    obs::ChromeTraceSink trace;
    ctx.trace = &trace;
    options.ctx = &ctx;
    EXPECT_EQ(options.trace_sink(), &trace);
}

// --- context-vs-plain equivalence on a real sweep ---------------------------

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

security::ScenarioSpace single_fault_space(int scenarios, int chain) {
    std::vector<security::AttackScenario> list;
    for (int i = 0; i < scenarios; ++i) {
        security::AttackScenario s;
        s.id = numbered("s", i);
        s.mutations = {{numbered("c", i % chain), "fail"}};
        s.likelihood = qual::Level::Low;
        list.push_back(std::move(s));
    }
    return security::ScenarioSpace(std::move(list));
}

std::vector<epa::ScenarioVerdict> run_sweep(epa::EpaOptions options) {
    const int n = 4;
    auto m = chain_model(n);
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c3")}, {}, options);
    return analysis.value().evaluate_all(single_fault_space(8, n), {}).value();
}

TEST(RunContextTest, ContextSweepMatchesPlainSweep) {
    const auto plain_verdicts = run_sweep(epa::EpaOptions{});

    RunContext ctx;
    ctx.jobs = 2;
    epa::EpaOptions bundled;
    bundled.ctx = &ctx;
    const auto ctx_verdicts = run_sweep(bundled);

    ASSERT_EQ(plain_verdicts.size(), ctx_verdicts.size());
    for (std::size_t i = 0; i < plain_verdicts.size(); ++i) {
        EXPECT_EQ(plain_verdicts[i].scenario_id, ctx_verdicts[i].scenario_id);
        EXPECT_EQ(plain_verdicts[i].status, ctx_verdicts[i].status);
        EXPECT_EQ(plain_verdicts[i].violated_requirements,
                  ctx_verdicts[i].violated_requirements);
        EXPECT_EQ(plain_verdicts[i].severity, ctx_verdicts[i].severity);
    }
}

TEST(RunContextTest, ContextBudgetGovernsTheRun) {
    RunContext ctx;
    CancelToken cancel;
    cancel.request_cancel();  // starved from the first budget check
    ctx.budget.set_cancel_token(cancel);
    epa::EpaOptions options;
    options.ctx = &ctx;
    const auto verdicts = run_sweep(options);
    ASSERT_FALSE(verdicts.empty());
    for (const auto& verdict : verdicts) {
        EXPECT_EQ(verdict.status, epa::VerdictStatus::Undetermined) << verdict.scenario_id;
    }
}

}  // namespace
}  // namespace cprisk
