// CancelToken propagation end-to-end (docs/robustness.md): a journaled run
// cancelled mid-sweep stays resumable — cancelled records are re-evaluated
// on resume, finished ones replay verbatim — and the resumed report is
// byte-identical to an uninterrupted run, at any job count and under any
// cancellation interleaving.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"
#include "obs/run_context.hpp"

namespace cprisk::core {
namespace {

std::string renderings(const AssessmentReport& report) {
    return render_markdown(report) + "\n===\n" + render_risk_csv(report) + "\n===\n" +
           render_report_json(report);
}

class CancelResumeTest : public ::testing::Test {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(CancelResumeTest, MidSweepCancelResumesToUninterruptedReport) {
    auto built = WaterTankCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<WaterTankCaseStudy>(std::move(built).value());
    RiskAssessment assessment(cs->system, cs->requirements, cs->topology_requirements,
                              cs->matrix, cs->mitigations);
    AssessmentConfig config;
    config.horizon = cs->horizon;
    config.include_attack_scenarios = false;

    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        const std::string journal =
            ::testing::TempDir() + "cprisk_cancel_" + std::to_string(jobs) + ".jsonl";
        std::remove(journal.c_str());

        RunContext clean_ctx;
        clean_ctx.jobs = jobs;
        auto clean = assessment.run(config, clean_ctx);
        ASSERT_TRUE(clean.ok()) << clean.error();

        // Cancel mid-sweep: the prefilter seam's hit count is a progress
        // proxy, so the watcher pulls the token after a couple of scenario
        // evaluations have gone through.
        CancelToken token;
        const std::size_t baseline = fault::hits("epa.absint.prefilter");
        std::atomic<bool> stop_watcher{false};
        std::thread watcher([&] {
            while (!stop_watcher.load()) {
                if (fault::hits("epa.absint.prefilter") >= baseline + 2) {
                    token.request_cancel();
                    return;
                }
                std::this_thread::yield();
            }
        });

        AssessmentConfig cancelled_config = config;
        cancelled_config.journal_path = journal;
        cancelled_config.cancel = token;
        RunContext cancelled_ctx;
        cancelled_ctx.jobs = jobs;
        auto cancelled = assessment.run(cancelled_config, cancelled_ctx);
        stop_watcher.store(true);
        watcher.join();
        // Cancellation degrades scenarios to Undetermined{cancelled}; the
        // run itself still succeeds with a partial report.
        ASSERT_TRUE(cancelled.ok()) << cancelled.error();

        AssessmentConfig resume_config = config;
        resume_config.journal_path = journal;
        resume_config.resume = true;
        RunContext resume_ctx;
        resume_ctx.jobs = jobs;
        auto resumed = assessment.run(resume_config, resume_ctx);
        ASSERT_TRUE(resumed.ok()) << resumed.error();
        EXPECT_TRUE(resumed.value().complete());
        EXPECT_EQ(renderings(resumed.value()), renderings(clean.value())) << "jobs=" << jobs;
        std::remove(journal.c_str());
    }
}

TEST_F(CancelResumeTest, FullyCancelledRunResumesFromScratch) {
    auto built = WaterTankCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<WaterTankCaseStudy>(std::move(built).value());
    RiskAssessment assessment(cs->system, cs->requirements, cs->topology_requirements,
                              cs->matrix, cs->mitigations);
    AssessmentConfig config;
    config.horizon = cs->horizon;
    config.include_attack_scenarios = false;

    RunContext clean_ctx;
    auto clean = assessment.run(config, clean_ctx);
    ASSERT_TRUE(clean.ok()) << clean.error();

    const std::string journal = ::testing::TempDir() + "cprisk_cancel_all.jsonl";
    std::remove(journal.c_str());

    // The token is already pulled when the run starts: every scenario is
    // journaled as cancelled, deterministically.
    CancelToken token;
    token.request_cancel();
    AssessmentConfig cancelled_config = config;
    cancelled_config.journal_path = journal;
    cancelled_config.cancel = token;
    RunContext cancelled_ctx;
    auto cancelled = assessment.run(cancelled_config, cancelled_ctx);
    ASSERT_TRUE(cancelled.ok()) << cancelled.error();
    EXPECT_FALSE(cancelled.value().complete());

    // Resume drops every cancelled record (the interruption belongs to the
    // run, not the scenario) and re-evaluates from scratch.
    AssessmentConfig resume_config = config;
    resume_config.journal_path = journal;
    resume_config.resume = true;
    RunContext resume_ctx;
    auto resumed = assessment.run(resume_config, resume_ctx);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ(resumed.value().resumed_scenarios, 0u);
    EXPECT_TRUE(resumed.value().complete());
    EXPECT_EQ(renderings(resumed.value()), renderings(clean.value()));
    std::remove(journal.c_str());
}

}  // namespace
}  // namespace cprisk::core
