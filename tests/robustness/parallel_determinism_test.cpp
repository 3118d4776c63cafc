// Determinism across --jobs: the worker count must never change a single
// output byte. Reports (markdown/CSV/JSON), journals, and resumed runs are
// compared byte-for-byte between jobs=1 (the inline sweep) and jobs=8,
// over both case-study bundles, including an interrupted-then-resumed run
// and a resume under a *different* job count than the original run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/journal.hpp"
#include "core/reactor.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

struct Bundle {
    std::string name;
    std::unique_ptr<RiskAssessment> assessment;
    AssessmentConfig config;
    std::shared_ptr<void> owner;
};

Bundle make_watertank() {
    auto built = WaterTankCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<WaterTankCaseStudy>(std::move(built).value());
    Bundle bundle;
    bundle.name = "watertank";
    bundle.assessment = std::make_unique<RiskAssessment>(
        cs->system, cs->requirements, cs->topology_requirements, cs->matrix, cs->mitigations);
    bundle.config.horizon = cs->horizon;
    bundle.config.include_attack_scenarios = false;
    bundle.owner = cs;
    return bundle;
}

Bundle make_reactor() {
    auto built = ReactorCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    auto cs = std::make_shared<ReactorCaseStudy>(std::move(built).value());
    Bundle bundle;
    bundle.name = "reactor";
    bundle.assessment = std::make_unique<RiskAssessment>(
        cs->system, cs->requirements, cs->topology_requirements, cs->matrix, cs->mitigations);
    bundle.config.horizon = cs->horizon;
    bundle.config.include_attack_scenarios = false;
    bundle.config.max_simultaneous_faults = 1;
    bundle.owner = cs;
    return bundle;
}

/// Prints the bundle's name, not the factory's address, so discovered test
/// names are the same in every build.
void PrintTo(Bundle (*make)(), std::ostream* os) {
    *os << (make == &make_watertank ? "watertank" : "reactor");
}

std::string renderings(const AssessmentReport& report) {
    return render_markdown(report) + "\n===\n" + render_risk_csv(report) + "\n===\n" +
           render_report_json(report);
}

/// One run under a fresh context with `jobs` worker lanes.
Result<AssessmentReport> run_at(const RiskAssessment& assessment, const AssessmentConfig& config,
                                std::size_t jobs) {
    RunContext ctx;
    ctx.jobs = jobs;
    return assessment.run(config, ctx);
}

std::string file_bytes(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.good()) << path;
    std::ostringstream content;
    content << file.rdbuf();
    return content.str();
}

class ParallelDeterminismTest : public ::testing::TestWithParam<Bundle (*)()> {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_P(ParallelDeterminismTest, ReportsAndJournalsAreByteIdenticalAcrossJobs) {
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);

    const std::string journal_seq =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_jobs1.jsonl";
    const std::string journal_par =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_jobs8.jsonl";
    std::remove(journal_seq.c_str());
    std::remove(journal_par.c_str());

    AssessmentConfig sequential = bundle.config;
    sequential.journal_path = journal_seq;
    auto seq_report = run_at(*bundle.assessment, sequential, 1);
    ASSERT_TRUE(seq_report.ok()) << seq_report.error();

    AssessmentConfig parallel = bundle.config;
    parallel.journal_path = journal_par;
    auto par_report = run_at(*bundle.assessment, parallel, 8);
    ASSERT_TRUE(par_report.ok()) << par_report.error();

    EXPECT_EQ(renderings(seq_report.value()), renderings(par_report.value()));
    EXPECT_EQ(file_bytes(journal_seq), file_bytes(journal_par));

    std::remove(journal_seq.c_str());
    std::remove(journal_par.c_str());
}

TEST_P(ParallelDeterminismTest, InterruptedParallelRunResumesUnderAnyJobCount) {
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);
    const std::string journal =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_parkill.jsonl";
    std::remove(journal.c_str());

    auto clean = run_at(*bundle.assessment, bundle.config, 1);
    ASSERT_TRUE(clean.ok()) << clean.error();

    // Kill a jobs=8 run on its 3rd journal append. Appends are drained in
    // scenario order at any job count, so exactly the first two records
    // survive — same as a sequential kill.
    AssessmentConfig journaled = bundle.config;
    journaled.journal_path = journal;
    fault::arm("core.journal.append", 3);
    auto killed = run_at(*bundle.assessment, journaled, 8);
    fault::reset();
    ASSERT_FALSE(killed.ok());
    auto contents = load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    EXPECT_EQ(contents.value().records.size(), 2u);

    // Resume under a different job count: jobs is deliberately not part of
    // the journal's config echo, and the result must match the clean run.
    journaled.resume = true;
    auto resumed_seq = run_at(*bundle.assessment, journaled, 1);
    ASSERT_TRUE(resumed_seq.ok()) << resumed_seq.error();
    EXPECT_EQ(resumed_seq.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed_seq.value()), renderings(clean.value()));
    const std::string journal_after_seq_resume = file_bytes(journal);

    // Kill again the same way, resume with jobs=8 this time: the journal
    // after resume must be byte-identical to the jobs=1 resume.
    std::remove(journal.c_str());
    journaled.resume = false;
    fault::arm("core.journal.append", 3);
    ASSERT_FALSE(run_at(*bundle.assessment, journaled, 8).ok());
    fault::reset();
    journaled.resume = true;
    auto resumed_par = run_at(*bundle.assessment, journaled, 8);
    ASSERT_TRUE(resumed_par.ok()) << resumed_par.error();
    EXPECT_EQ(resumed_par.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed_par.value()), renderings(clean.value()));
    EXPECT_EQ(file_bytes(journal), journal_after_seq_resume);

    std::remove(journal.c_str());
}

TEST_P(ParallelDeterminismTest, AutoJobsMatchesSequentialOutput) {
    // jobs = 0 resolves to hardware concurrency; still byte-identical.
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);

    auto seq_report = run_at(*bundle.assessment, bundle.config, 1);
    ASSERT_TRUE(seq_report.ok()) << seq_report.error();

    auto auto_report = run_at(*bundle.assessment, bundle.config, 0);
    ASSERT_TRUE(auto_report.ok()) << auto_report.error();
    EXPECT_EQ(renderings(seq_report.value()), renderings(auto_report.value()));
}

INSTANTIATE_TEST_SUITE_P(Bundles, ParallelDeterminismTest,
                         ::testing::Values(&make_watertank, &make_reactor),
                         [](const ::testing::TestParamInfo<Bundle (*)()>& info) {
                             return info.index == 0 ? "watertank" : "reactor";
                         });

}  // namespace
}  // namespace cprisk::core
