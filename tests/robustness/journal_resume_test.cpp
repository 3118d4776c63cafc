// Checkpoint/resume: a run killed mid-journal resumes and produces reports
// byte-identical to an uninterrupted run, over both case-study bundles.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/journal.hpp"
#include "core/reactor.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

/// One case-study bundle prepared for assessment.
struct Bundle {
    std::string name;
    std::unique_ptr<RiskAssessment> assessment;
    AssessmentConfig config;

    // Keeps the borrowed inputs alive.
    std::shared_ptr<void> owner;

    /// One run under a fresh, default RunContext.
    Result<AssessmentReport> run(const AssessmentConfig& run_config) const {
        RunContext ctx;
        return assessment->run(run_config, ctx);
    }
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

/// Every user-visible rendering of a report, for byte-identity checks.
std::string renderings(const AssessmentReport& report) {
    return render_markdown(report) + "\n===\n" + render_risk_csv(report) + "\n===\n" +
           render_report_json(report);
}

class JournalResumeTest : public ::testing::TestWithParam<Bundle (*)()> {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_P(JournalResumeTest, ResumeAfterMidRunKillReproducesCleanReport) {
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);
    const std::string journal =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_kill.jsonl";
    std::remove(journal.c_str());

    auto clean = bundle.run(bundle.config);
    ASSERT_TRUE(clean.ok()) << clean.error();

    // "Kill" the run: the journal write for the 3rd scenario tears mid-line
    // and the run aborts, exactly like a process death at that point.
    AssessmentConfig journaled = bundle.config;
    journaled.journal_path = journal;
    fault::arm("core.journal.append", 3);
    auto killed = bundle.run(journaled);
    fault::reset();
    ASSERT_FALSE(killed.ok());
    EXPECT_NE(killed.error().find("journal"), std::string::npos) << killed.error();

    // The torn trailing line is tolerated; the first two records survived.
    auto contents = load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    EXPECT_TRUE(contents.value().torn_tail);
    EXPECT_EQ(contents.value().records.size(), 2u);

    // Resume: replays the journal, finishes the rest, byte-identical output.
    journaled.resume = true;
    auto resumed = bundle.run(journaled);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ(resumed.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed.value()), renderings(clean.value()));

    // A second resume replays everything and still matches.
    auto replayed = bundle.run(journaled);
    ASSERT_TRUE(replayed.ok()) << replayed.error();
    EXPECT_EQ(replayed.value().resumed_scenarios, replayed.value().scenario_count);
    EXPECT_EQ(renderings(replayed.value()), renderings(clean.value()));
    std::remove(journal.c_str());
}

TEST_P(JournalResumeTest, SyncedJournalTearsAndResumesIdentically) {
    // --journal-sync fsyncs after every record; the torn-tail tolerance and
    // resume semantics are unchanged, and the bytes match the unsynced path.
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);
    const std::string journal =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_sync.jsonl";
    std::remove(journal.c_str());

    auto clean = bundle.run(bundle.config);
    ASSERT_TRUE(clean.ok()) << clean.error();

    AssessmentConfig journaled = bundle.config;
    journaled.journal_path = journal;
    journaled.journal_sync = true;
    fault::arm("core.journal.append", 3);
    auto killed = bundle.run(journaled);
    fault::reset();
    ASSERT_FALSE(killed.ok());

    auto contents = load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    EXPECT_TRUE(contents.value().torn_tail);
    EXPECT_EQ(contents.value().records.size(), 2u);

    journaled.resume = true;
    auto resumed = bundle.run(journaled);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ(resumed.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed.value()), renderings(clean.value()));
    std::remove(journal.c_str());
}

TEST_P(JournalResumeTest, ResumeRefusesJournalFromDifferentConfiguration) {
    Bundle bundle = GetParam()();
    ASSERT_NE(bundle.assessment, nullptr);
    const std::string journal =
        ::testing::TempDir() + "cprisk_" + bundle.name + "_cfg.jsonl";
    std::remove(journal.c_str());

    AssessmentConfig journaled = bundle.config;
    journaled.journal_path = journal;
    ASSERT_TRUE(bundle.run(journaled).ok());

    journaled.resume = true;
    journaled.horizon += 1;  // verdict-affecting change
    auto mismatched = bundle.run(journaled);
    ASSERT_FALSE(mismatched.ok());
    EXPECT_NE(mismatched.error().find("configuration"), std::string::npos)
        << mismatched.error();

    // A deadline change is run-specific and must NOT invalidate the journal.
    journaled.horizon -= 1;
    journaled.deadline_ms = 600000;
    auto compatible = bundle.run(journaled);
    EXPECT_TRUE(compatible.ok()) << compatible.error();
    std::remove(journal.c_str());
}

INSTANTIATE_TEST_SUITE_P(Bundles, JournalResumeTest,
                         ::testing::Values(&make_watertank, &make_reactor),
                         [](const ::testing::TestParamInfo<Bundle (*)()>& info) {
                             return info.index == 0 ? "watertank" : "reactor";
                         });

TEST(JournalTest, RecordRoundTripIsLossless) {
    hierarchy::ScenarioRecord record;
    record.scenario_id = "S42";
    record.outcome = hierarchy::ScenarioOutcome::Undetermined;
    record.stages.push_back({"topology", epa::VerdictStatus::Hazard, std::nullopt, false});
    record.stages.push_back({"behavioral", epa::VerdictStatus::Undetermined,
                             epa::UndeterminedReason::Timeout, false});
    record.stages.push_back({"topology", epa::VerdictStatus::Undetermined,
                             epa::UndeterminedReason::Timeout, true});
    record.verdict.scenario_id = "S42";
    record.verdict.status = epa::VerdictStatus::Undetermined;
    record.verdict.undetermined_reason = epa::UndeterminedReason::Timeout;
    record.verdict.undetermined_detail = "scenario S42: wall-clock deadline exceeded";
    record.verdict.mutations.push_back({"valve", "stuck_at_open"});
    record.verdict.active_mitigations = {"M-TRAIN"};
    record.verdict.violated_requirements = {"r1"};
    record.verdict.solver_stats.decisions = 99;
    record.verdict.solver_stats.conflicts = 3;

    const json::Value encoded = record_to_json(record);
    auto decoded = record_from_json(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    // Deterministic serialization makes byte equality a full deep compare.
    EXPECT_EQ(record_to_json(decoded.value()).serialize(), encoded.serialize());
    EXPECT_EQ(decoded.value().stages.size(), 3u);
    EXPECT_TRUE(decoded.value().stages[2].degraded);
}

TEST(JournalTest, LoaderRejectsMidFileCorruption) {
    const std::string path = ::testing::TempDir() + "cprisk_corrupt.jsonl";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"kind\":\"cprisk-journal\",\"version\":1,\"config\":{}}\n", f);
        std::fputs("this is not json\n", f);
        std::fputs("{\"kind\":\"scenario\",\"id\":\"S1\",\"outcome\":\"safe\",\"stages\":[],"
                   "\"verdict\":{\"scenario_id\":\"S1\",\"status\":\"safe\"}}\n",
                   f);
        std::fclose(f);
    }
    auto contents = load_journal(path);
    EXPECT_FALSE(contents.ok());  // corruption is NOT on the final line
    std::remove(path.c_str());
}

TEST(JournalTest, LoaderRejectsMissingOrForeignHeader) {
    const std::string path = ::testing::TempDir() + "cprisk_badheader.jsonl";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"kind\":\"something-else\"}\n", f);
        std::fclose(f);
    }
    EXPECT_FALSE(load_journal(path).ok());
    EXPECT_FALSE(load_journal(::testing::TempDir() + "cprisk_missing.jsonl").ok());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace cprisk::core
