// Expected-risk priority sweeps (risk/prior.hpp, AssessmentConfig::
// priority_policy) must not cost any determinism guarantee: reports and
// journals stay byte-identical across --jobs and the static-prefilter
// toggle, the journal echoes the policy and orders its records by
// descending expected risk, a kill mid-sweep resumes byte-identically, and
// the enumeration policy still reproduces the same verdict set.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/fault_injection.hpp"
#include "core/assessment.hpp"
#include "core/journal.hpp"
#include "core/report.hpp"
#include "core/watertank.hpp"

namespace cprisk::core {
namespace {

struct Fixture {
    std::shared_ptr<WaterTankCaseStudy> cs;
    std::unique_ptr<RiskAssessment> assessment;
    AssessmentConfig config;
};

Fixture make_fixture() {
    auto built = WaterTankCaseStudy::build();
    EXPECT_TRUE(built.ok()) << built.error();
    Fixture fixture;
    fixture.cs = std::make_shared<WaterTankCaseStudy>(std::move(built).value());
    fixture.assessment = std::make_unique<RiskAssessment>(
        fixture.cs->system, fixture.cs->requirements, fixture.cs->topology_requirements,
        fixture.cs->matrix, fixture.cs->mitigations);
    fixture.config.horizon = fixture.cs->horizon;
    fixture.config.include_attack_scenarios = false;
    fixture.config.priority_policy = risk::PriorityPolicy::ExpectedRisk;
    return fixture;
}

std::string renderings(const AssessmentReport& report) {
    return render_markdown(report) + "\n===\n" + render_risk_csv(report) + "\n===\n" +
           render_report_json(report);
}

/// One run under a fresh context with `jobs` worker lanes.
Result<AssessmentReport> run_at(const RiskAssessment& assessment, const AssessmentConfig& config,
                                std::size_t jobs = 1) {
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

class PriorityDeterminismTest : public ::testing::Test {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(PriorityDeterminismTest, ByteIdenticalAcrossJobsAndPrefilter) {
    // Byte-identity holds across jobs for every prefilter setting. The
    // toggle itself legitimately moves observability payloads (the
    // statically-resolved counter in reports, verdict provenance and solver
    // stats in journals) without changing any verdict, so comparisons are
    // scoped per prefilter value.
    Fixture fixture = make_fixture();
    for (const bool prefilter : {true, false}) {
        std::string reference;
        std::string reference_journal;
        for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
            const std::string journal = ::testing::TempDir() + "cprisk_prio_" +
                                        std::to_string(jobs) +
                                        (prefilter ? "_pf" : "_nopf") + ".jsonl";
            std::remove(journal.c_str());
            AssessmentConfig config = fixture.config;
            config.static_prefilter = prefilter;
            config.journal_path = journal;
            auto report = run_at(*fixture.assessment, config, jobs);
            ASSERT_TRUE(report.ok()) << report.error();
            const std::string rendered = renderings(report.value());
            const std::string journal_bytes = file_bytes(journal);
            if (reference.empty()) {
                reference = rendered;
            } else {
                EXPECT_EQ(rendered, reference) << "jobs=" << jobs << " pf=" << prefilter;
            }
            if (reference_journal.empty()) {
                reference_journal = journal_bytes;
            } else {
                EXPECT_EQ(journal_bytes, reference_journal)
                    << "jobs=" << jobs << " pf=" << prefilter;
            }
            std::remove(journal.c_str());
        }
    }
}

TEST_F(PriorityDeterminismTest, JournalEchoesPolicyAndOrdersByDescendingRisk) {
    Fixture fixture = make_fixture();
    const std::string journal = ::testing::TempDir() + "cprisk_prio_order.jsonl";
    std::remove(journal.c_str());
    AssessmentConfig config = fixture.config;
    config.journal_path = journal;
    ASSERT_TRUE(run_at(*fixture.assessment, config).ok());

    auto contents = load_journal(journal);
    ASSERT_TRUE(contents.ok()) << contents.error();
    const json::Value* echo = contents.value().header.get("config");
    ASSERT_NE(echo, nullptr);
    const json::Value* policy = echo->get("priority_policy");
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->as_string(), "expected_risk");

    ASSERT_FALSE(contents.value().records.empty());
    long long previous = -1;
    for (const hierarchy::ScenarioRecord& record : contents.value().records) {
        EXPECT_GE(record.expected_risk_micros, 0);
        if (previous >= 0) {
            EXPECT_LE(record.expected_risk_micros, previous);
        }
        previous = record.expected_risk_micros;
    }
    std::remove(journal.c_str());
}

TEST_F(PriorityDeterminismTest, KilledSweepResumesByteIdentically) {
    Fixture fixture = make_fixture();
    const std::string journal = ::testing::TempDir() + "cprisk_prio_kill.jsonl";
    std::remove(journal.c_str());

    auto clean = run_at(*fixture.assessment, fixture.config);
    ASSERT_TRUE(clean.ok()) << clean.error();

    // Kill on the 3rd journal append: exactly the two highest-risk
    // scenarios survive, regardless of job count.
    AssessmentConfig journaled = fixture.config;
    journaled.journal_path = journal;
    fault::arm("core.journal.append", 3);
    ASSERT_FALSE(run_at(*fixture.assessment, journaled, 8).ok());
    fault::reset();
    auto partial = load_journal(journal);
    ASSERT_TRUE(partial.ok()) << partial.error();
    ASSERT_EQ(partial.value().records.size(), 2u);
    EXPECT_GE(partial.value().records[0].expected_risk_micros,
              partial.value().records[1].expected_risk_micros);

    // Resume under a different job count; the report must match the clean
    // run byte-for-byte.
    journaled.resume = true;
    auto resumed = run_at(*fixture.assessment, journaled, 1);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    EXPECT_EQ(resumed.value().resumed_scenarios, 2u);
    EXPECT_EQ(renderings(resumed.value()), renderings(clean.value()));
    std::remove(journal.c_str());
}

TEST_F(PriorityDeterminismTest, EnumerationPolicyKeepsTheVerdictSet) {
    Fixture fixture = make_fixture();
    auto prioritized = run_at(*fixture.assessment, fixture.config);
    ASSERT_TRUE(prioritized.ok()) << prioritized.error();

    AssessmentConfig enumeration = fixture.config;
    enumeration.priority_policy = risk::PriorityPolicy::Enumeration;
    auto enumerated = run_at(*fixture.assessment, enumeration);
    ASSERT_TRUE(enumerated.ok()) << enumerated.error();

    // Same hazards and risks; only the evaluation (and journal) order and
    // the Completeness coverage summary differ.
    EXPECT_EQ(prioritized.value().hazards.size(), enumerated.value().hazards.size());
    EXPECT_EQ(prioritized.value().risks.size(), enumerated.value().risks.size());
    EXPECT_TRUE(prioritized.value().priority.enabled);
    EXPECT_FALSE(enumerated.value().priority.enabled);
    EXPECT_EQ(enumerated.value().priority.policy, "enumeration");
}

}  // namespace
}  // namespace cprisk::core
