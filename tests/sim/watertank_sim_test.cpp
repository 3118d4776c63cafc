// Quantitative water-tank simulator: nominal control, fault outcomes,
// campaigns, and qualitative/quantitative cross-validation.
#include <gtest/gtest.h>

#include "core/watertank.hpp"
#include "sim/campaign.hpp"
#include "sim/watertank.hpp"

namespace cprisk::sim {
namespace {

TEST(Simulator, NominalRunIsSafe) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {});
    EXPECT_FALSE(result.overflow);
    EXPECT_FALSE(result.alert_raised);
    // The controller keeps the level inside the band (with hysteresis slop).
    for (const auto& sample : result.trace) {
        EXPECT_LT(sample.values.at("level"), simulator.params().capacity);
        EXPECT_GE(sample.values.at("level"), 0.0);
    }
}

TEST(Simulator, F1InputStuckOpenIsCompensated) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::InputValveStuckOpen}});
    // Matches Table II S3: the output valve (higher drain rate) compensates.
    EXPECT_FALSE(result.overflow);
}

TEST(Simulator, F2OutputStuckClosedOverflows) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::OutputValveStuckClosed}});
    // Matches Table II S4: R1 violated, but the alert still fires (R2 ok).
    EXPECT_TRUE(result.overflow);
    EXPECT_TRUE(result.alert_raised);
    ASSERT_TRUE(result.alert_time.has_value());
}

TEST(Simulator, F2F3OverflowsSilently) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::OutputValveStuckClosed},
                                        {5.0, PlantFault::HmiNoSignal}});
    // Matches Table II S5: both R1 and R2 violated.
    EXPECT_TRUE(result.overflow);
    EXPECT_FALSE(result.alert_raised);
}

TEST(Simulator, F4CompromiseMatchesS2) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::WorkstationCompromise}});
    EXPECT_TRUE(result.overflow);
    EXPECT_FALSE(result.alert_raised);
}

TEST(Simulator, AlertPrecedesOrMeetsOverflow) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::OutputValveStuckClosed}});
    ASSERT_TRUE(result.overflow_time.has_value());
    ASSERT_TRUE(result.alert_time.has_value());
    // The alarm level sits below capacity, so the alert cannot be late.
    EXPECT_LE(*result.alert_time, *result.overflow_time);
}

TEST(Simulator, SensorFrozenDisablesControl) {
    WaterTankSimulator simulator;
    // Freeze the sensor early while filling: the controller never sees the
    // high level, the feed keeps running -> overflow without an alert.
    auto result = simulator.run(120.0, {{1.0, PlantFault::SensorFrozen}});
    EXPECT_TRUE(result.overflow);
    EXPECT_FALSE(result.alert_raised);  // frozen reading stays below alarm
}

TEST(Simulator, InvalidParamsRejected) {
    WaterTankParams params;
    params.dt = 0.0;
    EXPECT_THROW(WaterTankSimulator{params}, Error);
    params = {};
    params.low_setpoint = 90;
    params.high_setpoint = 30;
    EXPECT_THROW(WaterTankSimulator{params}, Error);
}

TEST(Abstraction, TraceAbstractsToQualitativeTrajectory) {
    WaterTankSimulator simulator;
    auto result = simulator.run(120.0, {{5.0, PlantFault::OutputValveStuckClosed}});
    auto abstractor = simulator.abstractor();
    auto trajectory = abstractor.abstract_trace(result.trace);
    EXPECT_TRUE(trajectory.ever("level", "overflow"));
    EXPECT_TRUE(trajectory.ever("alert", "on"));
    // The qualitative overflow verdict agrees with the concrete one.
    EXPECT_EQ(trajectory.ever("level", "overflow"), result.overflow);
}

TEST(Campaign, SingleRun) {
    WaterTankSimulator simulator;
    auto record = run_single(simulator, {PlantFault::OutputValveStuckClosed}, {});
    EXPECT_TRUE(record.violates_r1());
    EXPECT_FALSE(record.violates_r2());
    EXPECT_NE(record.to_string().find("output_valve_stuck_closed"), std::string::npos);
}

TEST(Campaign, FullCampaignCoverage) {
    WaterTankSimulator simulator;
    CampaignOptions options;
    options.max_simultaneous_faults = 2;
    auto records = run_campaign(simulator, options);
    // 1 golden + C(5,1) + C(5,2) = 1 + 5 + 10 = 16 runs.
    EXPECT_EQ(records.size(), 16u);
    EXPECT_FALSE(records[0].violates_r1());  // golden run is safe
}

// Cross-validation: the concrete simulator agrees with the qualitative EPA
// verdicts of Table II for the mapped fault combinations (the paper's
// abstraction-soundness argument, checked end-to-end).
struct CrossCase {
    const char* name;
    std::vector<PlantFault> faults;
    bool r1_violated;
    bool r2_violated;
};

/// Prints the case name, not the raw bytes (which hold pointers), so
/// discovered test names are the same in every build.
void PrintTo(const CrossCase& c, std::ostream* os) { *os << c.name; }

class SimVsEpa : public ::testing::TestWithParam<CrossCase> {};

TEST_P(SimVsEpa, ConcreteMatchesQualitative) {
    const auto& param = GetParam();
    WaterTankSimulator simulator;
    auto record = run_single(simulator, param.faults, {});
    EXPECT_EQ(record.violates_r1(), param.r1_violated) << record.to_string();
    EXPECT_EQ(record.violates_r2(), param.r2_violated) << record.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Table2, SimVsEpa,
    ::testing::Values(
        CrossCase{"s1_none", {}, false, false},
        CrossCase{"s2_compromise", {PlantFault::WorkstationCompromise}, true, true},
        CrossCase{"s3_f1", {PlantFault::InputValveStuckOpen}, false, false},
        CrossCase{"s4_f2", {PlantFault::OutputValveStuckClosed}, true, false},
        CrossCase{"s5_f2_f3",
                  {PlantFault::OutputValveStuckClosed, PlantFault::HmiNoSignal}, true, true},
        CrossCase{"s6_f1_f3",
                  {PlantFault::InputValveStuckOpen, PlantFault::HmiNoSignal}, false, false},
        CrossCase{"s7_f1_f2_f3",
                  {PlantFault::InputValveStuckOpen, PlantFault::OutputValveStuckClosed,
                   PlantFault::HmiNoSignal}, true, true}),
    [](const ::testing::TestParamInfo<CrossCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cprisk::sim
