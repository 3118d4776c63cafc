// Quantitative reactor simulator and its agreement with the qualitative
// reactor case study (second-domain cross-validation).
#include <gtest/gtest.h>

#include "core/reactor.hpp"
#include "sim/reactor.hpp"

namespace cprisk::sim {
namespace {

ReactorResult run(std::vector<ReactorFault> faults, double duration = 240.0) {
    ReactorSimulator simulator;
    std::vector<ReactorInjection> injections;
    for (ReactorFault fault : faults) injections.push_back({5.0, fault});
    return simulator.run(duration, injections);
}

TEST(ReactorSim, NominalIsSafe) {
    auto result = run({});
    EXPECT_FALSE(result.rupture);
    EXPECT_FALSE(result.alert_raised);
    for (const auto& sample : result.trace) {
        EXPECT_LT(sample.values.at("pressure"), ReactorParams{}.alarm_pressure);
    }
}

TEST(ReactorSim, SingleActuatorFaultsAreCompensated) {
    EXPECT_FALSE(run({ReactorFault::HeaterStuckOn}).rupture);
    EXPECT_FALSE(run({ReactorFault::CoolingValveStuckClosed}).rupture);
    EXPECT_FALSE(run({ReactorFault::ReliefValveStuckClosed}).rupture);
}

TEST(ReactorSim, FrozenSensorIsVentedWithAlarm) {
    auto result = run({ReactorFault::TempSensorFrozen});
    EXPECT_FALSE(result.rupture);       // the relief valve caps the pressure
    EXPECT_TRUE(result.alert_raised);   // but the operator is warned
    ASSERT_TRUE(result.alert_time.has_value());
}

TEST(ReactorSim, HeaterAndCoolingFaultsVented) {
    auto result = run({ReactorFault::HeaterStuckOn, ReactorFault::CoolingValveStuckClosed});
    EXPECT_FALSE(result.rupture);
    EXPECT_TRUE(result.alert_raised);
}

TEST(ReactorSim, TripleActuatorFaultRuptures) {
    auto result = run({ReactorFault::HeaterStuckOn, ReactorFault::CoolingValveStuckClosed,
                       ReactorFault::ReliefValveStuckClosed});
    EXPECT_TRUE(result.rupture);
    EXPECT_TRUE(result.alert_raised);  // the alarm still fires before the burst
    ASSERT_TRUE(result.alert_time.has_value());
    ASSERT_TRUE(result.rupture_time.has_value());
    EXPECT_LT(*result.alert_time, *result.rupture_time);
}

TEST(ReactorSim, ScadaCompromiseRupturesSilently) {
    auto result = run({ReactorFault::ScadaCompromise});
    EXPECT_TRUE(result.rupture);
    EXPECT_FALSE(result.alert_raised);
}

TEST(ReactorSim, FrozenSensorPlusReliefFailureRuptures) {
    auto result = run({ReactorFault::TempSensorFrozen, ReactorFault::ReliefValveStuckClosed});
    EXPECT_TRUE(result.rupture);
    EXPECT_TRUE(result.alert_raised);
}

TEST(ReactorSim, InvalidParamsRejected) {
    ReactorParams params;
    params.dt = 0;
    EXPECT_THROW(ReactorSimulator{params}, Error);
    params = {};
    params.relief_pressure = 10.0;  // above burst
    EXPECT_THROW(ReactorSimulator{params}, Error);
}

TEST(ReactorSim, AbstractionSeesCriticalPressure) {
    ReactorSimulator simulator;
    auto result = simulator.run(240.0, {{5.0, ReactorFault::TempSensorFrozen}});
    auto trajectory = simulator.abstractor().abstract_trace(result.trace);
    EXPECT_TRUE(trajectory.ever("pressure", "critical"));
    EXPECT_TRUE(trajectory.ever("alert", "on"));
}

// Cross-validation against the qualitative reactor model: R1 = rupture,
// R2 = alert on critical pressure (violated when critical pressure occurs
// without a subsequent alert).
struct CrossCase {
    const char* name;
    std::vector<ReactorFault> faults;
    std::vector<security::Mutation> mutations;
    bool r1;  ///< rupture expected
    bool r2;  ///< silent critical pressure expected
};

/// Prints the case name, not the raw bytes (which hold pointers), so
/// discovered test names are the same in every build.
void PrintTo(const CrossCase& c, std::ostream* os) { *os << c.name; }

class ReactorSimVsEpa : public ::testing::TestWithParam<CrossCase> {};

TEST_P(ReactorSimVsEpa, ConcreteMatchesQualitative) {
    const auto& param = GetParam();

    // Concrete run.
    auto concrete = run(param.faults);
    EXPECT_EQ(concrete.rupture, param.r1) << "simulator rupture";

    // Qualitative verdict.
    auto built = core::ReactorCaseStudy::build();
    ASSERT_TRUE(built.ok()) << built.error();
    const auto& cs = built.value();
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Behavioral;
    options.horizon = cs.horizon;
    auto analysis = epa::ErrorPropagationAnalysis::create(cs.system, cs.requirements,
                                                          cs.mitigations, options);
    ASSERT_TRUE(analysis.ok()) << analysis.error();
    security::AttackScenario scenario;
    scenario.id = "x";
    scenario.mutations = param.mutations;
    auto verdict = analysis.value().evaluate(scenario, {});
    ASSERT_TRUE(verdict.ok()) << verdict.error();

    EXPECT_EQ(verdict.value().violates("r1"), param.r1) << "qualitative r1";
    EXPECT_EQ(verdict.value().violates("r2"), param.r2) << "qualitative r2";
}

using core::reactor_ids::kAlarmUnit;
using core::reactor_ids::kCoolingValve;
using core::reactor_ids::kHeater;
using core::reactor_ids::kReliefValve;
using core::reactor_ids::kScada;
using core::reactor_ids::kTempSensor;

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ReactorSimVsEpa,
    ::testing::Values(
        CrossCase{"nominal", {}, {}, false, false},
        CrossCase{"heater_only",
                  {ReactorFault::HeaterStuckOn},
                  {{kHeater, "stuck_on"}}, false, false},
        CrossCase{"scada",
                  {ReactorFault::ScadaCompromise},
                  {{kScada, "compromised"}}, true, true},
        CrossCase{"triple",
                  {ReactorFault::HeaterStuckOn, ReactorFault::CoolingValveStuckClosed,
                   ReactorFault::ReliefValveStuckClosed},
                  {{kHeater, "stuck_on"},
                   {kCoolingValve, "stuck_closed"},
                   {kReliefValve, "stuck_closed"}}, true, false},
        CrossCase{"sensor_plus_relief",
                  {ReactorFault::TempSensorFrozen, ReactorFault::ReliefValveStuckClosed},
                  {{kTempSensor, "frozen_reading"}, {kReliefValve, "stuck_closed"}},
                  true, false}),
    [](const ::testing::TestParamInfo<CrossCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cprisk::sim
