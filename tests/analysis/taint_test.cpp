// Attack-reachability taint pass: entry-point seeding, depth propagation,
// the reachability closure, and the watertank case-study ground truth.
#include "analysis/taint.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/reachability.hpp"
#include "core/loader.hpp"
#include "security/attack_matrix.hpp"

namespace cprisk::analysis {
namespace {

core::Bundle load(const std::string& text) {
    auto bundle = core::load_bundle(text);
    EXPECT_TRUE(bundle.ok()) << bundle.error();
    return bundle.ok() ? std::move(bundle).value() : core::Bundle{};
}

TaintResult taint_of(const core::Bundle& bundle) {
    return analyze_attack_reachability(bundle.model, security::AttackMatrix::standard_ics());
}

TEST(TaintTest, PublicEntryPointStartsAtDepthZero) {
    const auto bundle = load("component ws node exposure=public\n");
    const auto result = taint_of(bundle);
    ASSERT_EQ(result.entry_points.size(), 1u);
    EXPECT_EQ(result.entry_points[0].component, "ws");
    EXPECT_EQ(result.entry_points[0].depth, 0);
    EXPECT_GE(result.entry_points[0].technique_count, 1u);
    EXPECT_FALSE(result.entry_points[0].technique_id.empty());
    EXPECT_EQ(result.depth_of("ws"), 0);
}

TEST(TaintTest, InternalEntryPointStartsAtDepthOne) {
    const auto bundle = load("component ws node exposure=internal\n");
    const auto result = taint_of(bundle);
    ASSERT_EQ(result.entry_points.size(), 1u);
    EXPECT_EQ(result.entry_points[0].depth, 1);
    EXPECT_EQ(result.depth_of("ws"), 1);
}

TEST(TaintTest, UnexposedComponentsAreNotEntryPoints) {
    const auto bundle = load("component sensor sensor\ncomponent pump actuator\n");
    const auto result = taint_of(bundle);
    EXPECT_TRUE(result.entry_points.empty());
    EXPECT_EQ(result.unreached.size(), 2u);
    EXPECT_EQ(result.depth_of("sensor"), -1);
}

TEST(TaintTest, MatchingDeclaredFaultIsRecordedOnTheEntry) {
    // The standard ICS matrix has a node technique causing fault "infected";
    // declaring that fault mode makes the compromise direct.
    const auto bundle = load(
        "component ws node exposure=public\n"
        "fault ws infected compromise\n");
    const auto result = taint_of(bundle);
    ASSERT_EQ(result.entry_points.size(), 1u);
    EXPECT_EQ(result.entry_points[0].activated_fault, "infected");
    EXPECT_FALSE(result.entry_points[0].activating_technique.empty());
}

TEST(TaintTest, UnmatchedFaultLeavesActivatedFaultEmpty) {
    const auto bundle = load(
        "component ws node exposure=public\n"
        "fault ws odd omission\n");
    const auto result = taint_of(bundle);
    ASSERT_EQ(result.entry_points.size(), 1u);
    EXPECT_TRUE(result.entry_points[0].activated_fault.empty());
}

TEST(TaintTest, DepthGrowsByOnePerPropagationHop) {
    const auto bundle = load(
        "component ws node exposure=internal\n"
        "component plc controller\n"
        "component pump actuator\n"
        "component island equipment\n"
        "relation ws signal_flow plc\n"
        "relation plc triggering pump\n");
    const auto result = taint_of(bundle);
    EXPECT_EQ(result.depth_of("ws"), 1);
    EXPECT_EQ(result.depth_of("plc"), 2);
    EXPECT_EQ(result.depth_of("pump"), 3);
    EXPECT_EQ(result.depth_of("island"), -1);
    ASSERT_EQ(result.unreached.size(), 1u);
    EXPECT_EQ(result.unreached[0], "island");
}

TEST(TaintTest, PublicSeedDominatesInternalSeed) {
    const auto bundle = load(
        "component front node exposure=public\n"
        "component back node exposure=internal\n"
        "component plant equipment\n"
        "relation front signal_flow plant\n"
        "relation back signal_flow plant\n");
    const auto result = taint_of(bundle);
    EXPECT_EQ(result.depth_of("front"), 0);
    EXPECT_EQ(result.depth_of("back"), 1);
    EXPECT_EQ(result.depth_of("plant"), 1);  // one hop from the public seed
}

TEST(TaintTest, QuantityFlowPropagatesBackwards) {
    // quantity_flow is bidirectional: compromising the consumer taints the
    // producer (e.g. closing a downstream valve backs water up the pipe).
    const auto bundle = load(
        "component ctrl controller exposure=internal\n"
        "component pipe equipment\n"
        "relation pipe quantity_flow ctrl\n");
    const auto result = taint_of(bundle);
    EXPECT_EQ(result.depth_of("pipe"), 2);
}

// Acceptance: the watertank case study's attacker-reachable set.
TEST(TaintWatertankTest, IdentifiesTheWorkstationReachableSet) {
    auto bundle = core::load_bundle_file(std::string(CPRISK_SOURCE_DIR) +
                                         "/examples/models/watertank.cpm");
    ASSERT_TRUE(bundle.ok()) << bundle.error();
    const auto result = taint_of(bundle.value());

    std::set<model::ComponentId> entries;
    for (const AttackEntryPoint& entry : result.entry_points) {
        entries.insert(entry.component);
        EXPECT_EQ(entry.depth, 1) << entry.component;  // every exposure is internal
    }
    const std::set<model::ComponentId> expected{"in_valve_ctrl", "out_valve_ctrl", "tank_ctrl",
                                                "hmi", "workstation"};
    EXPECT_EQ(entries, expected);

    // Lateral movement from the entry set covers the whole plant.
    EXPECT_TRUE(result.unreached.empty());
    EXPECT_EQ(result.depth_of("input_valve"), 2);
    EXPECT_EQ(result.depth_of("output_valve"), 2);
    EXPECT_EQ(result.depth_of("tank"), 3);
    EXPECT_EQ(result.depth_of("level_sensor"), 4);

    // The HMI and the engineering workstation carry directly-activatable
    // declared faults (alarm suppression / malware infection).
    for (const AttackEntryPoint& entry : result.entry_points) {
        if (entry.component == "hmi") {
            EXPECT_EQ(entry.activated_fault, "no_signal");
        }
        if (entry.component == "workstation") {
            EXPECT_EQ(entry.activated_fault, "infected");
        }
        if (entry.component == "tank_ctrl") {
            EXPECT_TRUE(entry.activated_fault.empty());
        }
    }
}

TEST(ReachabilityClosureTest, MatchesSystemModelReachableFrom) {
    auto bundle = core::load_bundle_file(std::string(CPRISK_SOURCE_DIR) +
                                         "/examples/models/watertank.cpm");
    ASSERT_TRUE(bundle.ok()) << bundle.error();
    const model::SystemModel& model = bundle.value().model;
    const ReachabilityClosure closure(model);
    for (const model::Component& component : model.components()) {
        EXPECT_EQ(closure.reachable_from(component.id), model.reachable_from(component.id))
            << component.id;
    }
}

TEST(ReachabilityClosureTest, ReachesIsTransitiveAndDirectional) {
    const auto bundle = load(
        "component a node exposure=internal\n"
        "component b controller\n"
        "component c actuator\n"
        "relation a signal_flow b\n"
        "relation b triggering c\n");
    const ReachabilityClosure closure(bundle.model);
    EXPECT_TRUE(closure.reaches("a", "b"));
    EXPECT_TRUE(closure.reaches("a", "c"));
    EXPECT_FALSE(closure.reaches("c", "a"));
    EXPECT_FALSE(closure.reaches("a", "a"));  // not on a cycle
    EXPECT_TRUE(closure.reachable_from("missing").empty());
    EXPECT_TRUE(closure.successors("missing").empty());
}

}  // namespace
}  // namespace cprisk::analysis
