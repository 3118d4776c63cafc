#include "security/scenario.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "common/strings.hpp"

namespace cprisk::security {

using model::ComponentId;

std::string AttackScenario::to_string() const {
    std::string out = id + " [" +
                      (origin == ScenarioOrigin::FaultCombination ? "faults" : "attack") + "]";
    if (!actor_id.empty()) out += " actor=" + actor_id;
    out += " {";
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        if (i > 0) out += ", ";
        out += mutations[i].to_string();
    }
    out += "} likelihood=" + std::string(qual::to_short_string(likelihood));
    return out;
}

qual::Level combined_likelihood(const std::vector<qual::Level>& likelihoods) {
    if (likelihoods.empty()) return qual::Level::VeryLow;
    qual::Level combined = likelihoods[0];
    for (std::size_t i = 1; i < likelihoods.size(); ++i) {
        combined = qual::qmin(combined, likelihoods[i]);
        combined = qual::shift(combined, -1);  // simultaneity penalty
    }
    return combined;
}

ScenarioSpace ScenarioSpace::build(const model::SystemModel& model, const AttackMatrix& matrix,
                                   const std::vector<ThreatActor>& actors,
                                   const ScenarioSpaceOptions& options,
                                   const SecurityCatalog* catalog) {
    ScenarioSpace space;
    int next_id = 1;
    auto make_id = [&next_id]() { return numbered("S", next_id++); };

    if (options.include_fault_combinations) {
        // Collect the mutation universe with per-mutation likelihoods.
        std::vector<std::pair<Mutation, qual::Level>> universe;
        for (const model::Component& component : model.components()) {
            if (model.is_refined(component.id)) continue;
            for (const model::FaultMode& mode : component.fault_modes) {
                universe.emplace_back(Mutation{component.id, mode.id}, mode.likelihood);
            }
        }
        // All subsets of size 1..max_simultaneous_faults.
        std::vector<std::size_t> indices;
        std::function<void(std::size_t)> choose = [&](std::size_t start) {
            if (!indices.empty()) {
                AttackScenario scenario;
                scenario.id = make_id();
                scenario.origin = ScenarioOrigin::FaultCombination;
                std::vector<qual::Level> likelihoods;
                for (std::size_t index : indices) {
                    scenario.mutations.push_back(universe[index].first);
                    likelihoods.push_back(universe[index].second);
                }
                std::sort(scenario.mutations.begin(), scenario.mutations.end());
                scenario.likelihood = combined_likelihood(likelihoods);
                space.scenarios_.push_back(std::move(scenario));
            }
            if (indices.size() >= options.max_simultaneous_faults) return;
            for (std::size_t i = start; i < universe.size(); ++i) {
                indices.push_back(i);
                choose(i + 1);
                indices.pop_back();
            }
        };
        choose(0);
    }

    if (options.include_attack_scenarios) {
        // One scenario per attack path reaching any OT component.
        std::set<std::string> seen;  // dedupe identical mutation sets per actor
        for (const ThreatActor& actor : actors) {
            AttackGraph graph = AttackGraph::build(model, matrix, actor);
            for (const model::Component& target : model.components()) {
                if (!model::is_ot(target.type)) continue;
                if (model.is_refined(target.id)) continue;
                for (const AttackPath& path :
                     graph.paths_to(target.id, options.max_attack_paths_per_target)) {
                    AttackScenario scenario;
                    scenario.origin = ScenarioOrigin::AttackPath;
                    scenario.actor_id = actor.id;
                    std::vector<qual::Level> likelihoods = {actor.motivation};
                    for (const AttackStep& step : path.steps) {
                        if (!step.caused_fault.empty() &&
                            model.component(step.component).has_fault_mode(step.caused_fault)) {
                            scenario.mutations.push_back(
                                Mutation{step.component, step.caused_fault});
                        }
                        scenario.technique_ids.push_back(step.technique_id);
                    }
                    if (scenario.mutations.empty()) continue;
                    std::sort(scenario.mutations.begin(), scenario.mutations.end());
                    scenario.mutations.erase(
                        std::unique(scenario.mutations.begin(), scenario.mutations.end()),
                        scenario.mutations.end());
                    std::string key = actor.id;
                    for (const Mutation& m : scenario.mutations) {
                        key += '|';
                        key += m.to_string();
                    }
                    if (!seen.insert(key).second) continue;
                    scenario.likelihood = combined_likelihood(likelihoods);
                    scenario.id = make_id();
                    space.scenarios_.push_back(std::move(scenario));
                }
            }
        }
    }

    if (options.include_vulnerability_scenarios && catalog != nullptr) {
        // One scenario per (component, applicable vulnerability) — the
        // paper's step-2 injection from validated public collections. The
        // likelihood couples the CVSS severity band (an easy exploit is a
        // likely one at this granularity).
        for (const model::Component& component : model.components()) {
            if (model.is_refined(component.id)) continue;
            for (const Vulnerability* vulnerability : catalog->vulnerabilities_for(component)) {
                if (vulnerability->caused_fault.empty()) continue;
                if (!component.has_fault_mode(vulnerability->caused_fault)) continue;
                AttackScenario scenario;
                scenario.id = make_id();
                scenario.origin = ScenarioOrigin::Vulnerability;
                scenario.vulnerability_id = vulnerability->id;
                scenario.mutations = {Mutation{component.id, vulnerability->caused_fault}};
                scenario.likelihood = vulnerability->severity_level();
                space.scenarios_.push_back(std::move(scenario));
            }
        }
    }

    return space;
}

std::vector<Mutation> ScenarioSpace::mutation_universe() const {
    std::set<Mutation> universe;
    for (const AttackScenario& scenario : scenarios_) {
        universe.insert(scenario.mutations.begin(), scenario.mutations.end());
    }
    return {universe.begin(), universe.end()};
}

}  // namespace cprisk::security
