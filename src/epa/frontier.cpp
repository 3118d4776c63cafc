#include "epa/frontier.hpp"

#include <algorithm>
#include <utility>

#include "common/antichain.hpp"
#include "common/ordered_sweep.hpp"

namespace cprisk::epa {

using hierarchy::ScenarioOutcome;
using hierarchy::ScenarioRecord;
using security::Mutation;

std::string frontier_scenario_id(const std::vector<Mutation>& subset) {
    if (subset.empty()) return "exh:none";
    std::string id = "exh:";
    for (std::size_t i = 0; i < subset.size(); ++i) {
        if (i > 0) id += "+";
        id += subset[i].to_string();
    }
    return id;
}

security::AttackScenario frontier_scenario(const model::SystemModel& model,
                                           std::vector<Mutation> subset) {
    security::AttackScenario scenario;
    scenario.id = frontier_scenario_id(subset);
    scenario.origin = security::ScenarioOrigin::FaultCombination;
    std::vector<qual::Level> likelihoods;
    likelihoods.reserve(subset.size());
    for (const Mutation& mutation : subset) {
        const model::FaultMode* mode =
            model.component(mutation.component).find_fault_mode(mutation.fault_id);
        likelihoods.push_back(mode != nullptr ? mode->likelihood : qual::Level::Medium);
    }
    scenario.likelihood = security::combined_likelihood(likelihoods);
    scenario.mutations = std::move(subset);
    return scenario;
}

namespace {

ScenarioOutcome outcome_of(const ScenarioVerdict& verdict) {
    switch (verdict.status) {
        case VerdictStatus::Hazard: return ScenarioOutcome::Confirmed;
        case VerdictStatus::Safe: return ScenarioOutcome::Safe;
        case VerdictStatus::Undetermined: return ScenarioOutcome::Undetermined;
    }
    return ScenarioOutcome::Undetermined;
}

/// Calls `consume` with every size-`card` subset of `universe`, as a sorted
/// mutation vector, in lexicographic index order.
template <typename Consume>
void for_each_subset(const std::vector<Mutation>& universe, std::size_t card, Consume&& consume) {
    if (card > universe.size()) return;
    std::vector<std::size_t> pick(card);
    for (std::size_t i = 0; i < card; ++i) pick[i] = i;
    bool more = true;
    while (more) {
        std::vector<Mutation> subset;
        subset.reserve(card);
        for (std::size_t i : pick) subset.push_back(universe[i]);
        consume(std::move(subset));
        more = false;
        for (std::size_t i = card; i-- > 0;) {
            if (pick[i] + (card - i) < universe.size()) {
                ++pick[i];
                for (std::size_t j = i + 1; j < card; ++j) pick[j] = pick[j - 1] + 1;
                more = true;
                break;
            }
        }
    }
}

}  // namespace

Result<FrontierResult> run_frontier(const ErrorPropagationAnalysis& epa,
                                    const FrontierOptions& options) {
    FrontierResult result;
    const model::SystemModel& model = epa.system_model();

    std::vector<Mutation> universe;
    for (const model::Component& component : model.components()) {
        for (const model::FaultMode& mode : component.fault_modes) {
            if (options.component_filter != nullptr &&
                options.component_filter->count(component.id) == 0) {
                ++result.skipped_faults;
                continue;
            }
            universe.push_back(Mutation{component.id, mode.id});
        }
    }
    std::sort(universe.begin(), universe.end());
    result.universe_size = universe.size();
    result.max_card =
        options.max_card == 0 ? universe.size() : std::min(options.max_card, universe.size());

    // The certificate decides the sweep mode once, up front: monotone ->
    // superset pruning; mixed or unavailable -> sound per-layer enumeration
    // of every candidate (same verdicts, more solves).
    result.certificate = epa.certify_monotonicity(options.active_mitigations);
    result.pruning = result.certificate.has_value() && result.certificate->monotone;

    obs::Span span(options.trace_sink(), "epa.frontier", "phase");
    span.arg("universe", static_cast<long long>(result.universe_size));
    span.arg("pruning", static_cast<long long>(result.pruning ? 1 : 0));

    Antichain<std::vector<Mutation>> hazardous;
    ThreadPool* pool = options.ctx != nullptr ? &options.ctx->pool() : nullptr;

    for (std::size_t card = 0; card <= result.max_card; ++card) {
        // Layer barrier: pruning consults only hazards from strictly
        // smaller layers (same-size sets cannot dominate each other), so
        // the layer's candidates are independent and may run in parallel.
        std::vector<security::AttackScenario> layer;
        for_each_subset(universe, card, [&](std::vector<Mutation> subset) {
            ++result.candidates;
            if (result.pruning && hazardous.dominates(subset)) {
                ++result.pruned;
                return;
            }
            layer.push_back(frontier_scenario(model, std::move(subset)));
        });
        // Priority ordering applies *within* the layer: pruning soundness
        // only needs layers to ascend by cardinality, the order inside one
        // layer is free. The sort is deterministic (score desc, id asc), so
        // journals stay byte-identical at any job count.
        if (options.priority != nullptr) options.priority->order(layer);

        // Fresh records reach the `completed` hook strictly in candidate
        // order, so journals are byte-identical at any job count.
        const std::size_t layer_start = result.records.size();
        auto swept = ordered_sweep<ScenarioRecord>(
            pool, layer.size(),
            [&](std::size_t index) -> std::optional<ScenarioRecord> {
                if (!options.hooks.lookup) return std::nullopt;
                std::optional<ScenarioRecord> replayed = options.hooks.lookup(layer[index].id);
                if (replayed) ++result.replayed;
                return replayed;
            },
            [&](std::size_t index) -> Result<ScenarioRecord> {
                auto verdict = epa.evaluate(layer[index], options.active_mitigations);
                if (!verdict.ok()) return Result<ScenarioRecord>::failure(verdict.error());
                ScenarioRecord record;
                record.scenario_id = layer[index].id;
                record.verdict = std::move(verdict).value();
                record.outcome = outcome_of(record.verdict);
                record.stages.push_back(hierarchy::StageOutcome{
                    "frontier", record.verdict.status, record.verdict.undetermined_reason});
                return record;
            },
            [&](std::size_t, ScenarioRecord&& record, bool replayed) -> Result<void> {
                if (!replayed && options.hooks.completed) {
                    auto appended = options.hooks.completed(record);
                    if (!appended.ok()) return appended;
                }
                if (!replayed) ++result.evaluated;
                result.records.push_back(std::move(record));
                return {};
            });
        if (!swept.ok()) return Result<FrontierResult>::failure(swept.error());

        // Fold the layer's outcomes into the antichain; layers ascend, so
        // an inserted hazard is minimal by construction (everything it
        // would dominate was already evaluated or pruned).
        for (std::size_t i = layer_start; i < result.records.size(); ++i) {
            const ScenarioRecord& record = result.records[i];
            if (record.outcome == ScenarioOutcome::Confirmed) {
                if (hazardous.insert(record.verdict.mutations)) {
                    result.minimal_hazards.push_back(record.verdict);
                }
                // UNSAT-core seeding: when pruning is licensed, ask the
                // probe solver which sub-scenario of this hazard already
                // forces a violation; a strictly smaller core widens the
                // pruning cone over every later layer. Probes run
                // sequentially here (after the layer barrier) and for
                // replayed records too, so fresh and resumed sweeps prune
                // the same candidates at any job count. Seeded sets are
                // pruning state only — minimal_hazards keeps evaluated
                // verdicts exclusively.
                if (result.pruning) {
                    auto core = epa.hazard_core(
                        frontier_scenario(model, record.verdict.mutations),
                        options.active_mitigations);
                    if (core && core->size() < record.verdict.mutations.size() &&
                        hazardous.insert(*core)) {
                        ++result.core_seeded;
                    }
                }
            } else if (record.outcome == ScenarioOutcome::Undetermined) {
                result.undetermined.push_back(record.verdict);
            }
        }
    }

    span.arg("candidates", static_cast<long long>(result.candidates));
    span.arg("pruned", static_cast<long long>(result.pruned));
    span.arg("core_seeded", static_cast<long long>(result.core_seeded));
    obs::add_counter(options.metrics_sink(), "epa.frontier.core_seeds", result.core_seeded);
    obs::add_counter(options.metrics_sink(), "epa.frontier.candidates", result.candidates);
    obs::add_counter(options.metrics_sink(), "epa.frontier.evaluated", result.evaluated);
    obs::add_counter(options.metrics_sink(), "epa.frontier.pruned", result.pruned);
    obs::add_counter(options.metrics_sink(), "epa.frontier.minimal_hazards",
                     result.minimal_hazards.size());
    return result;
}

}  // namespace cprisk::epa
