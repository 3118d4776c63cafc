#include "hierarchy/cegar.hpp"

#include <algorithm>

#include "common/ordered_sweep.hpp"

namespace cprisk::hierarchy {

std::size_t CegarResult::total_spurious() const {
    std::size_t total = 0;
    for (const auto& stage : eliminated_per_stage) total += stage.size();
    return total;
}

std::string_view to_string(ScenarioOutcome outcome) {
    switch (outcome) {
        case ScenarioOutcome::Safe: return "safe";
        case ScenarioOutcome::Spurious: return "spurious";
        case ScenarioOutcome::Confirmed: return "confirmed";
        case ScenarioOutcome::Undetermined: return "undetermined";
    }
    return "undetermined";
}

std::optional<ScenarioOutcome> parse_scenario_outcome(std::string_view text) {
    if (text == "safe") return ScenarioOutcome::Safe;
    if (text == "spurious") return ScenarioOutcome::Spurious;
    if (text == "confirmed") return ScenarioOutcome::Confirmed;
    if (text == "undetermined") return ScenarioOutcome::Undetermined;
    return std::nullopt;
}

namespace {

StageOutcome outcome_of(const std::string& stage_name, const epa::ScenarioVerdict& verdict,
                        bool degraded) {
    StageOutcome out;
    out.stage = stage_name;
    out.status = verdict.status;
    out.undetermined_reason = verdict.undetermined_reason;
    out.degraded = degraded;
    return out;
}

/// Walks one scenario down the stage ladder. Stops on the first *complete*
/// Safe (sound elimination: every stage over-approximates the stages after
/// it); walks past Hazard and Undetermined verdicts — the most precise
/// stage has the last word. An undetermined final stage falls back once to
/// the previous, cheaper stage (skipped when that stage already produced a
/// complete Hazard for this scenario — a deterministic re-run cannot
/// eliminate it).
Result<ScenarioRecord> walk_ladder(const std::vector<CegarStage>& stages,
                                   const std::vector<epa::ErrorPropagationAnalysis>& analyses,
                                   const security::AttackScenario& scenario,
                                   const std::vector<std::string>& active_mitigations,
                                   const CegarOptions& options) {
    ScenarioRecord record;
    record.scenario_id = scenario.id;
    // One scenario-scoped span per ladder walk; the nested epa.evaluate /
    // asp.* spans inherit the scenario id through the thread-local stack.
    obs::Span span(options.trace_sink(), "cegar.walk", "scenario", scenario.id);

    for (std::size_t k = 0; k < stages.size(); ++k) {
        auto verdict = analyses[k].evaluate(scenario, active_mitigations);
        if (!verdict.ok()) return Result<ScenarioRecord>::failure(verdict.error());
        record.verdict = std::move(verdict).value();
        record.stages.push_back(outcome_of(stages[k].name, record.verdict, false));
        if (record.verdict.status == epa::VerdictStatus::Safe) {
            record.outcome = k == 0 ? ScenarioOutcome::Safe : ScenarioOutcome::Spurious;
            return record;
        }
    }

    if (record.verdict.status == epa::VerdictStatus::Hazard) {
        record.outcome = ScenarioOutcome::Confirmed;
        return record;
    }

    // Final stage undetermined: degradation retry on the previous stage.
    const std::size_t last = stages.size() - 1;
    if (last > 0 && record.stages[last - 1].status != epa::VerdictStatus::Hazard) {
        obs::add_counter(options.metrics_sink(), "cegar.degraded_retries");
        auto retry = analyses[last - 1].evaluate(scenario, active_mitigations);
        if (!retry.ok()) return Result<ScenarioRecord>::failure(retry.error());
        epa::ScenarioVerdict fallback = std::move(retry).value();
        record.stages.push_back(outcome_of(stages[last - 1].name, fallback, true));
        if (fallback.status == epa::VerdictStatus::Safe) {
            // Complete Safe at the more abstract stage implies Safe at every
            // more precise one.
            record.outcome = ScenarioOutcome::Spurious;
            record.verdict = std::move(fallback);
            return record;
        }
    }
    record.outcome = ScenarioOutcome::Undetermined;
    return record;
}

void sort_by_scenario_id(std::vector<epa::ScenarioVerdict>& verdicts) {
    std::sort(verdicts.begin(), verdicts.end(),
              [](const epa::ScenarioVerdict& a, const epa::ScenarioVerdict& b) {
                  return a.scenario_id < b.scenario_id;
              });
}

/// Rebuilds the stage-major statistics from the per-scenario records, so a
/// resumed run (records replayed from the journal) reports identically to
/// an uninterrupted one.
void derive_statistics(const std::vector<CegarStage>& stages, CegarResult& result) {
    const std::size_t n = stages.size();
    result.iterations.assign(n, CegarIterationStats{});
    result.eliminated_per_stage.assign(n, {});
    for (std::size_t k = 0; k < n; ++k) result.iterations[k].stage_name = stages[k].name;

    for (const ScenarioRecord& record : result.records) {
        for (std::size_t k = 0; k < record.stages.size() && k < n; ++k) {
            const StageOutcome& at_stage = record.stages[k];
            if (at_stage.degraded) break;  // appended after the ladder walk
            CegarIterationStats& stats = result.iterations[k];
            ++stats.candidates_in;
            switch (at_stage.status) {
                case epa::VerdictStatus::Hazard: ++stats.hazards_out; break;
                case epa::VerdictStatus::Safe:
                    if (k > 0) {
                        ++stats.spurious_eliminated;
                        result.eliminated_per_stage[k].push_back(record.scenario_id);
                    }
                    break;
                case epa::VerdictStatus::Undetermined: break;
            }
        }
        // Eliminations via the degraded fallback leave the candidate set at
        // the last stage.
        if (record.outcome == ScenarioOutcome::Spurious && !record.stages.empty() &&
            record.stages.back().degraded) {
            ++result.iterations[n - 1].spurious_eliminated;
            result.eliminated_per_stage[n - 1].push_back(record.scenario_id);
        }
    }
}

}  // namespace

Result<CegarResult> run_cegar(const std::vector<CegarStage>& stages,
                              const security::ScenarioSpace& space,
                              const epa::MitigationMap& mitigations,
                              const std::vector<std::string>& active_mitigations,
                              const CegarOptions& options) {
    if (stages.empty()) return Result<CegarResult>::failure("CEGAR: no stages given");

    std::vector<epa::ErrorPropagationAnalysis> analyses;
    analyses.reserve(stages.size());
    for (const CegarStage& stage : stages) {
        if (stage.model == nullptr) {
            return Result<CegarResult>::failure("CEGAR: stage '" + stage.name + "' has no model");
        }
        obs::Span setup_span(options.trace_sink(), "cegar.stage_setup", "setup");
        setup_span.arg("stage", stage.name);
        epa::EpaOptions epa_options;
        epa_options.focus = stage.focus;
        epa_options.horizon = stage.horizon;
        epa_options.max_decisions = options.max_decisions;
        epa_options.static_prefilter = options.static_prefilter;
        epa_options.ctx = options.ctx;
        auto epa = epa::ErrorPropagationAnalysis::create(*stage.model, stage.requirements,
                                                         mitigations, epa_options);
        if (!epa.ok()) {
            return Result<CegarResult>::failure("CEGAR stage '" + stage.name +
                                                "': " + epa.error());
        }
        analyses.push_back(std::move(epa).value());
    }

    CegarResult result;
    result.records.reserve(space.size());
    const auto& scenarios = space.scenarios();
    ThreadPool* pool = options.ctx != nullptr ? &options.ctx->pool() : nullptr;
    obs::set_gauge(options.metrics_sink(), "cegar.pool.lanes",
                   static_cast<long long>(pool != nullptr ? pool->jobs() : 1));
    // Fresh records reach the `completed` hook (journal append) strictly in
    // scenario order; on failure the journal holds exactly the records
    // preceding the first error.
    auto swept = ordered_sweep<ScenarioRecord>(
        pool, scenarios.size(),
        [&](std::size_t index) -> std::optional<ScenarioRecord> {
            if (!options.hooks.lookup) return std::nullopt;
            return options.hooks.lookup(scenarios[index].id);
        },
        [&](std::size_t index) {
            return walk_ladder(stages, analyses, scenarios[index], active_mitigations, options);
        },
        [&](std::size_t, ScenarioRecord&& record, bool replayed) -> Result<void> {
            if (!replayed && options.hooks.completed) {
                auto appended = options.hooks.completed(record);
                if (!appended.ok()) return appended;
            }
            result.records.push_back(std::move(record));
            return {};
        });
    if (!swept.ok()) return Result<CegarResult>::failure(swept.error());

    for (const ScenarioRecord& record : result.records) {
        if (record.outcome == ScenarioOutcome::Confirmed) {
            result.confirmed.push_back(record.verdict);
        } else if (record.outcome == ScenarioOutcome::Undetermined) {
            result.undetermined.push_back(record.verdict);
        }
        obs::add_counter(options.metrics_sink(),
                         std::string("cegar.scenarios.") + std::string(to_string(record.outcome)));
    }
    sort_by_scenario_id(result.confirmed);
    sort_by_scenario_id(result.undetermined);
    derive_statistics(stages, result);
    return result;
}

}  // namespace cprisk::hierarchy
