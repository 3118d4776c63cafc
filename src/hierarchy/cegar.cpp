#include "hierarchy/cegar.hpp"

#include <algorithm>
#include <mutex>

#include "common/thread_pool.hpp"

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
    const std::size_t jobs = std::min(ThreadPool::resolve(options.effective_jobs()),
                                      std::max<std::size_t>(scenarios.size(), 1));
    if (jobs <= 1) {
        for (const security::AttackScenario& scenario : scenarios) {
            if (options.hooks.lookup) {
                if (std::optional<ScenarioRecord> replayed = options.hooks.lookup(scenario.id)) {
                    result.records.push_back(std::move(*replayed));
                    continue;
                }
            }
            auto record = walk_ladder(stages, analyses, scenario, active_mitigations, options);
            if (!record.ok()) return Result<CegarResult>::failure(record.error());
            if (options.hooks.completed) {
                auto appended = options.hooks.completed(record.value());
                if (!appended.ok()) return Result<CegarResult>::failure(appended.error());
            }
            result.records.push_back(std::move(record).value());
        }
    } else {
        // Parallel walk. The lookup hook mutates caller state (resume
        // counters), so replays are resolved in a sequential pre-pass; only
        // the remaining scenarios go to the pool. Finished walks are drained
        // in strict scenario order — the `completed` hook (journal append)
        // fires for scenario i only once 0..i-1 are drained — so the journal
        // is byte-identical to a sequential run at any job count, and on
        // failure it holds exactly the records preceding the first error.
        struct Slot {
            bool replayed = false;
            std::optional<Result<ScenarioRecord>> record;
        };
        std::vector<Slot> slots(scenarios.size());
        std::vector<std::size_t> pending;
        pending.reserve(scenarios.size());
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (options.hooks.lookup) {
                if (std::optional<ScenarioRecord> replayed =
                        options.hooks.lookup(scenarios[i].id)) {
                    slots[i].replayed = true;
                    slots[i].record = Result<ScenarioRecord>(std::move(*replayed));
                    continue;
                }
            }
            pending.push_back(i);
        }

        // drain_mutex guards the slots, the drain cursor, and first_error;
        // workers publish their record and drain under one critical section.
        std::mutex drain_mutex;
        std::size_t next_to_drain = 0;
        std::optional<std::string> first_error;
        const auto drain_ready_prefix_locked = [&] {
            while (next_to_drain < slots.size() && !first_error &&
                   slots[next_to_drain].record.has_value()) {
                Slot& slot = slots[next_to_drain];
                if (!slot.record->ok()) {
                    first_error = slot.record->error();
                    break;
                }
                if (!slot.replayed && options.hooks.completed) {
                    auto appended = options.hooks.completed(slot.record->value());
                    if (!appended.ok()) {
                        first_error = appended.error();
                        break;
                    }
                }
                result.records.push_back(std::move(*slot.record).value());
                ++next_to_drain;
            }
        };

        {
            // Replayed prefix first: a journalled run may be all-replay.
            std::lock_guard<std::mutex> lock(drain_mutex);
            drain_ready_prefix_locked();
        }
        std::optional<ThreadPool> local_pool;
        ThreadPool& pool =
            options.ctx != nullptr ? options.ctx->pool() : local_pool.emplace(jobs);
        obs::set_gauge(options.metrics_sink(), "cegar.pool.lanes",
                       static_cast<long long>(pool.jobs()));
        pool.run_batch(pending.size(), [&](std::size_t k) {
            const std::size_t index = pending[k];
            auto record =
                walk_ladder(stages, analyses, scenarios[index], active_mitigations, options);
            std::lock_guard<std::mutex> lock(drain_mutex);
            slots[index].record = std::move(record);
            drain_ready_prefix_locked();
        });
        std::lock_guard<std::mutex> lock(drain_mutex);
        drain_ready_prefix_locked();
        if (first_error) return Result<CegarResult>::failure(*first_error);
    }

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
