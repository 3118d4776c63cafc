#include "core/assessment.hpp"

#include <algorithm>
#include <map>

#include <set>

#include "analysis/taint.hpp"
#include "core/journal.hpp"
#include "epa/frontier.hpp"
#include "security/threat_actor.hpp"

namespace cprisk::core {

namespace {

std::string level_str(qual::Level level) { return std::string(qual::to_short_string(level)); }

}  // namespace

TextTable AssessmentReport::hazard_table() const {
    TextTable table({"Scenario", "Mutations", "Violated", "Severity", "Likelihood"});
    for (const epa::ScenarioVerdict& hazard : hazards) {
        std::string mutations;
        for (const auto& mutation : hazard.mutations) {
            if (!mutations.empty()) mutations += ", ";
            mutations += mutation.to_string();
        }
        std::string violated;
        for (const auto& requirement : hazard.violated_requirements) {
            if (!violated.empty()) violated += ", ";
            violated += requirement;
        }
        table.add_row({hazard.scenario_id, mutations, violated, level_str(hazard.severity),
                       level_str(hazard.likelihood)});
    }
    return table;
}

TextTable AssessmentReport::risk_table() const {
    TextTable table({"Scenario", "LM", "LEF", "Risk", "IEC 61508", "Violated"});
    for (const ScenarioRisk& risk : risks) {
        std::string violated;
        for (const auto& requirement : risk.violated_requirements) {
            if (!violated.empty()) violated += ", ";
            violated += requirement;
        }
        table.add_row({risk.scenario_id, level_str(risk.loss_magnitude),
                       level_str(risk.loss_event_frequency), level_str(risk.risk),
                       std::string(risk::to_string(risk.iec_class)), violated});
    }
    return table;
}

TextTable AssessmentReport::mitigation_table() const {
    TextTable table({"Phase", "Chosen mitigations", "Cost", "Residual loss"});
    if (phases.empty()) {
        std::string chosen;
        for (const auto& id : selection.chosen) {
            if (!chosen.empty()) chosen += ", ";
            chosen += id;
        }
        table.add_row({"-", chosen, std::to_string(selection.mitigation_cost),
                       std::to_string(selection.residual_loss)});
        return table;
    }
    for (const mitigation::Phase& phase : phases) {
        std::string chosen;
        for (const auto& id : phase.selection.chosen) {
            if (!chosen.empty()) chosen += ", ";
            chosen += id;
        }
        table.add_row({std::to_string(phase.number), chosen,
                       std::to_string(phase.selection.mitigation_cost),
                       std::to_string(phase.selection.residual_loss)});
    }
    return table;
}

TextTable AssessmentReport::pareto_table() const {
    TextTable table({"option", "chosen", "mitigation cost", "residual loss", "coverage", "knee"});
    if (!pareto.has_value()) return table;
    const mitigation::ParetoPoint* knee = pareto->empty() ? nullptr : &pareto->knee();
    for (std::size_t i = 0; i < pareto->points().size(); ++i) {
        const mitigation::ParetoPoint& point = pareto->points()[i];
        std::string chosen;
        for (const auto& id : point.selection.chosen) {
            if (!chosen.empty()) chosen += ", ";
            chosen += id;
        }
        table.add_row({std::to_string(i + 1), "{" + chosen + "}", std::to_string(point.cost()),
                       std::to_string(point.residual()), std::to_string(point.coverage),
                       &point == knee ? "*" : ""});
    }
    return table;
}

TextTable AssessmentReport::timing_table() const {
    TextTable table({"Phase", "Wall ms"});
    for (const PhaseTiming& timing : phase_timings) {
        table.add_row({timing.phase, std::to_string(timing.ms)});
    }
    return table;
}

TextTable AssessmentReport::completeness_table() const {
    TextTable table({"Scenario", "Reason", "Decisions", "Conflicts", "Detail"});
    for (const epa::ScenarioVerdict& verdict : undetermined) {
        table.add_row({verdict.scenario_id,
                       std::string(verdict.undetermined_reason
                                       ? epa::to_string(*verdict.undetermined_reason)
                                       : "unknown"),
                       std::to_string(verdict.solver_stats.decisions),
                       std::to_string(verdict.solver_stats.conflicts),
                       verdict.undetermined_detail});
    }
    return table;
}

RiskAssessment::RiskAssessment(const model::SystemModel& system,
                               std::vector<epa::Requirement> behavioral_requirements,
                               std::vector<epa::Requirement> topology_requirements,
                               const security::AttackMatrix& matrix,
                               const epa::MitigationMap& mitigations,
                               const security::SecurityCatalog* catalog)
    : system_(&system),
      behavioral_requirements_(std::move(behavioral_requirements)),
      topology_requirements_(std::move(topology_requirements)),
      matrix_(&matrix),
      mitigations_(&mitigations),
      catalog_(catalog) {}

Result<AssessmentReport> RiskAssessment::run(const AssessmentConfig& config,
                                             RunContext& ctx) const {
    AssessmentReport report;
    report.component_count = system_->component_count();
    report.relation_count = system_->relation_count();

    using Clock = std::chrono::steady_clock;
    const auto record_phase = [&](const char* phase, Clock::time_point since) {
        const long long ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 Clock::now() - since)
                                 .count();
        report.phase_timings.push_back(PhaseTiming{phase, ms});
        obs::set_gauge(ctx.metrics, "assess.phase_ms." + std::string(phase), ms);
    };

    // Anytime prioritization (risk/prior.hpp): fault-mode Beta priors from
    // the model bundle score every scenario; under the default ExpectedRisk
    // policy the sweeps below evaluate high scores first, so a deadline
    // interruption decides the riskiest scenarios before the long tail.
    const risk::ScenarioPriority priority(*system_, config.priority_policy);
    const bool scoring = config.priority_policy == risk::PriorityPolicy::ExpectedRisk;

    // Step 2: candidate mutations / scenario space. Exhaustive mode skips
    // the enumerated space — the frontier sweeps the fault-subset lattice
    // directly and the step-7 space is rebuilt from the minimal hazards.
    auto phase_start = Clock::now();
    std::optional<security::ScenarioSpace> built_space;
    if (!config.exhaustive) {
        security::ScenarioSpaceOptions space_options;
        space_options.max_simultaneous_faults = config.max_simultaneous_faults;
        space_options.include_attack_scenarios = config.include_attack_scenarios;
        {
            obs::Span span(ctx.trace, "assess.scenario_space", "phase");
            built_space.emplace(security::ScenarioSpace::build(
                *system_, *matrix_, security::standard_threat_actors(), space_options, catalog_));
            span.arg("scenarios", static_cast<long long>(built_space->size()));
        }
        if (scoring) {
            // Reordering the space is the whole prioritization lever: the
            // CEGAR sweep, the journal, and the drain order all follow
            // space order, so everything downstream stays byte-identical
            // at any --jobs and across kill/resume.
            std::vector<security::AttackScenario> ordered = built_space->scenarios();
            priority.order(ordered);
            built_space.emplace(std::move(ordered));
        }
        record_phase("scenario_space", phase_start);
        report.scenario_count = built_space->size();
        obs::add_counter(ctx.metrics, "assess.scenarios", built_space->size());
    }

    if (config.deadline_ms > 0) {
        ctx.budget.set_deadline_after(std::chrono::milliseconds(config.deadline_ms));
    }
    if (config.cancel) ctx.budget.set_cancel_token(*config.cancel);
    if (config.retries > 0) ctx.retry.max_retries = config.retries;

    // Checkpoint/resume: previously journaled verdicts are replayed instead
    // of re-evaluated; fresh verdicts are appended as they complete. The
    // hooks serve both the CEGAR and the exhaustive-frontier paths.
    hierarchy::CegarHooks hooks;
    std::optional<JournalWriter> journal;
    std::map<std::string, hierarchy::ScenarioRecord> replay;
    std::vector<hierarchy::ScenarioRecord> replayed_records;  // in journal order
    if (!config.journal_path.empty()) {
        const json::Value header = journal_header(config);
        if (config.resume) {
            auto loaded = load_journal(config.journal_path);
            if (!loaded.ok()) return Result<AssessmentReport>::failure(loaded.error());
            const json::Value* echo = loaded.value().header.get("config");
            if (echo == nullptr || echo->serialize() != header.get("config")->serialize()) {
                return Result<AssessmentReport>::failure(
                    "journal: " + config.journal_path +
                    " was written under a different configuration; re-run without --resume");
            }
            replayed_records = std::move(loaded.value().records);
            // Cancellation interrupts the *run*, not the scenario: verdicts
            // recorded as Undetermined{cancelled} are dropped from the
            // replay (and the compacted journal below) so the resumed run
            // re-evaluates them and converges to the uninterrupted report.
            // Other Undetermined reasons replay as before — they document a
            // configured resource limit, not an outside interruption.
            replayed_records.erase(
                std::remove_if(replayed_records.begin(), replayed_records.end(),
                               [](const hierarchy::ScenarioRecord& record) {
                                   return record.verdict.undetermined() &&
                                          record.verdict.undetermined_reason ==
                                              epa::UndeterminedReason::Cancelled;
                               }),
                replayed_records.end());
            for (const hierarchy::ScenarioRecord& record : replayed_records) {
                replay[record.scenario_id] = record;
            }
        }
        // Rewriting the journal (header + intact replayed records) compacts
        // away any torn trailing line the killed run left behind; fresh
        // appends then always start on a line boundary.
        auto writer =
            JournalWriter::open(config.journal_path, header, JournalOptions{config.journal_sync});
        if (!writer.ok()) return Result<AssessmentReport>::failure(writer.error());
        journal = std::move(writer).value();
        // Journal records carry the expected-risk score under a scoring
        // policy, so an interrupted journal shows the risk mass already
        // covered. Stamping is idempotent: replayed records re-stamp to the
        // same value (the score is a pure function of model + mutations),
        // keeping compaction byte-identical.
        const auto stamped = [&](hierarchy::ScenarioRecord record) {
            if (scoring) {
                record.expected_risk_micros = priority.score_micros(record.verdict.mutations);
            }
            return record;
        };
        for (const hierarchy::ScenarioRecord& record : replayed_records) {
            auto appended = journal->append(stamped(record));
            if (!appended.ok()) return Result<AssessmentReport>::failure(appended.error());
        }
        hooks.lookup =
            [&](const std::string& scenario_id) -> std::optional<hierarchy::ScenarioRecord> {
            auto it = replay.find(scenario_id);
            if (it == replay.end()) return std::nullopt;
            ++report.resumed_scenarios;
            return it->second;
        };
        hooks.completed = [&, stamped](const hierarchy::ScenarioRecord& record) {
            return journal->append(stamped(record));
        };
    }

    // The evaluated universe and which of it was decided, for the anytime
    // coverage estimate below (exhaustive mode: pruned candidates never get
    // records — coverage is measured over the evaluated sweep).
    std::vector<security::AttackScenario> scored_universe;
    std::vector<bool> decided_flags;
    const auto collect_scored = [&](const std::vector<hierarchy::ScenarioRecord>& records) {
        for (const hierarchy::ScenarioRecord& record : records) {
            security::AttackScenario scenario;
            scenario.id = record.scenario_id;
            scenario.mutations = record.verdict.mutations;
            scored_universe.push_back(std::move(scenario));
            decided_flags.push_back(record.outcome != hierarchy::ScenarioOutcome::Undetermined);
        }
    };

    phase_start = Clock::now();
    if (config.exhaustive) {
        // Steps 3-5, exhaustive variant (docs/exhaustive-search.md): a
        // cardinality-layered sweep of the fault-subset lattice on the
        // behavioural EPA, pruning supersets of known hazards when the
        // polarity certifier proves the model monotone.
        epa::EpaOptions epa_options;
        epa_options.focus = epa::AnalysisFocus::Behavioral;
        epa_options.horizon = config.horizon;
        epa_options.max_decisions = config.max_decisions;
        epa_options.static_prefilter = config.static_prefilter;
        epa_options.ctx = &ctx;
        auto frontier_epa = epa::ErrorPropagationAnalysis::create(
            *system_, behavioral_requirements_, *mitigations_, epa_options);
        if (!frontier_epa.ok()) return Result<AssessmentReport>::failure(frontier_epa.error());

        std::optional<std::set<model::ComponentId>> reachable;
        if (config.attack_reachable_only) {
            const analysis::TaintResult taint =
                analysis::analyze_attack_reachability(*system_, *matrix_);
            reachable.emplace();
            for (const auto& [component, depth] : taint.compromise_depth) {
                reachable->insert(component);
            }
        }

        epa::FrontierOptions frontier_options;
        frontier_options.max_card = config.max_card;
        frontier_options.active_mitigations = config.active_mitigations;
        if (reachable) frontier_options.component_filter = &*reachable;
        frontier_options.priority = &priority;
        frontier_options.hooks = hooks;
        frontier_options.ctx = &ctx;
        std::optional<Result<epa::FrontierResult>> frontier_result;
        {
            obs::Span span(ctx.trace, "assess.frontier", "phase");
            frontier_result.emplace(epa::run_frontier(frontier_epa.value(), frontier_options));
        }
        record_phase("frontier", phase_start);
        if (!frontier_result->ok()) {
            return Result<AssessmentReport>::failure(frontier_result->error());
        }
        epa::FrontierResult& frontier = frontier_result->value();
        report.scenario_count = frontier.candidates;
        obs::add_counter(ctx.metrics, "assess.scenarios", frontier.candidates);
        report.hazards = std::move(frontier.minimal_hazards);
        report.undetermined = std::move(frontier.undetermined);
        for (const hierarchy::ScenarioRecord& record : frontier.records) {
            report.total_decisions += record.verdict.solver_stats.decisions;
            report.total_conflicts += record.verdict.solver_stats.conflicts;
            if (record.verdict.provenance == epa::VerdictProvenance::Static) {
                ++report.statically_resolved;
            }
        }
        collect_scored(frontier.records);
        report.exhaustive.enabled = true;
        report.exhaustive.pruning = frontier.pruning;
        report.exhaustive.certificate =
            !frontier.certificate.has_value()
                ? "unavailable"
                : (frontier.certificate->monotone ? "monotone" : "mixed");
        report.exhaustive.universe_size = frontier.universe_size;
        report.exhaustive.skipped_faults = frontier.skipped_faults;
        report.exhaustive.max_card = frontier.max_card;
        report.exhaustive.candidates = frontier.candidates;
        // Journal replays count as evaluations: a resumed run must render
        // byte-identically to the uninterrupted one.
        report.exhaustive.evaluated = frontier.evaluated + frontier.replayed;
        report.exhaustive.pruned = frontier.pruned;
        report.exhaustive.minimal_hazards = report.hazards.size();
        if (frontier.certificate.has_value()) {
            constexpr std::size_t kMaxOffenders = 3;
            for (const asp::polarity::Offender& offender : frontier.certificate->offenders) {
                if (report.exhaustive.offenders.size() >= kMaxOffenders) break;
                report.exhaustive.offenders.push_back(offender.detail);
            }
        }

        // Step 7 consumes a scenario space; rebuild the minimal hazards'
        // scenarios (ids match the frontier verdicts by construction).
        std::vector<security::AttackScenario> hazard_scenarios;
        hazard_scenarios.reserve(report.hazards.size());
        for (const epa::ScenarioVerdict& hazard : report.hazards) {
            hazard_scenarios.push_back(epa::frontier_scenario(*system_, hazard.mutations));
        }
        built_space.emplace(std::move(hazard_scenarios));
    } else {
        // Steps 3-5: reasoning, hazard identification, CEGAR refinement.
        std::vector<hierarchy::CegarStage> stages;
        if (config.use_cegar) {
            stages.push_back(hierarchy::CegarStage{
                "topology", system_, epa::AnalysisFocus::Topology, topology_requirements_,
                config.horizon});
        }
        stages.push_back(hierarchy::CegarStage{"behavioral", system_,
                                               epa::AnalysisFocus::Behavioral,
                                               behavioral_requirements_, config.horizon});

        hierarchy::CegarOptions cegar_options;
        cegar_options.max_decisions = config.max_decisions;
        cegar_options.static_prefilter = config.static_prefilter;
        cegar_options.ctx = &ctx;
        cegar_options.hooks = hooks;

        std::optional<Result<hierarchy::CegarResult>> cegar_result;
        {
            obs::Span span(ctx.trace, "assess.cegar", "phase");
            cegar_result.emplace(hierarchy::run_cegar(stages, *built_space, *mitigations_,
                                                      config.active_mitigations, cegar_options));
        }
        record_phase("cegar", phase_start);
        const Result<hierarchy::CegarResult>& cegar = *cegar_result;
        if (!cegar.ok()) return Result<AssessmentReport>::failure(cegar.error());
        report.hazards = cegar.value().confirmed;
        report.undetermined = cegar.value().undetermined;
        report.cegar_iterations = cegar.value().iterations;
        report.spurious_eliminated = cegar.value().total_spurious();
        for (const hierarchy::ScenarioRecord& record : cegar.value().records) {
            report.total_decisions += record.verdict.solver_stats.decisions;
            report.total_conflicts += record.verdict.solver_stats.conflicts;
            if (record.verdict.provenance == epa::VerdictProvenance::Static) {
                ++report.statically_resolved;
            }
        }
        collect_scored(cegar.value().records);
    }

    // Anytime coverage: how much of the space's expected-risk mass the
    // decided scenarios account for, with a posterior lower bound. Pure
    // function of (model, records, seed) — byte-identical at any --jobs.
    if (scoring) {
        report.priority.enabled = true;
        report.priority.policy = std::string(risk::to_string(config.priority_policy));
        report.priority.explicit_priors = priority.priors().any_explicit();
        report.priority.prior_count = priority.priors().size();
        report.priority.prior_seed = config.prior_seed;
        const risk::CoverageEstimate estimate =
            priority.coverage(scored_universe, decided_flags, config.prior_seed);
        report.priority.total_risk_micros = estimate.total_micros;
        report.priority.covered_risk_micros = estimate.covered_micros;
        report.priority.coverage_lower_bound_micros = estimate.lower_bound_micros;
    }

    // Step 6: quantitative (rough-granular) risk analysis.
    phase_start = Clock::now();
    obs::Span risk_span(ctx.trace, "assess.risk", "phase");
    for (const epa::ScenarioVerdict& hazard : report.hazards) {
        ScenarioRisk risk;
        risk.scenario_id = hazard.scenario_id;
        risk.loss_magnitude = hazard.severity;
        risk.loss_event_frequency = hazard.likelihood;
        risk.risk = risk::ora_risk(risk.loss_magnitude, risk.loss_event_frequency);
        risk.iec_class = risk::iec61508_class(risk::likelihood_from_level(hazard.likelihood),
                                              risk::consequence_from_level(hazard.severity));
        risk.violated_requirements = hazard.violated_requirements;
        security::AttackScenario shaped;
        shaped.id = hazard.scenario_id;
        shaped.mutations = hazard.mutations;
        risk.likelihood_band_radius = priority.likelihood_band_radius(shaped);
        report.risks.push_back(std::move(risk));
    }
    std::sort(report.risks.begin(), report.risks.end(),
              [](const ScenarioRisk& a, const ScenarioRisk& b) {
                  if (a.risk != b.risk) return b.risk < a.risk;
                  return a.scenario_id < b.scenario_id;
              });
    risk_span.close();
    record_phase("risk", phase_start);

    // Step 7: mitigation strategy.
    phase_start = Clock::now();
    {
        obs::Span span(ctx.trace, "assess.mitigation", "phase");
        const mitigation::MitigationProblem problem = mitigation::MitigationProblem::build(
            *built_space, report.hazards, *matrix_, *mitigations_, config.loss_scale);
        mitigation::OptimizerOptions optimizer_options;
        optimizer_options.budget = config.budget;
        optimizer_options.ctx = &ctx;
        report.selection = mitigation::optimize_exact(problem, optimizer_options);
        if (config.phase_budget > 0) {
            report.phases = mitigation::plan_phases(problem, config.phase_budget);
        }
        if (config.pareto) {
            auto front = mitigation::pareto_front(problem, optimizer_options);
            if (!front.ok()) return Result<AssessmentReport>::failure(front.error());
            report.pareto = std::move(front).value();
        }
    }
    record_phase("mitigation", phase_start);

    obs::add_counter(ctx.metrics, "assess.hazards", report.hazards.size());
    obs::add_counter(ctx.metrics, "assess.undetermined", report.undetermined.size());
    const BudgetStats budget_stats = ctx.budget.stats();
    obs::set_gauge(ctx.metrics, "budget.steps", static_cast<long long>(budget_stats.steps));
    obs::set_gauge(ctx.metrics, "budget.decisions",
                   static_cast<long long>(budget_stats.decisions));
    obs::set_gauge(ctx.metrics, "budget.elapsed_ms",
                   static_cast<long long>(budget_stats.elapsed.count()));
    return report;
}

}  // namespace cprisk::core
