#include "epa/epa.hpp"

#include <algorithm>
#include <set>
#include <thread>
#include <utility>

#include "asp/absint/absint.hpp"
#include "asp/incremental.hpp"
#include "common/fault_injection.hpp"
#include "common/strings.hpp"
#include "common/ordered_sweep.hpp"
#include "model/to_asp.hpp"

namespace cprisk::epa {

using asp::Atom;
using asp::Term;
using model::ComponentId;
using security::Mutation;

void MitigationMap::add(const std::string& mitigation_id, const ComponentId& component,
                        const std::string& fault_id) {
    entries_.push_back(Entry{mitigation_id, component, fault_id});
}

MitigationMap MitigationMap::from_attack_matrix(const model::SystemModel& model,
                                                const security::AttackMatrix& matrix) {
    MitigationMap map;
    for (const model::Component& component : model.components()) {
        for (const security::Technique* technique : matrix.techniques_for(component)) {
            if (technique->caused_fault.empty()) continue;
            if (!component.has_fault_mode(technique->caused_fault)) continue;
            for (const security::Mitigation* mitigation : matrix.mitigations_for(*technique)) {
                map.add(mitigation->id, component.id, technique->caused_fault);
            }
        }
    }
    return map;
}

bool ScenarioVerdict::violates(const std::string& requirement_id) const {
    return std::find(violated_requirements.begin(), violated_requirements.end(),
                     requirement_id) != violated_requirements.end();
}

std::string_view to_string(VerdictStatus status) {
    switch (status) {
        case VerdictStatus::Safe: return "safe";
        case VerdictStatus::Hazard: return "hazard";
        case VerdictStatus::Undetermined: return "undetermined";
    }
    return "undetermined";
}

std::string_view to_string(UndeterminedReason reason) {
    switch (reason) {
        case UndeterminedReason::Timeout: return "timeout";
        case UndeterminedReason::DecisionLimit: return "decision_limit";
        case UndeterminedReason::Cancelled: return "cancelled";
        case UndeterminedReason::SolverError: return "solver_error";
    }
    return "solver_error";
}

std::optional<VerdictStatus> parse_verdict_status(std::string_view text) {
    if (text == "safe") return VerdictStatus::Safe;
    if (text == "hazard") return VerdictStatus::Hazard;
    if (text == "undetermined") return VerdictStatus::Undetermined;
    return std::nullopt;
}

std::optional<UndeterminedReason> parse_undetermined_reason(std::string_view text) {
    if (text == "timeout") return UndeterminedReason::Timeout;
    if (text == "decision_limit") return UndeterminedReason::DecisionLimit;
    if (text == "cancelled") return UndeterminedReason::Cancelled;
    if (text == "solver_error") return UndeterminedReason::SolverError;
    return std::nullopt;
}

std::string_view to_string(VerdictProvenance provenance) {
    switch (provenance) {
        case VerdictProvenance::Solver: return "solver";
        case VerdictProvenance::Static: return "static";
    }
    return "solver";
}

std::optional<VerdictProvenance> parse_verdict_provenance(std::string_view text) {
    if (text == "solver") return VerdictProvenance::Solver;
    if (text == "static") return VerdictProvenance::Static;
    return std::nullopt;
}

UndeterminedReason undetermined_reason_from(BudgetReason reason) {
    switch (reason) {
        case BudgetReason::Deadline: return UndeterminedReason::Timeout;
        case BudgetReason::DecisionLimit:
        case BudgetReason::StepLimit: return UndeterminedReason::DecisionLimit;
        case BudgetReason::Cancelled: return UndeterminedReason::Cancelled;
    }
    return UndeterminedReason::SolverError;
}

namespace {

/// Generic propagation semantics shared by both analysis focuses: fault
/// activation per Listing 1, error injection, persistence, and spread along
/// the topology.
constexpr const char* kPropagationRules = R"(
#program base.
suppressed(C, F) :- scenario_fault(C, F), mitigates(M, C, F), active_mitigation(M).
injected_fault(C, F) :- scenario_fault(C, F), not suppressed(C, F).
injected_any(C) :- injected_fault(C, _).
#program always.
active_fault(C, F) :- injected_fault(C, F).
#program initial.
error(C) :- injected_any(C).
#program dynamic.
error(C) :- prev_error(C).
error(C2) :- prev_error(C1), connected(C1, C2).
)";

/// One singleton choice shell `{ atom }.` — leaves `atom` open in the
/// grounded domain so a later solve can pin it via assumptions.
asp::Rule choice_shell(Atom atom) {
    asp::ChoiceElement element;
    element.atom = std::move(atom);
    asp::Rule shell;
    shell.head = asp::Head::make_choice({std::move(element)}, std::nullopt, std::nullopt);
    return shell;
}

}  // namespace

/// Immutable ground-once cache: the base program grounded a single time with
/// the full scenario-fault/mitigation domain left open via choice shells.
/// Built at create(); read-only afterwards, so concurrent evaluate() calls
/// share it without synchronization.
struct GroundedBase {
    asp::GroundProgram program;
    /// Grounded atom id of scenario_fault(c, f) per declared fault mode.
    std::map<Mutation, int> fault_atoms;
    /// Grounded atom id of active_mitigation(m) per known mitigation id
    /// (to_identifier-normalized).
    std::map<std::string, int> mitigation_atoms;
    /// Open (pin-free) ternary analysis of `program` after simplification —
    /// brackets every answer set under every pin configuration. Valid iff
    /// `analysis_ok` (the evaluation neither conflicted nor tripped the
    /// budget at create()).
    asp::absint::Analysis analysis;
    bool analysis_ok = false;
    /// Compiled form of the simplified `program`: every scenario prefilter
    /// evaluates against it instead of rebuilding the atom graph and its
    /// SCCs per scenario.
    asp::absint::Plan plan;
    /// Grounded atom id of the `__hazard_probe` guard: a free choice atom
    /// with one constraint `:- violated(R), __hazard_probe.` per grounded
    /// requirement-violation atom. Every regular path pins it false (the
    /// constraints are then vacuous and verdicts are unchanged); pinning it
    /// true instead asks for a violation-free answer set, so an UNSAT
    /// outcome proves the pinned faults force a hazard and the assumption
    /// core names the faults that matter (hazard_core()). -1 when absent.
    int probe_atom = -1;
    /// Warm CDCL solvers over `program`, one per concurrent worker: the
    /// Clark completion is built once and entailed clauses learned by one
    /// scenario's solve carry over to the next (asp/incremental.hpp).
    /// Internally synchronized, so sharing the const base across threads
    /// stays sound; entailed clauses never change which answer sets exist,
    /// so verdicts stay jobs-invariant even though per-solve search stats
    /// on learning workloads may depend on lease order.
    std::unique_ptr<asp::SolverPool> solver_pool;
};

GroundedBaseCache::GroundedBaseCache() = default;
GroundedBaseCache::~GroundedBaseCache() = default;

std::size_t GroundedBaseCache::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t GroundedBaseCache::approx_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

std::shared_ptr<const GroundedBase> GroundedBaseCache::find(const Key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second.first;
}

void GroundedBaseCache::insert(const Key& key, std::shared_ptr<const GroundedBase> base,
                               std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[key];
    if (slot.first != nullptr) return;  // a concurrent create() won the race; keep its entry
    slot = {std::move(base), bytes};
    bytes_ += bytes;
}

namespace {

/// Rough resident-size estimate of a ground-once base, for the daemon's
/// approximate memory cap. Counts the dominant vectors (atoms, rule bodies,
/// the pin-free analysis and the compiled plan) at container-overhead
/// granularity; exactness is not the point — the cap only needs a
/// monotone, stable measure of model size.
std::size_t grounded_base_bytes(const GroundedBase& base) {
    std::size_t bytes = base.program.atom_count() * 96;  // interned atom + id-map node
    for (const asp::GroundRule& rule : base.program.rules()) {
        bytes += sizeof(asp::GroundRule);
        bytes += (rule.positive_body.size() + rule.negative_body.size() +
                  rule.choice_heads.size()) *
                 sizeof(int);
        for (const asp::GroundAggregate& aggregate : rule.aggregates) {
            bytes += sizeof(asp::GroundAggregate);
            for (const asp::GroundAggregateElement& element : aggregate.elements) {
                bytes += sizeof(element) + element.tuple.size() +
                         element.condition.size() * sizeof(int);
            }
        }
    }
    bytes += (base.fault_atoms.size() + base.mitigation_atoms.size()) * 96;
    bytes += base.analysis.values.size() * sizeof(asp::absint::Ternary);
    bytes += base.plan.bytes();
    return bytes;
}

/// Grounds the base + open delta domain once. Returns nullptr when the cache
/// cannot be built (budget trip, injected grounder fault, missing domain
/// atom); callers then use the per-scenario grounding path — building the
/// cache is an optimization, never a correctness requirement.
std::shared_ptr<const GroundedBase> try_ground_base(const model::SystemModel& model,
                                                   const MitigationMap& mitigations,
                                                   const asp::Program& base_program,
                                                   const EpaOptions& options) {
    asp::Program delta;
    std::vector<Mutation> fault_domain;
    for (const model::Component& component : model.components()) {
        for (const model::FaultMode& mode : component.fault_modes) {
            fault_domain.push_back(Mutation{component.id, mode.id});
            delta.add_rule(choice_shell(Atom{
                "scenario_fault", {Term::symbol(component.id), Term::symbol(mode.id)}}));
        }
    }
    std::set<std::string> mitigation_ids;
    for (const MitigationMap::Entry& entry : mitigations.entries()) {
        mitigation_ids.insert(to_identifier(entry.mitigation_id));
    }
    for (const std::string& id : mitigation_ids) {
        delta.add_rule(choice_shell(Atom{"active_mitigation", {Term::symbol(id)}}));
    }

    const asp::ProgramParts parts{&base_program, &delta};
    obs::Span span(options.trace_sink(), "epa.ground_base", "ground");
    asp::GrounderOptions grounder_options;
    grounder_options.budget = options.effective_budget();
    grounder_options.trace = options.trace_sink();
    grounder_options.metrics = options.metrics_sink();
    asp::Program unrolled;
    asp::ProgramParts effective = parts;
    if (base_program.is_temporal() || delta.is_temporal()) {
        asp::UnrollOptions unroll_options;
        unroll_options.horizon = options.horizon;
        auto result = asp::unroll(parts, unroll_options);
        if (!result.ok()) return nullptr;
        unrolled = std::move(result).value();
        effective = {&unrolled};
    }
    auto grounded = asp::ground(effective, grounder_options);
    if (!grounded.ok()) return nullptr;
    obs::add_counter(options.metrics_sink(), "epa.ground_cache.built");

    auto base = std::make_shared<GroundedBase>();
    base->program = std::move(grounded).value();

    // Hazard-probe instrumentation, injected straight into the ground
    // program (after grounding, so temporal unrolling never sees it): a free
    // guard atom plus one constraint per grounded violation atom. Added
    // before the ternary analysis below so the analysis brackets the guarded
    // program it will later be asked to certify slices of.
    base->probe_atom = base->program.intern(Atom{"__hazard_probe", {}});
    {
        asp::GroundRule shell;
        shell.kind = asp::GroundRule::Kind::Choice;
        shell.choice_heads.push_back(base->probe_atom);
        base->program.add_rule(std::move(shell));
    }
    const int atom_count = static_cast<int>(base->program.atom_count());
    for (int id = 0; id < atom_count; ++id) {
        if (base->program.atom(id).predicate != "violated") continue;
        asp::GroundRule guard;
        guard.kind = asp::GroundRule::Kind::Constraint;
        guard.positive_body = {id, base->probe_atom};
        base->program.add_rule(std::move(guard));
    }

    // One-time static simplification: the pin-free ternary analysis brackets
    // every answer set under every later pin configuration, so decided atoms
    // propagate, satisfied rules disappear and bodies shrink once — every
    // subsequent pinned solve works on the smaller program with identical
    // verdicts (differential-tested). Atom ids are never renumbered, so the
    // assumption domain resolved below stays valid.
    asp::absint::AbsintOptions absint_options;
    absint_options.budget = options.effective_budget();
    base->analysis = asp::absint::evaluate(base->program, absint_options);
    if (!base->analysis.conflict && !base->analysis.interrupted) {
        const auto stats = asp::absint::simplify(base->program, base->analysis);
        base->analysis_ok = true;
        obs::add_counter(options.metrics_sink(), "epa.absint.rules_deleted",
                         stats.rules_deleted);
        obs::add_counter(options.metrics_sink(), "epa.absint.literals_dropped",
                         stats.literals_dropped);
        obs::add_counter(options.metrics_sink(), "epa.absint.atoms_decided",
                         stats.atoms_decided);
    }
    base->plan = asp::absint::compile(base->program);
    for (const Mutation& mutation : fault_domain) {
        const int id = base->program.find(Atom{
            "scenario_fault",
            {Term::symbol(mutation.component), Term::symbol(mutation.fault_id)}});
        if (id < 0) return nullptr;
        base->fault_atoms.emplace(mutation, id);
    }
    for (const std::string& mitigation : mitigation_ids) {
        const int id =
            base->program.find(Atom{"active_mitigation", {Term::symbol(mitigation)}});
        if (id < 0) return nullptr;
        base->mitigation_atoms.emplace(mitigation, id);
    }
    // The pool only records the program's (heap-stable) address; warm
    // solvers are constructed lazily, one per worker that ever leases.
    base->solver_pool = std::make_unique<asp::SolverPool>(base->program);
    return base;
}

}  // namespace

Result<ErrorPropagationAnalysis> ErrorPropagationAnalysis::create(
    const model::SystemModel& model, std::vector<Requirement> requirements,
    const MitigationMap& mitigations, const EpaOptions& options) {
    auto valid = model.validate();
    if (!valid.ok()) {
        return Result<ErrorPropagationAnalysis>::failure("EPA: invalid model: " + valid.error());
    }

    ErrorPropagationAnalysis epa;
    epa.model_ = &model;
    epa.options_ = options;

    model::ToAspOptions to_asp_options;
    to_asp_options.include_behaviors = options.focus == AnalysisFocus::Behavioral;
    auto facts = model::to_asp(model, to_asp_options);
    if (!facts.ok()) return Result<ErrorPropagationAnalysis>::failure(facts.error());
    epa.base_program_ = std::move(facts).value();

    auto propagation = asp::parse_program(kPropagationRules);
    require(propagation.ok(), "EPA: internal propagation rules failed to parse: " +
                                  propagation.error());
    epa.base_program_.append(propagation.value());

    // Mitigation suppression facts.
    for (const MitigationMap::Entry& entry : mitigations.entries()) {
        asp::Rule fact;
        fact.head = asp::Head::make_atom(Atom{"mitigates",
                                              {Term::symbol(to_identifier(entry.mitigation_id)),
                                               Term::symbol(entry.component),
                                               Term::symbol(entry.fault_id)}});
        epa.base_program_.add_rule(std::move(fact));
    }

    // Requirements: id normalized to an ASP constant; compiled to
    // violated/1 derivation rules.
    for (Requirement& requirement : requirements) {
        requirement.id = to_identifier(requirement.id);
        asp::ltl::compile_requirement(epa.base_program_, requirement.id, requirement.formula,
                                      options.horizon);
    }
    epa.requirements_ = std::move(requirements);
    epa.mitigations_ = mitigations;

    if (!options.collect_trace) {
        // Projection keeps the solver's answer sets small; with
        // collect_trace every atom stays visible for trace reconstruction.
        epa.base_program_.add_show(asp::Signature{"violated", 1});
        epa.base_program_.add_show(asp::Signature{"error", 1});  // bumped to /2 by unroll
        epa.base_program_.add_show(asp::Signature{"injected_fault", 2});
    }
    if (options.ground_once) {
        GroundedBaseCache* cache = options.ctx != nullptr ? options.ctx->base_cache : nullptr;
        const GroundedBaseCache::Key key{static_cast<int>(options.focus), options.horizon,
                                         options.collect_trace};
        if (cache != nullptr) {
            epa.grounded_base_ = cache->find(key);
            obs::add_counter(options.metrics_sink(), epa.grounded_base_ != nullptr
                                                         ? "epa.base_cache.hits"
                                                         : "epa.base_cache.misses");
        }
        if (epa.grounded_base_ == nullptr) {
            epa.grounded_base_ =
                try_ground_base(model, epa.mitigations_, epa.base_program_, options);
            // Only fully-built bases are shared: a base degraded by a budget
            // trip or injected fault at create() stays request-local, so one
            // starved request cannot poison the warm cache for its model.
            if (cache != nullptr && epa.grounded_base_ != nullptr &&
                epa.grounded_base_->analysis_ok) {
                cache->insert(key, epa.grounded_base_,
                              grounded_base_bytes(*epa.grounded_base_));
            }
        }
    }
    return epa;
}

std::optional<std::vector<std::pair<int, bool>>> ErrorPropagationAnalysis::cached_assumptions(
    const security::AttackScenario& scenario,
    const std::vector<std::string>& active_mitigations) const {
    if (grounded_base_ == nullptr) return std::nullopt;
    const GroundedBase& base = *grounded_base_;
    const std::set<Mutation> wanted(scenario.mutations.begin(), scenario.mutations.end());
    for (const Mutation& mutation : scenario.mutations) {
        if (base.fault_atoms.find(mutation) == base.fault_atoms.end()) return std::nullopt;
    }
    std::set<std::string> active_ids;
    for (const std::string& mitigation : active_mitigations) {
        std::string id = to_identifier(mitigation);
        if (base.mitigation_atoms.find(id) == base.mitigation_atoms.end()) return std::nullopt;
        active_ids.insert(std::move(id));
    }
    // Pin the *entire* delta domain: atoms of this scenario true, everything
    // else false, so the projected answer sets match the fact-based path
    // exactly.
    std::vector<std::pair<int, bool>> assumptions;
    assumptions.reserve(base.fault_atoms.size() + base.mitigation_atoms.size() + 1);
    for (const auto& [mutation, atom] : base.fault_atoms) {
        assumptions.emplace_back(atom, wanted.count(mutation) > 0);
    }
    for (const auto& [id, atom] : base.mitigation_atoms) {
        assumptions.emplace_back(atom, active_ids.count(id) > 0);
    }
    // The hazard probe stays off on the regular path: its guard constraints
    // are vacuous and the answer sets match the fact-based path exactly.
    // hazard_core() flips this one pin to true.
    if (base.probe_atom >= 0) assumptions.emplace_back(base.probe_atom, false);
    return assumptions;
}

Result<ScenarioVerdict> ErrorPropagationAnalysis::evaluate(
    const security::AttackScenario& scenario,
    const std::vector<std::string>& active_mitigations) const {
    auto verdict = evaluate_once(scenario, active_mitigations);
    const RetryPolicy* policy = options_.ctx != nullptr ? &options_.ctx->retry : nullptr;
    if (policy == nullptr || !policy->enabled()) return verdict;

    // Retry only the transient class: solver_error covers I/O-level faults
    // (the fault-injection seams model them) that a fresh attempt can clear.
    // Hard failures (unknown component, inconsistent model) and budget trips
    // are permanent. The jitter salt is the scenario id, so concurrent
    // retries decorrelate while the schedule stays reproducible.
    const std::uint64_t salt = fnv1a64(scenario.id);
    bool retried = false;
    for (std::size_t attempt = 0; attempt < policy->max_retries; ++attempt) {
        if (!verdict.ok()) return verdict;
        const ScenarioVerdict& v = verdict.value();
        if (v.status != VerdictStatus::Undetermined ||
            v.undetermined_reason != UndeterminedReason::SolverError) {
            return verdict;
        }
        Budget* budget = options_.effective_budget();
        if (budget != nullptr && budget->tripped()) return verdict;
        std::this_thread::sleep_for(policy->backoff(attempt, salt));
        obs::add_counter(options_.metrics_sink(), "epa.retry.attempts");
        retried = true;
        verdict = evaluate_once(scenario, active_mitigations);
    }
    if (retried && verdict.ok() &&
        verdict.value().status == VerdictStatus::Undetermined &&
        verdict.value().undetermined_reason == UndeterminedReason::SolverError) {
        obs::add_counter(options_.metrics_sink(), "epa.retry.exhausted");
    }
    return verdict;
}

Result<ScenarioVerdict> ErrorPropagationAnalysis::evaluate_once(
    const security::AttackScenario& scenario,
    const std::vector<std::string>& active_mitigations) const {
    for (const Mutation& mutation : scenario.mutations) {
        if (!model_->has_component(mutation.component)) {
            return Result<ScenarioVerdict>::failure("scenario " + scenario.id +
                                                    ": unknown component '" + mutation.component +
                                                    "'");
        }
    }

    ScenarioVerdict verdict;
    verdict.scenario_id = scenario.id;
    verdict.mutations = scenario.mutations;
    verdict.active_mitigations = active_mitigations;
    verdict.likelihood = scenario.likelihood;

    // Cooperative cancellation point: a tripped budget (cancel, deadline,
    // quota) stops new evaluations before any grounding or solving. Without
    // this, scenarios a propagation-only solve can decide would still
    // complete after cancellation — with solver provenance, breaking
    // resume byte-identity — because the solver only polls the budget at
    // decision points.
    if (Budget* budget = options_.effective_budget(); budget != nullptr) {
        if (const auto trip = budget->check()) {
            verdict.status = VerdictStatus::Undetermined;
            verdict.undetermined_reason = undetermined_reason_from(trip->reason);
            verdict.undetermined_detail =
                "scenario " + scenario.id + ": not started: " + trip->to_string();
            obs::add_counter(options_.metrics_sink(), "epa.scenarios.undetermined");
            return verdict;
        }
    }

    // Scenario-scoped span: nested asp.ground/asp.solve spans inherit this
    // scenario id through the thread-local scope stack, so the exported
    // trace groups per scenario deterministically at any --jobs.
    obs::Span span(options_.trace_sink(), "epa.evaluate", "scenario", scenario.id);

    if (auto assumptions = cached_assumptions(scenario, active_mitigations)) {
        // Cached path: no per-scenario grounding at all — one solve over the
        // shared ground program with the delta domain pinned.
        obs::add_counter(options_.metrics_sink(), "epa.ground_cache.hits");

        if (options_.static_prefilter && grounded_base_->analysis_ok &&
            !fault::should_fail("epa.absint.prefilter")) {
            // An injected prefilter fault degrades to the solver path below —
            // the verdict is identical, only provenance changes.
            // Static prefilter: rerun the cheap ternary propagation with the
            // scenario's assumptions pinned. When the fixpoint certifies a
            // unique answer set, the verdict is emitted without any CDCL
            // search — byte-identical to what the solver would report.
            obs::Span prefilter_span(options_.trace_sink(), "epa.absint_prefilter", "scenario",
                                     scenario.id);
            asp::absint::AbsintOptions absint_options;
            absint_options.pins = &*assumptions;
            absint_options.budget = options_.effective_budget();
            const GroundedBase& base = *grounded_base_;
            const auto analysis =
                asp::absint::evaluate(base.program, base.plan, absint_options);
            if (analysis.certified) {
                asp::SolveResult synthesized;
                synthesized.satisfiable = true;
                asp::AnswerSet model;
                model.atoms = asp::absint::certified_model(base.program, base.plan, analysis);
                model.cost = asp::absint::certified_cost(base.program, analysis);
                synthesized.best_cost = model.cost;
                synthesized.models.push_back(std::move(model));
                verdict.provenance = VerdictProvenance::Static;
                auto finished = finish_verdict(std::move(verdict), std::move(synthesized));
                if (finished.ok()) {
                    obs::add_counter(options_.metrics_sink(),
                                     finished.value().status == VerdictStatus::Hazard
                                         ? "epa.absint.static_hazard"
                                         : "epa.absint.static_safe");
                }
                return finished;
            }
            obs::add_counter(options_.metrics_sink(), "epa.absint.static_unknown");
            // A trip that lands mid-prefilter aborts the fixpoint before it
            // can certify. Falling through to the solver would complete the
            // scenario with solver provenance — a timing artifact a clean
            // rerun would not reproduce — so the scenario degrades to
            // Undetermined and a resume re-evaluates it.
            if (Budget* budget = options_.effective_budget(); budget != nullptr) {
                if (const auto trip = budget->tripped()) {
                    verdict.status = VerdictStatus::Undetermined;
                    verdict.undetermined_reason = undetermined_reason_from(trip->reason);
                    verdict.undetermined_detail =
                        "scenario " + scenario.id + ": prefilter aborted: " + trip->to_string();
                    obs::add_counter(options_.metrics_sink(), "epa.scenarios.undetermined");
                    return verdict;
                }
            }
        }

        asp::SolveOptions solve_options;
        if (options_.max_decisions != 0) solve_options.max_decisions = options_.max_decisions;
        solve_options.budget = options_.effective_budget();
        solve_options.trace = options_.trace_sink();
        solve_options.metrics = options_.metrics_sink();
        solve_options.assumptions = std::move(*assumptions);
        // Warm path: lease a persistent solver bound to the shared base, so
        // the completion is built once and entailed clauses learned by
        // earlier scenarios short-circuit this one's search.
        std::optional<asp::SolverPool::Lease> lease;
        if (grounded_base_->solver_pool != nullptr) {
            lease.emplace(grounded_base_->solver_pool->acquire());
            solve_options.incremental = lease->solver();
        }
        return finish_verdict(std::move(verdict),
                              asp::solve(grounded_base_->program, solve_options));
    }
    obs::add_counter(options_.metrics_sink(), "epa.ground_cache.misses");

    // Full-reground path: the shared base program rides along as an
    // immutable part; only the tiny delta (scenario facts) is built here.
    asp::Program delta;
    for (const Mutation& mutation : scenario.mutations) {
        asp::Rule fact;
        fact.head = asp::Head::make_atom(
            Atom{"scenario_fault",
                 {Term::symbol(mutation.component), Term::symbol(mutation.fault_id)}});
        delta.add_rule(std::move(fact));
    }
    for (const std::string& mitigation : active_mitigations) {
        asp::Rule fact;
        fact.head = asp::Head::make_atom(
            Atom{"active_mitigation", {Term::symbol(to_identifier(mitigation))}});
        delta.add_rule(std::move(fact));
    }

    asp::PipelineOptions pipeline;
    pipeline.horizon = options_.horizon;
    if (options_.max_decisions != 0) pipeline.solve.max_decisions = options_.max_decisions;
    pipeline.solve.budget = options_.effective_budget();
    pipeline.solve.trace = options_.trace_sink();
    pipeline.solve.metrics = options_.metrics_sink();
    pipeline.grounder.budget = options_.effective_budget();
    pipeline.grounder.trace = options_.trace_sink();
    pipeline.grounder.metrics = options_.metrics_sink();
    return finish_verdict(std::move(verdict),
                          asp::solve_program(asp::ProgramParts{&base_program_, &delta},
                                             pipeline));
}

Result<ScenarioVerdict> ErrorPropagationAnalysis::finish_verdict(
    ScenarioVerdict verdict, const Result<asp::SolveResult>& solved) const {
    const std::string& scenario_id = verdict.scenario_id;
    if (!solved.ok()) {
        // A grounder/solver error degrades this scenario to Undetermined so
        // one broken solve cannot abort an otherwise exhaustive run; model
        // inconsistencies below stay hard failures.
        verdict.status = VerdictStatus::Undetermined;
        verdict.undetermined_reason = UndeterminedReason::SolverError;
        verdict.undetermined_detail = "scenario " + scenario_id + ": " + solved.error();
        obs::add_counter(options_.metrics_sink(), "epa.scenarios.undetermined");
        return verdict;
    }
    const asp::SolveResult& result = solved.value();
    verdict.solver_stats = result.stats;
    if (result.complete() && !result.satisfiable) {
        return Result<ScenarioVerdict>::failure("scenario " + scenario_id +
                                                ": inconsistent model (no answer set)");
    }

    // Union over models: over-abstraction may make behaviour
    // non-deterministic; no hazard may be overlooked (paper step 5).
    std::set<std::string> violations;
    std::set<std::pair<int, ComponentId>> propagation;
    std::set<Mutation> injected;
    for (const asp::AnswerSet& model : result.models) {
        for (const Atom& atom : model.atoms) {
            const auto& args = atom.args;
            if (atom.predicate == "violated") {
                if (args.size() == 1 && args[0].is_symbol()) violations.insert(args[0].name());
            } else if (atom.predicate == "error") {
                if (args.size() == 2 && args[0].is_symbol() && args[1].is_integer()) {
                    propagation.insert({static_cast<int>(args[1].as_int()), args[0].name()});
                }
            } else if (atom.predicate == "injected_fault") {
                if (args.size() == 2 && args[0].is_symbol() && args[1].is_symbol()) {
                    injected.insert(Mutation{args[0].name(), args[1].name()});
                }
            }
        }
    }
    verdict.violated_requirements.assign(violations.begin(), violations.end());
    verdict.injected.assign(injected.begin(), injected.end());

    if (options_.collect_trace && !result.models.empty()) {
        // Reconstruct the counterexample trace from the first model,
        // dropping internal (double-underscore) predicates.
        asp::ltl::Trace raw = asp::trace_from_answer(result.models.front(), options_.horizon);
        verdict.trace.resize(raw.size());
        for (std::size_t t = 0; t < raw.size(); ++t) {
            for (const Atom& atom : raw[t]) {
                if (atom.predicate.rfind("__", 0) == 0) continue;
                verdict.trace[t].insert(atom);
            }
        }
    }

    std::set<ComponentId> seen_components;
    for (const auto& [time, component] : propagation) {
        if (!seen_components.insert(component).second) continue;
        verdict.propagation.push_back(PropagationStep{time, component});
    }

    // Severity: the highest asset value an error reaches, combined with the
    // local severity of the injected faults.
    qual::Level severity = qual::Level::VeryLow;
    for (const PropagationStep& step : verdict.propagation) {
        if (model_->has_component(step.component)) {
            severity = qual::qmax(severity, model_->component(step.component).asset_value);
        }
    }
    for (const Mutation& mutation : verdict.injected) {
        const model::FaultMode* mode =
            model_->component(mutation.component).find_fault_mode(mutation.fault_id);
        if (mode != nullptr) severity = qual::qmax(severity, mode->severity);
    }
    verdict.severity = severity;

    // An interrupted search is still existentially sound: a violation found
    // in an enumerated model is a real hazard. Only the absence of a
    // violation is inconclusive under a partial enumeration.
    obs::observe(options_.metrics_sink(), "epa.solve.decisions", verdict.solver_stats.decisions);
    if (result.interrupt && !verdict.any_violation()) {
        verdict.status = VerdictStatus::Undetermined;
        verdict.undetermined_reason = undetermined_reason_from(result.interrupt->reason);
        verdict.undetermined_detail =
            "scenario " + scenario_id + ": " + result.interrupt->to_string();
        obs::add_counter(options_.metrics_sink(), "epa.scenarios.undetermined");
        return verdict;
    }
    verdict.status = verdict.any_violation() ? VerdictStatus::Hazard : VerdictStatus::Safe;
    obs::add_counter(options_.metrics_sink(), verdict.status == VerdictStatus::Hazard
                                                  ? "epa.scenarios.hazard"
                                                  : "epa.scenarios.safe");
    return verdict;
}

std::vector<std::string> ErrorPropagationAnalysis::statically_reachable_violations() const {
    std::vector<std::string> reachable;
    if (grounded_base_ == nullptr || !grounded_base_->analysis_ok) {
        // No cache or no trustworthy analysis: claim everything reachable so
        // the lint stays silent rather than report false positives.
        for (const Requirement& requirement : requirements_) reachable.push_back(requirement.id);
        return reachable;
    }
    const GroundedBase& base = *grounded_base_;
    std::set<std::string> possible;
    for (int id = 0; id < static_cast<int>(base.program.atom_count()); ++id) {
        if (!base.analysis.possible(id)) continue;
        const Atom& atom = base.program.atom(id);
        if (atom.predicate != "violated") continue;
        if (atom.args.size() == 1 && atom.args[0].is_symbol()) {
            possible.insert(atom.args[0].name());
        }
    }
    for (const Requirement& requirement : requirements_) {
        if (possible.count(requirement.id) > 0) reachable.push_back(requirement.id);
    }
    return reachable;
}

std::optional<asp::polarity::MonotonicityCertificate>
ErrorPropagationAnalysis::certify_monotonicity(
    const std::vector<std::string>& active_mitigations) const {
    if (grounded_base_ == nullptr || !grounded_base_->analysis_ok) return std::nullopt;
    const GroundedBase& base = *grounded_base_;
    std::set<std::string> active_ids;
    for (const std::string& mitigation : active_mitigations) {
        std::string id = to_identifier(mitigation);
        if (base.mitigation_atoms.find(id) == base.mitigation_atoms.end()) return std::nullopt;
        active_ids.insert(std::move(id));
    }
    // Pin only the mitigation shells — the fault domain stays open. The
    // pinned ternary analysis then decides everything the fixed mitigation
    // set determines; decided atoms are constants to the sign propagation,
    // so e.g. the built-in `injected_fault :- scenario_fault, not
    // suppressed` odd path disappears when no mitigation covers the fault.
    std::vector<std::pair<int, bool>> pins;
    pins.reserve(base.mitigation_atoms.size() + 1);
    for (const auto& [id, atom] : base.mitigation_atoms) {
        pins.emplace_back(atom, active_ids.count(id) > 0);
    }
    // Pin the hazard probe off, as every scenario solve does: a decided
    // probe is a constant to the sign propagation, so its guard constraints
    // cannot introduce a spurious negative violated->probe path and flip
    // the certificate to mixed.
    if (base.probe_atom >= 0) pins.emplace_back(base.probe_atom, false);
    asp::absint::AbsintOptions absint_options;
    absint_options.pins = &pins;
    absint_options.budget = options_.effective_budget();
    const asp::absint::Analysis analysis =
        asp::absint::evaluate(base.program, base.plan, absint_options);
    if (analysis.conflict || analysis.interrupted) return std::nullopt;

    std::vector<int> inputs;
    inputs.reserve(base.fault_atoms.size());
    for (const auto& [mutation, atom] : base.fault_atoms) inputs.push_back(atom);
    std::vector<int> hazards;
    for (int id = 0; id < static_cast<int>(base.program.atom_count()); ++id) {
        if (base.program.atom(id).predicate == "violated") hazards.push_back(id);
    }
    asp::polarity::PolarityOptions polarity_options;
    polarity_options.analysis = &analysis;
    return asp::polarity::certify_monotone(base.program, inputs, hazards, polarity_options);
}

std::optional<std::vector<Mutation>> ErrorPropagationAnalysis::hazard_core(
    const security::AttackScenario& scenario,
    const std::vector<std::string>& active_mitigations) const {
    if (grounded_base_ == nullptr || grounded_base_->probe_atom < 0) return std::nullopt;
    auto assumptions = cached_assumptions(scenario, active_mitigations);
    if (!assumptions) return std::nullopt;
    // Flip the probe on: now only violation-free answer sets remain, so an
    // UNSAT outcome proves every answer set under these pins violates some
    // requirement — the final-conflict assumption core then names the pins
    // the refutation actually rests on.
    for (auto& [atom, value] : *assumptions) {
        if (atom == grounded_base_->probe_atom) value = true;
    }
    obs::Span span(options_.trace_sink(), "epa.hazard_core", "scenario", scenario.id);
    asp::SolveOptions solve_options;
    // Always a cold solve: bypassing the warm pool keeps probe-side learning
    // out of the scenario solvers, whose per-solve stats land in journals
    // and reports.
    solve_options.max_models = 1;
    solve_options.optimize = false;
    if (options_.max_decisions != 0) solve_options.max_decisions = options_.max_decisions;
    solve_options.budget = options_.effective_budget();
    solve_options.trace = options_.trace_sink();
    solve_options.metrics = options_.metrics_sink();
    solve_options.assumptions = std::move(*assumptions);
    auto solved = asp::solve(grounded_base_->program, solve_options);
    if (!solved.ok()) return std::nullopt;
    const asp::SolveResult& result = solved.value();
    if (!result.complete() || result.satisfiable || !result.assumption_core) {
        return std::nullopt;
    }
    // Keep only the true-pinned fault atoms. Any pin set extending the core
    // is UNSAT, and the sub-scenario injecting exactly these faults (all
    // other domain atoms pinned false) is such an extension — so it is
    // hazardous on its own.
    std::vector<Mutation> core;
    for (const auto& [atom, value] : *result.assumption_core) {
        if (!value) continue;
        for (const auto& [mutation, id] : grounded_base_->fault_atoms) {
            if (id == atom) {
                core.push_back(mutation);
                break;
            }
        }
    }
    std::sort(core.begin(), core.end());
    obs::add_counter(options_.metrics_sink(), "epa.hazard_core.extracted");
    return core;
}

Result<std::optional<int>> ErrorPropagationAnalysis::min_violation_horizon(
    const security::AttackScenario& scenario,
    const std::vector<std::string>& active_mitigations) const {
    for (int horizon = 0; horizon <= options_.horizon; ++horizon) {
        EpaOptions shallow = options_;
        shallow.horizon = horizon;
        // One scenario per horizon: building the ground-once cache would
        // cost more than the single evaluation it serves.
        shallow.ground_once = false;
        auto analysis = create(*model_, requirements_, mitigations_, shallow);
        if (!analysis.ok()) return Result<std::optional<int>>::failure(analysis.error());
        auto verdict = analysis.value().evaluate(scenario, active_mitigations);
        if (!verdict.ok()) return Result<std::optional<int>>::failure(verdict.error());
        if (verdict.value().any_violation()) return std::optional<int>(horizon);
        if (verdict.value().undetermined()) {
            // "No violation up to horizon h" would not be proven.
            return Result<std::optional<int>>::failure(verdict.value().undetermined_detail);
        }
    }
    return std::optional<int>();
}

Result<std::vector<ScenarioVerdict>> ErrorPropagationAnalysis::evaluate_all(
    const security::ScenarioSpace& space,
    const std::vector<std::string>& active_mitigations) const {
    const std::vector<security::AttackScenario>& scenarios = space.scenarios();
    obs::set_gauge(options_.metrics_sink(), "epa.pool.batch",
                   static_cast<long long>(scenarios.size()));
    ThreadPool* pool = options_.ctx != nullptr ? &options_.ctx->pool() : nullptr;
    obs::set_gauge(options_.metrics_sink(), "epa.pool.lanes",
                   static_cast<long long>(pool != nullptr ? pool->jobs() : 1));
    // Verdicts merge in scenario order at any job count (docs/performance.md).
    std::vector<ScenarioVerdict> verdicts;
    verdicts.reserve(scenarios.size());
    auto swept = ordered_sweep<ScenarioVerdict>(
        pool, scenarios.size(), [](std::size_t) { return std::optional<ScenarioVerdict>(); },
        [&](std::size_t index) { return evaluate(scenarios[index], active_mitigations); },
        [&](std::size_t, ScenarioVerdict&& verdict, bool) {
            verdicts.push_back(std::move(verdict));
            return Result<void>();
        });
    if (!swept.ok()) return Result<std::vector<ScenarioVerdict>>::failure(swept.error());
    return verdicts;
}

}  // namespace cprisk::epa
