#include "lint/model_lint.hpp"

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "analysis/taint.hpp"
#include "asp/parser.hpp"
#include "epa/epa.hpp"
#include "lint/asp_lint.hpp"

namespace cprisk::lint {

namespace {

using asp::Atom;
using asp::Head;
using asp::Literal;
using asp::Program;
using asp::Rule;
using asp::Signature;
using asp::Term;

/// Predicates of the model-to-ASP vocabulary (model/to_asp.cpp) plus the
/// assessment-driver predicates injected by the EPA (epa/epa.cpp). Behaviour
/// fragments may freely reference them; they are derived outside the bundle.
const std::set<std::string>& driver_vocabulary() {
    static const std::set<std::string> vocabulary = {
        "component", "component_type", "component_layer", "ot_component", "it_component",
        "exposure", "asset_value", "fault", "fault_effect", "fault_severity",
        "fault_likelihood", "connected", "relation", "refined", "part_of", "active_fault",
        "injected_fault", "injected_any", "error", "scenario_fault", "suppressed"};
    return vocabulary;
}

/// Argument positions that must name a declared component, per vocabulary
/// signature.
const std::map<Signature, std::vector<std::size_t>>& component_positions() {
    static const std::map<Signature, std::vector<std::size_t>> positions = {
        {{"component", 1}, {0}},      {{"error", 1}, {0}},
        {{"ot_component", 1}, {0}},   {{"it_component", 1}, {0}},
        {{"fault", 2}, {0}},          {{"active_fault", 2}, {0}},
        {{"injected_fault", 2}, {0}}, {{"eff_fault", 2}, {0}},
        {{"connected", 2}, {0, 1}},   {{"exposure", 2}, {0}},
        {{"asset_value", 2}, {0}},    {{"component_type", 2}, {0}},
        {{"component_layer", 2}, {0}}, {{"part_of", 2}, {0, 1}}};
    return positions;
}

void collect_formula_atoms(const asp::ltl::Formula& formula, std::vector<Atom>& out) {
    using Op = asp::ltl::Formula::Op;
    switch (formula.op()) {
        case Op::Atom: out.push_back(formula.atom_value()); return;
        case Op::True:
        case Op::False: return;
        case Op::Not:
        case Op::Next:
        case Op::WeakNext:
        case Op::Always:
        case Op::Eventually: collect_formula_atoms(formula.left(), out); return;
        case Op::And:
        case Op::Or:
        case Op::Implies:
        case Op::Until:
        case Op::Release:
            collect_formula_atoms(formula.left(), out);
            collect_formula_atoms(formula.right(), out);
            return;
    }
}

/// Checks ground component-position arguments of one atom.
void check_component_refs(const Atom& atom, const model::SystemModel& model, int line_offset,
                          SourceLoc loc, DiagnosticSink& sink) {
    auto it = component_positions().find(Signature{atom.predicate, atom.arity()});
    if (it == component_positions().end()) return;
    for (std::size_t pos : it->second) {
        const Term& arg = atom.args[pos];
        if (!arg.is_symbol() || model.has_component(arg.name())) continue;
        SourceLoc shifted;
        if (loc.valid()) shifted = SourceLoc{loc.line + line_offset, loc.column};
        const std::string text = atom.to_string();
        sink.error("model-unknown-component-ref",
                   "'" + text + "' references unknown component '" + arg.name() + "'",
                   shifted, "declare 'component " + arg.name() + " ...' or fix the identifier");
    }
}

void check_literal_refs(const Literal& lit, const model::SystemModel& model, int line_offset,
                        SourceLoc fallback, DiagnosticSink& sink) {
    const SourceLoc loc = lit.loc.valid() ? lit.loc : fallback;
    switch (lit.kind) {
        case Literal::Kind::Atom:
            check_component_refs(lit.atom, model, line_offset, loc, sink);
            break;
        case Literal::Kind::Comparison: break;
        case Literal::Kind::Aggregate:
            for (const auto& element : lit.elements) {
                for (const Literal& cond : element.condition) {
                    check_literal_refs(cond, model, line_offset, loc, sink);
                }
            }
            break;
    }
}

void check_program_refs(const Program& program, const model::SystemModel& model, int line_offset,
                        DiagnosticSink& sink) {
    for (const auto& sectioned : program.rules()) {
        const Rule& rule = sectioned.rule;
        switch (rule.head.kind) {
            case Head::Kind::Atom:
                check_component_refs(rule.head.atom, model, line_offset, rule.loc, sink);
                break;
            case Head::Kind::Constraint: break;
            case Head::Kind::Choice:
                for (const auto& element : rule.head.elements) {
                    check_component_refs(element.atom, model, line_offset, rule.loc, sink);
                    for (const Literal& cond : element.condition) {
                        check_literal_refs(cond, model, line_offset, rule.loc, sink);
                    }
                }
                break;
        }
        for (const Literal& lit : rule.body) {
            check_literal_refs(lit, model, line_offset, rule.loc, sink);
        }
    }
    for (const auto& sectioned : program.weaks()) {
        for (const Literal& lit : sectioned.weak.body) {
            check_literal_refs(lit, model, line_offset, sectioned.weak.loc, sink);
        }
    }
}

/// Signatures derivable by the fragment programs (rule heads and choice
/// elements).
std::set<Signature> derivable_signatures(const std::vector<const Program*>& programs) {
    std::set<Signature> derivable;
    for (const Program* program : programs) {
        for (const auto& sectioned : program->rules()) {
            const Rule& rule = sectioned.rule;
            switch (rule.head.kind) {
                case Head::Kind::Atom:
                    derivable.insert(Signature{rule.head.atom.predicate, rule.head.atom.arity()});
                    break;
                case Head::Kind::Constraint: break;
                case Head::Kind::Choice:
                    for (const auto& element : rule.head.elements) {
                        derivable.insert(Signature{element.atom.predicate, element.atom.arity()});
                    }
                    break;
            }
        }
    }
    return derivable;
}

int requirement_line(const core::BundleSourceMap& source_map, const std::string& id) {
    for (const core::RequirementRef& ref : source_map.requirements) {
        if (ref.id == id) return ref.line;
    }
    return 0;
}

}  // namespace

void lint_bundle(const core::Bundle& bundle, const core::BundleSourceMap& source_map,
                 const security::AttackMatrix& matrix, DiagnosticSink& sink) {
    // Parse every behaviour fragment, mapping fragment-relative locations to
    // file-absolute ones via the block's header line.
    std::vector<Program> programs;
    std::vector<int> offsets;
    programs.reserve(source_map.model.fragments.size());
    for (const model::BehaviorFragment& fragment : source_map.model.fragments) {
        if (!fragment.component_known) continue;  // already reported by the loader
        DiagnosticSink fragment_sink;
        std::optional<Program> program = asp::parse_program(fragment.text, fragment_sink);
        sink.absorb(fragment_sink, fragment.header_line);
        if (!program.has_value()) continue;
        programs.push_back(std::move(*program));
        offsets.push_back(fragment.header_line);
    }

    // ASP rule pack over all fragments at once, so predicates derived in one
    // fragment and used in another resolve.
    AspLintOptions asp_options;
    asp_options.external_predicates = driver_vocabulary();
    std::vector<Atom> requirement_atoms;
    for (const epa::Requirement& requirement : bundle.behavioral_requirements) {
        collect_formula_atoms(requirement.formula, requirement_atoms);
    }
    for (const Atom& atom : requirement_atoms) {
        asp_options.assume_used.insert(Signature{atom.predicate, atom.arity()});
    }
    std::vector<ProgramSource> sources;
    std::vector<const Program*> program_ptrs;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(ProgramSource{&programs[i], sink.file(), offsets[i]});
        program_ptrs.push_back(&programs[i]);
    }
    lint_programs(sources, asp_options, sink);

    // Ground component references in fragment atoms must name declared
    // components.
    for (std::size_t i = 0; i < programs.size(); ++i) {
        check_program_refs(programs[i], bundle.model, offsets[i], sink);
    }

    // exposure=public components the attack matrix cannot exercise.
    for (const model::Component& component : bundle.model.components()) {
        if (component.exposure != model::Exposure::Public) continue;
        if (!matrix.techniques_for(component).empty()) continue;
        SourceLoc loc;
        auto line = source_map.model.component_lines.find(component.id);
        if (line != source_map.model.component_lines.end()) loc = SourceLoc{line->second, 1};
        sink.warning("model-uncovered-exposure",
                     "component '" + component.id +
                         "' has exposure=public but no attack-matrix technique applies to "
                         "element type '" +
                         std::string(to_string(component.type)) + "'",
                     loc,
                     "extend the attack matrix or adjust the component's element type/exposure");
    }

    // Attack-reachability taint (analysis/taint.hpp): seeded at exposed
    // components the matrix can exercise, propagated along fault-propagation
    // relations.
    const analysis::TaintResult taint =
        analysis::analyze_attack_reachability(bundle.model, matrix);
    auto component_loc = [&](const model::ComponentId& id) {
        SourceLoc loc;
        auto line = source_map.model.component_lines.find(id);
        if (line != source_map.model.component_lines.end()) loc = SourceLoc{line->second, 1};
        return loc;
    };
    for (const analysis::AttackEntryPoint& entry : taint.entry_points) {
        if (entry.depth != 0 || entry.activated_fault.empty()) continue;
        sink.warning("model-trivially-compromised",
                     "component '" + entry.component + "' is public and technique '" +
                         entry.activating_technique + "' directly activates its declared fault "
                         "mode '" + entry.activated_fault + "'",
                     component_loc(entry.component),
                     "reduce the exposure or mitigate '" + entry.activating_technique +
                         "'; every attack scenario will include this compromise");
    }
    if (!taint.entry_points.empty()) {
        for (const model::ComponentId& id : taint.unreached) {
            sink.warning("model-unreachable-asset",
                         "component '" + id +
                             "' is unreachable from every attack entry point",
                         component_loc(id),
                         "no modelled attack scenario can involve it; check for missing "
                         "relations or drop it from the model");
        }
    }

    // Requirements must reference atoms some behaviour fragment (or the
    // assessment driver) can derive.
    std::set<std::string> underivable_requirements;
    const std::set<Signature> derivable = derivable_signatures(program_ptrs);
    for (const epa::Requirement& requirement : bundle.behavioral_requirements) {
        std::vector<Atom> atoms;
        collect_formula_atoms(requirement.formula, atoms);
        for (const Atom& atom : atoms) {
            const Signature sig{atom.predicate, atom.arity()};
            if (derivable.count(sig) > 0 || driver_vocabulary().count(atom.predicate) > 0) {
                continue;
            }
            SourceLoc loc;
            if (int line = requirement_line(source_map, requirement.id); line > 0) {
                loc = SourceLoc{line, 1};
            }
            underivable_requirements.insert(requirement.id);
            sink.warning("model-underivable-requirement",
                         "requirement '" + requirement.id + "' references atom '" +
                             atom.to_string() + "' which no behaviour fragment derives",
                         loc, "derive '" + sig.to_string() + "' in a behaviour block");
        }
    }

    // Statically unreachable hazards: the open ternary analysis of the
    // behavioural base (every fault free to fire, no mitigation pinned)
    // proves the requirement's `violated/1` atom impossible at a horizon
    // covering the model diameter — no assessment scenario can ever flag it
    // (asp/absint, docs/static-analysis.md). Requirements already reported
    // underivable are skipped (they are trivially unreachable); a create()
    // failure or an unavailable ground-once cache also skips the check, the
    // reachability list then being conservatively complete.
    epa::EpaOptions epa_options;
    epa_options.focus = epa::AnalysisFocus::Behavioral;
    epa_options.horizon = static_cast<int>(bundle.model.components().size()) + 1;
    auto epa = epa::ErrorPropagationAnalysis::create(
        bundle.model, bundle.behavioral_requirements,
        epa::MitigationMap::from_attack_matrix(bundle.model, matrix), epa_options);
    // Polarity certificate (asp/polarity.hpp): when the certifier cannot
    // prove hazard verdicts monotone non-decreasing in the fault set, the
    // exhaustive frontier (`assess --exhaustive`) must enumerate without
    // superset pruning. Informational only — conservative failures are
    // common (any `not eff_fault(..)` in a behaviour fragment trips the
    // odd-negation check) — so a Note, never an exit-code change.
    if (epa.ok()) {
        const std::optional<asp::polarity::MonotonicityCertificate> certificate =
            epa.value().certify_monotonicity({});
        if (certificate.has_value() && !certificate->monotone) {
            constexpr std::size_t kMaxOffenders = 8;
            std::size_t shown = 0;
            for (const asp::polarity::Offender& offender : certificate->offenders) {
                if (shown++ >= kMaxOffenders) break;
                sink.note("model-nonmonotone-fault",
                          std::string(asp::polarity::to_string(offender.kind)) + ": " +
                              offender.detail,
                          SourceLoc{},
                          "hazard verdicts are not provably monotone in the fault set; "
                          "'cprisk assess --exhaustive' will enumerate without superset "
                          "pruning (docs/exhaustive-search.md)");
            }
        }
    }

    if (epa.ok()) {
        const std::vector<std::string> reachable = epa.value().statically_reachable_violations();
        const std::set<std::string> reachable_set(reachable.begin(), reachable.end());
        for (const epa::Requirement& requirement : bundle.behavioral_requirements) {
            if (reachable_set.count(requirement.id) > 0) continue;
            if (underivable_requirements.count(requirement.id) > 0) continue;
            SourceLoc loc;
            if (int line = requirement_line(source_map, requirement.id); line > 0) {
                loc = SourceLoc{line, 1};
            }
            sink.warning("model-hazard-unreachable",
                         "requirement '" + requirement.id +
                             "' can never be violated: no combination of faults reaches its "
                             "violation at horizon " +
                             std::to_string(epa_options.horizon),
                         loc,
                         "the requirement adds no hazard coverage; check the propagation "
                         "relations and behaviour fragments, or drop it");
        }
    }
}

}  // namespace cprisk::lint
