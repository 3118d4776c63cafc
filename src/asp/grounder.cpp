#include "asp/grounder.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/dependency_graph.hpp"
#include "asp/eval.hpp"
#include "asp/safety.hpp"
#include "asp/symbols.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace cprisk::asp {

namespace {

/// Internal control-flow exception converted to Result at the API boundary.
class GroundError : public Error {
public:
    using Error::Error;
};

/// Replaces symbolic constants defined via #const throughout a term.
Term substitute_consts(const Term& term, const std::map<std::string, Term>& consts) {
    switch (term.kind()) {
        case Term::Kind::Integer:
        case Term::Kind::Variable: return term;
        case Term::Kind::Symbol: {
            auto it = consts.find(term.name());
            return it == consts.end() ? term : it->second;
        }
        case Term::Kind::Compound: {
            std::vector<Term> args;
            args.reserve(term.args().size());
            for (const Term& a : term.args()) args.push_back(substitute_consts(a, consts));
            return Term::compound(term.name(), std::move(args));
        }
    }
    return term;
}

Atom substitute_consts(const Atom& atom, const std::map<std::string, Term>& consts) {
    Atom out;
    out.predicate = atom.predicate;
    out.args.reserve(atom.args.size());
    for (const Term& a : atom.args) out.args.push_back(substitute_consts(a, consts));
    return out;
}

Literal substitute_consts(const Literal& lit, const std::map<std::string, Term>& consts) {
    Literal out = lit;
    switch (lit.kind) {
        case Literal::Kind::Atom: out.atom = substitute_consts(lit.atom, consts); break;
        case Literal::Kind::Comparison:
            out.lhs = substitute_consts(lit.lhs, consts);
            out.rhs = substitute_consts(lit.rhs, consts);
            break;
        case Literal::Kind::Aggregate:
            out.rhs = substitute_consts(lit.rhs, consts);
            for (auto& element : out.elements) {
                for (auto& term : element.tuple) term = substitute_consts(term, consts);
                for (auto& condition : element.condition) {
                    condition = substitute_consts(condition, consts);
                }
            }
            break;
    }
    return out;
}

class Grounder {
public:
    Grounder(const ProgramParts& parts, const GrounderOptions& options)
        : parts_(parts), options_(options) {
        for (const Program* part : parts_) {
            for (const auto& [name, value] : part->consts()) {
                auto evaluated = eval_term(substitute_consts(value, consts_));
                if (!evaluated.ok()) {
                    throw GroundError("#const " + name + ": " + evaluated.error());
                }
                consts_.emplace(name, std::move(evaluated).value());
            }
        }
    }

    /// Aborts grounding on the first safety violation; the full analysis
    /// (shared with the linter) lives in asp/safety.hpp.
    static void require_safe(const std::vector<SafetyViolation>& violations) {
        if (!violations.empty()) {
            throw GroundError("grounder: unsafe variable '" + violations.front().variable +
                              "' in " + violations.front().context);
        }
    }

    GroundProgram run() {
        for (const Program* part : parts_) {
            for (const auto& r : part->rules()) {
                if (r.section != SectionKind::Base) {
                    throw GroundError(
                        "grounder: temporal sections must be unrolled before grounding (found "
                        "#program " +
                        asp::to_string(r.section) + ")");
                }
                Rule rule = r.rule;
                rule.head = substitute_head_consts(rule.head);
                for (auto& lit : rule.body) lit = substitute_consts(lit, consts_);
                require_safe(unsafe_rule_variables(rule));
                rules_.push_back(std::move(rule));
            }
            for (const auto& w : part->weaks()) {
                if (w.section != SectionKind::Base) {
                    throw GroundError(
                        "grounder: temporal weak constraints must be unrolled first");
                }
                WeakConstraint weak = w.weak;
                for (const Literal& lit : weak.body) {
                    if (lit.kind == Literal::Kind::Aggregate) {
                        throw GroundError(
                            "grounder: aggregates are not supported in weak-constraint bodies");
                    }
                }
                for (auto& lit : weak.body) lit = substitute_consts(lit, consts_);
                weak.weight = substitute_consts(weak.weight, consts_);
                for (auto& t : weak.tuple) t = substitute_consts(t, consts_);
                require_safe(unsafe_weak_variables(weak));
                weaks_.push_back(std::move(weak));
            }
        }

        if (options_.scc_order) {
            ground_scc_ordered();
        } else {
            ground_global_fixpoint();
        }

        materialize_choices();
        materialize_aggregate_constraints();
        for (const Program* part : parts_) {
            for (const Signature& s : part->shows()) out_.add_show(s);
        }
        return std::move(out_);
    }

private:
    // --- grounding strategies ----------------------------------------------

    /// Reference strategy: every rule and weak constraint is re-grounded on
    /// every fixpoint round until nothing changes.
    void ground_global_fixpoint() {
        std::size_t iterations = 0;
        do {
            changed_ = false;
            if (++iterations > options_.max_iterations) {
                throw GroundError("grounder: iteration limit exceeded (non-terminating program?)");
            }
            for (const Rule& rule : rules_) ground_rule(rule);
            for (const WeakConstraint& weak : weaks_) ground_weak(weak);
            recompute_certain();
        } while (changed_);
    }

    /// Fast strategy: rules are bucketed by the predicate-dependency SCC of
    /// their head (for choice rules, the earliest component among the
    /// elements) and grounded component by component in topological order.
    /// Every dependency edge runs from an earlier-or-equal component to the
    /// head's, so when a bucket's local fixpoint converges, the domains its
    /// later consumers join against are complete; only intra-component
    /// recursion needs re-grounding. Constraints and weak constraints derive
    /// no atoms and get a single pass over the converged domain.
    void ground_scc_ordered() {
        const analysis::DependencyGraph graph = analysis::DependencyGraph::from_rules(rules_);
        std::vector<std::vector<std::size_t>> buckets(graph.component_count());
        std::vector<std::size_t> constraints;
        for (std::size_t i = 0; i < rules_.size(); ++i) {
            const Head& head = rules_[i].head;
            if (head.kind == Head::Kind::Constraint) {
                constraints.push_back(i);
                continue;
            }
            std::size_t component = graph.component_count();
            auto consider = [&](const Atom& atom) {
                const auto node = graph.node_of(Signature{atom.predicate, atom.arity()});
                component = std::min(component, graph.component_of(*node));
            };
            if (head.kind == Head::Kind::Atom) {
                consider(head.atom);
            } else {
                for (const ChoiceElement& element : head.elements) consider(element.atom);
            }
            buckets[component].push_back(i);
        }

        // Only components with an internal dependency edge can feed atoms
        // back into their own bucket; recursion into a component always comes
        // from rules bucketed at that component, so every other bucket
        // converges in a single pass (no verification round needed).
        std::vector<bool> recursive(graph.component_count(), false);
        for (std::size_t component : graph.unstratified_components()) recursive[component] = true;
        for (std::size_t component : graph.positive_loop_components()) recursive[component] = true;

        std::size_t iterations = 0;
        for (std::size_t component = 0; component < buckets.size(); ++component) {
            const std::vector<std::size_t>& bucket = buckets[component];
            if (bucket.empty()) continue;
            do {
                changed_ = false;
                if (++iterations > options_.max_iterations) {
                    throw GroundError(
                        "grounder: iteration limit exceeded (non-terminating program?)");
                }
                for (std::size_t index : bucket) ground_rule(rules_[index]);
                recompute_certain();
            } while (changed_ && recursive[component]);
        }
        for (std::size_t index : constraints) ground_rule(rules_[index]);
        for (const WeakConstraint& weak : weaks_) ground_weak(weak);
        changed_ = false;
    }

    // --- domain ------------------------------------------------------------

    /// Dense predicate-symbol id; interned on first sight. Domain indexing
    /// by id replaces the old "pred/arity" string keys on the match hot path.
    int pred_id(const Atom& a) { return symbols_.intern(a.predicate, a.args.size()); }

    /// Interns `atom` into the solver program and (optionally) the grounding
    /// domain. Returns the atom id.
    int add_to_domain(const Atom& atom) {
        const int before = static_cast<int>(out_.atom_count());
        const int id = out_.intern(atom);
        if (id >= before) {
            charge_budget();
            if (out_.atom_count() > options_.max_atoms) {
                throw GroundError("grounder: atom limit exceeded (" +
                                  std::to_string(options_.max_atoms) + ")");
            }
            changed_ = true;
            in_domain_.resize(out_.atom_count(), false);
            certain_.resize(out_.atom_count(), false);
        }
        if (!in_domain_[static_cast<std::size_t>(id)]) {
            in_domain_[static_cast<std::size_t>(id)] = true;
            const auto pid = static_cast<std::size_t>(pred_id(atom));
            if (by_predicate_.size() <= pid) by_predicate_.resize(pid + 1);
            by_predicate_[pid].push_back(id);
            changed_ = true;
        }
        return id;
    }

    /// Interns without adding to the match domain (negative-body atoms that
    /// are never derivable stay out of joins).
    int intern_only(const Atom& atom) {
        const int id = out_.intern(atom);
        in_domain_.resize(std::max(in_domain_.size(), out_.atom_count()), false);
        certain_.resize(std::max(certain_.size(), out_.atom_count()), false);
        return id;
    }

    // --- matching ------------------------------------------------------------

    bool unify(const Term& pattern, const Term& value, Binding& binding) {
        switch (pattern.kind()) {
            case Term::Kind::Integer:
                return value.is_integer() && value.as_int() == pattern.as_int();
            case Term::Kind::Symbol: return value.is_symbol() && value.name() == pattern.name();
            case Term::Kind::Variable: {
                if (pattern.name() == "_") return true;  // anonymous
                auto it = binding.find(pattern.name());
                if (it != binding.end()) return it->second == value;
                binding.emplace(pattern.name(), value);
                return true;
            }
            case Term::Kind::Compound: {
                // Evaluate arithmetic sub-terms that became ground.
                Term substituted = substitute(pattern, binding);
                if (substituted.is_ground()) {
                    auto evaluated = eval_term(substituted);
                    if (!evaluated.ok()) return false;
                    return evaluated.value() == value;
                }
                if (!value.is_compound()) return false;
                if (value.name() != pattern.name() ||
                    value.args().size() != pattern.args().size()) {
                    return false;
                }
                for (std::size_t i = 0; i < pattern.args().size(); ++i) {
                    if (!unify(pattern.args()[i], value.args()[i], binding)) return false;
                }
                return true;
            }
        }
        return false;
    }

    bool unify_atom(const Atom& pattern, const Atom& value, Binding& binding) {
        if (pattern.predicate != value.predicate || pattern.args.size() != value.args.size()) {
            return false;
        }
        for (std::size_t i = 0; i < pattern.args.size(); ++i) {
            if (!unify(pattern.args[i], value.args[i], binding)) return false;
        }
        return true;
    }

    enum class Readiness { Ready, NotReady };

    Readiness literal_readiness(const Literal& lit, const Binding& binding) const {
        if (lit.kind == Literal::Kind::Atom) {
            if (!lit.negated) return Readiness::Ready;
            return substitute(lit.atom, binding).is_ground() ? Readiness::Ready
                                                             : Readiness::NotReady;
        }
        const Term lhs = substitute(lit.lhs, binding);
        const Term rhs = substitute(lit.rhs, binding);
        if (lhs.is_ground() && rhs.is_ground()) return Readiness::Ready;
        if (lit.op == CompareOp::Eq) {
            if (lhs.is_variable() && rhs.is_ground()) return Readiness::Ready;
            if (rhs.is_variable() && lhs.is_ground()) return Readiness::Ready;
        }
        return Readiness::NotReady;
    }

    /// Enumerates all bindings satisfying `literals` over the current domain
    /// (negation treated as possibly-true, recorded via `neg_out`), invoking
    /// `on_match` with the complete binding and the positive/negative ground
    /// body atom ids.
    void match(const std::vector<Literal>& literals, Binding binding, std::vector<int> pos,
               std::vector<int> neg, const std::function<void(const Binding&, std::vector<int>,
                                                              std::vector<int>)>& on_match) {
        if (literals.empty()) {
            on_match(binding, std::move(pos), std::move(neg));
            return;
        }
        // Pick the first ready literal to keep joins bound.
        std::size_t pick = literals.size();
        for (std::size_t i = 0; i < literals.size(); ++i) {
            if (literal_readiness(literals[i], binding) == Readiness::Ready) {
                pick = i;
                break;
            }
        }
        if (pick == literals.size()) {
            std::string names;
            for (const auto& l : literals) {
                if (!names.empty()) names += ", ";
                names += l.to_string();
            }
            throw GroundError("grounder: unsafe rule body; cannot bind literals: " + names);
        }
        Literal lit = literals[pick];
        std::vector<Literal> rest;
        rest.reserve(literals.size() - 1);
        for (std::size_t i = 0; i < literals.size(); ++i) {
            if (i != pick) rest.push_back(literals[i]);
        }

        if (lit.kind == Literal::Kind::Atom && !lit.negated) {
            const Atom pattern = substitute(lit.atom, binding);
            const int pid = symbols_.find(pattern.predicate, pattern.args.size());
            if (pid < 0 || static_cast<std::size_t>(pid) >= by_predicate_.size()) return;
            // Index snapshot: the domain may grow while we iterate; new atoms
            // are picked up in the next fixpoint iteration.
            const std::vector<int> candidates = by_predicate_[static_cast<std::size_t>(pid)];
            for (int id : candidates) {
                Binding extended = binding;
                if (!unify_atom(pattern, out_.atom(id), extended)) continue;
                auto pos2 = pos;
                pos2.push_back(id);
                match(rest, std::move(extended), std::move(pos2), neg, on_match);
            }
            return;
        }
        if (lit.kind == Literal::Kind::Atom) {  // negated, ground
            Atom ground_atom = substitute(lit.atom, binding);
            auto evaluated = eval_atom(ground_atom);
            auto neg2 = neg;
            neg2.push_back(intern_only(evaluated));
            match(rest, std::move(binding), std::move(pos), std::move(neg2), on_match);
            return;
        }
        // Comparison / assignment.
        const Term lhs = substitute(lit.lhs, binding);
        const Term rhs = substitute(lit.rhs, binding);
        if (lhs.is_ground() && rhs.is_ground()) {
            auto le = eval_term(lhs);
            auto re = eval_term(rhs);
            if (!le.ok()) throw GroundError(le.error());
            if (!re.ok()) throw GroundError(re.error());
            // `X = a..b` style membership for ground sides: expand ranges.
            if (lit.op == CompareOp::Eq &&
                (le.value().is_compound() || re.value().is_compound())) {
                const auto lvals = expand_ranges(le.value());
                const auto rvals = expand_ranges(re.value());
                bool any = false;
                for (const Term& lv : lvals) {
                    for (const Term& rv : rvals) {
                        if (lv == rv) any = true;
                    }
                }
                if (any) match(rest, std::move(binding), std::move(pos), std::move(neg), on_match);
                return;
            }
            if (compare_terms(le.value(), lit.op, re.value())) {
                match(rest, std::move(binding), std::move(pos), std::move(neg), on_match);
            }
            return;
        }
        // Assignment: exactly one side is an unbound variable, other ground.
        const bool lhs_var = lhs.is_variable();
        const Term& var = lhs_var ? lhs : rhs;
        const Term& expr = lhs_var ? rhs : lhs;
        auto evaluated = eval_term(expr);
        if (!evaluated.ok()) throw GroundError(evaluated.error());
        for (const Term& value : expand_ranges(evaluated.value())) {
            Binding extended = binding;
            if (var.name() != "_") extended.emplace(var.name(), value);
            match(rest, std::move(extended), pos, neg, on_match);
        }
    }

    /// Evaluates all arguments of a ground atom (reducing arithmetic).
    Atom eval_atom(const Atom& atom) {
        Atom out;
        out.predicate = atom.predicate;
        out.args.reserve(atom.args.size());
        for (const Term& a : atom.args) {
            auto r = eval_term(a);
            if (!r.ok()) throw GroundError("in atom " + atom.to_string() + ": " + r.error());
            out.args.push_back(std::move(r).value());
        }
        return out;
    }

    // --- rule instantiation ---------------------------------------------------

    Head substitute_head_consts(const Head& head) {
        Head out = head;
        switch (head.kind) {
            case Head::Kind::Atom: out.atom = substitute_consts(head.atom, consts_); break;
            case Head::Kind::Constraint: break;
            case Head::Kind::Choice:
                for (auto& element : out.elements) {
                    element.atom = substitute_consts(element.atom, consts_);
                    for (auto& lit : element.condition) lit = substitute_consts(lit, consts_);
                }
                break;
        }
        return out;
    }

    /// Body atom order is semantically irrelevant; normalize for dedup.
    static void normalize(std::vector<int>& ids) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }

    static std::string serialize_body(const std::vector<int>& pos, const std::vector<int>& neg) {
        std::string key;
        for (int id : pos) {
            key += 'p';
            key += std::to_string(id);
        }
        for (int id : neg) {
            key += 'n';
            key += std::to_string(id);
        }
        return key;
    }

    void emit_normal(int head, std::vector<int> pos, std::vector<int> neg) {
        normalize(pos);
        normalize(neg);
        std::string key = "r" + std::to_string(head) + "|" + serialize_body(pos, neg);
        if (!seen_rules_.insert(std::move(key)).second) return;
        GroundRule rule;
        rule.kind = GroundRule::Kind::Normal;
        rule.head = head;
        rule.positive_body = std::move(pos);
        rule.negative_body = std::move(neg);
        out_.add_rule(std::move(rule));
        changed_ = true;
    }

    void emit_constraint(std::vector<int> pos, std::vector<int> neg) {
        normalize(pos);
        normalize(neg);
        std::string key = "c|" + serialize_body(pos, neg);
        if (!seen_rules_.insert(std::move(key)).second) return;
        GroundRule rule;
        rule.kind = GroundRule::Kind::Constraint;
        rule.positive_body = std::move(pos);
        rule.negative_body = std::move(neg);
        out_.add_rule(std::move(rule));
        changed_ = true;
    }

    void ground_rule(const Rule& rule) {
        charge_budget();
        // Aggregates never bind variables; split them off and handle them
        // after the literal body matched.
        std::vector<Literal> normals;
        std::vector<Literal> aggregates;
        for (const Literal& lit : rule.body) {
            (lit.kind == Literal::Kind::Aggregate ? aggregates : normals).push_back(lit);
        }
        if (!aggregates.empty() && rule.head.kind != Head::Kind::Constraint) {
            throw GroundError(
                "grounder: body aggregates are only supported in integrity constraints: " +
                rule.to_string());
        }
        match(normals, {}, {}, {},
              [&](const Binding& binding, std::vector<int> pos, std::vector<int> neg) {
                  if (!aggregates.empty()) {
                      defer_aggregate_constraint(rule, aggregates, binding, std::move(pos),
                                                 std::move(neg));
                      return;
                  }
                  instantiate_head(rule, binding, std::move(pos), std::move(neg));
              });
    }

    struct AggregateInstance {
        const Rule* rule = nullptr;
        std::vector<Literal> aggregates;
        Binding binding;
        std::vector<int> pos;
        std::vector<int> neg;
    };

    void defer_aggregate_constraint(const Rule& rule, const std::vector<Literal>& aggregates,
                                    const Binding& binding, std::vector<int> pos,
                                    std::vector<int> neg) {
        normalize(pos);
        normalize(neg);
        std::string key = "agg" + std::to_string(rule_id(rule)) + "|" +
                          serialize_body(pos, neg) + "|" + binding_key(binding);
        if (aggregate_instances_.count(key) > 0) return;
        AggregateInstance instance;
        instance.rule = &rule;
        instance.aggregates = aggregates;
        instance.binding = binding;
        instance.pos = std::move(pos);
        instance.neg = std::move(neg);
        aggregate_instances_.emplace(std::move(key), std::move(instance));
        changed_ = true;
    }

    /// Grounds one aggregate literal under `binding` against the (final)
    /// domain.
    GroundAggregate expand_aggregate(const Literal& lit, const Binding& binding) {
        GroundAggregate aggregate;
        aggregate.op = lit.op;
        auto bound = eval_term(substitute(lit.rhs, binding));
        if (!bound.ok() || !bound.value().is_integer()) {
            throw GroundError("grounder: aggregate bound must evaluate to an integer in " +
                              lit.to_string());
        }
        aggregate.bound = bound.value().as_int();

        for (const AggregateElement& element : lit.elements) {
            for (const Literal& condition : element.condition) {
                if (condition.kind == Literal::Kind::Atom && condition.negated) {
                    throw GroundError(
                        "grounder: negation inside aggregate conditions is not supported: " +
                        lit.to_string());
                }
                if (condition.kind == Literal::Kind::Aggregate) {
                    throw GroundError("grounder: nested aggregates are not supported");
                }
            }
            match(element.condition, binding, {}, {},
                  [&](const Binding& extended, std::vector<int> cond_pos,
                      std::vector<int> cond_neg) {
                      require(cond_neg.empty(), "aggregate conditions cannot be negative");
                      GroundAggregateElement ground_element;
                      std::vector<Term> tuple_values;
                      for (const Term& term : element.tuple) {
                          auto value = eval_term(substitute(term, extended));
                          if (!value.ok()) throw GroundError(value.error());
                          tuple_values.push_back(std::move(value).value());
                      }
                      for (const Term& value : tuple_values) {
                          ground_element.tuple +=
                              (ground_element.tuple.empty() ? "" : ",") + value.to_string();
                      }
                      if (lit.aggregate_kind == AggregateKind::Sum) {
                          if (tuple_values.empty() || !tuple_values[0].is_integer()) {
                              throw GroundError(
                                  "grounder: #sum needs an integer weight as the first tuple "
                                  "term: " + lit.to_string());
                          }
                          ground_element.weight = tuple_values[0].as_int();
                      } else {
                          ground_element.weight = 1;
                      }
                      normalize(cond_pos);
                      ground_element.condition = std::move(cond_pos);
                      aggregate.elements.push_back(std::move(ground_element));
                  });
        }
        return aggregate;
    }

    void materialize_aggregate_constraints() {
        for (auto& [key, instance] : aggregate_instances_) {
            (void)key;
            GroundRule rule;
            rule.kind = GroundRule::Kind::Constraint;
            rule.positive_body = instance.pos;
            rule.negative_body = instance.neg;
            for (const Literal& lit : instance.aggregates) {
                rule.aggregates.push_back(expand_aggregate(lit, instance.binding));
            }
            out_.add_rule(std::move(rule));
        }
    }

    void instantiate_head(const Rule& rule, const Binding& binding, std::vector<int> pos,
                          std::vector<int> neg) {
        switch (rule.head.kind) {
            case Head::Kind::Constraint: emit_constraint(std::move(pos), std::move(neg)); return;
            case Head::Kind::Atom: {
                Atom head = eval_atom(substitute(rule.head.atom, binding));
                if (!head.is_ground()) {
                    throw GroundError("grounder: unsafe head " + head.to_string() +
                                      " (unbound variables after body match)");
                }
                for (const Atom& instance : expand_atom_ranges(head)) {
                    emit_normal(add_to_domain(instance), pos, neg);
                }
                return;
            }
            case Head::Kind::Choice: {
                instantiate_choice(rule, binding, std::move(pos), std::move(neg));
                return;
            }
        }
    }

    struct ChoiceInstance {
        std::vector<int> pos;
        std::vector<int> neg;
        std::optional<long long> lower;
        std::optional<long long> upper;
        const Rule* rule = nullptr;
        Binding binding;
    };

    void instantiate_choice(const Rule& rule, const Binding& binding, std::vector<int> pos,
                            std::vector<int> neg) {
        normalize(pos);
        normalize(neg);
        // Expand elements now so head atoms enter the domain; the final
        // element set is recomputed in materialize_choices() against the
        // converged domain.
        expand_choice_elements(rule, binding, /*collect=*/nullptr);

        std::string key = "ch" + std::to_string(rule_id(rule)) + "|" +
                          serialize_body(pos, neg) + "|" + binding_key(binding);
        if (choice_instances_.find(key) != choice_instances_.end()) return;
        ChoiceInstance instance;
        instance.pos = std::move(pos);
        instance.neg = std::move(neg);
        instance.lower = rule.head.lower_bound;
        instance.upper = rule.head.upper_bound;
        instance.rule = &rule;
        instance.binding = binding;
        choice_instances_.emplace(std::move(key), std::move(instance));
        changed_ = true;
    }

    static std::string binding_key(const Binding& binding) {
        std::string key;
        for (const auto& [name, value] : binding) key += name + "=" + value.to_string() + ";";
        return key;
    }

    std::size_t rule_id(const Rule& rule) const {
        return static_cast<std::size_t>(&rule - rules_.data());
    }

    /// Joins each element's condition against the current domain; element
    /// atoms are added to the domain. If `collect` is non-null, elements
    /// whose conditions hold *certainly* go to `collect->first` and elements
    /// with possibly-true conditions to `collect->second` (atom id +
    /// condition body ids).
    struct CollectedElements {
        std::vector<int> certain;  // unconditional heads
        std::vector<std::tuple<int, std::vector<int>, std::vector<int>>> conditional;
    };

    void expand_choice_elements(const Rule& rule, const Binding& binding,
                                CollectedElements* collect) {
        for (const ChoiceElement& element : rule.head.elements) {
            match(element.condition, binding, {}, {},
                  [&](const Binding& extended, std::vector<int> cond_pos,
                      std::vector<int> cond_neg) {
                      Atom head = eval_atom(substitute(element.atom, extended));
                      if (!head.is_ground()) {
                          throw GroundError("grounder: unsafe choice element " + head.to_string());
                      }
                      for (const Atom& instance : expand_atom_ranges(head)) {
                          const int id = add_to_domain(instance);
                          if (collect == nullptr) continue;
                          const bool certain_cond =
                              cond_neg.empty() &&
                              std::all_of(cond_pos.begin(), cond_pos.end(), [&](int c) {
                                  return certain_[static_cast<std::size_t>(c)];
                              });
                          if (certain_cond) {
                              collect->certain.push_back(id);
                          } else {
                              collect->conditional.emplace_back(id, cond_pos, cond_neg);
                          }
                      }
                  });
        }
    }

    void materialize_choices() {
        for (auto& [key, instance] : choice_instances_) {
            CollectedElements elements;
            expand_choice_elements(*instance.rule, instance.binding, &elements);

            const bool bounded = instance.lower.has_value() || instance.upper.has_value();
            if (bounded && !elements.conditional.empty()) {
                throw GroundError(
                    "grounder: bounded choice rules require conditions over certain facts");
            }
            // Unconditional part (possibly bounded).
            std::sort(elements.certain.begin(), elements.certain.end());
            elements.certain.erase(
                std::unique(elements.certain.begin(), elements.certain.end()),
                elements.certain.end());
            if (!elements.certain.empty() || bounded) {
                GroundRule rule;
                rule.kind = GroundRule::Kind::Choice;
                rule.choice_heads = elements.certain;
                rule.lower_bound = instance.lower;
                rule.upper_bound = instance.upper;
                rule.positive_body = instance.pos;
                rule.negative_body = instance.neg;
                out_.add_rule(std::move(rule));
            }
            // Conditional elements become singleton unbounded choices with
            // the condition folded into the body.
            for (auto& [id, cond_pos, cond_neg] : elements.conditional) {
                GroundRule rule;
                rule.kind = GroundRule::Kind::Choice;
                rule.choice_heads = {id};
                rule.positive_body = instance.pos;
                rule.negative_body = instance.neg;
                rule.positive_body.insert(rule.positive_body.end(), cond_pos.begin(),
                                          cond_pos.end());
                rule.negative_body.insert(rule.negative_body.end(), cond_neg.begin(),
                                          cond_neg.end());
                out_.add_rule(std::move(rule));
            }
        }
    }

    // --- weak constraints ----------------------------------------------------

    void ground_weak(const WeakConstraint& weak) {
        charge_budget();
        match(weak.body, {}, {}, {},
              [&](const Binding& binding, std::vector<int> pos, std::vector<int> neg) {
                  normalize(pos);
                  normalize(neg);
                  auto weight = eval_term(substitute(weak.weight, binding));
                  if (!weight.ok()) throw GroundError(weight.error());
                  if (!weight.value().is_integer()) {
                      throw GroundError("weak constraint weight must evaluate to an integer: " +
                                        weight.value().to_string());
                  }
                  std::string tuple;
                  for (const Term& t : weak.tuple) {
                      auto v = eval_term(substitute(t, binding));
                      if (!v.ok()) throw GroundError(v.error());
                      tuple += (tuple.empty() ? "" : ",") + v.value().to_string();
                  }
                  std::string key = "w" + std::to_string(weight.value().as_int()) + "@" +
                                    std::to_string(weak.priority) + "[" + tuple + "]|" +
                                    serialize_body(pos, neg);
                  if (!seen_rules_.insert(std::move(key)).second) return;
                  GroundWeak ground;
                  ground.positive_body = std::move(pos);
                  ground.negative_body = std::move(neg);
                  ground.weight = weight.value().as_int();
                  ground.priority = weak.priority;
                  ground.tuple = std::move(tuple);
                  out_.add_weak(std::move(ground));
                  changed_ = true;
              });
    }

    // --- certainty -----------------------------------------------------------

    void recompute_certain() {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (const GroundRule& rule : out_.rules()) {
                if (rule.kind != GroundRule::Kind::Normal) continue;
                if (!rule.negative_body.empty()) continue;
                if (certain_[static_cast<std::size_t>(rule.head)]) continue;
                const bool all_certain =
                    std::all_of(rule.positive_body.begin(), rule.positive_body.end(),
                                [&](int id) { return certain_[static_cast<std::size_t>(id)]; });
                if (all_certain) {
                    certain_[static_cast<std::size_t>(rule.head)] = true;
                    progressed = true;
                }
            }
        }
    }

    /// One budget step per grounded rule / newly interned atom; a trip
    /// unwinds the fixpoint promptly via GroundError, and the caller reads
    /// the structured reason from Budget::tripped().
    void charge_budget() {
        if (options_.budget == nullptr) return;
        if (auto exceeded = options_.budget->charge_steps()) {
            throw GroundError("grounder: " + exceeded->to_string());
        }
    }

    const ProgramParts& parts_;
    const GrounderOptions& options_;
    std::map<std::string, Term> consts_;
    std::vector<Rule> rules_;
    std::vector<WeakConstraint> weaks_;

    GroundProgram out_;
    std::vector<char> in_domain_;
    std::vector<char> certain_;
    SymbolTable symbols_;
    std::vector<std::vector<int>> by_predicate_;  ///< domain atom ids per symbol id
    std::unordered_set<std::string> seen_rules_;
    // Instance maps stay ordered: materialize_choices()/aggregates iterate
    // them, and their emission order must not depend on hash seeds.
    std::map<std::string, ChoiceInstance> choice_instances_;
    std::map<std::string, AggregateInstance> aggregate_instances_;
    bool changed_ = false;
};

}  // namespace

Result<GroundProgram> ground(const ProgramParts& parts, const GrounderOptions& options) {
    if (fault::should_fail("asp.grounder.ground")) {
        return Result<GroundProgram>::failure(
            "grounder: injected fault (site asp.grounder.ground)");
    }
    obs::Span span(options.trace, "asp.ground", "ground");
    try {
        Grounder grounder(parts, options);
        GroundProgram program = grounder.run();
        span.arg("rules", static_cast<long long>(program.rules().size()));
        span.arg("atoms", static_cast<long long>(program.atom_count()));
        obs::add_counter(options.metrics, "asp.ground.calls");
        obs::add_counter(options.metrics, "asp.ground.rules", program.rules().size());
        obs::add_counter(options.metrics, "asp.ground.atoms", program.atom_count());
        return program;
    } catch (const GroundError& e) {
        return Result<GroundProgram>::failure(e.what());
    }
}

Result<GroundProgram> ground(const Program& program, const GrounderOptions& options) {
    return ground(ProgramParts{&program}, options);
}

}  // namespace cprisk::asp
