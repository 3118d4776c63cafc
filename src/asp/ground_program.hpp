// cprisk/asp/ground_program.hpp
//
// Variable-free (ground) program representation produced by the grounder and
// consumed by the stable-model solver. Atoms are interned to dense integer
// ids; rules reference atoms by id.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "asp/syntax.hpp"
#include "asp/term.hpp"

namespace cprisk::asp {

/// One grounded aggregate element: contributes `weight` once per distinct
/// `tuple` when all `condition` atoms are true in the model.
struct GroundAggregateElement {
    long long weight = 1;
    std::string tuple;          ///< serialized identity
    std::vector<int> condition;  ///< positive condition atom ids
};

/// A grounded body aggregate guard (only admitted in constraints): the
/// aggregate value is compared against `bound` under the candidate model.
struct GroundAggregate {
    CompareOp op = CompareOp::Le;
    long long bound = 0;
    std::vector<GroundAggregateElement> elements;
};

/// A ground rule. For `Kind::Normal` the head is `head`; `Kind::Constraint`
/// has no head; `Kind::Choice` offers `choice_heads` with optional
/// cardinality bounds. `aggregates` (constraints only) must *all* hold, in
/// addition to the literal body, for the constraint to fire.
struct GroundRule {
    enum class Kind : std::uint8_t { Normal, Constraint, Choice };

    Kind kind = Kind::Normal;
    int head = -1;
    std::vector<int> choice_heads;
    std::optional<long long> lower_bound;
    std::optional<long long> upper_bound;
    std::vector<int> positive_body;
    std::vector<int> negative_body;
    std::vector<GroundAggregate> aggregates;
};

/// A ground weak constraint: when the body holds in an answer set, it
/// contributes `weight` at `priority`, once per distinct (weight, priority,
/// tuple) — see weak_cost().
struct GroundWeak {
    std::vector<int> positive_body;
    std::vector<int> negative_body;
    long long weight = 0;
    long long priority = 0;
    std::string tuple;  ///< serialized tuple identity
};

/// Priority -> cost of the weak constraints for which `holds(weak)` is true.
/// Clingo semantics: weak constraints that agree on weight, priority and
/// tuple are one cost element and count once; differing weights on the same
/// tuple count separately. Every cost computation (model costs, the search's
/// lower bound, the static certifier) goes through here.
template <typename Holds>
std::map<long long, long long> weak_cost(const std::vector<GroundWeak>& weaks,
                                         const Holds& holds) {
    std::map<long long, long long> cost;
    std::set<std::tuple<long long, long long, std::string>> counted;
    for (const GroundWeak& weak : weaks) {
        if (!holds(weak)) continue;
        if (!counted.emplace(weak.priority, weak.weight, weak.tuple).second) continue;
        cost[weak.priority] += weak.weight;
    }
    return cost;
}

/// Interned ground program.
class GroundProgram {
public:
    /// Returns the id of `atom`, interning it on first sight.
    int intern(const Atom& atom);

    /// Id of `atom` if known, -1 otherwise.
    int find(const Atom& atom) const;

    const Atom& atom(int id) const;
    std::size_t atom_count() const { return atoms_.size(); }

    void add_rule(GroundRule rule) { rules_.push_back(std::move(rule)); }
    void add_weak(GroundWeak weak) { weaks_.push_back(std::move(weak)); }
    void add_show(Signature sig) { shows_.push_back(std::move(sig)); }

    const std::vector<GroundRule>& rules() const { return rules_; }
    const std::vector<GroundWeak>& weaks() const { return weaks_; }

    /// Mutable access for model-preserving rewrites (absint::simplify). The
    /// atom table is intentionally not exposed: interned ids must stay valid.
    std::vector<GroundRule>& mutable_rules() { return rules_; }
    std::vector<GroundWeak>& mutable_weaks() { return weaks_; }

    const std::vector<Signature>& shows() const { return shows_; }

    /// True if `id` should appear in projected answer sets (empty show list
    /// means "show everything").
    bool is_shown(int id) const;

    std::string to_string() const;

private:
    std::vector<Atom> atoms_;
    std::map<Atom, int> ids_;
    std::vector<GroundRule> rules_;
    std::vector<GroundWeak> weaks_;
    std::vector<Signature> shows_;
};

}  // namespace cprisk::asp
