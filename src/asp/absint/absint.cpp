#include "asp/absint/absint.hpp"

#include <algorithm>
#include <set>
#include <string>

namespace cprisk::asp::absint {

namespace {

/// Mirrors the CDCL engine's compare_values (asp/cdcl.cpp) so the
/// certifier's exact aggregate evaluation matches the solver's bit for bit.
bool compare_values(long long lhs, CompareOp op, long long rhs) {
    switch (op) {
        case CompareOp::Eq: return lhs == rhs;
        case CompareOp::Ne: return lhs != rhs;
        case CompareOp::Lt: return lhs < rhs;
        case CompareOp::Le: return lhs <= rhs;
        case CompareOp::Gt: return lhs > rhs;
        case CompareOp::Ge: return lhs >= rhs;
    }
    return false;
}

/// The well-founded alternating fixpoint, evaluated per SCC of the ground
/// atom dependency graph in topological order.
class Evaluator {
public:
    Evaluator(const GroundProgram& program, const AbsintOptions& options)
        : program_(program), options_(options), n_(program.atom_count()) {}

    Analysis run() {
        Analysis out;
        out.values.assign(n_, Ternary::Unknown);
        if (!apply_pins(out)) return out;  // contradictory or out-of-range pins
        if (options_.budget != nullptr && options_.budget->check()) {
            out.interrupted = true;
            return out;
        }

        build_graph();
        // An atom no rule can derive is false unless pinned.
        for (std::size_t a = 0; a < n_; ++a) {
            if (derivable_[a] == 0 && pin_[a] == 0) poss_[a] = 0;
        }
        compute_components();
        // Reverse emission order = topological order of the condensation
        // (sources first), so every body atom is final when its rule runs.
        for (std::size_t c = components_.size(); c-- > 0;) {
            solve_component(static_cast<int>(c));
            if (tripped_) break;
        }
        flush_charges();  // account the tail below one kChargeBatch stride
        if (tripped_) {
            out.interrupted = true;
            out.values.assign(n_, Ternary::Unknown);
            return out;
        }

        out.decided = 0;
        for (std::size_t a = 0; a < n_; ++a) {
            out.values[a] = must_[a] != 0 ? Ternary::True
                            : poss_[a] == 0 ? Ternary::False
                                            : Ternary::Unknown;
            if (out.values[a] != Ternary::Unknown) ++out.decided;
        }

        // A must-firing rule whose head stayed out of the must set can only
        // mean a pinned-false head: the pins contradict the program.
        for (const GroundRule& rule : program_.rules()) {
            if (rule.kind != GroundRule::Kind::Normal) continue;
            if (body_must(rule) && must_[static_cast<std::size_t>(rule.head)] == 0) {
                out.conflict = true;
                break;
            }
        }
        out.total = !out.conflict && out.decided == n_;
        out.certified = out.total && certify();
        return out;
    }

private:
    /// Fixes pinned atoms; false (with conflict set) on contradictory or
    /// out-of-range pins — the solver treats both as trivially unsat.
    bool apply_pins(Analysis& out) {
        pin_.assign(n_, 0);
        must_.assign(n_, 0);
        poss_.assign(n_, 1);
        if (options_.pins == nullptr) return true;
        for (const auto& [atom, truth] : *options_.pins) {
            if (atom < 0 || static_cast<std::size_t>(atom) >= n_) {
                out.conflict = true;
                return false;
            }
            const std::size_t a = static_cast<std::size_t>(atom);
            const std::int8_t wanted = truth ? 1 : -1;
            if (pin_[a] != 0 && pin_[a] != wanted) {
                out.conflict = true;
                return false;
            }
            pin_[a] = wanted;
            must_[a] = truth ? 1 : 0;
            poss_[a] = truth ? 1 : 0;
        }
        return true;
    }

    void build_graph() {
        const auto& rules = program_.rules();
        heads_.assign(rules.size(), {});
        feeds_.assign(n_, {});
        derivable_.assign(n_, 0);
        for (std::size_t r = 0; r < rules.size(); ++r) {
            const GroundRule& rule = rules[r];
            if (rule.kind == GroundRule::Kind::Normal) {
                heads_[r].push_back(rule.head);
            } else if (rule.kind == GroundRule::Kind::Choice) {
                heads_[r] = rule.choice_heads;
            }
            if (heads_[r].empty()) continue;  // constraints derive nothing
            for (int h : heads_[r]) derivable_[static_cast<std::size_t>(h)] = 1;
            for (int b : rule.positive_body) feeds_[static_cast<std::size_t>(b)].push_back(r);
            for (int b : rule.negative_body) feeds_[static_cast<std::size_t>(b)].push_back(r);
        }
    }

    /// Iterative Tarjan over atoms; successors of `a` are the heads of every
    /// rule `a` feeds. Components land in `components_` in reverse
    /// topological order (sinks first), exactly as the recursive version
    /// emits them.
    void compute_components() {
        constexpr int kUnvisited = -1;
        std::vector<int> index(n_, kUnvisited);
        std::vector<int> lowlink(n_, 0);
        std::vector<char> on_stack(n_, 0);
        std::vector<int> stack;
        comp_of_.assign(n_, -1);
        components_.clear();
        int next_index = 0;

        struct Frame {
            int atom;
            std::size_t rule_pos = 0;  // position in feeds_[atom]
            std::size_t head_pos = 0;  // position in heads_ of that rule
        };
        std::vector<Frame> frames;

        for (std::size_t root = 0; root < n_; ++root) {
            if (index[root] != kUnvisited) continue;
            frames.push_back(Frame{static_cast<int>(root)});
            index[root] = lowlink[root] = next_index++;
            stack.push_back(static_cast<int>(root));
            on_stack[root] = 1;

            while (!frames.empty()) {
                Frame& frame = frames.back();
                const std::size_t a = static_cast<std::size_t>(frame.atom);
                int successor = -1;
                while (frame.rule_pos < feeds_[a].size()) {
                    const auto& rule_heads = heads_[feeds_[a][frame.rule_pos]];
                    if (frame.head_pos < rule_heads.size()) {
                        successor = rule_heads[frame.head_pos++];
                        break;
                    }
                    ++frame.rule_pos;
                    frame.head_pos = 0;
                }
                if (successor >= 0) {
                    const std::size_t s = static_cast<std::size_t>(successor);
                    if (index[s] == kUnvisited) {
                        index[s] = lowlink[s] = next_index++;
                        stack.push_back(successor);
                        on_stack[s] = 1;
                        frames.push_back(Frame{successor});
                    } else if (on_stack[s] != 0) {
                        lowlink[a] = std::min(lowlink[a], index[s]);
                    }
                    continue;
                }
                // Atom exhausted: close the frame.
                const int atom = frame.atom;
                frames.pop_back();
                if (!frames.empty()) {
                    const std::size_t parent =
                        static_cast<std::size_t>(frames.back().atom);
                    lowlink[parent] = std::min(lowlink[parent], lowlink[atom]);
                }
                if (lowlink[atom] == index[atom]) {
                    std::vector<int> members;
                    while (true) {
                        const int member = stack.back();
                        stack.pop_back();
                        on_stack[static_cast<std::size_t>(member)] = 0;
                        comp_of_[static_cast<std::size_t>(member)] =
                            static_cast<int>(components_.size());
                        members.push_back(member);
                        if (member == atom) break;
                    }
                    components_.push_back(std::move(members));
                }
            }
        }

        // Rules grouped by the components their heads live in (a choice rule
        // can span several).
        comp_rules_.assign(components_.size(), {});
        for (std::size_t r = 0; r < heads_.size(); ++r) {
            int last = -1;
            for (int h : heads_[r]) {
                const int c = comp_of_[static_cast<std::size_t>(h)];
                if (c != last) comp_rules_[static_cast<std::size_t>(c)].push_back(r);
                last = c;
            }
        }
        for (auto& list : comp_rules_) {
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
        }
    }

    /// Work units accumulate locally and reach the shared budget in
    /// kChargeBatch strides (plus one final flush in run()): the prefilter
    /// charges a few units per fixpoint pass across hundreds of tiny SCCs
    /// per scenario, and a per-pass atomic RMW on the run-wide budget is
    /// exactly the kind of cost the <2% null-observability bar measures
    /// (bench_perf_epa).
    static constexpr std::size_t kChargeBatch = 4096;

    bool charge(std::size_t units) {
        if (options_.budget == nullptr) return true;
        pending_ += units;
        if (pending_ < kChargeBatch) return true;
        return flush_charges();
    }

    bool flush_charges() {
        if (options_.budget == nullptr || pending_ == 0) return !tripped_;
        if (options_.budget->charge_steps(pending_)) tripped_ = true;
        pending_ = 0;
        return !tripped_;
    }

    bool body_must(const GroundRule& rule) const {
        for (int b : rule.positive_body) {
            if (must_[static_cast<std::size_t>(b)] == 0) return false;
        }
        for (int b : rule.negative_body) {
            if (poss_[static_cast<std::size_t>(b)] != 0) return false;
        }
        return true;
    }

    bool body_possible(const GroundRule& rule) const {
        for (int b : rule.positive_body) {
            // State 2 (reset, not yet re-derived) counts as not-possible —
            // that is exactly what prunes unfounded positive loops.
            if (poss_[static_cast<std::size_t>(b)] != 1) return false;
        }
        for (int b : rule.negative_body) {
            if (must_[static_cast<std::size_t>(b)] != 0) return false;
        }
        return true;
    }

    /// Alternates the must (lfp, grows) and possible (gfp via recomputed
    /// lfp, shrinks) sets of one component until neither moves. Atoms of
    /// earlier (upstream) components are final; spanning choice rules may
    /// list heads in other components — those are never touched here.
    void solve_component(int comp) {
        const std::vector<int>& rules = comp_rules_[static_cast<std::size_t>(comp)];
        if (rules.empty()) return;
        const auto mine = [&](int atom) {
            return comp_of_[static_cast<std::size_t>(atom)] == comp;
        };
        bool moved = true;
        while (moved) {
            moved = false;
            // Must pass: saturate Normal-rule derivation. Choice heads are
            // never forced (unless pinned): the solver may leave them false.
            bool any = true;
            while (any) {
                any = false;
                if (!charge(rules.size())) return;
                for (int r : rules) {
                    const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
                    if (rule.kind != GroundRule::Kind::Normal) continue;
                    const std::size_t h = static_cast<std::size_t>(rule.head);
                    if (must_[h] != 0 || pin_[h] != 0) continue;
                    if (!body_must(rule)) continue;
                    must_[h] = 1;
                    poss_[h] = 1;
                    any = true;
                    moved = true;
                }
            }
            // Possible pass: recompute from scratch against the grown must
            // set; an atom that loses every potential derivation becomes
            // must-false.
            for (int r : rules) {
                for (int h : heads_[static_cast<std::size_t>(r)]) {
                    const std::size_t ha = static_cast<std::size_t>(h);
                    if (mine(h) && pin_[ha] == 0 && must_[ha] == 0 && poss_[ha] != 0) {
                        poss_[ha] = 2;
                    }
                }
            }
            any = true;
            while (any) {
                any = false;
                if (!charge(rules.size())) return;
                for (int r : rules) {
                    const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
                    if (!body_possible(rule)) continue;
                    for (int h : heads_[static_cast<std::size_t>(r)]) {
                        const std::size_t ha = static_cast<std::size_t>(h);
                        if (poss_[ha] == 2) {
                            poss_[ha] = 1;
                            any = true;
                        }
                    }
                }
            }
            for (int r : rules) {
                for (int h : heads_[static_cast<std::size_t>(r)]) {
                    const std::size_t ha = static_cast<std::size_t>(h);
                    if (poss_[ha] == 2) {
                        poss_[ha] = 0;
                        moved = true;
                    }
                }
            }
        }
    }

    /// Mirrors CdclSolver::aggregate_holds under the must-set model.
    bool aggregate_holds(const GroundAggregate& aggregate) const {
        long long value = 0;
        std::set<std::string> counted;
        for (const GroundAggregateElement& element : aggregate.elements) {
            bool holds = true;
            for (int id : element.condition) {
                if (must_[static_cast<std::size_t>(id)] == 0) {
                    holds = false;
                    break;
                }
            }
            if (!holds) continue;
            if (!counted.insert(element.tuple).second) continue;
            value += element.weight;
        }
        return compare_values(value, aggregate.op, aggregate.bound);
    }

    /// True when the total must set is the program's unique answer set under
    /// the pins: no constraint fires, bounded choices hold, and the model is
    /// founded (the reduct's least model reproduces it — the same check as
    /// CdclSolver::stable, including choice self-support).
    bool certify() const {
        for (const GroundRule& rule : program_.rules()) {
            if (rule.kind == GroundRule::Kind::Constraint) {
                if (!body_must(rule)) continue;  // total: must == holds
                bool fires = true;
                for (const GroundAggregate& aggregate : rule.aggregates) {
                    if (!aggregate_holds(aggregate)) {
                        fires = false;
                        break;
                    }
                }
                if (fires) return false;  // no answer set; let the solver say so
            } else if (rule.kind == GroundRule::Kind::Choice &&
                       (rule.lower_bound || rule.upper_bound)) {
                if (!body_must(rule)) continue;
                long long chosen = 0;
                for (int h : rule.choice_heads) {
                    if (must_[static_cast<std::size_t>(h)] != 0) ++chosen;
                }
                if (rule.lower_bound && chosen < *rule.lower_bound) return false;
                if (rule.upper_bound && chosen > *rule.upper_bound) return false;
            }
        }

        // Foundedness: least model of the reduct (pinned-true atoms included
        // only when a rule — notably their choice shell — justifies them).
        std::vector<char> derived(n_, 0);
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (const GroundRule& rule : program_.rules()) {
                if (rule.kind == GroundRule::Kind::Constraint) continue;
                bool neg_ok = true;
                for (int b : rule.negative_body) {
                    if (must_[static_cast<std::size_t>(b)] != 0) {
                        neg_ok = false;
                        break;
                    }
                }
                if (!neg_ok) continue;
                bool pos_ok = true;
                for (int b : rule.positive_body) {
                    if (derived[static_cast<std::size_t>(b)] == 0) {
                        pos_ok = false;
                        break;
                    }
                }
                if (!pos_ok) continue;
                if (rule.kind == GroundRule::Kind::Normal) {
                    if (derived[static_cast<std::size_t>(rule.head)] == 0) {
                        derived[static_cast<std::size_t>(rule.head)] = 1;
                        progressed = true;
                    }
                } else {
                    for (int h : rule.choice_heads) {
                        const std::size_t ha = static_cast<std::size_t>(h);
                        if (must_[ha] != 0 && derived[ha] == 0) {
                            derived[ha] = 1;
                            progressed = true;
                        }
                    }
                }
            }
        }
        for (std::size_t a = 0; a < n_; ++a) {
            if (must_[a] != 0 && derived[a] == 0) return false;
        }
        return true;
    }

    const GroundProgram& program_;
    const AbsintOptions& options_;
    std::size_t n_;

    std::vector<std::int8_t> pin_;
    std::vector<char> must_;
    /// 0 = must-false, 1 = possible, 2 = transiently reset during the
    /// possible pass of the component currently being solved.
    std::vector<char> poss_;
    bool tripped_ = false;
    std::size_t pending_ = 0;  ///< work units not yet flushed to the budget

    std::vector<char> derivable_;          ///< atom has at least one deriving rule
    std::vector<std::vector<int>> heads_;  ///< rule -> derivable head atoms
    std::vector<std::vector<int>> feeds_;  ///< atom -> rules it occurs in the body of
    std::vector<int> comp_of_;
    std::vector<std::vector<int>> components_;  ///< reverse topological order
    std::vector<std::vector<int>> comp_rules_;
};

}  // namespace

Analysis evaluate(const GroundProgram& program, const AbsintOptions& options) {
    return Evaluator(program, options).run();
}

std::vector<Atom> certified_model(const GroundProgram& program, const Analysis& analysis) {
    std::vector<Atom> atoms;
    for (int a = 0; a < static_cast<int>(program.atom_count()); ++a) {
        if (analysis.must(a) && program.is_shown(a)) atoms.push_back(program.atom(a));
    }
    std::sort(atoms.begin(), atoms.end());
    return atoms;
}

std::map<long long, long long> certified_cost(const GroundProgram& program,
                                              const Analysis& analysis) {
    return weak_cost(program.weaks(), [&](const GroundWeak& weak) {
        for (int b : weak.positive_body) {
            if (!analysis.must(b)) return false;
        }
        for (int b : weak.negative_body) {
            if (analysis.must(b)) return false;
        }
        return true;
    });
}

SimplifyStats simplify(GroundProgram& program, const Analysis& analysis) {
    SimplifyStats stats;
    if (analysis.conflict || analysis.interrupted ||
        analysis.values.size() != program.atom_count()) {
        return stats;
    }
    stats.atoms_decided = analysis.decided;

    const auto body_impossible = [&](const std::vector<int>& pos, const std::vector<int>& neg) {
        for (int b : pos) {
            if (!analysis.possible(b)) return true;
        }
        for (int b : neg) {
            if (analysis.must(b)) return true;
        }
        return false;
    };
    // Drops decided literals in place: positive literals true everywhere and
    // negative literals on never-possible atoms contribute nothing.
    const auto shrink = [&](std::vector<int>& pos, std::vector<int>& neg) {
        const auto drop_pos = [&](int b) { return analysis.must(b); };
        const auto drop_neg = [&](int b) { return !analysis.possible(b); };
        const std::size_t before = pos.size() + neg.size();
        pos.erase(std::remove_if(pos.begin(), pos.end(), drop_pos), pos.end());
        neg.erase(std::remove_if(neg.begin(), neg.end(), drop_neg), neg.end());
        stats.literals_dropped += before - pos.size() - neg.size();
    };

    std::vector<char> fact_emitted(program.atom_count(), 0);
    std::vector<GroundRule>& rules = program.mutable_rules();
    std::vector<GroundRule> kept;
    kept.reserve(rules.size());
    for (GroundRule& rule : rules) {
        switch (rule.kind) {
            case GroundRule::Kind::Normal:
                if (analysis.must(rule.head)) {
                    // Every answer set contains the head: one fact replaces
                    // the whole support set (foundedness is preserved — the
                    // fact supplies it).
                    const std::size_t h = static_cast<std::size_t>(rule.head);
                    if (fact_emitted[h] == 0) {
                        fact_emitted[h] = 1;
                        GroundRule fact;
                        fact.head = rule.head;
                        kept.push_back(std::move(fact));
                        ++stats.facts_added;
                    }
                    ++stats.rules_deleted;
                    continue;
                }
                if (body_impossible(rule.positive_body, rule.negative_body)) {
                    ++stats.rules_deleted;
                    continue;
                }
                shrink(rule.positive_body, rule.negative_body);
                break;
            case GroundRule::Kind::Constraint:
                if (body_impossible(rule.positive_body, rule.negative_body)) {
                    ++stats.rules_deleted;  // can never fire
                    continue;
                }
                // Aggregates stay untouched; an emptied literal body keeps
                // the constraint (it may still fire — deleting it would
                // *add* answer sets).
                shrink(rule.positive_body, rule.negative_body);
                break;
            case GroundRule::Kind::Choice:
                if (body_impossible(rule.positive_body, rule.negative_body)) {
                    ++stats.rules_deleted;
                    continue;
                }
                // Heads and cardinality bounds stay exactly as grounded (the
                // EPA cache pins these atoms by id).
                shrink(rule.positive_body, rule.negative_body);
                break;
        }
        kept.push_back(std::move(rule));
    }
    rules = std::move(kept);

    std::vector<GroundWeak>& weaks = program.mutable_weaks();
    std::vector<GroundWeak> kept_weaks;
    kept_weaks.reserve(weaks.size());
    for (GroundWeak& weak : weaks) {
        if (body_impossible(weak.positive_body, weak.negative_body)) {
            ++stats.rules_deleted;
            continue;
        }
        shrink(weak.positive_body, weak.negative_body);
        kept_weaks.push_back(std::move(weak));
    }
    weaks = std::move(kept_weaks);
    return stats;
}

}  // namespace cprisk::asp::absint
