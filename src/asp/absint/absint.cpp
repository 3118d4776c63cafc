#include "asp/absint/absint.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "common/error.hpp"

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

/// Groups (key, value) pairs by key into CSR arrays; values keep their
/// input order within each key.
void group(std::size_t keys, const std::vector<std::pair<int, int>>& pairs,
           std::vector<int>& begin, std::vector<int>& values) {
    begin.assign(keys + 1, 0);
    for (const auto& [key, value] : pairs) ++begin[static_cast<std::size_t>(key) + 1];
    for (std::size_t k = 0; k < keys; ++k) begin[k + 1] += begin[k];
    values.resize(pairs.size());
    std::vector<int> cursor(begin.begin(), begin.end() - 1);
    for (const auto& [key, value] : pairs) {
        values[static_cast<std::size_t>(cursor[static_cast<std::size_t>(key)]++)] = value;
    }
}

/// Iterative Tarjan over atoms; successors of `a` are the heads of every
/// rule `a` occurs in the body of (`feeds`). Returns each atom's component
/// in emission order — reverse topological order, sinks first — and sets
/// `count` to the number of components.
std::vector<int> tarjan(const Plan& plan, const std::vector<int>& feed_begin,
                        const std::vector<int>& feeds, std::size_t& count) {
    const std::size_t n = plan.atoms;
    constexpr int kUnvisited = -1;
    std::vector<int> index(n, kUnvisited);
    std::vector<int> lowlink(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<int> stack;
    std::vector<int> comp_of(n, -1);
    count = 0;
    int next_index = 0;

    struct Frame {
        int atom;
        int feed_pos;      // position in feeds of that atom
        int head_pos = 0;  // position in the heads of that rule
    };
    std::vector<Frame> frames;
    const auto enter = [&](int atom) {
        const std::size_t a = static_cast<std::size_t>(atom);
        index[a] = lowlink[a] = next_index++;
        stack.push_back(atom);
        on_stack[a] = 1;
        frames.push_back(Frame{atom, feed_begin[a]});
    };

    for (std::size_t root = 0; root < n; ++root) {
        if (index[root] != kUnvisited) continue;
        enter(static_cast<int>(root));
        while (!frames.empty()) {
            Frame& frame = frames.back();
            const std::size_t a = static_cast<std::size_t>(frame.atom);
            int successor = -1;
            while (frame.feed_pos < feed_begin[a + 1]) {
                const std::size_t r =
                    static_cast<std::size_t>(feeds[static_cast<std::size_t>(frame.feed_pos)]);
                const int head = plan.head_begin[r] + frame.head_pos;
                if (head < plan.head_begin[r + 1]) {
                    successor = plan.heads[static_cast<std::size_t>(head)];
                    ++frame.head_pos;
                    break;
                }
                ++frame.feed_pos;
                frame.head_pos = 0;
            }
            if (successor >= 0) {
                const std::size_t s = static_cast<std::size_t>(successor);
                if (index[s] == kUnvisited) {
                    enter(successor);
                } else if (on_stack[s] != 0) {
                    lowlink[a] = std::min(lowlink[a], index[s]);
                }
                continue;
            }
            // Atom exhausted: close the frame.
            const int atom = frame.atom;
            frames.pop_back();
            if (!frames.empty()) {
                const std::size_t parent = static_cast<std::size_t>(frames.back().atom);
                lowlink[parent] = std::min(lowlink[parent], lowlink[atom]);
            }
            if (lowlink[atom] == index[atom]) {
                while (true) {
                    const int member = stack.back();
                    stack.pop_back();
                    on_stack[static_cast<std::size_t>(member)] = 0;
                    comp_of[static_cast<std::size_t>(member)] = static_cast<int>(count);
                    if (member == atom) break;
                }
                ++count;
            }
        }
    }
    return comp_of;
}

/// The well-founded alternating fixpoint, evaluated per SCC of the ground
/// atom dependency graph in the plan's topological order.
class Evaluator {
public:
    Evaluator(const Plan& plan, const AbsintOptions& options)
        : plan_(plan), options_(options), n_(plan.atoms) {}

    Analysis run() {
        Analysis out;
        out.values.assign(n_, Ternary::Unknown);
        if (!apply_pins(out)) return out;  // contradictory or out-of-range pins
        if (options_.budget != nullptr && options_.budget->check()) {
            out.interrupted = true;
            return out;
        }

        // An atom no rule can derive is false unless pinned.
        for (std::size_t a = 0; a < n_; ++a) {
            if (plan_.derivable[a] == 0 && pin_[a] == 0) poss_[a] = 0;
        }
        // Every body atom is final when its rule runs.
        const std::size_t components = plan_.comp_begin.size() - 1;
        for (std::size_t c = 0; c < components; ++c) {
            solve_component(c);
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
        for (std::size_t r = 0; r < plan_.rules; ++r) {
            if (plan_.kind[r] != GroundRule::Kind::Normal) continue;
            if (body_must(r) && must_[head_of(r)] == 0) {
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
            const std::int16_t wanted = truth ? 1 : -1;
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

    std::size_t head_of(std::size_t rule) const {
        return static_cast<std::size_t>(plan_.heads[static_cast<std::size_t>(
            plan_.head_begin[rule])]);
    }

    bool body_must(std::size_t rule) const {
        const int* lit = plan_.lits.data();
        for (int i = plan_.lit_begin[rule]; i < plan_.neg_begin[rule]; ++i) {
            if (must_[static_cast<std::size_t>(lit[i])] == 0) return false;
        }
        for (int i = plan_.neg_begin[rule]; i < plan_.lit_begin[rule + 1]; ++i) {
            if (poss_[static_cast<std::size_t>(lit[i])] != 0) return false;
        }
        return true;
    }

    bool body_possible(std::size_t rule) const {
        const int* lit = plan_.lits.data();
        for (int i = plan_.lit_begin[rule]; i < plan_.neg_begin[rule]; ++i) {
            // State 2 (reset, not yet re-derived) counts as not-possible —
            // that is exactly what prunes unfounded positive loops.
            if (poss_[static_cast<std::size_t>(lit[i])] != 1) return false;
        }
        for (int i = plan_.neg_begin[rule]; i < plan_.lit_begin[rule + 1]; ++i) {
            if (must_[static_cast<std::size_t>(lit[i])] != 0) return false;
        }
        return true;
    }

    /// Alternates the must (lfp, grows) and possible (gfp via recomputed
    /// lfp, shrinks) sets of one component until neither moves. Atoms of
    /// earlier (upstream) components are final; spanning choice rules may
    /// list heads in other components — those are never touched here.
    void solve_component(std::size_t comp) {
        const int* first = plan_.comp_rules.data() + plan_.comp_begin[comp];
        const int* last = plan_.comp_rules.data() + plan_.comp_begin[comp + 1];
        const std::size_t count = static_cast<std::size_t>(last - first);
        const int* head = plan_.heads.data();
        const auto mine = [&](int atom) {
            return plan_.comp_of[static_cast<std::size_t>(atom)] == static_cast<int>(comp);
        };
        bool moved = true;
        while (moved) {
            moved = false;
            // Must pass: saturate Normal-rule derivation. Choice heads are
            // never forced (unless pinned): the solver may leave them false.
            bool any = true;
            while (any) {
                any = false;
                if (!charge(count)) return;
                for (const int* it = first; it != last; ++it) {
                    const std::size_t r = static_cast<std::size_t>(*it);
                    if (plan_.kind[r] != GroundRule::Kind::Normal) continue;
                    const std::size_t h = head_of(r);
                    if (must_[h] != 0 || pin_[h] != 0) continue;
                    if (!body_must(r)) continue;
                    must_[h] = 1;
                    poss_[h] = 1;
                    any = true;
                    moved = true;
                }
            }
            // Possible pass: recompute from scratch against the grown must
            // set; an atom that loses every potential derivation becomes
            // must-false.
            for (const int* it = first; it != last; ++it) {
                const std::size_t r = static_cast<std::size_t>(*it);
                for (int i = plan_.head_begin[r]; i < plan_.head_begin[r + 1]; ++i) {
                    const std::size_t ha = static_cast<std::size_t>(head[i]);
                    if (mine(head[i]) && pin_[ha] == 0 && must_[ha] == 0 && poss_[ha] != 0) {
                        poss_[ha] = 2;
                    }
                }
            }
            any = true;
            while (any) {
                any = false;
                if (!charge(count)) return;
                for (const int* it = first; it != last; ++it) {
                    const std::size_t r = static_cast<std::size_t>(*it);
                    if (!body_possible(r)) continue;
                    for (int i = plan_.head_begin[r]; i < plan_.head_begin[r + 1]; ++i) {
                        const std::size_t ha = static_cast<std::size_t>(head[i]);
                        if (poss_[ha] == 2) {
                            poss_[ha] = 1;
                            any = true;
                        }
                    }
                }
            }
            for (const int* it = first; it != last; ++it) {
                const std::size_t r = static_cast<std::size_t>(*it);
                for (int i = plan_.head_begin[r]; i < plan_.head_begin[r + 1]; ++i) {
                    const std::size_t ha = static_cast<std::size_t>(head[i]);
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
        const std::vector<GroundRule>& rules = plan_.program->rules();
        for (int id : plan_.checked) {
            const std::size_t r = static_cast<std::size_t>(id);
            if (!body_must(r)) continue;  // total: must == holds
            const GroundRule& rule = rules[r];
            if (rule.kind == GroundRule::Kind::Constraint) {
                bool fires = true;
                for (const GroundAggregate& aggregate : rule.aggregates) {
                    if (!aggregate_holds(aggregate)) {
                        fires = false;
                        break;
                    }
                }
                if (fires) return false;  // no answer set; let the solver say so
            } else {
                long long chosen = 0;
                for (int h : rule.choice_heads) {
                    if (must_[static_cast<std::size_t>(h)] != 0) ++chosen;
                }
                if (rule.lower_bound && chosen < *rule.lower_bound) return false;
                if (rule.upper_bound && chosen > *rule.upper_bound) return false;
            }
        }
        return founded();
    }

    /// Foundedness: the least model of the reduct, by counting each rule's
    /// underived positive literals and propagating newly derived atoms
    /// through their occurrence lists — O(rules + literals). Pinned-true
    /// atoms count only when a rule (notably their choice shell) justifies
    /// them; a choice rule supports exactly its must-true heads.
    bool founded() const {
        const int* lits = plan_.lits.data();
        const int* heads = plan_.heads.data();
        const int* occ = plan_.occ.data();
        std::vector<char> derived(n_, 0);
        std::vector<int> missing(plan_.rules, 0);  // underived positive literals
        std::vector<int> queue;
        queue.reserve(n_);
        const auto fire = [&](std::size_t r) {
            for (int i = plan_.head_begin[r]; i < plan_.head_begin[r + 1]; ++i) {
                const std::size_t h = static_cast<std::size_t>(heads[i]);
                if (derived[h] != 0) continue;
                if (plan_.kind[r] == GroundRule::Kind::Choice && must_[h] == 0) continue;
                derived[h] = 1;
                queue.push_back(heads[i]);
            }
        };
        for (std::size_t r = 0; r < plan_.rules; ++r) {
            if (plan_.head_begin[r] == plan_.head_begin[r + 1]) continue;  // derives nothing
            bool blocked = false;
            for (int i = plan_.neg_begin[r]; i < plan_.lit_begin[r + 1]; ++i) {
                if (must_[static_cast<std::size_t>(lits[i])] != 0) {
                    blocked = true;
                    break;
                }
            }
            // A blocked rule never reaches zero: it drops out of the reduct.
            missing[r] = blocked ? -1 : plan_.neg_begin[r] - plan_.lit_begin[r];
            if (missing[r] == 0) fire(r);
        }
        for (std::size_t next = 0; next < queue.size(); ++next) {
            const std::size_t a = static_cast<std::size_t>(queue[next]);
            for (int i = plan_.occ_begin[a]; i < plan_.occ_begin[a + 1]; ++i) {
                const std::size_t r = static_cast<std::size_t>(occ[i]);
                if (missing[r] > 0 && --missing[r] == 0) fire(r);
            }
        }
        for (std::size_t a = 0; a < n_; ++a) {
            if (must_[a] != 0 && derived[a] == 0) return false;
        }
        return true;
    }

    const Plan& plan_;
    const AbsintOptions& options_;
    std::size_t n_;

    // 16-bit cells, not char: a store through a char type may alias any
    // object, so char cells would make the compiler reload the plan's array
    // pointers and the budget counter after every write in the fixpoint
    // loops (about 2% of an evaluation, measured as the budget arm's
    // overhead).
    std::vector<std::int16_t> pin_;
    std::vector<std::int16_t> must_;
    /// 0 = must-false, 1 = possible, 2 = transiently reset during the
    /// possible pass of the component currently being solved.
    std::vector<std::int16_t> poss_;
    bool tripped_ = false;
    std::size_t pending_ = 0;  ///< work units not yet flushed to the budget
};

const std::string kForeignPlan = "absint: plan was compiled for a different ground program";

}  // namespace

bool Plan::describes(const GroundProgram& other) const {
    return program == &other && atoms == other.atom_count() &&
           rules == other.rules().size() && weaks == other.weaks().size();
}

std::size_t Plan::bytes() const {
    const auto ints = [](const std::vector<int>& v) { return v.capacity() * sizeof(int); };
    return kind.capacity() + derivable.capacity() + ints(lit_begin) + ints(neg_begin) +
           ints(lits) + ints(head_begin) + ints(heads) + ints(occ_begin) + ints(occ) +
           ints(comp_of) + ints(comp_begin) + ints(comp_rules) + ints(checked) + ints(shown);
}

Plan compile(const GroundProgram& program) {
    const std::vector<GroundRule>& rules = program.rules();
    const std::size_t n = program.atom_count();
    Plan plan;
    plan.program = &program;
    plan.atoms = n;
    plan.rules = rules.size();
    plan.weaks = program.weaks().size();
    plan.kind.reserve(rules.size());
    plan.lit_begin.reserve(rules.size() + 1);
    plan.neg_begin.reserve(rules.size());
    plan.head_begin.reserve(rules.size() + 1);
    plan.derivable.assign(n, 0);

    std::vector<std::pair<int, int>> occurs;  // (positive body atom, deriving rule)
    std::vector<std::pair<int, int>> feeds;   // (body atom, deriving rule)
    for (std::size_t r = 0; r < rules.size(); ++r) {
        const GroundRule& rule = rules[r];
        const int id = static_cast<int>(r);
        plan.kind.push_back(rule.kind);
        plan.lit_begin.push_back(static_cast<int>(plan.lits.size()));
        plan.lits.insert(plan.lits.end(), rule.positive_body.begin(), rule.positive_body.end());
        plan.neg_begin.push_back(static_cast<int>(plan.lits.size()));
        plan.lits.insert(plan.lits.end(), rule.negative_body.begin(), rule.negative_body.end());
        plan.head_begin.push_back(static_cast<int>(plan.heads.size()));
        if (rule.kind == GroundRule::Kind::Normal) {
            plan.heads.push_back(rule.head);
        } else if (rule.kind == GroundRule::Kind::Choice) {
            plan.heads.insert(plan.heads.end(), rule.choice_heads.begin(),
                              rule.choice_heads.end());
            if (rule.lower_bound || rule.upper_bound) plan.checked.push_back(id);
        } else {
            plan.checked.push_back(id);
        }
        if (plan.head_begin.back() == static_cast<int>(plan.heads.size())) continue;
        for (std::size_t i = static_cast<std::size_t>(plan.head_begin.back());
             i < plan.heads.size(); ++i) {
            plan.derivable[static_cast<std::size_t>(plan.heads[i])] = 1;
        }
        for (int b : rule.positive_body) {
            occurs.emplace_back(b, id);
            feeds.emplace_back(b, id);
        }
        for (int b : rule.negative_body) feeds.emplace_back(b, id);
    }
    plan.lit_begin.push_back(static_cast<int>(plan.lits.size()));
    plan.head_begin.push_back(static_cast<int>(plan.heads.size()));
    group(n, occurs, plan.occ_begin, plan.occ);

    std::vector<int> feed_begin;
    std::vector<int> feed_rules;
    group(n, feeds, feed_begin, feed_rules);
    std::size_t emitted = 0;
    const std::vector<int> emitted_of = tarjan(plan, feed_begin, feed_rules, emitted);

    // Rules grouped by the components their heads live in (a choice rule
    // can span several), each list ascending and duplicate-free.
    std::vector<std::pair<int, int>> owned;  // (emitted component, rule)
    std::vector<int> last_rule(emitted, -1);
    for (std::size_t r = 0; r < rules.size(); ++r) {
        for (int i = plan.head_begin[r]; i < plan.head_begin[r + 1]; ++i) {
            const std::size_t h = static_cast<std::size_t>(plan.heads[static_cast<std::size_t>(i)]);
            const std::size_t c = static_cast<std::size_t>(emitted_of[h]);
            if (last_rule[c] == static_cast<int>(r)) continue;
            last_rule[c] = static_cast<int>(r);
            owned.emplace_back(static_cast<int>(c), static_cast<int>(r));
        }
    }
    std::vector<int> owned_begin;
    std::vector<int> owned_rules;
    group(emitted, owned, owned_begin, owned_rules);

    // Reverse emission order = topological order of the condensation
    // (sources first); components without rules have nothing to solve.
    std::vector<int> scheduled(emitted, -1);
    plan.comp_begin.push_back(0);
    for (std::size_t c = emitted; c-- > 0;) {
        if (owned_begin[c] == owned_begin[c + 1]) continue;
        scheduled[c] = static_cast<int>(plan.comp_begin.size()) - 1;
        plan.comp_rules.insert(plan.comp_rules.end(), owned_rules.begin() + owned_begin[c],
                               owned_rules.begin() + owned_begin[c + 1]);
        plan.comp_begin.push_back(static_cast<int>(plan.comp_rules.size()));
    }
    plan.comp_of.resize(n);
    for (std::size_t a = 0; a < n; ++a) {
        plan.comp_of[a] = scheduled[static_cast<std::size_t>(emitted_of[a])];
    }

    for (int a = 0; a < static_cast<int>(n); ++a) {
        if (program.is_shown(a)) plan.shown.push_back(a);
    }
    std::sort(plan.shown.begin(), plan.shown.end(),
              [&](int x, int y) { return program.atom(x) < program.atom(y); });
    return plan;
}

Analysis evaluate(const GroundProgram& program, const Plan& plan, const AbsintOptions& options) {
    require(plan.describes(program), kForeignPlan);
    return Evaluator(plan, options).run();
}

Analysis evaluate(const GroundProgram& program, const AbsintOptions& options) {
    return evaluate(program, compile(program), options);
}

std::vector<Atom> certified_model(const GroundProgram& program, const Plan& plan,
                                  const Analysis& analysis) {
    require(plan.describes(program), kForeignPlan);
    std::vector<Atom> atoms;
    for (int a : plan.shown) {
        if (analysis.must(a)) atoms.push_back(program.atom(a));
    }
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
