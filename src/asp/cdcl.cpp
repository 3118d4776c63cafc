#include "asp/cdcl.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/fault_injection.hpp"

namespace cprisk::asp {

namespace {

/// Literal encoding: variable v true -> 2v, false -> 2v+1.
int pos_lit(int var) { return 2 * var; }
int neg_lit(int var) { return 2 * var + 1; }
int lit_var(int lit) { return lit / 2; }
bool lit_sign(int lit) { return (lit & 1) == 0; }  // true literal?
int negate(int lit) { return lit ^ 1; }

constexpr std::size_t kRestartBase = 64;  ///< conflicts per Luby unit

/// Canonical order for the final model list: by projected atoms, then cost,
/// so downstream consumers that take `models.front()` behave identically
/// regardless of search order.
void sort_models_canonically(std::vector<AnswerSet>& models) {
    std::sort(models.begin(), models.end(), [](const AnswerSet& a, const AnswerSet& b) {
        if (a.atoms < b.atoms) return true;
        if (b.atoms < a.atoms) return false;
        return a.cost < b.cost;
    });
}

}  // namespace

CdclSolver::CdclSolver(const GroundProgram& program) : program_(program) { build(); }

// --- construction -----------------------------------------------------------

void CdclSolver::build() {
    n_atoms_ = static_cast<int>(program_.atom_count());
    const int n_rules = static_cast<int>(program_.rules().size());
    n_vars_ = n_atoms_ + n_rules;
    assign_.assign(static_cast<std::size_t>(n_vars_), 0);
    unit_taint_.assign(static_cast<std::size_t>(n_vars_), 0);
    watches_.assign(static_cast<std::size_t>(2 * n_vars_), {});
    reason_.assign(static_cast<std::size_t>(n_vars_), -1);
    level_.assign(static_cast<std::size_t>(n_vars_), 0);
    phase_.assign(static_cast<std::size_t>(n_vars_), 0);
    activity_.assign(static_cast<std::size_t>(n_vars_), 0.0);
    base_activity_.assign(static_cast<std::size_t>(n_vars_), 0.0);
    heap_pos_.assign(static_cast<std::size_t>(n_vars_), -1);
    seen_.assign(static_cast<std::size_t>(n_vars_), 0);

    std::vector<std::vector<int>> supports(static_cast<std::size_t>(n_atoms_));

    // Normalizes (sort, dedup, tautology check) and installs one base clause.
    auto add_base = [&](std::vector<int> lits) {
        std::sort(lits.begin(), lits.end());
        lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
        for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
            if (lits[i + 1] == negate(lits[i])) return;  // tautology
        }
        for (int lit : lits) {
            base_activity_[static_cast<std::size_t>(lit_var(lit))] += 1.0;
        }
        if (lits.empty()) {
            root_conflict_ = true;
            return;
        }
        if (lits.size() == 1) {
            if (value_false(lits[0])) {
                root_conflict_ = true;
            } else if (lit_unassigned(lits[0])) {
                enqueue(lits[0], -1);
            }
            return;
        }
        add_clause(std::move(lits), /*learnt=*/false, /*transient=*/false);
    };

    for (int r = 0; r < n_rules; ++r) {
        const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
        const int body_var = n_atoms_ + r;

        // body_var <-> conjunction of body literals
        std::vector<int> all_false = {pos_lit(body_var)};
        for (int p : rule.positive_body) {
            add_base({neg_lit(body_var), pos_lit(p)});
            all_false.push_back(neg_lit(p));
        }
        for (int n : rule.negative_body) {
            add_base({neg_lit(body_var), neg_lit(n)});
            all_false.push_back(pos_lit(n));
        }
        add_base(std::move(all_false));

        switch (rule.kind) {
            case GroundRule::Kind::Normal:
                add_base({neg_lit(body_var), pos_lit(rule.head)});
                supports[static_cast<std::size_t>(rule.head)].push_back(body_var);
                break;
            case GroundRule::Kind::Constraint:
                if (rule.aggregates.empty()) {
                    add_base({neg_lit(body_var)});
                } else {
                    aggregate_constraints_.push_back(r);
                }
                break;
            case GroundRule::Kind::Choice:
                for (int h : rule.choice_heads) {
                    supports[static_cast<std::size_t>(h)].push_back(body_var);
                }
                if (rule.lower_bound || rule.upper_bound) {
                    bounded_choices_.push_back(r);
                }
                break;
        }
    }

    // Completion/support clauses: atom -> disjunction of its bodies.
    for (int a = 0; a < n_atoms_; ++a) {
        std::vector<int> clause = {neg_lit(a)};
        for (int body_var : supports[static_cast<std::size_t>(a)]) {
            clause.push_back(pos_lit(body_var));
        }
        add_base(std::move(clause));
    }

    for (const GroundWeak& w : program_.weaks()) {
        if (w.weight < 0) negative_weights_ = true;
    }
    has_weaks_ = !program_.weaks().empty();

    // Top-level propagation. qhead_ is still 0, so every unit enqueued above
    // is replayed against the full watch lists built since.
    if (!root_conflict_ && propagate() >= 0) root_conflict_ = true;
}

int CdclSolver::add_clause(std::vector<int> lits, bool learnt, bool transient) {
    const int id = static_cast<int>(clauses_.size());
    Clause clause;
    clause.lits = std::move(lits);
    clause.learnt = learnt;
    clause.transient = transient;
    clause.birth = generation_;
    clauses_.push_back(std::move(clause));
    attach_clause(id);
    return id;
}

void CdclSolver::attach_clause(int id) {
    Clause& c = clauses_[static_cast<std::size_t>(id)];
    watches_[static_cast<std::size_t>(c.lits[0])].push_back({id, c.lits[1]});
    watches_[static_cast<std::size_t>(c.lits[1])].push_back({id, c.lits[0]});
    c.attached = true;
}

// --- assignment / propagation -----------------------------------------------

bool CdclSolver::value_true(int lit) const {
    const int v = assign_[static_cast<std::size_t>(lit_var(lit))];
    return v != 0 && (v > 0) == lit_sign(lit);
}

bool CdclSolver::value_false(int lit) const {
    const int v = assign_[static_cast<std::size_t>(lit_var(lit))];
    return v != 0 && (v > 0) != lit_sign(lit);
}

bool CdclSolver::lit_unassigned(int lit) const {
    return assign_[static_cast<std::size_t>(lit_var(lit))] == 0;
}

void CdclSolver::enqueue(int lit, int reason) {
    const int var = lit_var(lit);
    assign_[static_cast<std::size_t>(var)] = lit_sign(lit) ? 1 : -1;
    reason_[static_cast<std::size_t>(var)] = reason;
    level_[static_cast<std::size_t>(var)] = current_level();
    unit_taint_[static_cast<std::size_t>(var)] = 0;
    if (current_level() == 0 && reason >= 0) {
        const Clause& c = clauses_[static_cast<std::size_t>(reason)];
        bool tainted = c.transient;
        for (std::size_t i = 0; !tainted && i < c.lits.size(); ++i) {
            const int v = lit_var(c.lits[i]);
            tainted = v != var && unit_taint_[static_cast<std::size_t>(v)] != 0;
        }
        unit_taint_[static_cast<std::size_t>(var)] = tainted ? 1 : 0;
    }
    trail_.push_back(lit);
    ++stats_.propagations;
    if (reason >= 0) {
        const Clause& c = clauses_[static_cast<std::size_t>(reason)];
        if (c.learnt && c.birth < generation_) ++stats_.reused_clause_propagations;
    }
}

int CdclSolver::propagate() {
    while (qhead_ < trail_.size()) {
        const int lit = trail_[qhead_++];
        const int flit = negate(lit);  // literal that just became false
        auto& ws = watches_[static_cast<std::size_t>(flit)];
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < ws.size()) {
            const Watcher w = ws[i];
            if (value_true(w.blocker)) {
                ws[j++] = ws[i++];
                continue;
            }
            Clause& c = clauses_[static_cast<std::size_t>(w.clause)];
            if (c.deleted) {  // stale watcher left by DB reduction
                ++i;
                continue;
            }
            if (c.lits[0] == flit) std::swap(c.lits[0], c.lits[1]);
            const Watcher keep{w.clause, c.lits[0]};
            if (value_true(c.lits[0])) {
                ws[j++] = keep;
                ++i;
                continue;
            }
            bool moved = false;
            for (std::size_t k = 2; k < c.lits.size(); ++k) {
                if (!value_false(c.lits[k])) {
                    std::swap(c.lits[1], c.lits[k]);
                    watches_[static_cast<std::size_t>(c.lits[1])].push_back(
                        {w.clause, c.lits[0]});
                    moved = true;
                    break;
                }
            }
            if (moved) {
                ++i;
                continue;
            }
            ws[j++] = keep;
            ++i;
            if (value_false(c.lits[0])) {  // conflict
                while (i < ws.size()) ws[j++] = ws[i++];
                ws.resize(j);
                qhead_ = trail_.size();
                return w.clause;
            }
            enqueue(c.lits[0], w.clause);
        }
        ws.resize(j);
    }
    return -1;
}

void CdclSolver::cancel_until(int target) {
    if (current_level() <= target) return;
    const std::size_t mark = trail_lim_[static_cast<std::size_t>(target)];
    for (std::size_t i = trail_.size(); i > mark; --i) {
        const int lit = trail_[i - 1];
        const int var = lit_var(lit);
        phase_[static_cast<std::size_t>(var)] =
            assign_[static_cast<std::size_t>(var)] > 0 ? 1 : 0;
        assign_[static_cast<std::size_t>(var)] = 0;
        reason_[static_cast<std::size_t>(var)] = -1;
        if (heap_pos_[static_cast<std::size_t>(var)] < 0) heap_insert(var);
    }
    trail_.resize(mark);
    trail_lim_.resize(static_cast<std::size_t>(target));
    qhead_ = trail_.size();
}

bool CdclSolver::propagate_bounds(bool& progressed) {
    // Bounded choice rules propagate through *explained* forcings: each forced
    // literal gets an entailed clause that is unit under the current
    // assignment, so conflict analysis can resolve across bound reasoning.
    // Returns false and leaves the falsified explanation installed via
    // pending_bound_conflict_ when the bound itself is violated.
    for (int r : bounded_choices_) {
        const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
        const int body_var = n_atoms_ + r;
        const int8_t body_value = assign_[static_cast<std::size_t>(body_var)];
        if (body_value < 0) continue;  // body false: bounds do not apply

        long long chosen = 0;
        long long open = 0;
        for (int h : rule.choice_heads) {
            const int8_t v = assign_[static_cast<std::size_t>(h)];
            if (v > 0) {
                ++chosen;
            } else if (v == 0) {
                ++open;
            }
        }
        const bool upper_violated = rule.upper_bound && chosen > *rule.upper_bound;
        const bool lower_unreachable =
            rule.lower_bound && chosen + open < *rule.lower_bound;
        if (upper_violated || lower_unreachable) {
            // Entailed: body and this witness set cannot hold together.
            std::vector<int> explain = {neg_lit(body_var)};
            if (upper_violated) {
                long long take = *rule.upper_bound + 1;
                for (int h : rule.choice_heads) {
                    if (take == 0) break;
                    if (assign_[static_cast<std::size_t>(h)] > 0) {
                        explain.push_back(neg_lit(h));
                        --take;
                    }
                }
            } else {
                for (int h : rule.choice_heads) {
                    if (assign_[static_cast<std::size_t>(h)] < 0) {
                        explain.push_back(pos_lit(h));
                    }
                }
            }
            if (!force_with_explanation(neg_lit(body_var), std::move(explain))) {
                return false;
            }
            progressed = true;
            continue;
        }
        if (body_value == 0) continue;  // body undecided: nothing to force

        if (rule.upper_bound && chosen == *rule.upper_bound && open > 0) {
            for (int h : rule.choice_heads) {
                if (assign_[static_cast<std::size_t>(h)] != 0) continue;
                std::vector<int> explain = {neg_lit(body_var), neg_lit(h)};
                for (int g : rule.choice_heads) {
                    if (assign_[static_cast<std::size_t>(g)] > 0) {
                        explain.push_back(neg_lit(g));
                    }
                }
                if (!force_with_explanation(neg_lit(h), std::move(explain))) {
                    return false;
                }
                progressed = true;
            }
        } else if (rule.lower_bound && chosen + open == *rule.lower_bound && open > 0) {
            for (int h : rule.choice_heads) {
                if (assign_[static_cast<std::size_t>(h)] != 0) continue;
                std::vector<int> explain = {neg_lit(body_var), pos_lit(h)};
                for (int g : rule.choice_heads) {
                    if (assign_[static_cast<std::size_t>(g)] < 0) {
                        explain.push_back(pos_lit(g));
                    }
                }
                if (!force_with_explanation(pos_lit(h), std::move(explain))) {
                    return false;
                }
                progressed = true;
            }
        }
    }
    return true;
}

bool CdclSolver::force_with_explanation(int lit, std::vector<int> explain) {
    // `explain` is an entailed clause containing `lit`, with every other
    // literal currently false. Install (deduped) and either enqueue the unit
    // or report the conflict through pending_bound_conflict_.
    std::sort(explain.begin(), explain.end());
    explain.erase(std::unique(explain.begin(), explain.end()), explain.end());
    if (explain.size() == 1) {
        // Statically violated bound: the body is entailed false outright. An
        // unattached marker clause serves as the reason so conflict analysis
        // never mistakes the forcing for a decision.
        if (value_false(lit)) {
            pending_bound_conflict_ = add_unit_conflict_marker({lit});
            return false;
        }
        if (lit_unassigned(lit)) enqueue(lit, add_unit_conflict_marker({lit}));
        return true;
    }
    int id = -1;
    const auto it = derived_cut_cache_.find(explain);
    if (it != derived_cut_cache_.end()) {
        id = it->second;
    } else {
        // Order: lit first, then remaining by descending level so the watch
        // pair stays valid after backtracking.
        std::vector<int> ordered;
        ordered.reserve(explain.size());
        ordered.push_back(lit);
        for (int l : explain) {
            if (l != lit) ordered.push_back(l);
        }
        std::sort(ordered.begin() + 1, ordered.end(), [&](int a, int b) {
            const int la = level_[static_cast<std::size_t>(lit_var(a))];
            const int lb = level_[static_cast<std::size_t>(lit_var(b))];
            if (la != lb) return la > lb;
            return a < b;
        });
        id = add_clause(std::move(ordered), /*learnt=*/false, /*transient=*/false);
        derived_cut_cache_.emplace(std::move(explain), id);
    }
    if (value_false(lit)) {
        pending_bound_conflict_ = id;
        return false;
    }
    if (lit_unassigned(lit)) enqueue(lit, id);
    return true;
}

int CdclSolver::add_unit_conflict_marker(std::vector<int> lits) {
    // An unattached clause used as a propagation reason or conflict seed.
    // Transient by default (dropped at solve end); callers that want a
    // persistent unit override the flag and register in permanent_units_.
    const int id = static_cast<int>(clauses_.size());
    Clause clause;
    clause.lits = std::move(lits);
    clause.birth = generation_;
    clause.transient = true;
    clauses_.push_back(std::move(clause));
    return id;
}

int CdclSolver::propagate_all() {
    while (true) {
        const int conflict = propagate();
        if (conflict >= 0) return conflict;
        if (options_ == nullptr || !options_->propagate_bounds) return -1;
        bool progressed = false;
        pending_bound_conflict_ = -1;
        if (!propagate_bounds(progressed)) return pending_bound_conflict_;
        if (!progressed) return -1;
    }
}

// --- conflict analysis ------------------------------------------------------

int CdclSolver::analyze(int conflict, std::vector<int>& learnt_out, bool& transient_out) {
    learnt_out.clear();
    learnt_out.push_back(0);  // slot for the asserting literal
    transient_out = false;
    int pathc = 0;
    int p = -1;
    std::size_t index = trail_.size();
    int confl = conflict;
    std::vector<int> to_clear;
    do {
        Clause& c = clauses_[static_cast<std::size_t>(confl)];
        transient_out = transient_out || c.transient;
        if (c.learnt) bump_clause(confl);
        for (int q : c.lits) {
            const int v = lit_var(q);
            if (p >= 0 && v == lit_var(p)) continue;
            if (seen_[static_cast<std::size_t>(v)] != 0) continue;
            if (level_[static_cast<std::size_t>(v)] == 0) {
                // Dropping a literal pinned only for this enumeration makes
                // the learned clause context-dependent.
                transient_out = transient_out || unit_taint_[static_cast<std::size_t>(v)] != 0;
                continue;
            }
            seen_[static_cast<std::size_t>(v)] = 1;
            to_clear.push_back(v);
            bump_var(v);
            if (level_[static_cast<std::size_t>(v)] >= current_level()) {
                ++pathc;
            } else {
                learnt_out.push_back(q);
            }
        }
        while (seen_[static_cast<std::size_t>(lit_var(trail_[index - 1]))] == 0) --index;
        --index;
        p = trail_[index];
        confl = reason_[static_cast<std::size_t>(lit_var(p))];
        seen_[static_cast<std::size_t>(lit_var(p))] = 0;
        --pathc;
    } while (pathc > 0);
    learnt_out[0] = negate(p);

    int bt = root_level_;
    if (learnt_out.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learnt_out.size(); ++i) {
            if (level_[static_cast<std::size_t>(lit_var(learnt_out[i]))] >
                level_[static_cast<std::size_t>(lit_var(learnt_out[max_i]))]) {
                max_i = i;
            }
        }
        std::swap(learnt_out[1], learnt_out[max_i]);
        bt = std::max(root_level_,
                      level_[static_cast<std::size_t>(lit_var(learnt_out[1]))]);
    }
    for (int v : to_clear) seen_[static_cast<std::size_t>(v)] = 0;
    return bt;
}

void CdclSolver::analyze_final(int conflict_clause, int seed_var) {
    core_.clear();
    core_valid_ = true;  // callers only invoke in UNSAT-under-assumptions contexts
    std::vector<int> to_clear;
    auto mark = [&](int v) {
        if (level_[static_cast<std::size_t>(v)] == 0) {
            // A conflict resting on an enumeration-transient pin says nothing
            // about the assumptions alone.
            if (unit_taint_[static_cast<std::size_t>(v)] != 0) core_valid_ = false;
            return;
        }
        if (seen_[static_cast<std::size_t>(v)] == 0) {
            seen_[static_cast<std::size_t>(v)] = 1;
            to_clear.push_back(v);
        }
    };
    if (conflict_clause >= 0) {
        for (int q : clauses_[static_cast<std::size_t>(conflict_clause)].lits) mark(lit_var(q));
    }
    if (seed_var >= 0) mark(seed_var);
    if (!trail_lim_.empty()) {
        for (std::size_t i = trail_.size(); i > trail_lim_[0]; --i) {
            const int v = lit_var(trail_[i - 1]);
            if (seen_[static_cast<std::size_t>(v)] == 0) continue;
            const int r = reason_[static_cast<std::size_t>(v)];
            if (r < 0) {
                // A decision at level <= root is an assumption.
                core_.push_back(
                    assump_by_level_[static_cast<std::size_t>(level_[static_cast<std::size_t>(v)]) - 1]);
            } else {
                for (int q : clauses_[static_cast<std::size_t>(r)].lits) {
                    if (lit_var(q) != v) mark(lit_var(q));
                }
            }
            seen_[static_cast<std::size_t>(v)] = 0;
        }
    }
    for (int v : to_clear) seen_[static_cast<std::size_t>(v)] = 0;
    std::sort(core_.begin(), core_.end());
    core_.erase(std::unique(core_.begin(), core_.end()), core_.end());
}

void CdclSolver::bump_var(int var) {
    activity_[static_cast<std::size_t>(var)] += var_inc_;
    if (activity_[static_cast<std::size_t>(var)] > 1e100) {
        for (double& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    heap_update(var);
}

void CdclSolver::bump_clause(int clause) {
    Clause& c = clauses_[static_cast<std::size_t>(clause)];
    c.activity += clause_inc_;
    if (c.activity > 1e20) {
        for (Clause& other : clauses_) {
            if (other.learnt) other.activity *= 1e-20;
        }
        clause_inc_ *= 1e-20;
    }
}

void CdclSolver::decay_var_activity() { var_inc_ *= (1.0 / 0.95); }

int CdclSolver::compute_lbd(const std::vector<int>& lits) {
    std::vector<int> levels;
    levels.reserve(lits.size());
    for (int l : lits) {
        const int lv = level_[static_cast<std::size_t>(lit_var(l))];
        if (lv > 0) levels.push_back(lv);
    }
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    return static_cast<int>(levels.size());
}

// --- decision heuristic -----------------------------------------------------

bool CdclSolver::heap_less(int a, int b) const {
    if (activity_[static_cast<std::size_t>(a)] != activity_[static_cast<std::size_t>(b)]) {
        return activity_[static_cast<std::size_t>(a)] < activity_[static_cast<std::size_t>(b)];
    }
    return a > b;  // deterministic tie-break: smaller variable index ranks higher
}

void CdclSolver::heap_insert(int var) {
    if (heap_pos_[static_cast<std::size_t>(var)] >= 0) return;
    heap_pos_[static_cast<std::size_t>(var)] = static_cast<int>(heap_.size());
    heap_.push_back(var);
    heap_sift_up(heap_.size() - 1);
}

void CdclSolver::heap_update(int var) {
    const int pos = heap_pos_[static_cast<std::size_t>(var)];
    if (pos >= 0) heap_sift_up(static_cast<std::size_t>(pos));  // activity only grows
}

int CdclSolver::heap_pop() {
    const int top = heap_[0];
    heap_pos_[static_cast<std::size_t>(top)] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[static_cast<std::size_t>(last)] = 0;
        heap_sift_down(0);
    }
    return top;
}

void CdclSolver::heap_sift_up(std::size_t i) {
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heap_less(heap_[parent], heap_[i])) break;
        std::swap(heap_[parent], heap_[i]);
        heap_pos_[static_cast<std::size_t>(heap_[parent])] = static_cast<int>(parent);
        heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
        i = parent;
    }
}

void CdclSolver::heap_sift_down(std::size_t i) {
    while (true) {
        const std::size_t left = 2 * i + 1;
        const std::size_t right = 2 * i + 2;
        std::size_t best = i;
        if (left < heap_.size() && heap_less(heap_[best], heap_[left])) best = left;
        if (right < heap_.size() && heap_less(heap_[best], heap_[right])) best = right;
        if (best == i) break;
        std::swap(heap_[best], heap_[i]);
        heap_pos_[static_cast<std::size_t>(heap_[best])] = static_cast<int>(best);
        heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
        i = best;
    }
}

int CdclSolver::pick_branch_var() {
    while (!heap_.empty()) {
        const int v = heap_pop();
        if (assign_[static_cast<std::size_t>(v)] == 0) return v;
    }
    return -1;
}

// --- answer-set leaf checks -------------------------------------------------

namespace {

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

/// Lexicographic (descending priority) comparison: true if a < b.
bool cost_less(const std::map<long long, long long>& a,
               const std::map<long long, long long>& b) {
    auto ia = a.rbegin();
    auto ib = b.rbegin();
    while (ia != a.rend() || ib != b.rend()) {
        const long long pa = ia != a.rend() ? ia->first : std::numeric_limits<long long>::min();
        const long long pb = ib != b.rend() ? ib->first : std::numeric_limits<long long>::min();
        long long va = 0;
        long long vb = 0;
        if (pa > pb) {
            va = ia->second;
            ++ia;
        } else if (pb > pa) {
            vb = ib->second;
            ++ib;
        } else {
            va = ia->second;
            vb = ib->second;
            ++ia;
            ++ib;
        }
        if (va != vb) return va < vb;
    }
    return false;
}

}  // namespace

bool CdclSolver::body_satisfied_in_model(const GroundRule& rule) const {
    for (int p : rule.positive_body) {
        if (assign_[static_cast<std::size_t>(p)] <= 0) return false;
    }
    for (int n : rule.negative_body) {
        if (assign_[static_cast<std::size_t>(n)] > 0) return false;
    }
    return true;
}

bool CdclSolver::aggregate_holds(const GroundAggregate& aggregate) const {
    long long value = 0;
    std::set<std::string> counted;
    for (const GroundAggregateElement& element : aggregate.elements) {
        bool holds = true;
        for (int id : element.condition) {
            if (assign_[static_cast<std::size_t>(id)] <= 0) {
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

bool CdclSolver::aggregates_ok() const {
    for (int r : aggregate_constraints_) {
        const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
        if (!body_satisfied_in_model(rule)) continue;
        bool all_hold = true;
        for (const GroundAggregate& aggregate : rule.aggregates) {
            if (!aggregate_holds(aggregate)) {
                all_hold = false;
                break;
            }
        }
        if (all_hold) return false;
    }
    return true;
}

bool CdclSolver::bounds_ok() const {
    for (int r : bounded_choices_) {
        const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
        if (!body_satisfied_in_model(rule)) continue;
        long long chosen = 0;
        for (int h : rule.choice_heads) {
            if (assign_[static_cast<std::size_t>(h)] > 0) ++chosen;
        }
        if (rule.lower_bound && chosen < *rule.lower_bound) return false;
        if (rule.upper_bound && chosen > *rule.upper_bound) return false;
    }
    return true;
}

std::vector<int> CdclSolver::bounds_violation_cut() const {
    for (int r : bounded_choices_) {
        const GroundRule& rule = program_.rules()[static_cast<std::size_t>(r)];
        if (!body_satisfied_in_model(rule)) continue;
        const int body_var = n_atoms_ + r;
        long long chosen = 0;
        for (int h : rule.choice_heads) {
            if (assign_[static_cast<std::size_t>(h)] > 0) ++chosen;
        }
        if (rule.upper_bound && chosen > *rule.upper_bound) {
            std::vector<int> lits = {neg_lit(body_var)};
            long long take = *rule.upper_bound + 1;
            for (int h : rule.choice_heads) {
                if (take == 0) break;
                if (assign_[static_cast<std::size_t>(h)] > 0) {
                    lits.push_back(neg_lit(h));
                    --take;
                }
            }
            return lits;
        }
        if (rule.lower_bound && chosen < *rule.lower_bound) {
            std::vector<int> lits = {neg_lit(body_var)};
            for (int h : rule.choice_heads) {
                if (assign_[static_cast<std::size_t>(h)] <= 0) lits.push_back(pos_lit(h));
            }
            return lits;
        }
    }
    return {};
}

bool CdclSolver::stable(std::vector<int>& unfounded_out) const {
    if (fault::should_fail("asp.solver.stability")) {
        throw Error("solver: injected fault in stability check (site asp.solver.stability)");
    }
    std::vector<char> derived(static_cast<std::size_t>(n_atoms_), false);
    bool progressed = true;
    while (progressed) {
        progressed = false;
        if (options_ != nullptr && options_->budget != nullptr) {
            options_->budget->charge_steps(program_.rules().size());
        }
        for (const GroundRule& rule : program_.rules()) {
            if (rule.kind == GroundRule::Kind::Constraint) continue;
            bool neg_ok = true;
            for (int n : rule.negative_body) {
                if (assign_[static_cast<std::size_t>(n)] > 0) {
                    neg_ok = false;
                    break;
                }
            }
            if (!neg_ok) continue;
            bool pos_ok = true;
            for (int p : rule.positive_body) {
                if (!derived[static_cast<std::size_t>(p)]) {
                    pos_ok = false;
                    break;
                }
            }
            if (!pos_ok) continue;
            if (rule.kind == GroundRule::Kind::Normal) {
                if (!derived[static_cast<std::size_t>(rule.head)]) {
                    derived[static_cast<std::size_t>(rule.head)] = true;
                    progressed = true;
                }
            } else {  // Choice: chosen atoms are self-supported.
                for (int h : rule.choice_heads) {
                    if (assign_[static_cast<std::size_t>(h)] > 0 &&
                        !derived[static_cast<std::size_t>(h)]) {
                        derived[static_cast<std::size_t>(h)] = true;
                        progressed = true;
                    }
                }
            }
        }
    }
    unfounded_out.clear();
    for (int a = 0; a < n_atoms_; ++a) {
        if (assign_[static_cast<std::size_t>(a)] > 0 && !derived[static_cast<std::size_t>(a)]) {
            unfounded_out.push_back(a);
        }
    }
    return unfounded_out.empty();
}

std::vector<int> CdclSolver::unfounded_cut(const std::vector<int>& unfounded) const {
    std::set<int> u(unfounded.begin(), unfounded.end());
    std::vector<int> clause;
    clause.reserve(unfounded.size() + 4);
    for (int a : unfounded) clause.push_back(neg_lit(a));
    for (std::size_t r = 0; r < program_.rules().size(); ++r) {
        const GroundRule& rule = program_.rules()[r];
        bool head_in_u = false;
        if (rule.kind == GroundRule::Kind::Normal) {
            head_in_u = u.count(rule.head) > 0;
        } else if (rule.kind == GroundRule::Kind::Choice) {
            for (int h : rule.choice_heads) {
                if (u.count(h) > 0) {
                    head_in_u = true;
                    break;
                }
            }
        }
        if (!head_in_u) continue;
        bool external = true;
        for (int p : rule.positive_body) {
            if (u.count(p) > 0) {
                external = false;
                break;
            }
        }
        if (external) clause.push_back(pos_lit(n_atoms_ + static_cast<int>(r)));
    }
    return clause;
}

// --- costs ------------------------------------------------------------------

std::map<long long, long long> CdclSolver::model_cost() const {
    return weak_cost(program_.weaks(), [&](const GroundWeak& w) {
        for (int p : w.positive_body) {
            if (assign_[static_cast<std::size_t>(p)] <= 0) return false;
        }
        for (int n : w.negative_body) {
            if (assign_[static_cast<std::size_t>(n)] > 0) return false;
        }
        return true;
    });
}

std::map<long long, long long> CdclSolver::partial_cost_lower_bound() const {
    return weak_cost(program_.weaks(), [&](const GroundWeak& w) {
        for (int p : w.positive_body) {
            if (assign_[static_cast<std::size_t>(p)] <= 0) return false;
        }
        for (int n : w.negative_body) {
            if (assign_[static_cast<std::size_t>(n)] >= 0) return false;
        }
        return true;
    });
}

bool CdclSolver::should_prune_by_cost() const {
    if (!has_weaks_ || !options_->optimize || negative_weights_) return false;
    if (!have_best_) return false;
    const auto bound = partial_cost_lower_bound();
    // Prune only if the lower bound already exceeds the best cost: a strict
    // rule, so every model tied with the optimum is still enumerated.
    return cost_less(best_cost_, bound);
}

std::vector<int> CdclSolver::cost_cut_clause() const {
    // "Not all current cost contributors can hold together": a transient cut
    // falsified by the assignment that triggered the prune.
    std::vector<int> lits;
    for (const GroundWeak& w : program_.weaks()) {
        bool definitely = true;
        for (int p : w.positive_body) {
            if (assign_[static_cast<std::size_t>(p)] <= 0) {
                definitely = false;
                break;
            }
        }
        for (int n : w.negative_body) {
            if (assign_[static_cast<std::size_t>(n)] >= 0) {
                definitely = false;
                break;
            }
        }
        if (!definitely) continue;
        for (int p : w.positive_body) lits.push_back(neg_lit(p));
        for (int n : w.negative_body) lits.push_back(pos_lit(n));
    }
    return lits;
}

// --- search driver ----------------------------------------------------------

void CdclSolver::record_model() {
    ++stats_.models_enumerated;
    AnswerSet model;
    model.cost = model_cost();
    for (int a = 0; a < n_atoms_; ++a) {
        if (assign_[static_cast<std::size_t>(a)] > 0 && program_.is_shown(a)) {
            model.atoms.push_back(program_.atom(a));
        }
    }
    std::sort(model.atoms.begin(), model.atoms.end());
    if (has_weaks_ && options_->optimize) {
        if (!have_best_ || cost_less(model.cost, best_cost_)) {
            best_cost_ = model.cost;
            have_best_ = true;
        }
    }
    found_.push_back(std::move(model));
}

bool CdclSolver::model_limit_reached() const {
    if (has_weaks_ && options_->optimize) return false;
    return options_->max_models != 0 && found_.size() >= options_->max_models;
}

std::vector<int> CdclSolver::blocking_clause(int floor_level) const {
    // Negation of the current total atom assignment, minus literals pinned at
    // or below `floor_level` (level 0, plus the assumption levels for
    // transient use — those stay false for the rest of the solve).
    std::vector<int> lits;
    for (int a = 0; a < n_atoms_; ++a) {
        const int lit = assign_[static_cast<std::size_t>(a)] > 0 ? neg_lit(a) : pos_lit(a);
        if (level_[static_cast<std::size_t>(a)] <= floor_level) continue;
        lits.push_back(lit);
    }
    return lits;
}

bool CdclSolver::resolve_cut(std::vector<int> lits, bool transient) {
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    // Permanent cuts must stay base-entailed, so they may only shed literals
    // falsified by untainted top-level propagation; transient cuts may also
    // shed assumption-level and tainted literals.
    const int floor_level = transient ? root_level_ : 0;
    std::vector<int> filtered;
    filtered.reserve(lits.size());
    for (int l : lits) {
        const int v = lit_var(l);
        if (value_false(l) && level_[static_cast<std::size_t>(v)] <= floor_level &&
            (transient || unit_taint_[static_cast<std::size_t>(v)] == 0)) {
            continue;
        }
        filtered.push_back(l);
    }
    if (filtered.empty()) {
        if (!transient && found_.empty()) root_conflict_ = true;
        return false;  // nothing left to flip: enumeration under this context is done
    }
    std::sort(filtered.begin(), filtered.end(), [&](int a, int b) {
        const int la = level_[static_cast<std::size_t>(lit_var(a))];
        const int lb = level_[static_cast<std::size_t>(lit_var(b))];
        if (la != lb) return la > lb;
        return a < b;
    });
    const int max_level = level_[static_cast<std::size_t>(lit_var(filtered[0]))];
    if (max_level <= root_level_) {
        if (found_.empty() && !assump_by_level_.empty()) {
            const int marker = add_unit_conflict_marker(filtered);
            clauses_[static_cast<std::size_t>(marker)].transient = true;
            analyze_final(marker, -1);
        }
        return false;
    }
    cancel_until(max_level);
    if (filtered.size() == 1) {
        cancel_until(root_level_);
        const int id = add_unit_conflict_marker(filtered);
        clauses_[static_cast<std::size_t>(id)].transient = transient;
        if (!transient) permanent_units_.push_back(id);
        enqueue(filtered[0], id);
        return true;
    }
    int id = -1;
    if (!transient) {
        const auto it = derived_cut_cache_.find(lits);
        if (it != derived_cut_cache_.end()) {
            id = it->second;
        } else {
            id = add_clause(filtered, /*learnt=*/false, /*transient=*/false);
            derived_cut_cache_.emplace(std::move(lits), id);
        }
    } else {
        id = add_clause(std::move(filtered), /*learnt=*/false, /*transient=*/true);
    }
    return handle_conflict(id);
}

bool CdclSolver::handle_conflict(int conflict) {
    ++stats_.conflicts;
    ++conflicts_since_restart_;
    // Normalize: conflict analysis needs at least one literal of the
    // conflicting clause at the current decision level.
    int max_lv = 0;
    for (int q : clauses_[static_cast<std::size_t>(conflict)].lits) {
        max_lv = std::max(max_lv, level_[static_cast<std::size_t>(lit_var(q))]);
    }
    if (max_lv < current_level()) cancel_until(std::max(max_lv, root_level_));
    if (current_level() <= root_level_) {
        if (found_.empty() && !assump_by_level_.empty()) analyze_final(conflict, -1);
        return false;
    }
    if (!learning_disabled_ && fault::should_fail("asp.cdcl.learn")) {
        // Degraded mode: keep searching without 1UIP learning (chronological
        // backtracking through transient decision-negation clauses).
        learning_disabled_ = true;
    }
    if (learning_disabled_) {
        std::vector<int> lits;
        for (int lv = current_level(); lv > root_level_; --lv) {
            lits.push_back(negate(trail_[trail_lim_[static_cast<std::size_t>(lv) - 1]]));
        }
        cancel_until(current_level() - 1);
        if (lits.size() == 1) {
            const int id = add_unit_conflict_marker(std::move(lits));
            Clause& c = clauses_[static_cast<std::size_t>(id)];
            c.transient = true;
            enqueue(c.lits[0], id);
        } else {
            const int id = add_clause(std::move(lits), /*learnt=*/false, /*transient=*/true);
            enqueue(clauses_[static_cast<std::size_t>(id)].lits[0], id);
        }
        return true;
    }
    std::vector<int> learnt;
    bool transient = false;
    const int bt = analyze(conflict, learnt, transient);
    decay_var_activity();
    clause_inc_ *= (1.0 / 0.999);
    ++stats_.learned_clauses;
    stats_.learned_literals += learnt.size();
    cancel_until(bt);
    if (learnt.size() == 1) {
        const int lit = learnt[0];
        const int id = add_unit_conflict_marker(std::move(learnt));
        Clause& c = clauses_[static_cast<std::size_t>(id)];
        c.learnt = true;
        c.transient = transient;
        if (!transient) permanent_units_.push_back(id);
        enqueue(lit, id);
    } else {
        const int id = add_clause(std::move(learnt), /*learnt=*/true, transient);
        Clause& c = clauses_[static_cast<std::size_t>(id)];
        c.lbd = compute_lbd(c.lits);
        c.activity = clause_inc_;
        ++cur_learnt_;
        enqueue(c.lits[0], id);
    }
    return true;
}

std::size_t CdclSolver::luby(std::size_t i) {
    // Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    std::size_t x = i - 1;
    std::size_t size = 1;
    std::size_t seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x = x % size;
    }
    return static_cast<std::size_t>(1) << seq;
}

void CdclSolver::restart() {
    ++stats_.restarts;
    cancel_until(root_level_);
    conflicts_since_restart_ = 0;
    ++restart_seq_;
    conflicts_until_restart_ = kRestartBase * luby(restart_seq_);
}

void CdclSolver::reduce_db() {
    ++stats_.db_reductions;
    std::vector<int> cands;
    for (int id = 0; id < static_cast<int>(clauses_.size()); ++id) {
        const Clause& c = clauses_[static_cast<std::size_t>(id)];
        if (!c.learnt || c.deleted || !c.attached || c.lbd <= 2) continue;
        // Locked: currently the reason of an assigned variable.
        const int v = lit_var(c.lits[0]);
        if (reason_[static_cast<std::size_t>(v)] == id && value_true(c.lits[0])) continue;
        cands.push_back(id);
    }
    std::sort(cands.begin(), cands.end(), [&](int a, int b) {
        const Clause& ca = clauses_[static_cast<std::size_t>(a)];
        const Clause& cb = clauses_[static_cast<std::size_t>(b)];
        if (ca.lbd != cb.lbd) return ca.lbd > cb.lbd;           // glue: worst first
        if (ca.activity != cb.activity) return ca.activity < cb.activity;
        return a < b;
    });
    const std::size_t drop = cands.size() / 2;
    for (std::size_t i = 0; i < drop; ++i) {
        Clause& c = clauses_[static_cast<std::size_t>(cands[i])];
        c.deleted = true;
        c.attached = false;
        --cur_learnt_;
    }
    // Rebuild watch lists (propagate also skips deleted lazily, but stale
    // watchers would accumulate across a long solve).
    for (auto& ws : watches_) ws.clear();
    for (int id = 0; id < static_cast<int>(clauses_.size()); ++id) {
        Clause& c = clauses_[static_cast<std::size_t>(id)];
        if (c.deleted || !c.attached) continue;
        c.attached = false;  // attach_clause sets it back
        attach_clause(id);
    }
    learnt_limit_ += learnt_limit_ / 2;
}

void CdclSolver::finalize_solve() {
    cancel_until(0);
    for (int v = 0; v < n_vars_; ++v) reason_[static_cast<std::size_t>(v)] = -1;
    // Retract top-level assignments that were forced only for this
    // enumeration (reached through a transient clause); entailed units stay.
    std::vector<int> kept_trail;
    kept_trail.reserve(trail_.size());
    for (int lit : trail_) {
        const std::size_t v = static_cast<std::size_t>(lit_var(lit));
        if (unit_taint_[v] != 0) {
            assign_[v] = 0;
            unit_taint_[v] = 0;
        } else {
            kept_trail.push_back(lit);
        }
    }
    trail_ = std::move(kept_trail);
    // Compact: drop transient and tombstoned clauses, remap ids.
    std::vector<int> remap(clauses_.size(), -1);
    std::vector<Clause> kept;
    kept.reserve(clauses_.size());
    for (std::size_t id = 0; id < clauses_.size(); ++id) {
        Clause& c = clauses_[id];
        if (c.deleted || c.transient) continue;
        remap[id] = static_cast<int>(kept.size());
        kept.push_back(std::move(c));
    }
    clauses_ = std::move(kept);
    std::vector<int> units;
    units.reserve(permanent_units_.size());
    for (int id : permanent_units_) {
        if (remap[static_cast<std::size_t>(id)] >= 0) {
            units.push_back(remap[static_cast<std::size_t>(id)]);
        }
    }
    permanent_units_ = std::move(units);
    for (auto& [key, id] : derived_cut_cache_) id = remap[static_cast<std::size_t>(id)];
    for (auto& ws : watches_) ws.clear();
    retained_learned_ = 0;
    for (int id = 0; id < static_cast<int>(clauses_.size()); ++id) {
        Clause& c = clauses_[static_cast<std::size_t>(id)];
        if (c.learnt) ++retained_learned_;
        if (!c.attached) continue;
        c.attached = false;
        attach_clause(id);
    }
    // Replay the kept top-level trail against the rebuilt watch lists:
    // retracting mid-trail assignments broke the two-watched-literal
    // invariant, and clauses satisfied only by a retracted literal may now be
    // unit. Everything here is entailed, so a conflict means the program
    // itself is unsatisfiable.
    qhead_ = 0;
    if (propagate() >= 0) root_conflict_ = true;
    ++generation_;
}

bool CdclSolver::push_assumptions() {
    for (const auto& [atom, value] : options_->assumptions) {
        if (atom < 0 || atom >= n_atoms_) {
            // Out-of-range pin: trivially unsatisfiable, never fatal.
            core_ = {{atom, value}};
            core_valid_ = true;
            return false;
        }
        const int lit = value ? pos_lit(atom) : neg_lit(atom);
        if (value_true(lit)) continue;  // already entailed; never part of a core
        if (value_false(lit)) {
            analyze_final(-1, atom);
            core_.push_back({atom, value});
            std::sort(core_.begin(), core_.end());
            core_.erase(std::unique(core_.begin(), core_.end()), core_.end());
            return false;
        }
        new_decision_level();
        assump_by_level_.push_back({atom, value});
        enqueue(lit, -1);
        const int conflict = propagate_all();
        if (conflict >= 0) {
            ++stats_.conflicts;
            analyze_final(conflict, -1);
            return false;
        }
    }
    root_level_ = current_level();
    return true;
}

void CdclSolver::search_loop() {
    while (true) {
        const int conflict = propagate_all();
        if (conflict >= 0) {
            if (!handle_conflict(conflict)) return;
            continue;
        }
        if (should_prune_by_cost()) {
            if (!resolve_cut(cost_cut_clause(), /*transient=*/true)) return;
            continue;
        }
        if (cur_learnt_ >= learnt_limit_) reduce_db();
        if (conflicts_since_restart_ >= conflicts_until_restart_ &&
            current_level() > root_level_) {
            restart();
            continue;
        }
        const int var = pick_branch_var();
        if (var < 0) {  // total assignment
            if (!bounds_ok()) {
                if (!resolve_cut(bounds_violation_cut(), /*transient=*/false)) return;
                continue;
            }
            if (!aggregates_ok()) {
                // Entailed: this total atom assignment is not an answer set of
                // the base program under any assumptions. Floor -1 keeps even
                // top-level literals; resolve_cut sheds the untainted ones.
                if (!resolve_cut(blocking_clause(/*floor_level=*/-1),
                                 /*transient=*/false)) {
                    return;
                }
                continue;
            }
            std::vector<int> unfounded;
            if (!stable(unfounded)) {
                ++stats_.stability_rejects;
                if (!resolve_cut(unfounded_cut(unfounded), /*transient=*/false)) return;
                continue;
            }
            record_model();
            if (model_limit_reached()) return;
            if (!resolve_cut(blocking_clause(root_level_), /*transient=*/true)) return;
            continue;
        }
        ++stats_.decisions;
        if (options_->max_decisions != 0 && stats_.decisions > options_->max_decisions) {
            interrupt_reason_ = BudgetReason::DecisionLimit;
            return;
        }
        if (options_->budget != nullptr) {
            if (auto exceeded = options_->budget->charge_decisions()) {
                interrupt_reason_ = exceeded->reason;
                return;
            }
        }
        new_decision_level();
        enqueue(phase_[static_cast<std::size_t>(var)] != 0 ? pos_lit(var) : neg_lit(var),
                -1);
    }
}

SolveResult CdclSolver::solve(const SolveOptions& options) {
    options_ = &options;
    found_.clear();
    best_cost_.clear();
    have_best_ = false;
    stats_ = SolveStats{};
    interrupt_reason_.reset();
    core_.clear();
    core_valid_ = false;
    assump_by_level_.clear();
    root_level_ = 0;
    learning_disabled_ = false;
    restart_seq_ = 1;
    conflicts_since_restart_ = 0;
    conflicts_until_restart_ = kRestartBase * luby(restart_seq_);
    learnt_limit_ = std::max<std::size_t>(2000, clauses_.size() / 3);
    cur_learnt_ = 0;  // retained reducible clauses count against the limit
    for (const Clause& c : clauses_) {
        if (c.learnt && c.attached && !c.deleted) ++cur_learnt_;
    }
    activity_ = base_activity_;
    var_inc_ = 1.0;
    clause_inc_ = 1.0;
    std::fill(phase_.begin(), phase_.end(), 0);
    heap_.clear();
    std::fill(heap_pos_.begin(), heap_pos_.end(), -1);
    for (int v = 0; v < n_vars_; ++v) heap_insert(v);

    auto unsat_result = [&]() {
        SolveResult result;
        result.satisfiable = false;
        result.stats = stats_;
        if (!options.assumptions.empty()) {
            result.assumption_core = std::vector<std::pair<int, bool>>{};
        }
        options_ = nullptr;
        return result;
    };
    if (root_conflict_) return unsat_result();

    // Re-assert entailed unit clauses learned by earlier solves.
    for (int id : permanent_units_) {
        const int lit = clauses_[static_cast<std::size_t>(id)].lits[0];
        if (value_false(lit)) {  // cannot happen for entailed units; defensive
            root_conflict_ = true;
            break;
        }
        if (lit_unassigned(lit)) enqueue(lit, id);
    }
    if (!root_conflict_ && propagate() >= 0) root_conflict_ = true;
    if (root_conflict_) {
        finalize_solve();
        return unsat_result();
    }

    try {
        if (push_assumptions()) search_loop();
    } catch (...) {
        finalize_solve();
        options_ = nullptr;
        throw;  // injected stability fault; the solve() wrapper reports it
    }

    SolveResult result;
    result.satisfiable = !found_.empty();
    result.best_cost = best_cost_;
    result.stats = stats_;
    if (interrupt_reason_) result.interrupt = SolveInterrupt{*interrupt_reason_, stats_};
    if (!result.satisfiable && !interrupt_reason_ && core_valid_) {
        result.assumption_core = core_;
    }
    // Optimality filter + projection dedup + canonical order.
    std::set<std::string> seen;
    for (auto& model : found_) {
        if (has_weaks_ && options.optimize && model.cost != best_cost_) continue;
        std::string key;
        for (const Atom& a : model.atoms) key += a.to_string() + "|";
        if (!seen.insert(key).second) continue;
        result.models.push_back(std::move(model));
    }
    sort_models_canonically(result.models);
    finalize_solve();
    options_ = nullptr;
    return result;
}

}  // namespace cprisk::asp
