#include "mitigation/optimizer.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "asp/asp.hpp"
#include "common/strings.hpp"

namespace cprisk::mitigation {

namespace {

Selection finalize(const MitigationProblem& problem, std::vector<std::string> chosen) {
    std::sort(chosen.begin(), chosen.end());
    Selection selection;
    selection.chosen = std::move(chosen);
    for (const Candidate& candidate : problem.candidates) {
        if (std::find(selection.chosen.begin(), selection.chosen.end(), candidate.id) !=
            selection.chosen.end()) {
            selection.mitigation_cost += candidate.cost;
        }
    }
    for (const Threat& threat : problem.threats) {
        if (!MitigationProblem::blocks(threat, selection.chosen)) {
            selection.residual_loss += threat.loss;
            selection.unblocked.push_back(threat.scenario_id);
        }
    }
    return selection;
}

}  // namespace

Selection optimize_exact(const MitigationProblem& problem, const OptimizerOptions& options) {
    obs::Span span(options.trace_sink(), "mitigation.optimize", "mitigation");
    const std::size_t n = problem.candidates.size();
    std::vector<std::string> chosen;
    std::vector<std::string> best_chosen;
    long long best_total = std::numeric_limits<long long>::max();
    long long chosen_cost = 0;
    // Nodes are tallied locally and flushed once — the registry lookup is
    // far too expensive for the search's inner recursion.
    long long nodes = 0;

    // Unavoidable loss lower bound: threats no selection of the remaining
    // candidates (plus current choices) could block.
    std::function<long long(std::size_t)> unavoidable = [&](std::size_t next) {
        long long loss = 0;
        for (const Threat& threat : problem.threats) {
            bool might_block = true;
            for (const auto& covers : threat.mutation_covers) {
                bool coverable = false;
                for (const std::string& m : covers) {
                    // Already chosen, or still selectable?
                    if (std::find(chosen.begin(), chosen.end(), m) != chosen.end()) {
                        coverable = true;
                        break;
                    }
                    for (std::size_t j = next; j < n; ++j) {
                        if (problem.candidates[j].id == m) {
                            coverable = true;
                            break;
                        }
                    }
                    if (coverable) break;
                }
                if (!coverable) {
                    might_block = false;
                    break;
                }
            }
            if (!might_block) loss += threat.loss;
        }
        return loss;
    };

    std::function<void(std::size_t)> dfs = [&](std::size_t index) {
        ++nodes;
        if (chosen_cost + unavoidable(index) >= best_total) return;  // bound
        if (index == n) {
            const long long total = problem.total_cost(chosen);
            if (total < best_total) {
                best_total = total;
                best_chosen = chosen;
            }
            return;
        }
        const Candidate& candidate = problem.candidates[index];
        // Include (if within budget).
        if (!options.budget || chosen_cost + candidate.cost <= *options.budget) {
            chosen.push_back(candidate.id);
            chosen_cost += candidate.cost;
            dfs(index + 1);
            chosen_cost -= candidate.cost;
            chosen.pop_back();
        }
        // Exclude.
        dfs(index + 1);
    };
    dfs(0);
    Selection selection = finalize(problem, best_chosen);
    span.arg("nodes", nodes);
    obs::add_counter(options.metrics_sink(), "mitigation.optimize.calls");
    obs::add_counter(options.metrics_sink(), "mitigation.optimize.nodes",
                     static_cast<std::uint64_t>(nodes));
    obs::set_gauge(options.metrics_sink(), "mitigation.chosen",
                   static_cast<long long>(selection.chosen.size()));
    obs::set_gauge(options.metrics_sink(), "mitigation.cost", selection.mitigation_cost);
    obs::set_gauge(options.metrics_sink(), "mitigation.residual", selection.residual_loss);
    return selection;
}

std::string encode_asp(const MitigationProblem& problem) {
    std::string program;
    for (const Candidate& candidate : problem.candidates) {
        const std::string id = to_identifier(candidate.id);
        program += "cand(" + id + "). cost(" + id + ", " + std::to_string(candidate.cost) +
                   ").\n";
    }
    program += "{ active(M) : cand(M) }.\n";
    for (const Threat& threat : problem.threats) {
        const std::string sid = to_identifier(threat.scenario_id);
        program += "scen(" + sid + "). loss(" + sid + ", " + std::to_string(threat.loss) +
                   ").\n";
        for (std::size_t i = 0; i < threat.mutation_covers.size(); ++i) {
            program += "mut(" + sid + ", " + std::to_string(i) + ").\n";
            for (const std::string& mitigation : threat.mutation_covers[i]) {
                program += "covers(" + to_identifier(mitigation) + ", " + sid + ", " +
                           std::to_string(i) + ").\n";
            }
        }
    }
    program +=
        "blocked_mut(S, I) :- covers(M, S, I), active(M).\n"
        "unblocked(S) :- mut(S, I), not blocked_mut(S, I).\n"
        ":~ active(M), cost(M, C). [C@1, M]\n"
        ":~ unblocked(S), loss(S, L). [L@1, S]\n"
        "#show active/1.\n";
    return program;
}

Result<Selection> optimize_asp(const MitigationProblem& problem,
                               const OptimizerOptions& options) {
    // Map normalized ids back to original ids.
    std::map<std::string, std::string> id_map;
    for (const Candidate& candidate : problem.candidates) {
        id_map.emplace(to_identifier(candidate.id), candidate.id);
    }

    std::string program = encode_asp(problem);
    if (options.budget) {
        // Native budget constraint via a #sum body aggregate.
        program += ":- #sum { C, M : active(M), cost(M, C) } > " +
                   std::to_string(*options.budget) + ".\n";
    }
    auto solved = asp::solve_text(program);
    if (!solved.ok()) return Result<Selection>::failure(solved.error());
    if (!solved.value().satisfiable || solved.value().models.empty()) {
        return Result<Selection>::failure("mitigation optimization: no answer set");
    }
    const asp::AnswerSet& model = solved.value().models.front();
    std::vector<std::string> chosen;
    for (const asp::Atom& atom : model.with_predicate("active")) {
        if (atom.args.size() == 1 && atom.args[0].is_symbol()) {
            auto it = id_map.find(atom.args[0].name());
            if (it != id_map.end()) chosen.push_back(it->second);
        }
    }
    return finalize(problem, std::move(chosen));
}

ParetoFront::ParetoFront(std::vector<ParetoPoint> points) {
    // Canonical order first: (cost asc, residual asc, coverage desc, chosen
    // lex) — ties on the objective tuple then dedup toward the first, i.e.
    // lexicographically smallest, chosen set.
    std::sort(points.begin(), points.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
        if (a.cost() != b.cost()) return a.cost() < b.cost();
        if (a.residual() != b.residual()) return a.residual() < b.residual();
        if (a.coverage != b.coverage) return a.coverage > b.coverage;
        return a.selection.chosen < b.selection.chosen;
    });
    points.erase(std::unique(points.begin(), points.end(),
                             [](const ParetoPoint& a, const ParetoPoint& b) {
                                 return a.cost() == b.cost() && a.residual() == b.residual() &&
                                        a.coverage == b.coverage;
                             }),
                 points.end());
    const auto dominates = [](const ParetoPoint& a, const ParetoPoint& b) {
        return a.cost() <= b.cost() && a.residual() <= b.residual() &&
               a.coverage >= b.coverage &&
               (a.cost() < b.cost() || a.residual() < b.residual() || a.coverage > b.coverage);
    };
    for (const ParetoPoint& point : points) {
        const bool dominated = std::any_of(
            points.begin(), points.end(),
            [&](const ParetoPoint& other) { return dominates(other, point); });
        if (!dominated) points_.push_back(point);
    }
}

const ParetoPoint& ParetoFront::knee() const {
    const ParetoPoint* best = &points_.front();
    for (const ParetoPoint& point : points_) {
        const long long point_total = point.selection.total_cost();
        const long long best_total = best->selection.total_cost();
        if (point_total != best_total) {
            if (point_total < best_total) best = &point;
        } else if (point.coverage != best->coverage) {
            if (point.coverage > best->coverage) best = &point;
        } else if (point.selection.chosen < best->selection.chosen) {
            best = &point;
        }
    }
    return *best;
}

std::string encode_pareto_asp(const MitigationProblem& problem) {
    // The shared base encoding with the objectives split across priority
    // levels (lexicographic, higher level first): minimize residual loss,
    // then mitigation cost, then the number of unblocked threats (i.e.
    // maximize coverage among cost/residual ties).
    std::string program = encode_asp(problem);
    const std::string base_objectives =
        ":~ active(M), cost(M, C). [C@1, M]\n"
        ":~ unblocked(S), loss(S, L). [L@1, S]\n";
    const auto at = program.find(base_objectives);
    program.replace(at, base_objectives.size(),
                    ":~ unblocked(S), loss(S, L). [L@3, S]\n"
                    ":~ active(M), cost(M, C). [C@2, M]\n"
                    ":~ unblocked(S). [1@1, S]\n");
    return program;
}

Result<ParetoFront> pareto_front(const MitigationProblem& problem,
                                 const OptimizerOptions& options) {
    obs::Span span(options.trace_sink(), "mitigation.pareto", "mitigation");
    std::map<std::string, std::string> id_map;
    for (const Candidate& candidate : problem.candidates) {
        id_map.emplace(to_identifier(candidate.id), candidate.id);
    }

    std::vector<ParetoPoint> points;
    const std::size_t threat_count = problem.threats.size();
    long long solves = 0;
    // Outer sweep over coverage floors recovers front points that trade
    // *more* cost for *more* coverage at equal residual — the staircase
    // alone (min residual, then cost) cannot see those.
    for (std::size_t floor = 0; floor <= threat_count; ++floor) {
        std::optional<long long> bound = options.budget;
        while (true) {
            std::string program = encode_pareto_asp(problem);
            if (floor > 0) {
                program += ":- #sum { 1, S : unblocked(S) } > " +
                           std::to_string(threat_count - floor) + ".\n";
            }
            if (bound) {
                program += ":- #sum { C, M : active(M), cost(M, C) } > " +
                           std::to_string(*bound) + ".\n";
            }
            auto solved = asp::solve_text(program);
            if (!solved.ok()) return Result<ParetoFront>::failure(solved.error());
            ++solves;
            if (!solved.value().satisfiable || solved.value().models.empty()) break;
            const asp::AnswerSet& model = solved.value().models.front();
            std::vector<std::string> chosen;
            for (const asp::Atom& atom : model.with_predicate("active")) {
                if (atom.args.size() == 1 && atom.args[0].is_symbol()) {
                    auto it = id_map.find(atom.args[0].name());
                    if (it != id_map.end()) chosen.push_back(it->second);
                }
            }
            ParetoPoint point;
            point.selection = finalize(problem, std::move(chosen));
            point.coverage = threat_count - point.selection.unblocked.size();
            const long long cost = point.selection.mitigation_cost;
            points.push_back(std::move(point));
            if (cost == 0) break;  // cheapest end of this floor's staircase
            bound = cost - 1;      // iterated bound cut
        }
    }
    ParetoFront front(std::move(points));
    span.arg("solves", solves);
    span.arg("points", static_cast<long long>(front.size()));
    obs::add_counter(options.metrics_sink(), "mitigation.pareto.calls");
    obs::add_counter(options.metrics_sink(), "mitigation.pareto.solves",
                     static_cast<std::uint64_t>(solves));
    obs::set_gauge(options.metrics_sink(), "mitigation.pareto.points",
                   static_cast<long long>(front.size()));
    return front;
}

ParetoFront pareto_front_exact(const MitigationProblem& problem,
                               const OptimizerOptions& options) {
    const std::size_t n = problem.candidates.size();
    std::vector<ParetoPoint> points;
    std::vector<std::string> chosen;
    long long chosen_cost = 0;
    std::function<void(std::size_t)> dfs = [&](std::size_t index) {
        if (index == n) {
            ParetoPoint point;
            point.selection = finalize(problem, chosen);
            point.coverage = problem.threats.size() - point.selection.unblocked.size();
            points.push_back(std::move(point));
            return;
        }
        const Candidate& candidate = problem.candidates[index];
        if (!options.budget || chosen_cost + candidate.cost <= *options.budget) {
            chosen.push_back(candidate.id);
            chosen_cost += candidate.cost;
            dfs(index + 1);
            chosen_cost -= candidate.cost;
            chosen.pop_back();
        }
        dfs(index + 1);
    };
    dfs(0);
    return ParetoFront(std::move(points));
}

AttackFloorResult harden_attack_cost(const MitigationProblem& problem, long long budget) {
    const std::size_t n = problem.candidates.size();
    std::vector<std::string> chosen;
    long long chosen_cost = 0;

    // Objective of a full selection: (floor, residual, cost) with floor
    // maximized first (LLONG_MAX when no attacker threat survives).
    struct Score {
        long long floor = std::numeric_limits<long long>::min();
        long long residual = std::numeric_limits<long long>::max();
        long long cost = std::numeric_limits<long long>::max();

        bool better_than(const Score& other) const {
            if (floor != other.floor) return floor > other.floor;
            if (residual != other.residual) return residual < other.residual;
            return cost < other.cost;
        }
    };

    auto evaluate = [&](const std::vector<std::string>& selection,
                        long long selection_cost) {
        Score score;
        score.floor = std::numeric_limits<long long>::max();
        score.residual = 0;
        score.cost = selection_cost;
        for (const Threat& threat : problem.threats) {
            if (MitigationProblem::blocks(threat, selection)) continue;
            score.residual += threat.loss;
            if (threat.attack_cost > 0) {
                score.floor = std::min(score.floor, threat.attack_cost);
            }
        }
        return score;
    };

    Score best;
    std::vector<std::string> best_chosen;
    bool have_best = false;

    std::function<void(std::size_t)> dfs = [&](std::size_t index) {
        if (index == n) {
            const Score score = evaluate(chosen, chosen_cost);
            if (!have_best || score.better_than(best)) {
                best = score;
                best_chosen = chosen;
                have_best = true;
            }
            return;
        }
        const Candidate& candidate = problem.candidates[index];
        if (chosen_cost + candidate.cost <= budget) {
            chosen.push_back(candidate.id);
            chosen_cost += candidate.cost;
            dfs(index + 1);
            chosen_cost -= candidate.cost;
            chosen.pop_back();
        }
        dfs(index + 1);
    };
    dfs(0);

    AttackFloorResult result;
    result.selection = finalize(problem, best_chosen);
    if (best.floor != std::numeric_limits<long long>::max()) {
        result.cheapest_remaining_attack = best.floor;
    }
    return result;
}

std::vector<Phase> plan_phases(const MitigationProblem& problem, long long budget_per_phase,
                               std::size_t max_phases) {
    std::vector<Phase> phases;
    MitigationProblem residual = problem;

    for (std::size_t phase_number = 1; phase_number <= max_phases; ++phase_number) {
        OptimizerOptions options;
        options.budget = budget_per_phase;
        Selection selection = optimize_exact(residual, options);
        if (selection.chosen.empty()) break;

        Phase phase;
        phase.number = static_cast<int>(phase_number);
        phase.selection = selection;
        phases.push_back(phase);

        // Commit: drop blocked threats and consumed candidates.
        std::vector<Threat> remaining;
        for (const Threat& threat : residual.threats) {
            if (!MitigationProblem::blocks(threat, selection.chosen)) {
                remaining.push_back(threat);
            }
        }
        // Mitigations committed in this phase stay active for free later:
        // drop mutations they already suppress from the residual threats.
        for (Threat& threat : remaining) {
            std::vector<std::vector<std::string>> open_covers;
            for (const auto& covers : threat.mutation_covers) {
                const bool already_covered = std::any_of(
                    covers.begin(), covers.end(), [&](const std::string& m) {
                        return std::find(selection.chosen.begin(), selection.chosen.end(), m) !=
                               selection.chosen.end();
                    });
                if (!already_covered) open_covers.push_back(covers);
            }
            threat.mutation_covers = std::move(open_covers);
        }
        residual.threats = std::move(remaining);
        std::vector<Candidate> leftover;
        for (const Candidate& candidate : residual.candidates) {
            if (std::find(selection.chosen.begin(), selection.chosen.end(), candidate.id) ==
                selection.chosen.end()) {
                leftover.push_back(candidate);
            }
        }
        residual.candidates = std::move(leftover);
        if (residual.threats.empty()) break;
    }
    return phases;
}

}  // namespace cprisk::mitigation
