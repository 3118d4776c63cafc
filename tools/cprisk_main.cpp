// cprisk — command-line front end for the preliminary risk assessment
// framework.
//
//   cprisk check  <bundle>                 parse + validate a model bundle
//   cprisk lint   <bundle-or-.lp>          run the static-analysis rule packs
//   cprisk graph  <bundle-or-.lp>          predicate dependency graph + taint summary
//   cprisk assess <bundle> [options]       run the full 7-step pipeline
//   cprisk mitigate <bundle> [options]     step-7 mitigation planning only
//   cprisk serve  --socket PATH [options]  multi-tenant assessment daemon
//   cprisk matrix                          print the O-RA and IEC 61508 matrices
//
// Lint options:
//   --json               machine-readable diagnostics
//   --werror             exit non-zero on warnings too
//
// Graph options:
//   --dot                Graphviz output
//   --json               machine-readable output
//
// Exit codes: 0 clean, 1 findings / invalid input, 2 usage or I/O error,
// 3 partial result (some scenarios undetermined under the resource budget).
//
// Assess options:
//   --horizon N          temporal unrolling depth           (default 6)
//   --max-faults K       simultaneous-fault bound           (default 2)
//   --attack-scenarios   include actor-driven attack scenarios
//   --no-cegar           run the behavioural analysis directly
//   --no-static-prefilter  disable the ternary verdict prefilter
//   --budget N           mitigation budget constraint
//   --phase-budget N     enable multi-phase planning
//   --markdown FILE      write the analyst report as Markdown
//   --csv FILE           write the risk table as CSV
//   --json FILE          write the full report as JSON
//   --deadline-ms N      wall-clock budget for hazard identification
//   --max-decisions N    per-solve decision budget
//   --jobs N             worker threads for the scenario sweep (0 = auto);
//                        reports and journals are identical for every N
//   --journal FILE       append one JSONL verdict per scenario
//   --journal-sync       fsync the journal after every record (requires --journal)
//   --resume             replay the journal, skipping finished scenarios
//   --retry N            retry transient solver errors up to N times with
//                        jittered exponential backoff (default 0 = off)
//   --trace FILE         write a Chrome trace-event JSON of the run
//   --metrics FILE       write the pipeline metrics registry as JSON
//   --exhaustive         sweep the fault-subset lattice for the antichain of
//                        minimal hazardous scenarios (docs/exhaustive-search.md);
//                        superset pruning when the monotonicity certificate holds
//   --max-card K         cardinality bound for --exhaustive (0 = full lattice)
//   --attack-reachable-only  drop faults on components the attack taint pass
//                        proves unreachable (--exhaustive only)
//   --priority POLICY    sweep order: expected-risk (default; descending
//                        Bayesian expected-risk score, so a deadline
//                        interruption covers the highest-risk scenarios
//                        first) or enumeration (generation order)
//   --prior-seed N       seed for the posterior coverage bound in the
//                        Completeness section (render-only, default 1)
//
// Mitigate options (docs/quantitative-risk.md): --horizon, --max-faults,
// --attack-scenarios, --budget, --phase-budget, --jobs as for assess, plus
//   --pareto             compute the full (cost, residual risk, coverage)
//                        Pareto front instead of just the cost-optimal plan
//   --markdown FILE      write the analyst report as Markdown
//   --csv FILE           write the Pareto front as CSV (requires --pareto)
//   --json FILE          write the full report as JSON
//
// Serve options (docs/serve.md):
//   --socket PATH        Unix-domain socket to listen on (required)
//   --executors N        assessment worker threads            (default 2)
//   --max-inflight N     admission high-water mark            (default 8)
//   --request-jobs N     worker lanes per request             (default 1)
//   --hot-models N       resident model cap, 0 = unbounded    (default 4)
//   --cache-mb N         approximate memory cap in MiB        (default 64)
//   --drain-ms N         graceful-drain deadline              (default 5000)
//   --retry N            per-request transient-error retries  (default 0)
//   --chaos              enable the fault-injection op (testing only)
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dependency_graph.hpp"
#include "analysis/taint.hpp"
#include "asp/parser.hpp"
#include "common/diagnostics.hpp"
#include "common/schema.hpp"
#include "core/assessment.hpp"
#include "core/loader.hpp"
#include "core/report.hpp"
#include "lint/asp_lint.hpp"
#include "lint/model_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "risk/iec61508.hpp"
#include "risk/ora.hpp"
#include "risk/prior.hpp"
#include "serve/server.hpp"
#include "flag_parser.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: cprisk check <bundle>\n"
                 "       cprisk lint <bundle-or-.lp> [--json] [--werror]\n"
                 "       cprisk graph <bundle-or-.lp> [--dot|--json]\n"
                 "       cprisk assess <bundle> [--horizon N] [--max-faults K]\n"
                 "                     [--attack-scenarios] [--no-cegar] [--budget N]\n"
                 "                     [--phase-budget N] [--markdown FILE] [--csv FILE]\n"
                 "                     [--json FILE] [--deadline-ms N] [--max-decisions N]\n"
                 "                     [--jobs N] [--journal FILE] [--journal-sync] [--resume]\n"
                 "                     [--no-static-prefilter] [--retry N]\n"
                 "                     [--exhaustive] [--max-card K] [--attack-reachable-only]\n"
                 "                     [--priority expected-risk|enumeration] [--prior-seed N]\n"
                 "                     [--trace FILE] [--metrics FILE]\n"
                 "       cprisk mitigate <bundle> [--pareto] [--horizon N] [--max-faults K]\n"
                 "                     [--attack-scenarios] [--budget N] [--phase-budget N]\n"
                 "                     [--jobs N] [--markdown FILE] [--csv FILE] [--json FILE]\n"
                 "       cprisk serve --socket PATH [--executors N] [--max-inflight N]\n"
                 "                     [--request-jobs N] [--hot-models N] [--cache-mb N]\n"
                 "                     [--drain-ms N] [--retry N] [--chaos]\n"
                 "       cprisk matrix\n");
    return 2;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream file(path);
    if (!file) return false;
    std::ostringstream content;
    content << file.rdbuf();
    out = content.str();
    return true;
}

bool ends_with(const std::string& text, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return text.size() >= n && text.compare(text.size() - n, n, suffix) == 0;
}

/// Unreadable input is an I/O problem (exit 2), not a lint failure (exit 1):
/// scripted callers can tell "findings" from "wrong path" apart.
int report_unreadable(const std::string& path) {
    cprisk::Diagnostic diagnostic;
    diagnostic.severity = cprisk::Severity::Error;
    diagnostic.rule = "cli-unreadable-input";
    diagnostic.message = "cannot open '" + path + "'";
    diagnostic.hint = "check that the path exists and is readable";
    std::fprintf(stderr, "%s", cprisk::render_text({diagnostic}).c_str());
    return 2;
}

int cmd_check(const std::string& path) {
    std::string text;
    if (!read_file(path, text)) {
        std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
        return 1;
    }
    cprisk::DiagnosticSink sink;
    sink.set_file(path);
    auto bundle = cprisk::core::load_bundle_lenient(text, sink);
    if (!sink.empty()) {
        sink.sort_by_location();
        std::fprintf(stderr, "%s", cprisk::render_text(sink.diagnostics()).c_str());
    }
    if (sink.has_errors()) return 1;
    std::printf("OK: %zu components, %zu relations, %zu behavioural + %zu topology "
                "requirements\n",
                bundle.model.component_count(), bundle.model.relation_count(),
                bundle.behavioral_requirements.size(), bundle.topology_requirements.size());
    return 0;
}

int cmd_lint(int argc, char** argv) {
    if (argc < 1) return usage();
    std::string path;
    bool json = false;
    bool werror = false;
    cprisk::cli::FlagParser parser("lint", argc, argv, {"--json", "--werror"});
    while (parser.next()) {
        if (parser.is("--json")) {
            json = true;
        } else if (parser.is("--werror")) {
            werror = true;
        } else if (parser.looks_like_flag()) {
            parser.reject();
        } else if (path.empty()) {
            path = parser.flag();
        } else {
            std::fprintf(stderr, "lint takes exactly one input file\n");
            parser.fail();
        }
    }
    if (parser.failed()) return usage();
    if (path.empty()) return usage();

    std::string text;
    if (!read_file(path, text)) return report_unreadable(path);

    cprisk::DiagnosticSink sink;
    sink.set_file(path);
    if (ends_with(path, ".lp")) {
        auto program = cprisk::asp::parse_program(text, sink);
        if (program.has_value()) {
            cprisk::lint::lint_program(*program, cprisk::lint::AspLintOptions{}, sink, path);
        }
    } else {
        cprisk::core::BundleSourceMap source_map;
        auto bundle = cprisk::core::load_bundle_lenient(text, sink, &source_map);
        const auto matrix = cprisk::security::AttackMatrix::standard_ics();
        cprisk::lint::lint_bundle(bundle, source_map, matrix, sink);
    }
    sink.sort_by_location();

    if (json) {
        std::printf("%s", cprisk::render_json(sink.diagnostics()).c_str());
    } else if (!sink.empty()) {
        std::printf("%s", cprisk::render_text(sink.diagnostics()).c_str());
    }
    if (sink.has_errors()) return 1;
    if (werror && sink.has_warnings()) return 1;
    return 0;
}

// --- cprisk graph ----------------------------------------------------------

void collect_requirement_atoms(const cprisk::asp::ltl::Formula& formula,
                               std::vector<cprisk::asp::Atom>& out) {
    using Op = cprisk::asp::ltl::Formula::Op;
    switch (formula.op()) {
        case Op::Atom: out.push_back(formula.atom_value()); return;
        case Op::True:
        case Op::False: return;
        case Op::Not:
        case Op::Next:
        case Op::WeakNext:
        case Op::Always:
        case Op::Eventually: collect_requirement_atoms(formula.left(), out); return;
        case Op::And:
        case Op::Or:
        case Op::Implies:
        case Op::Until:
        case Op::Release:
            collect_requirement_atoms(formula.left(), out);
            collect_requirement_atoms(formula.right(), out);
            return;
    }
}

/// Everything `cprisk graph` renders: the predicate dependency graph of the
/// program(s), plus (for bundles) the attack-reachability taint summary.
struct GraphReport {
    cprisk::analysis::DependencyGraph graph;
    bool has_taint = false;
    cprisk::analysis::TaintResult taint;
    std::vector<std::string> requirements_off_attack_path;
};

std::string signature_list(const std::vector<cprisk::asp::Signature>& signatures) {
    std::string list;
    for (const auto& sig : signatures) {
        if (!list.empty()) list += ", ";
        list += sig.to_string();
    }
    return list;
}

void print_graph_text(const GraphReport& report) {
    const auto& graph = report.graph;
    std::printf("dependency graph: %zu predicates, %zu dependencies, %zu components, %d strata\n",
                graph.node_count(), graph.edges().size(), graph.component_count(),
                graph.stratum_count());
    const std::set<std::size_t> unstratified(graph.unstratified_components().begin(),
                                             graph.unstratified_components().end());
    const std::set<std::size_t> loops(graph.positive_loop_components().begin(),
                                      graph.positive_loop_components().end());
    for (std::size_t c = 0; c < graph.component_count(); ++c) {
        const auto members = graph.component_signatures(c);
        std::printf("  [%zu] stratum %d: %s%s%s\n", c,
                    graph.stratum_of(graph.components()[c].front()),
                    signature_list(members).c_str(),
                    unstratified.count(c) > 0 ? "  (recursion through negation)" : "",
                    unstratified.count(c) == 0 && loops.count(c) > 0 ? "  (positive recursion)"
                                                                     : "");
    }
    if (!report.has_taint) return;
    const auto& taint = report.taint;
    std::printf("attack taint: %zu entry point(s)\n", taint.entry_points.size());
    for (const auto& entry : taint.entry_points) {
        std::printf("  entry %s (depth %d): %zu applicable technique(s), e.g. %s%s%s\n",
                    entry.component.c_str(), entry.depth, entry.technique_count,
                    entry.technique_id.c_str(),
                    entry.activated_fault.empty() ? "" : ", activates fault ",
                    entry.activated_fault.c_str());
    }
    for (const auto& [component, depth] : taint.compromise_depth) {
        std::printf("  reached %s at depth %d\n", component.c_str(), depth);
    }
    for (const auto& component : taint.unreached) {
        std::printf("  unreached: %s\n", component.c_str());
    }
    for (const auto& id : report.requirements_off_attack_path) {
        std::printf("  requirement off every attack path: %s\n", id.c_str());
    }
}

void print_graph_dot(const GraphReport& report) {
    const auto& graph = report.graph;
    std::printf("digraph dependencies {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
        std::printf("  \"%s\" [label=\"%s\\nstratum %d\"];\n",
                    graph.node(n).to_string().c_str(), graph.node(n).to_string().c_str(),
                    graph.stratum_of(n));
    }
    for (const auto& edge : graph.edges()) {
        std::string attrs;
        if (edge.negative) attrs += "color=red, label=\"not\"";
        if (edge.temporal) attrs += std::string(attrs.empty() ? "" : ", ") + "style=dotted";
        std::printf("  \"%s\" -> \"%s\"%s%s%s;\n", graph.node(edge.from).to_string().c_str(),
                    graph.node(edge.to).to_string().c_str(), attrs.empty() ? "" : " [",
                    attrs.c_str(), attrs.empty() ? "" : "]");
    }
    std::printf("}\n");
}

void print_graph_json(const GraphReport& report) {
    const auto& graph = report.graph;
    std::string out =
        "{\n  \"schema_version\": " + std::to_string(cprisk::kSchemaVersion) + ",\n  \"nodes\": [";
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
        out += n == 0 ? "\n" : ",\n";
        out += "    {\"signature\": \"" + graph.node(n).to_string() + "\", \"component\": " +
               std::to_string(graph.component_of(n)) + ", \"stratum\": " +
               std::to_string(graph.stratum_of(n)) + "}";
    }
    out += graph.node_count() > 0 ? "\n  ],\n" : "],\n";
    out += "  \"edges\": [";
    for (std::size_t e = 0; e < graph.edges().size(); ++e) {
        const auto& edge = graph.edges()[e];
        out += e == 0 ? "\n" : ",\n";
        out += "    {\"from\": \"" + graph.node(edge.from).to_string() + "\", \"to\": \"" +
               graph.node(edge.to).to_string() + "\", \"negative\": " +
               (edge.negative ? "true" : "false") + ", \"temporal\": " +
               (edge.temporal ? "true" : "false") + "}";
    }
    out += graph.edges().empty() ? "],\n" : "\n  ],\n";
    out += "  \"stratified\": " + std::string(graph.is_stratified() ? "true" : "false");
    if (report.has_taint) {
        const auto& taint = report.taint;
        out += ",\n  \"taint\": {\n    \"entry_points\": [";
        for (std::size_t i = 0; i < taint.entry_points.size(); ++i) {
            const auto& entry = taint.entry_points[i];
            out += i == 0 ? "\n" : ",\n";
            out += "      {\"component\": \"" + entry.component + "\", \"depth\": " +
                   std::to_string(entry.depth) + ", \"techniques\": " +
                   std::to_string(entry.technique_count) + ", \"technique\": \"" +
                   entry.technique_id + "\"";
            if (!entry.activated_fault.empty()) {
                out += ", \"activates_fault\": \"" + entry.activated_fault + "\"";
            }
            out += "}";
        }
        out += taint.entry_points.empty() ? "],\n" : "\n    ],\n";
        out += "    \"compromise_depth\": {";
        bool first = true;
        for (const auto& [component, depth] : taint.compromise_depth) {
            out += first ? "" : ", ";
            out += "\"" + component + "\": " + std::to_string(depth);
            first = false;
        }
        out += "},\n    \"unreached\": [";
        for (std::size_t i = 0; i < taint.unreached.size(); ++i) {
            out += (i == 0 ? "\"" : ", \"") + taint.unreached[i] + "\"";
        }
        out += "],\n    \"requirements_off_attack_path\": [";
        for (std::size_t i = 0; i < report.requirements_off_attack_path.size(); ++i) {
            out += (i == 0 ? "\"" : ", \"") + report.requirements_off_attack_path[i] + "\"";
        }
        out += "]\n  }";
    }
    out += "\n}\n";
    std::printf("%s", out.c_str());
}

int cmd_graph(int argc, char** argv) {
    if (argc < 1) return usage();
    std::string path;
    enum class Format { Text, Dot, Json } format = Format::Text;
    cprisk::cli::FlagParser parser("graph", argc, argv, {"--dot", "--json"});
    while (parser.next()) {
        if (parser.is("--dot")) {
            format = Format::Dot;
        } else if (parser.is("--json")) {
            format = Format::Json;
        } else if (parser.looks_like_flag()) {
            parser.reject();
        } else if (path.empty()) {
            path = parser.flag();
        } else {
            std::fprintf(stderr, "graph takes exactly one input file\n");
            parser.fail();
        }
    }
    if (parser.failed()) return usage();
    if (path.empty()) return usage();

    std::string text;
    if (!read_file(path, text)) return report_unreadable(path);

    cprisk::DiagnosticSink sink;
    sink.set_file(path);
    GraphReport report;
    if (ends_with(path, ".lp")) {
        auto program = cprisk::asp::parse_program(text, sink);
        if (!program.has_value()) {
            std::fprintf(stderr, "%s", cprisk::render_text(sink.diagnostics()).c_str());
            return 1;
        }
        report.graph = cprisk::analysis::DependencyGraph::build(*program);
    } else {
        auto bundle = cprisk::core::load_bundle_lenient(text, sink);
        std::vector<cprisk::asp::Program> programs;
        for (const auto& component : bundle.model.components()) {
            for (const std::string& fragment : bundle.model.behaviors(component.id)) {
                auto program = cprisk::asp::parse_program(fragment, sink);
                if (program.has_value()) programs.push_back(std::move(*program));
            }
        }
        if (sink.has_errors()) {
            sink.sort_by_location();
            std::fprintf(stderr, "%s", cprisk::render_text(sink.diagnostics()).c_str());
            return 1;
        }
        std::vector<const cprisk::asp::Program*> pointers;
        pointers.reserve(programs.size());
        for (const auto& program : programs) pointers.push_back(&program);
        report.graph = cprisk::analysis::DependencyGraph::build(pointers);

        report.has_taint = true;
        const auto matrix = cprisk::security::AttackMatrix::standard_ics();
        report.taint = cprisk::analysis::analyze_attack_reachability(bundle.model, matrix);
        for (const auto* requirements :
             {&bundle.behavioral_requirements, &bundle.topology_requirements}) {
            for (const cprisk::epa::Requirement& requirement : *requirements) {
                std::vector<cprisk::asp::Atom> atoms;
                collect_requirement_atoms(requirement.formula, atoms);
                bool on_path = false;
                for (const auto& atom : atoms) {
                    for (const auto& arg : atom.args) {
                        if (arg.is_symbol() && report.taint.reached(arg.name())) on_path = true;
                    }
                }
                if (!on_path) {
                    report.requirements_off_attack_path.push_back(requirement.id);
                }
            }
        }
    }

    switch (format) {
        case Format::Text: print_graph_text(report); break;
        case Format::Dot: print_graph_dot(report); break;
        case Format::Json: print_graph_json(report); break;
    }
    return 0;
}

int cmd_matrix() {
    std::printf("O-RA risk matrix (Table I):\n%s\n",
                cprisk::risk::ora_risk_matrix().render().render().c_str());
    std::printf("IEC 61508 risk classes:\n%s",
                cprisk::risk::iec61508_matrix_table().render().c_str());
    return 0;
}

bool write_file(const std::string& path, const std::string& content) {
    std::ofstream file(path);
    if (!file) return false;
    file << content;
    return static_cast<bool>(file);
}

int cmd_assess(int argc, char** argv) {
    if (argc < 1) return usage();
    const std::string path = argv[0];
    cprisk::core::AssessmentConfig config;
    config.include_attack_scenarios = false;  // opt-in via --attack-scenarios
    cprisk::core::RunContext ctx;
    std::optional<std::string> markdown_path;
    std::optional<std::string> csv_path;
    std::optional<std::string> json_path;
    std::optional<std::string> trace_path;
    std::optional<std::string> metrics_path;
    const std::vector<std::string> assess_flags = {
        "--horizon",   "--max-faults",    "--attack-scenarios", "--no-cegar",
        "--budget",    "--phase-budget",  "--deadline-ms",      "--max-decisions",
        "--jobs",      "--journal",       "--journal-sync",     "--resume",
        "--retry",     "--markdown",      "--csv",              "--json",
        "--trace",     "--metrics",       "--no-static-prefilter",
        "--exhaustive", "--max-card",     "--attack-reachable-only",
        "--priority",  "--prior-seed"};

    cprisk::cli::FlagParser parser("assess", argc - 1, argv + 1, assess_flags);
    while (parser.next()) {
        long long value = 0;
        std::string text;
        if (parser.is("--horizon")) {
            if (parser.value(value)) config.horizon = static_cast<int>(value);
        } else if (parser.is("--max-faults")) {
            if (parser.value(value)) config.max_simultaneous_faults = static_cast<std::size_t>(value);
        } else if (parser.is("--attack-scenarios")) {
            config.include_attack_scenarios = true;
        } else if (parser.is("--no-cegar")) {
            config.use_cegar = false;
        } else if (parser.is("--no-static-prefilter")) {
            config.static_prefilter = false;
        } else if (parser.is("--priority")) {
            if (!parser.value(text)) continue;
            const auto policy = cprisk::risk::parse_priority_policy(text);
            if (policy.has_value()) {
                config.priority_policy = *policy;
            } else {
                std::fprintf(stderr,
                             "invalid value '%s' for '--priority': expected 'expected-risk' or "
                             "'enumeration'\n",
                             text.c_str());
                parser.fail();
            }
        } else if (parser.is("--prior-seed")) {
            if (parser.value(value)) config.prior_seed = static_cast<unsigned long long>(value);
        } else if (parser.is("--budget")) {
            if (parser.value(value)) config.budget = value;
        } else if (parser.is("--phase-budget")) {
            if (parser.value(value)) config.phase_budget = value;
        } else if (parser.is("--deadline-ms")) {
            if (parser.value(value)) config.deadline_ms = value;
        } else if (parser.is("--max-decisions")) {
            if (parser.value(value)) config.max_decisions = static_cast<std::size_t>(value);
        } else if (parser.is("--jobs")) {
            // 0 = hardware concurrency
            if (parser.value(value)) ctx.jobs = static_cast<std::size_t>(value);
        } else if (parser.is("--exhaustive")) {
            config.exhaustive = true;
        } else if (parser.is("--max-card")) {
            // 0 = full lattice
            if (parser.value(value)) config.max_card = static_cast<std::size_t>(value);
        } else if (parser.is("--attack-reachable-only")) {
            config.attack_reachable_only = true;
        } else if (parser.is("--journal")) {
            parser.value(config.journal_path);
        } else if (parser.is("--journal-sync")) {
            config.journal_sync = true;
        } else if (parser.is("--resume")) {
            config.resume = true;
        } else if (parser.is("--retry")) {
            if (parser.value(value)) config.retries = static_cast<std::size_t>(value);
        } else if (parser.is("--markdown")) {
            if (parser.value(text)) markdown_path = text;
        } else if (parser.is("--csv")) {
            if (parser.value(text)) csv_path = text;
        } else if (parser.is("--json")) {
            if (parser.value(text)) json_path = text;
        } else if (parser.is("--trace")) {
            if (parser.value(text)) trace_path = text;
        } else if (parser.is("--metrics")) {
            if (parser.value(text)) metrics_path = text;
        } else {
            parser.reject();
        }
    }
    if (parser.failed()) return usage();

    if (config.resume && config.journal_path.empty()) {
        std::fprintf(stderr, "--resume requires --journal FILE\n");
        return usage();
    }
    if (config.journal_sync && config.journal_path.empty()) {
        std::fprintf(stderr, "--journal-sync requires --journal FILE\n");
        return usage();
    }
    if (!config.exhaustive && (config.max_card != 0 || config.attack_reachable_only)) {
        std::fprintf(stderr, "%s requires --exhaustive\n",
                     config.max_card != 0 ? "--max-card" : "--attack-reachable-only");
        return usage();
    }

    std::string bundle_text;
    if (!read_file(path, bundle_text)) return report_unreadable(path);
    auto bundle = cprisk::core::load_bundle_file(path);
    if (!bundle.ok()) {
        std::fprintf(stderr, "error: %s\n", bundle.error().c_str());
        return 1;
    }
    const auto& b = bundle.value();
    const auto matrix = cprisk::security::AttackMatrix::standard_ics();
    const auto catalog = cprisk::security::SecurityCatalog::standard_ics();
    const auto mitigations =
        cprisk::epa::MitigationMap::from_attack_matrix(b.model, matrix);

    cprisk::core::RiskAssessment assessment(b.model, b.effective_behavioral(),
                                            b.effective_topology(), matrix, mitigations,
                                            &catalog);

    // Observability is opt-in: without --trace/--metrics the context carries
    // null sinks and every instrumentation site costs one branch.
    const bool observing = trace_path.has_value() || metrics_path.has_value();
    cprisk::obs::ChromeTraceSink trace_sink;
    cprisk::obs::MetricsRegistry metrics_registry;
    if (trace_path) ctx.trace = &trace_sink;
    if (metrics_path) ctx.metrics = &metrics_registry;

    auto report = assessment.run(config, ctx);
    if (!report.ok()) {
        std::fprintf(stderr, "assessment failed: %s\n", report.error().c_str());
        return 1;
    }
    const auto& r = report.value();

    std::printf("components=%zu relations=%zu scenarios=%zu hazards=%zu spurious=%zu\n",
                r.component_count, r.relation_count, r.scenario_count, r.hazards.size(),
                r.spurious_eliminated);
    if (r.exhaustive.enabled) {
        std::printf("exhaustive: certificate=%s candidates=%zu evaluated=%zu pruned=%zu "
                    "minimal=%zu\n",
                    r.exhaustive.certificate.c_str(), r.exhaustive.candidates,
                    r.exhaustive.evaluated, r.exhaustive.pruned, r.exhaustive.minimal_hazards);
    }
    std::printf("%s", r.risk_table().render().c_str());
    std::printf("%s", r.mitigation_table().render().c_str());
    if (observing) {
        // Timings are machine-dependent; keep the default output (and the
        // written reports) byte-stable and show them only on request.
        std::printf("%s", r.timing_table().render().c_str());
    }

    if (trace_path) {
        auto written = trace_sink.write_file(*trace_path);
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().c_str());
            return 2;
        }
        std::printf("trace written to %s (%zu events)\n", trace_path->c_str(),
                    trace_sink.event_count());
    }
    if (metrics_path) {
        auto written = metrics_registry.write_file(*metrics_path);
        if (!written.ok()) {
            std::fprintf(stderr, "%s\n", written.error().c_str());
            return 2;
        }
        std::printf("metrics written to %s\n", metrics_path->c_str());
    }

    if (markdown_path) {
        if (!write_file(*markdown_path, cprisk::core::render_markdown(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", markdown_path->c_str());
            return 1;
        }
        std::printf("markdown report written to %s\n", markdown_path->c_str());
    }
    if (csv_path) {
        if (!write_file(*csv_path, cprisk::core::render_risk_csv(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", csv_path->c_str());
            return 1;
        }
        std::printf("risk CSV written to %s\n", csv_path->c_str());
    }
    if (json_path) {
        if (!write_file(*json_path, cprisk::core::render_report_json(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", json_path->c_str());
            return 1;
        }
        std::printf("JSON report written to %s\n", json_path->c_str());
    }
    // Exit 3 distinguishes "finished but not exhaustive" from both a clean
    // run (0) and a hard failure (1): callers scripting the assessment can
    // retry with a larger budget or --resume instead of discarding output.
    if (!r.complete()) {
        std::fprintf(stderr,
                     "partial result: %zu of %zu scenarios undetermined "
                     "(see the Completeness section of the report)\n",
                     r.undetermined.size(), r.scenario_count);
        return 3;
    }
    return 0;
}

// --- cprisk mitigate -------------------------------------------------------

/// Step-7-focused front end (docs/quantitative-risk.md): runs the same
/// pipeline as `assess` but reports the mitigation strategy — and, with
/// --pareto, the full (cost, residual risk, coverage) nondominated front
/// instead of just the single cost-optimal plan.
int cmd_mitigate(int argc, char** argv) {
    if (argc < 1) return usage();
    const std::string path = argv[0];
    cprisk::core::AssessmentConfig config;
    config.include_attack_scenarios = false;  // opt-in via --attack-scenarios
    cprisk::core::RunContext ctx;
    std::optional<std::string> markdown_path;
    std::optional<std::string> csv_path;
    std::optional<std::string> json_path;
    const std::vector<std::string> mitigate_flags = {
        "--pareto",       "--horizon", "--max-faults", "--attack-scenarios", "--budget",
        "--phase-budget", "--jobs",    "--markdown",   "--csv",              "--json"};
    cprisk::cli::FlagParser parser("mitigate", argc - 1, argv + 1, mitigate_flags);
    while (parser.next()) {
        long long value = 0;
        std::string text;
        if (parser.is("--pareto")) {
            config.pareto = true;
        } else if (parser.is("--horizon")) {
            if (parser.value(value)) config.horizon = static_cast<int>(value);
        } else if (parser.is("--max-faults")) {
            if (parser.value(value)) {
                config.max_simultaneous_faults = static_cast<std::size_t>(value);
            }
        } else if (parser.is("--attack-scenarios")) {
            config.include_attack_scenarios = true;
        } else if (parser.is("--budget")) {
            if (parser.value(value)) config.budget = value;
        } else if (parser.is("--phase-budget")) {
            if (parser.value(value)) config.phase_budget = value;
        } else if (parser.is("--jobs")) {
            if (parser.value(value)) ctx.jobs = static_cast<std::size_t>(value);
        } else if (parser.is("--markdown")) {
            if (parser.value(text)) markdown_path = text;
        } else if (parser.is("--csv")) {
            if (parser.value(text)) csv_path = text;
        } else if (parser.is("--json")) {
            if (parser.value(text)) json_path = text;
        } else {
            parser.reject();
        }
    }
    if (parser.failed()) return usage();
    if (csv_path && !config.pareto) {
        std::fprintf(stderr, "--csv requires --pareto (the Pareto front is the CSV payload)\n");
        return usage();
    }

    std::string bundle_text;
    if (!read_file(path, bundle_text)) return report_unreadable(path);
    auto bundle = cprisk::core::load_bundle_file(path);
    if (!bundle.ok()) {
        std::fprintf(stderr, "error: %s\n", bundle.error().c_str());
        return 1;
    }
    const auto& b = bundle.value();
    const auto matrix = cprisk::security::AttackMatrix::standard_ics();
    const auto catalog = cprisk::security::SecurityCatalog::standard_ics();
    const auto mitigations = cprisk::epa::MitigationMap::from_attack_matrix(b.model, matrix);
    cprisk::core::RiskAssessment assessment(b.model, b.effective_behavioral(),
                                            b.effective_topology(), matrix, mitigations,
                                            &catalog);
    auto report = assessment.run(config, ctx);
    if (!report.ok()) {
        std::fprintf(stderr, "assessment failed: %s\n", report.error().c_str());
        return 1;
    }
    const auto& r = report.value();

    std::printf("%s", r.mitigation_table().render().c_str());
    if (config.pareto) std::printf("%s", r.pareto_table().render().c_str());

    if (markdown_path) {
        if (!write_file(*markdown_path, cprisk::core::render_markdown(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", markdown_path->c_str());
            return 1;
        }
        std::printf("markdown report written to %s\n", markdown_path->c_str());
    }
    if (csv_path) {
        if (!write_file(*csv_path, cprisk::core::render_pareto_csv(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", csv_path->c_str());
            return 1;
        }
        std::printf("Pareto CSV written to %s\n", csv_path->c_str());
    }
    if (json_path) {
        if (!write_file(*json_path, cprisk::core::render_report_json(r))) {
            std::fprintf(stderr, "cannot write '%s'\n", json_path->c_str());
            return 1;
        }
        std::printf("JSON report written to %s\n", json_path->c_str());
    }
    if (!r.complete()) {
        std::fprintf(stderr,
                     "partial result: %zu of %zu scenarios undetermined "
                     "(see the Completeness section of the report)\n",
                     r.undetermined.size(), r.scenario_count);
        return 3;
    }
    return 0;
}

// --- cprisk serve ----------------------------------------------------------

/// Written by the SIGTERM/SIGINT handler; the watcher thread polls it. A
/// self-pipe keeps the handler async-signal-safe (write() only).
int g_signal_pipe_write = -1;

extern "C" void on_shutdown_signal(int) {
    const char byte = 1;
    // The pipe is never full (one byte per signal); the cast mutes
    // warn_unused_result, and there is no recovery in a handler anyway.
    (void)!::write(g_signal_pipe_write, &byte, 1);
}

int cmd_serve(int argc, char** argv) {
    cprisk::serve::ServeOptions options;
    const std::vector<std::string> serve_flags = {
        "--socket",    "--executors", "--max-inflight", "--request-jobs", "--hot-models",
        "--cache-mb",  "--drain-ms",  "--retry",        "--chaos"};
    cprisk::cli::FlagParser parser("serve", argc, argv, serve_flags);
    while (parser.next()) {
        long long value = 0;
        if (parser.is("--socket")) {
            parser.value(options.socket_path);
        } else if (parser.is("--executors")) {
            if (parser.value(value)) options.executors = static_cast<std::size_t>(value);
        } else if (parser.is("--max-inflight")) {
            if (parser.value(value)) options.max_inflight = static_cast<std::size_t>(value);
        } else if (parser.is("--request-jobs")) {
            if (parser.value(value)) options.request_jobs = static_cast<std::size_t>(value);
        } else if (parser.is("--hot-models")) {
            if (parser.value(value)) options.hot_models = static_cast<std::size_t>(value);
        } else if (parser.is("--cache-mb")) {
            if (parser.value(value)) {
                options.cache_bytes = static_cast<std::size_t>(value) * 1024 * 1024;
            }
        } else if (parser.is("--drain-ms")) {
            if (parser.value(value)) options.drain_ms = value;
        } else if (parser.is("--retry")) {
            if (parser.value(value)) options.retries = static_cast<std::size_t>(value);
        } else if (parser.is("--chaos")) {
            options.allow_fault_injection = true;
        } else {
            parser.reject();
        }
    }
    if (parser.failed()) return usage();
    if (options.socket_path.empty()) {
        std::fprintf(stderr, "serve requires --socket PATH\n");
        return usage();
    }

    // Clients that vanish mid-reply must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    int signal_pipe[2] = {-1, -1};
    int stop_pipe[2] = {-1, -1};
    if (::pipe2(signal_pipe, O_CLOEXEC) != 0 || ::pipe2(stop_pipe, O_CLOEXEC) != 0) {
        std::fprintf(stderr, "error: cannot create signal pipe: %s\n", std::strerror(errno));
        return 1;
    }
    g_signal_pipe_write = signal_pipe[1];

    auto started = cprisk::serve::Server::start(std::move(options));
    if (!started.ok()) {
        std::fprintf(stderr, "error: %s\n", started.error().c_str());
        return 1;
    }
    cprisk::serve::Server& server = *started.value();

    struct sigaction action {};
    action.sa_handler = on_shutdown_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    // First signal: graceful drain. Second: hard cancel of in-flight work.
    std::thread watcher([&server, &signal_pipe, &stop_pipe] {
        int signals_seen = 0;
        for (;;) {
            pollfd fds[2] = {{signal_pipe[0], POLLIN, 0}, {stop_pipe[0], POLLIN, 0}};
            if (::poll(fds, 2, -1) < 0) {
                if (errno == EINTR) continue;
                break;
            }
            if ((fds[1].revents & POLLIN) != 0) break;
            if ((fds[0].revents & POLLIN) != 0) {
                char byte = 0;
                if (::read(signal_pipe[0], &byte, 1) <= 0) continue;
                ++signals_seen;
                server.begin_drain(signals_seen >= 2);
            }
        }
    });

    std::printf("listening on %s\n", server.socket_path().c_str());
    std::fflush(stdout);  // scripted callers wait for this line before connecting

    server.wait();

    const char stop = 1;
    (void)!::write(stop_pipe[1], &stop, 1);
    watcher.join();
    for (const int fd : {signal_pipe[0], signal_pipe[1], stop_pipe[0], stop_pipe[1]}) ::close(fd);
    std::printf("drained\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "check" && argc >= 3) return cmd_check(argv[2]);
    if (command == "lint") return cmd_lint(argc - 2, argv + 2);
    if (command == "graph") return cmd_graph(argc - 2, argv + 2);
    if (command == "matrix") return cmd_matrix();
    if (command == "assess") return cmd_assess(argc - 2, argv + 2);
    if (command == "mitigate") return cmd_mitigate(argc - 2, argv + 2);
    if (command == "serve") return cmd_serve(argc - 2, argv + 2);
    return usage();
}
