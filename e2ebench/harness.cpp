// e2ebench harness: times the cprisk assessment pipeline end to end through
// its public entry points, in process (`assess` mode) or against a spawned
// `cprisk serve` daemon (`serve` mode), and checks every timed operation
// against expected verdicts. Prints one JSON object of raw results that
// run.py turns into metrics. See README.md in this directory.
//
//   e2e_harness assess --bundle B.cpm --expect B.json [--bundle ...] --jobs N
//                     [--exhaustive --max-card K] [--journal FILE]
//                     --seconds S --setups K [--warmup] --trace 0|1
//   e2e_harness serve  --cprisk BIN --bundle ... --expect ... --seconds S
//                     --setups K --trace 0|1
//
// Traced runs split the window into alternating untraced and traced
// slices: untraced slices give the tracing overhead, traced slices collect
// the spans src/ already emits (through a collecting obs::TraceSink) plus
// the harness's own spans around each public call, and the counters of an
// obs::MetricsRegistry.

#include <fcntl.h>
#include <poll.h>
#include <csignal>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "cprisk.hpp"
#include "security/catalog.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using cprisk::json::Value;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- options -------------------------------------------------------------------

struct Options {
    std::string mode;
    std::vector<std::string> bundles;
    std::vector<std::string> expects;
    std::size_t jobs = 1;
    bool exhaustive = false;
    std::size_t max_card = 0;
    std::string journal;
    double seconds = 10;
    int setups = 3;
    bool warmup = false;
    bool trace = false;
    std::string cprisk;
};

// serve-warm: two client connections against a daemon with two executors.
constexpr int kClients = 2;
constexpr int kExecutors = 2;

/// The spawned daemon, if any: die() must not leave it running.
pid_t g_daemon = -1;

[[noreturn]] void die(const std::string& message) {
    std::fprintf(stderr, "e2e_harness: %s\n", message.c_str());
    if (g_daemon > 0) {
        ::kill(g_daemon, SIGKILL);
        ::waitpid(g_daemon, nullptr, 0);
    }
    std::exit(2);
}

Options parse_options(int argc, char** argv) {
    if (argc < 2) die("usage: e2e_harness assess|serve [options]");
    Options o;
    o.mode = argv[1];
    if (o.mode != "assess" && o.mode != "serve") die("unknown mode '" + o.mode + "'");
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) die("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--bundle") {
            o.bundles.push_back(value());
        } else if (flag == "--expect") {
            o.expects.push_back(value());
        } else if (flag == "--jobs") {
            o.jobs = std::stoul(value());
        } else if (flag == "--exhaustive") {
            o.exhaustive = true;
        } else if (flag == "--max-card") {
            o.max_card = std::stoul(value());
        } else if (flag == "--journal") {
            o.journal = value();
        } else if (flag == "--seconds") {
            o.seconds = std::stod(value());
        } else if (flag == "--setups") {
            o.setups = std::max(1, std::stoi(value()));
        } else if (flag == "--warmup") {
            o.warmup = true;
        } else if (flag == "--trace") {
            o.trace = value() == "1";
        } else if (flag == "--cprisk") {
            o.cprisk = value();
        } else {
            die("unknown flag '" + flag + "'");
        }
    }
    if (o.bundles.empty() || o.bundles.size() != o.expects.size()) {
        die("give one --expect per --bundle");
    }
    if (o.mode == "serve" && o.cprisk.empty()) die("serve mode needs --cprisk");
    return o;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) die("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// --- expected verdicts and the correctness check -------------------------------

/// Expected outcome of one bundle: written by gen.py's oracle for generated
/// bundles, transcribed from the case study for the real ones.
struct Expected {
    std::string mode;  // "cegar" or "exhaustive"
    long long scenarios = -1;
    long long topology_candidates = -1;
    long long spurious = -1;
    long long candidates = -1;
    std::string certificate;
    std::map<std::string, std::vector<std::string>> hazards;
};

Expected load_expected(const std::string& path) {
    auto parsed = cprisk::json::parse(read_file(path));
    if (!parsed.ok() || !parsed.value().is_object()) die("bad expected file '" + path + "'");
    const Value& v = parsed.value();
    Expected e;
    e.mode = v.get_string("mode");
    e.scenarios = v.get_int("scenarios", -1);
    e.topology_candidates = v.get_int("topology_candidates", -1);
    e.spurious = v.get_int("spurious", -1);
    e.candidates = v.get_int("candidates", -1);
    e.certificate = v.get_string("certificate");
    const Value* hazards = v.get("hazards");
    if (hazards == nullptr || !hazards->is_object()) die("no hazards in '" + path + "'");
    for (const auto& [id, violated] : hazards->as_object()) {
        std::vector<std::string>& list = e.hazards[id];
        for (const Value& r : violated.as_array()) list.push_back(r.as_string());
        std::sort(list.begin(), list.end());
    }
    if (e.mode != "cegar" && e.mode != "exhaustive") die("bad mode in '" + path + "'");
    return e;
}

std::string describe(const std::map<std::string, std::vector<std::string>>& got,
                     const Expected& e) {
    for (const auto& [id, violated] : e.hazards) {
        auto it = got.find(id);
        if (it == got.end()) return "missing hazard " + id;
        if (it->second != violated) return "hazard " + id + " violates other requirements";
    }
    for (const auto& [id, violated] : got) {
        if (e.hazards.count(id) == 0) return "unexpected hazard " + id;
    }
    return {};
}

template <typename T>
std::string expect_eq(const char* what, long long want, T got) {
    if (want < 0 || static_cast<long long>(got) == want) return {};
    return std::string(what) + ": expected " + std::to_string(want) + ", got " +
           std::to_string(static_cast<long long>(got));
}

/// Checks the assessment result itself. Empty string = correct.
std::string check_report(const cprisk::core::AssessmentReport& r, const Expected& e) {
    if (!r.complete()) return std::to_string(r.undetermined.size()) + " undetermined verdicts";
    std::map<std::string, std::vector<std::string>> got;
    for (const auto& hazard : r.hazards) {
        auto violated = hazard.violated_requirements;
        std::sort(violated.begin(), violated.end());
        got[hazard.scenario_id] = violated;
    }
    if (std::string d = describe(got, e); !d.empty()) return d;
    if (e.mode == "cegar") {
        if (r.exhaustive.enabled) return "unexpected exhaustive run";
        if (auto d = expect_eq("scenarios", e.scenarios, r.scenario_count); !d.empty()) return d;
        if (auto d = expect_eq("spurious", e.spurious, r.spurious_eliminated); !d.empty()) {
            return d;
        }
        const std::size_t topo = r.cegar_iterations.empty() ? 0 : r.cegar_iterations[0].hazards_out;
        return expect_eq("topology candidates", e.topology_candidates, topo);
    }
    if (!r.exhaustive.enabled) return "exhaustive run expected";
    if (r.exhaustive.certificate != e.certificate) {
        return "certificate " + r.exhaustive.certificate + ", expected " + e.certificate;
    }
    return expect_eq("candidates", e.candidates, r.exhaustive.candidates);
}

/// Checks a rendered JSON report (render_report_json, or a serve reply's
/// "report"). Empty string = correct.
std::string check_report_json(const Value& report, const Expected& e) {
    if (!report.is_object()) return "report is not an object";
    const Value* completeness = report.get("completeness");
    if (completeness == nullptr || !completeness->get_bool("complete")) {
        return "report not complete";
    }
    std::map<std::string, std::vector<std::string>> got;
    const Value* risks = report.get("risks");
    if (risks == nullptr || !risks->is_array()) return "report has no risks";
    for (const Value& risk : risks->as_array()) {
        std::vector<std::string>& violated = got[risk.get_string("scenario_id")];
        if (const Value* list = risk.get("violated"); list != nullptr && list->is_array()) {
            for (const Value& id : list->as_array()) violated.push_back(id.as_string());
        }
        std::sort(violated.begin(), violated.end());
    }
    if (std::string d = describe(got, e); !d.empty()) return d;
    if (e.mode == "cegar") {
        const Value* system = report.get("system");
        if (system == nullptr) return "report has no system block";
        if (auto d = expect_eq("scenarios", e.scenarios, system->get_int("scenarios", -1));
            !d.empty()) {
            return d;
        }
        const Value* cegar = report.get("cegar");
        if (cegar == nullptr || !cegar->is_array() || cegar->as_array().size() != 2) {
            return "report lacks the two CEGAR stages";
        }
        const auto& stages = cegar->as_array();
        if (auto d = expect_eq("topology candidates", e.topology_candidates,
                               stages[0].get_int("hazards_out", -1));
            !d.empty()) {
            return d;
        }
        return expect_eq("spurious", e.spurious, stages[1].get_int("spurious_eliminated", -1));
    }
    const Value* exhaustive = report.get("exhaustive");
    if (exhaustive == nullptr) return "report lacks the exhaustive block";
    if (exhaustive->get_string("certificate") != e.certificate) return "certificate mismatch";
    return expect_eq("candidates", e.candidates, exhaustive->get_int("candidates", -1));
}

/// Validates rendered outputs cheaply: the first output per key is parsed
/// and checked in full; later outputs whose bytes from `from` on equal a
/// checked one pass (serve replies differ only in the echoed id before
/// that point), others are parsed and checked again.
class RenderCheck {
public:
    std::string check(const std::string& key, std::string_view text, const Expected& e,
                      std::size_t from = 0) {
        const std::string_view tail = text.substr(from);
        auto& known = checked_[key];
        for (const std::string& ok : known) {
            if (ok == tail) return {};
        }
        auto parsed = cprisk::json::parse(text);
        if (!parsed.ok()) return "unparsable JSON: " + parsed.error();
        const Value* report = &parsed.value();
        if (const Value* inner = parsed.value().get("report")) report = inner;
        std::string problem = check_report_json(*report, e);
        if (problem.empty() && known.size() < 4) known.emplace_back(tail);
        return problem;
    }

private:
    std::map<std::string, std::vector<std::string>> checked_;
};

// --- tracing -----------------------------------------------------------------------

struct Event {
    std::string name;
    std::string category;
    int depth = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    unsigned thread = 0;
};

/// Thread-safe collecting sink; keeps what self-time analysis needs.
class CollectingSink final : public cprisk::obs::TraceSink {
public:
    bool enabled() const override { return true; }
    void record(cprisk::obs::TraceEvent event) override {
        const auto me = std::this_thread::get_id();
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = threads_.try_emplace(me, static_cast<unsigned>(threads_.size()));
        (void)inserted;
        events_.push_back(Event{std::move(event.name), std::move(event.category), event.depth,
                                event.start_us, event.start_us + event.duration_us,
                                it->second});
    }
    std::vector<Event> take() {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(events_, {});
    }

private:
    std::mutex mutex_;
    std::unordered_map<std::thread::id, unsigned> threads_;
    std::vector<Event> events_;
};

/// Which per-layer metric a span's self time lands in.
const std::map<std::string, std::string>& layer_of_span() {
    static const std::map<std::string, std::string> map = {
        {"bench.load", "model.load_ms"},
        {"bench.catalogs", "security.catalog_ms"},
        {"assess.scenario_space", "security.scenario_space_ms"},
        {"asp.ground", "asp.ground_ms"},
        {"epa.ground_base", "epa.create_self_ms"},
        {"cegar.stage_setup", "epa.create_self_ms"},
        {"epa.absint_prefilter", "epa.prefilter_ms"},
        {"epa.evaluate", "epa.evaluate_self_ms"},
        {"asp.solve", "asp.solve_ms"},
        {"assess.cegar", "hierarchy.cegar_self_ms"},
        {"cegar.walk", "hierarchy.cegar_self_ms"},
        {"assess.frontier", "epa.frontier_self_ms"},
        {"epa.frontier", "epa.frontier_self_ms"},
        {"epa.hazard_core", "epa.hazard_core_ms"},
        {"assess.risk", "risk.ms"},
        {"assess.mitigation", "mitigation.optimize_ms"},
        {"mitigation.optimize", "mitigation.optimize_ms"},
        {"mitigation.pareto", "mitigation.optimize_ms"},
        {"bench.render", "core.render_ms"},
        {"bench.op", "core.self_ms"},
        {"bench.assess", "core.self_ms"},
    };
    return map;
}

/// Per-layer accumulator over the traced operations of a run.
struct LayerStats {
    std::map<std::string, double> sums;  // metric -> sum over traced ops
    std::set<std::string> unmapped;
    std::size_t ops = 0;
    double prefilter_spans = 0;
    double evaluate_spans = 0;
    double static_verdicts = 0;
    double lane_busy_us = 0;
    double lane_capacity_us = 0;

    void add(const std::string& metric, double value) { sums[metric] += value; }
    double get(const std::string& metric) const {
        auto it = sums.find(metric);
        return it == sums.end() ? 0.0 : it->second;
    }
    double per_op(const std::string& metric) const {
        return ops == 0 ? 0.0 : get(metric) / static_cast<double>(ops);
    }
};

/// Splits one operation's spans into self times. A span's self time is its
/// duration minus the part covered by its children. Children are the spans
/// one level deeper on the same thread, plus (for pool workers) root spans
/// of other threads, attributed to the innermost non-scenario span of the
/// operation's own thread that encloses them. Under parallel sweeps the
/// children's self times sum lane time, so layer totals can exceed the wall.
void account_spans(std::vector<Event> events, std::size_t jobs, LayerStats& stats) {
    if (events.empty()) return;
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        if (a.thread != b.thread) return a.thread < b.thread;
        if (a.start != b.start) return a.start < b.start;
        return a.depth < b.depth;
    });
    unsigned main_thread = events.front().thread;
    for (const Event& e : events) {
        if (e.name == "bench.op") main_thread = e.thread;
    }
    const std::size_t n = events.size();
    std::vector<long> parent(n, -1);
    std::map<unsigned, std::vector<long>> last_at_depth;
    for (std::size_t i = 0; i < n; ++i) {
        auto& stack = last_at_depth[events[i].thread];
        const int d = events[i].depth;
        if (d > 0 && static_cast<std::size_t>(d) <= stack.size()) parent[i] = stack[d - 1];
        if (stack.size() <= static_cast<std::size_t>(d)) stack.resize(d + 1, -1);
        stack[d] = static_cast<long>(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (events[i].thread == main_thread || parent[i] >= 0) continue;
        long best = -1;
        for (std::size_t j = 0; j < n; ++j) {
            const Event& p = events[j];
            if (p.thread != main_thread || p.category == "scenario") continue;
            if (p.start > events[i].start || p.end < events[i].end) continue;
            if (best < 0 || p.depth > events[best].depth) best = static_cast<long>(j);
        }
        parent[i] = best;
    }
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (parent[i] >= 0) children[parent[i]].emplace_back(events[i].start, events[i].end);
    }
    double sweep_wall_us = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Event& e = events[i];
        auto& spans = children[i];
        std::sort(spans.begin(), spans.end());
        std::int64_t covered = 0;
        std::int64_t cursor = e.start;
        for (auto [s, t] : spans) {
            s = std::max(s, cursor);
            t = std::min(t, e.end);
            if (t > s) {
                covered += t - s;
                cursor = t;
            }
        }
        const double self_ms = static_cast<double>(e.end - e.start - covered) / 1000.0;
        auto layer = layer_of_span().find(e.name);
        if (layer != layer_of_span().end()) {
            stats.add(layer->second, self_ms);
        } else {
            stats.unmapped.insert(e.name);
            stats.add("core.self_ms", self_ms);
        }
        if (e.name == "epa.absint_prefilter") stats.prefilter_spans += 1;
        if (e.name == "epa.evaluate") stats.evaluate_spans += 1;
        if (e.name == "bench.op") stats.add("core.op_ms", (e.end - e.start) / 1000.0);
        if (e.name == "assess.cegar" || e.name == "epa.frontier") {
            sweep_wall_us += static_cast<double>(e.end - e.start);
        }
        const bool top_scenario =
            e.category == "scenario" &&
            (parent[i] < 0 || events[parent[i]].category != "scenario");
        if (top_scenario) stats.lane_busy_us += static_cast<double>(e.end - e.start);
    }
    stats.lane_capacity_us += sweep_wall_us * static_cast<double>(std::max<std::size_t>(jobs, 1));
}

/// Registry counters reported per traced operation under their own names.
const char* const kCounterMetrics[] = {
    "asp.ground.calls",          "asp.ground.rules",          "asp.ground.atoms",
    "epa.absint.rules_deleted",  "asp.solve.calls",           "asp.solve.decisions",
    "asp.solve.conflicts",       "asp.solve.models",          "asp.solve.reused_propagations",
    "epa.hazard_core.extracted", "mitigation.optimize.nodes",
};

/// Copies the counters a traced slice accumulated into the statistics.
void collect_counters(cprisk::obs::MetricsRegistry& registry, LayerStats& L) {
    for (const char* name : kCounterMetrics) {
        L.sums[name] = static_cast<double>(registry.counter(name).value());
    }
    L.static_verdicts = static_cast<double>(registry.counter("epa.absint.static_safe").value() +
                                            registry.counter("epa.absint.static_hazard").value());
}

// --- in-process assessment -------------------------------------------------------

struct Input {
    std::string path;
    std::string text;  // bundle bytes, read once at set-up
    Expected expected;
};

/// Everything one timed operation reports back.
struct OpOutcome {
    double ms = 0;
    std::string problem;  // empty = correct
    std::optional<cprisk::core::AssessmentReport> report;
    std::size_t report_bytes = 0;
};

cprisk::core::AssessmentConfig make_config(const Options& o) {
    cprisk::core::AssessmentConfig config;
    config.include_attack_scenarios = false;  // the CLI's `assess` default
    config.exhaustive = o.exhaustive;
    config.max_card = o.max_card;
    config.journal_path = o.journal;
    return config;
}

/// One cold request: bundle bytes -> load -> full pipeline -> markdown and
/// JSON reports. Nothing is shared with earlier operations.
OpOutcome assess_once(const Input& in, const Options& o, cprisk::obs::TraceSink* trace,
                      cprisk::obs::MetricsRegistry* metrics, RenderCheck& renders) {
    using namespace cprisk;
    OpOutcome out;
    std::string markdown;
    std::string json;
    const auto start = Clock::now();
    {
        obs::Span op(trace, "bench.op", "bench");
        std::optional<Result<core::Bundle>> bundle;
        {
            obs::Span span(trace, "bench.load", "bench");
            bundle.emplace(core::load_bundle(in.text));
        }
        if (!bundle->ok()) {
            out.problem = "load failed: " + bundle->error();
            out.ms = seconds_since(start) * 1000.0;
            return out;
        }
        const core::Bundle& b = bundle->value();
        std::optional<security::AttackMatrix> matrix;
        std::optional<security::SecurityCatalog> catalog;
        std::optional<epa::MitigationMap> mitigations;
        {
            obs::Span span(trace, "bench.catalogs", "bench");
            matrix.emplace(security::AttackMatrix::standard_ics());
            catalog.emplace(security::SecurityCatalog::standard_ics());
            mitigations.emplace(epa::MitigationMap::from_attack_matrix(b.model, *matrix));
        }
        core::RiskAssessment assessment(b.model, b.effective_behavioral(),
                                        b.effective_topology(), *matrix, *mitigations,
                                        &*catalog);
        RunContext ctx;
        ctx.jobs = o.jobs;
        ctx.trace = trace;
        ctx.metrics = metrics;
        std::optional<Result<core::AssessmentReport>> report;
        {
            obs::Span span(trace, "bench.assess", "bench");
            report.emplace(assessment.run(make_config(o), ctx));
        }
        if (!report->ok()) {
            out.problem = "assessment failed: " + report->error();
            out.ms = seconds_since(start) * 1000.0;
            return out;
        }
        {
            obs::Span span(trace, "bench.render", "bench");
            markdown = core::render_markdown(report->value());
            json = core::render_report_json(report->value());
        }
        out.report = std::move(report->value());
    }
    out.ms = seconds_since(start) * 1000.0;
    out.report_bytes = markdown.size() + json.size();
    out.problem = check_report(*out.report, in.expected);
    if (out.problem.empty() && markdown.empty()) out.problem = "empty markdown report";
    if (out.problem.empty()) out.problem = renders.check(in.path, json, in.expected);
    return out;
}

// --- results -------------------------------------------------------------------------

struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;  // first few, for diagnosis
    /// Per closed-loop stream (one per client), every timed operation in
    /// order: (completion time in s since the window opened, latency in ms;
    /// -1 for a failed operation).
    std::vector<std::vector<std::pair<double, double>>> streams;
    double window_s = 0;  // wall time of the timed window
    std::vector<double> setup_s;
    long peak_rss_kb = 0;
    // traced runs
    LayerStats layers;
    double untraced_ops = 0, untraced_s = 0, traced_ops = 0, traced_s = 0;
    std::map<std::string, double> extra;  // directly measured per-layer values

    void note(const std::string& problem) {
        ++failed;
        if (problems.size() < 5) problems.push_back(problem);
    }
};

std::string number(double v) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6f", v);
    return buffer;
}

void print_result(const RunResult& r, bool traced, std::size_t jobs) {
    std::ostringstream out;
    out << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed;
    out << ",\"problems\":[";
    for (std::size_t i = 0; i < r.problems.size(); ++i) {
        out << (i ? "," : "") << '"' << cprisk::json::escape(r.problems[i]) << '"';
    }
    out << "],\"streams\":[";
    for (std::size_t s = 0; s < r.streams.size(); ++s) {
        out << (s ? ",[" : "[");
        for (std::size_t i = 0; i < r.streams[s].size(); ++i) {
            const auto& [end_s, ms] = r.streams[s][i];
            out << (i ? ",[" : "[") << number(end_s) << "," << number(ms) << "]";
        }
        out << "]";
    }
    out << "],\"window_s\":" << number(r.window_s);
    out << ",\"setup_s\":[";
    for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
        out << (i ? "," : "") << number(r.setup_s[i]);
    }
    out << "],\"peak_rss_kb\":" << r.peak_rss_kb;
    if (traced) {
        const LayerStats& L = r.layers;
        std::map<std::string, double> layers;
        for (const auto& [metric, sum] : L.sums) layers[metric] = L.per_op(metric);
        layers["epa.prefilter_us_per_eval"] =
            L.prefilter_spans > 0 ? L.get("epa.prefilter_ms") * 1000.0 / L.prefilter_spans : 0;
        layers["epa.static_frac"] =
            L.evaluate_spans > 0 ? L.static_verdicts / L.evaluate_spans : 0;
        layers["common.pool.lane_busy_frac"] =
            L.lane_capacity_us > 0 ? L.lane_busy_us / L.lane_capacity_us : 0;
        layers["common.pool.jobs"] = static_cast<double>(jobs);
        for (const auto& [metric, value] : r.extra) layers[metric] = value;
        const double untraced = r.untraced_s > 0 ? r.untraced_ops / r.untraced_s : 0;
        const double traced_rate = r.traced_s > 0 ? r.traced_ops / r.traced_s : 0;
        layers["obs.trace_overhead_frac"] = untraced > 0 ? 1.0 - traced_rate / untraced : 0;
        out << ",\"traced_ops\":" << L.ops << ",\"layers\":{";
        bool first = true;
        for (const auto& [metric, value] : layers) {
            out << (first ? "" : ",") << '"' << metric << "\":" << number(value);
            first = false;
        }
        out << "},\"unmapped_spans\":[";
        first = true;
        for (const std::string& name : L.unmapped) {
            out << (first ? "" : ",") << '"' << cprisk::json::escape(name) << '"';
            first = false;
        }
        out << "]";
    }
    out << "}\n";
    std::fputs(out.str().c_str(), stdout);
    std::fflush(stdout);
}

long self_peak_rss_kb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/// Accounts one traced operation into the layer statistics.
void account_op(const OpOutcome& op, CollectingSink& sink, std::size_t jobs,
                const Options& o, RunResult& result) {
    LayerStats& L = result.layers;
    account_spans(sink.take(), jobs, L);
    ++L.ops;
    if (!op.report) return;
    const auto& r = *op.report;
    L.add("security.scenarios", static_cast<double>(r.scenario_count));
    L.add("core.report_bytes", static_cast<double>(op.report_bytes));
    if (!r.cegar_iterations.empty() && r.cegar_iterations[0].hazards_out > 0) {
        const double candidates = static_cast<double>(r.cegar_iterations[0].hazards_out);
        L.add("hierarchy.spurious_frac", static_cast<double>(r.spurious_eliminated) / candidates);
    }
    if (r.exhaustive.enabled) {
        L.add("epa.frontier.evaluated", static_cast<double>(r.exhaustive.evaluated));
        if (r.exhaustive.evaluated > 0) {
            L.add("epa.frontier.pruning_ratio",
                  static_cast<double>(r.exhaustive.candidates) /
                      static_cast<double>(r.exhaustive.evaluated));
        }
    }
    if (!o.journal.empty()) {
        const std::string text = read_file(o.journal);
        L.add("core.journal.bytes", static_cast<double>(text.size()));
        const auto lines = std::count(text.begin(), text.end(), '\n');
        L.add("core.journal.records", static_cast<double>(std::max<long>(lines - 1, 0)));
    }
}

/// Runs `op` in a closed loop for `seconds`, one operation in flight.
/// Untraced runs time one window; traced runs alternate untraced and traced
/// quarter windows so the tracing overhead is measured in the same process.
template <typename Op>
void closed_loop(const Options& o, std::size_t inputs, double seconds, Op&& op,
                 RunResult& result) {
    const int slices = o.trace ? 4 : 1;
    std::size_t next = 0;
    result.streams.resize(1);
    const auto window_start = Clock::now();
    for (int slice = 0; slice < slices; ++slice) {
        const bool traced = o.trace && slice % 2 == 1;
        const auto slice_start = Clock::now();
        std::size_t ops = 0;
        while (ops == 0 || seconds_since(slice_start) < seconds / slices) {
            const OpOutcome outcome = op(next % inputs, traced);
            ++next;
            ++ops;
            ++result.attempted;
            const double end_s = seconds_since(window_start);
            if (outcome.problem.empty()) {
                result.streams[0].emplace_back(end_s, outcome.ms);
            } else {
                result.streams[0].emplace_back(end_s, -1);
                result.note(outcome.problem);
            }
        }
        const double elapsed = seconds_since(slice_start);
        (traced ? result.traced_ops : result.untraced_ops) += static_cast<double>(ops);
        (traced ? result.traced_s : result.untraced_s) += elapsed;
    }
    result.window_s = seconds_since(window_start);
}

int run_assess(const Options& o) {
    RunResult result;
    std::vector<Input> inputs;
    RenderCheck renders;
    const int setups = o.trace ? 1 : o.setups;
    for (int k = 0; k < setups; ++k) {
        // Set-up: read the bundle bytes and expectations, parse each bundle
        // once (first load) and, with --warmup, run one untimed assessment
        // per bundle so code and allocator pages are warm.
        const auto start = Clock::now();
        inputs.clear();
        for (std::size_t i = 0; i < o.bundles.size(); ++i) {
            Input in{o.bundles[i], read_file(o.bundles[i]), load_expected(o.expects[i])};
            if (!cprisk::core::load_bundle(in.text).ok()) die("cannot load " + in.path);
            inputs.push_back(std::move(in));
        }
        if (o.warmup) {
            for (const Input& in : inputs) {
                const OpOutcome warm = assess_once(in, o, nullptr, nullptr, renders);
                if (!warm.problem.empty()) die(in.path + ": " + warm.problem);
            }
        }
        result.setup_s.push_back(seconds_since(start));
    }

    CollectingSink sink;
    cprisk::obs::MetricsRegistry registry;
    closed_loop(
        o, inputs.size(), o.seconds,
        [&](std::size_t i, bool traced) {
            OpOutcome outcome = assess_once(inputs[i], o, traced ? &sink : nullptr,
                                            traced ? &registry : nullptr, renders);
            if (traced) account_op(outcome, sink, o.jobs, o, result);
            return outcome;
        },
        result);
    if (o.trace) collect_counters(registry, result.layers);
    result.peak_rss_kb = self_peak_rss_kb();
    print_result(result, o.trace, o.jobs);
    return 0;
}

// --- serve ---------------------------------------------------------------------------

constexpr const char* kSocket = "serve.sock";

/// One NDJSON client connection to the daemon.
class Connection {
public:
    explicit Connection(const std::string& path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0) die("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            die("cannot connect to the daemon: " + std::string(std::strerror(errno)));
        }
        timeval timeout{60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    }
    ~Connection() {
        if (fd_ >= 0) ::close(fd_);
    }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    bool send_line(const std::string& line) {
        const std::string data = line + "\n";
        std::size_t sent = 0;
        while (sent < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    std::optional<std::string> read_line() {
        for (;;) {
            const auto newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                std::string line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return line;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return std::nullopt;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    std::optional<std::string> call(const std::string& request) {
        if (!send_line(request)) return std::nullopt;
        return read_line();
    }

private:
    int fd_ = -1;
    std::string buffer_;
};

/// A spawned `cprisk serve` process, drained through the shutdown op.
class Daemon {
public:
    explicit Daemon(const Options& o) {
        ::unlink(kSocket);
        int out[2];
        if (::pipe(out) != 0) die("pipe() failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&actions, out[0]);
        posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "serve.stderr",
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        const std::string executors = std::to_string(kExecutors);
        std::vector<std::string> args = {o.cprisk,        "serve",     "--socket",
                                         kSocket,         "--executors", executors,
                                         "--request-jobs", "1",         "--hot-models",
                                         "4"};
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc =
            posix_spawn(&pid_, o.cprisk.c_str(), &actions, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        if (rc != 0) die("cannot start " + o.cprisk + ": " + std::strerror(rc));
        g_daemon = pid_;
        stdout_ = out[0];
        // Scripted callers wait for the "listening on" line before connecting.
        std::string seen;
        const auto start = Clock::now();
        while (seen.find("listening on") == std::string::npos) {
            if (seconds_since(start) > 30) die("daemon did not start");
            pollfd p{stdout_, POLLIN, 0};
            if (::poll(&p, 1, 1000) <= 0) continue;
            char chunk[256];
            const ssize_t n = ::read(stdout_, chunk, sizeof chunk);
            if (n <= 0) die("daemon exited before listening");
            seen.append(chunk, static_cast<std::size_t>(n));
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Peak resident set of the daemon so far (VmHWM), in KiB.
    long peak_rss_kb() const {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line)) {
            if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
        }
        return 0;
    }

    /// Graceful drain via the shutdown op, then reap (SIGKILL after 20 s).
    bool stop() {
        if (pid_ <= 0) return true;
        if (::access(kSocket, F_OK) == 0) {
            Connection control(kSocket);
            control.call(R"({"id":"drain","op":"shutdown"})");
        } else {
            ::kill(pid_, SIGTERM);
        }
        int status = 0;
        bool clean = false;
        const auto start = Clock::now();
        for (;;) {
            const pid_t done = ::waitpid(pid_, &status, WNOHANG);
            if (done == pid_) {
                clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
                break;
            }
            if (seconds_since(start) > 20) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        ::close(stdout_);
        pid_ = -1;
        g_daemon = -1;
        return clean;
    }

private:
    pid_t pid_ = -1;
    int stdout_ = -1;
};

std::string assess_request(const std::string& id, const std::string& model) {
    return R"({"id":")" + id + R"(","op":"assess","model":")" + cprisk::json::escape(model) +
           R"(","config":{"horizon":6,"max_faults":2,"attack_scenarios":false}})";
}

/// Validates a serve reply; empty string = correct.
std::string check_reply(const std::optional<std::string>& reply, const Input& in,
                        RenderCheck& renders, std::mutex& renders_mutex) {
    if (!reply) return "connection lost";
    // Replies differ only in the echoed id, so compare from the "ok" field on.
    const auto ok = reply->find("\"ok\":");
    if (ok == std::string::npos) return "malformed reply";
    if (reply->compare(ok, 10, "\"ok\":true,") != 0) {
        const auto code = reply->find("\"code\":");
        return "error reply " + reply->substr(code == std::string::npos ? ok : code, 40);
    }
    std::lock_guard<std::mutex> lock(renders_mutex);
    return renders.check(in.path, *reply, in.expected, ok);
}

/// Reads the daemon's counters through the public `metrics` op.
std::map<std::string, double> daemon_counters(Connection& control) {
    std::map<std::string, double> counters;
    auto reply = control.call(R"({"id":"m","op":"metrics"})");
    if (!reply) die("metrics op failed");
    auto parsed = cprisk::json::parse(*reply);
    if (!parsed.ok()) die("unparsable metrics reply");
    const Value* metrics = parsed.value().get("metrics");
    if (metrics == nullptr) die("metrics reply has no metrics");
    for (const char* section : {"counters", "gauges"}) {
        if (const Value* values = metrics->get(section); values != nullptr && values->is_object()) {
            for (const auto& [name, value] : values->as_object()) {
                if (value.is_int()) counters[name] = static_cast<double>(value.as_int());
            }
        }
    }
    return counters;
}

/// Replica of one warm daemon request in process: the model loaded once,
/// its GroundedBaseCache warm in RunContext::base_cache, JSON rendered.
struct WarmModel {
    cprisk::core::Bundle bundle;
    cprisk::security::AttackMatrix matrix = cprisk::security::AttackMatrix::standard_ics();
    cprisk::security::SecurityCatalog catalog = cprisk::security::SecurityCatalog::standard_ics();
    std::optional<cprisk::epa::MitigationMap> mitigations;
    std::optional<cprisk::core::RiskAssessment> assessment;
    cprisk::epa::GroundedBaseCache bases;
};

OpOutcome warm_request(WarmModel& m, const Input& in, const Options& o,
                       cprisk::obs::TraceSink* trace, cprisk::obs::MetricsRegistry* metrics,
                       RenderCheck& renders) {
    using namespace cprisk;
    OpOutcome out;
    std::string json;
    const auto start = Clock::now();
    {
        obs::Span op(trace, "bench.op", "bench");
        RunContext ctx;
        ctx.jobs = 1;
        ctx.trace = trace;
        ctx.metrics = metrics;
        ctx.base_cache = &m.bases;
        std::optional<Result<core::AssessmentReport>> report;
        {
            obs::Span span(trace, "bench.assess", "bench");
            report.emplace(m.assessment->run(make_config(o), ctx));
        }
        if (!report->ok()) {
            out.problem = "assessment failed: " + report->error();
            out.ms = seconds_since(start) * 1000.0;
            return out;
        }
        {
            obs::Span span(trace, "bench.render", "bench");
            json = core::render_report_json(report->value());
        }
        out.report = std::move(report->value());
    }
    out.ms = seconds_since(start) * 1000.0;
    out.report_bytes = json.size();
    out.problem = check_report(*out.report, in.expected);
    if (out.problem.empty()) out.problem = renders.check(in.path + "#warm", json, in.expected);
    return out;
}

/// Median over rounds (one operation per input, back to back in a stream)
/// of the round's mean latency; run.py computes the reported latencies the
/// same way, so a mix of two bundles does not put the median between modes.
double median_round_ms(const std::vector<std::vector<std::pair<double, double>>>& streams,
                       std::size_t inputs) {
    std::vector<double> rounds;
    for (const auto& stream : streams) {
        for (std::size_t i = 0; i + inputs <= stream.size(); i += inputs) {
            double sum = 0;
            for (std::size_t k = i; k < i + inputs; ++k) sum += stream[k].second;
            rounds.push_back(sum / static_cast<double>(inputs));
        }
    }
    if (rounds.empty()) return 0;
    std::sort(rounds.begin(), rounds.end());
    return rounds[(rounds.size() - 1) / 2];
}

int run_serve(const Options& o) {
    RunResult result;
    std::vector<Input> inputs;
    for (std::size_t i = 0; i < o.bundles.size(); ++i) {
        inputs.push_back(Input{o.bundles[i], read_file(o.bundles[i]), load_expected(o.expects[i])});
    }
    RenderCheck renders;
    std::mutex renders_mutex;

    // Set-up: daemon start, client connections, and warm-up requests (one
    // cold and two warm per bundle). Repeated; every daemon but the last is
    // drained again right away.
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Connection>> clients;
    const int setups = o.trace ? 1 : o.setups;
    for (int k = 0; k < setups; ++k) {
        clients.clear();
        if (daemon) daemon->stop();
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(o);
        for (int c = 0; c < kClients; ++c) clients.push_back(std::make_unique<Connection>(kSocket));
        for (int round = 0; round < 3; ++round) {
            for (const Input& in : inputs) {
                auto reply = clients[0]->call(assess_request("warm", in.path));
                const std::string problem = check_reply(reply, in, renders, renders_mutex);
                if (!problem.empty()) die("warm-up " + in.path + ": " + problem);
            }
        }
        result.setup_s.push_back(seconds_since(start));
    }

    Connection control(kSocket);
    const auto before = daemon_counters(control);
    const double window = o.trace ? o.seconds / 2 : o.seconds;

    // Queue-depth sampling (traced runs only) on the control connection.
    std::atomic<bool> sampling{o.trace};
    double depth_sum = 0;
    double depth_samples = 0;
    std::thread sampler;
    if (o.trace) {
        sampler = std::thread([&] {
            while (sampling.load()) {
                const auto counters = daemon_counters(control);
                auto it = counters.find("serve.queue.depth");
                depth_sum += it == counters.end() ? 0 : it->second;
                depth_samples += 1;
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        });
    }

    struct ClientLog {
        std::vector<std::pair<double, double>> ops;  // as RunResult::streams
        std::vector<std::string> problems;
        std::size_t failed = 0;
        double last_end_s = 0;
    };
    std::vector<ClientLog> logs(static_cast<std::size_t>(kClients));
    const auto window_start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = logs[static_cast<std::size_t>(c)];
            std::size_t next = static_cast<std::size_t>(c);
            std::size_t serial = 0;
            while (seconds_since(window_start) < window) {
                const Input& in = inputs[next++ % inputs.size()];
                const std::string id = "c" + std::to_string(c) + "-" + std::to_string(serial++);
                const auto start = Clock::now();
                Connection& client = *clients[static_cast<std::size_t>(c)];
                auto reply = client.call(assess_request(id, in.path));
                const double ms = seconds_since(start) * 1000.0;
                log.last_end_s = seconds_since(window_start);
                std::string problem = check_reply(reply, in, renders, renders_mutex);
                if (problem.empty()) {
                    log.ops.emplace_back(log.last_end_s, ms);
                } else {
                    log.ops.emplace_back(log.last_end_s, -1);
                    ++log.failed;
                    if (log.problems.size() < 5) log.problems.push_back(problem);
                    if (!reply) break;
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (const ClientLog& log : logs) {
        result.attempted += log.ops.size();
        result.failed += log.failed;
        result.streams.push_back(log.ops);
        for (const std::string& p : log.problems) {
            if (result.problems.size() < 5) result.problems.push_back(p);
        }
        result.window_s = std::max(result.window_s, log.last_end_s);
    }
    if (o.trace) {
        sampling.store(false);
        sampler.join();
    }
    const auto after = daemon_counters(control);
    auto delta = [&](const std::string& name) {
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
    };
    result.peak_rss_kb = daemon->peak_rss_kb();
    if (!daemon->stop()) result.note("daemon did not drain cleanly");

    if (o.trace) {
        const double requests = std::max(1.0, delta("serve.requests.completed"));
        const double hits = delta("serve.cache.hits");
        const double misses = delta("serve.cache.misses");
        result.extra["serve.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
        result.extra["serve.requests.overloaded"] = delta("serve.requests.overloaded");
        result.extra["serve.queue.depth_mean"] = depth_samples > 0 ? depth_sum / depth_samples : 0;
        // Grounding and solver calls per request inside the timed window,
        // from the daemon itself rather than the replica.
        result.extra["asp.ground.calls"] = delta("asp.ground.calls") / requests;
        result.extra["asp.solve.calls"] = delta("asp.solve.calls") / requests;

        // In-process replica of the warm request, traced, for the layer split.
        std::vector<std::unique_ptr<WarmModel>> models;
        for (const Input& in : inputs) {
            auto m = std::make_unique<WarmModel>();
            auto loaded = cprisk::core::load_bundle(in.text);
            if (!loaded.ok()) die("cannot load " + in.path);
            m->bundle = std::move(loaded).value();
            m->mitigations.emplace(
                cprisk::epa::MitigationMap::from_attack_matrix(m->bundle.model, m->matrix));
            m->assessment.emplace(m->bundle.model, m->bundle.effective_behavioral(),
                                  m->bundle.effective_topology(), m->matrix, *m->mitigations,
                                  &m->catalog);
            RenderCheck warm_check;
            const OpOutcome warm = warm_request(*m, in, o, nullptr, nullptr, warm_check);
            if (!warm.problem.empty()) die("replica warm-up: " + warm.problem);
            models.push_back(std::move(m));
        }
        CollectingSink sink;
        cprisk::obs::MetricsRegistry registry;
        RunResult replica;
        closed_loop(
            o, inputs.size(), o.seconds / 2,
            [&](std::size_t i, bool traced) {
                OpOutcome outcome = warm_request(*models[i], inputs[i], o, traced ? &sink : nullptr,
                                                 traced ? &registry : nullptr, renders);
                if (traced) account_op(outcome, sink, 1, o, result);
                return outcome;
            },
            replica);
        collect_counters(registry, result.layers);
        result.untraced_ops = replica.untraced_ops;
        result.untraced_s = replica.untraced_s;
        result.traced_ops = replica.traced_ops;
        result.traced_s = replica.traced_s;
        result.attempted += replica.attempted;
        result.failed += replica.failed;
        for (const std::string& p : replica.problems) {
            if (result.problems.size() < 5) result.problems.push_back(p);
        }
        result.extra["serve.wait_ms"] = median_round_ms(result.streams, inputs.size()) -
                                        median_round_ms(replica.streams, inputs.size());
    }
    print_result(result, o.trace, 1);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    const Options o = parse_options(argc, argv);
    return o.mode == "assess" ? run_assess(o) : run_serve(o);
}
