// EPA scaling: scenario evaluation cost as a function of model size
// (propagation chain length), temporal horizon, and scenario-space size —
// plus the DESIGN.md ablation 4 (topology-only vs behavioural focus cost)
// and the ground-once/solve-many + --jobs sweep (docs/performance.md).
//
// Besides the google-benchmark suites, the binary times the full sweep
// configurations directly and writes the speedup table to BENCH_epa.json
// in the working directory (recorded in EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "asp/asp.hpp"
#include "core/assessment.hpp"
#include "core/loader.hpp"
#include "epa/epa.hpp"
#include "epa/frontier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "risk/prior.hpp"
#include "security/scenario.hpp"
#include "serve/model_cache.hpp"

namespace {

using namespace cprisk;

model::SystemModel chain_model(int n) {
    model::SystemModel m;
    for (int i = 0; i < n; ++i) {
        model::Component c;
        c.id = "c" + std::to_string(i);
        c.name = c.id;
        c.type = i + 1 == n ? model::ElementType::Equipment : model::ElementType::Controller;
        c.asset_value = i + 1 == n ? qual::Level::VeryHigh : qual::Level::Medium;
        c.fault_modes = {model::FaultMode{"fail", model::FaultEffect::Corruption, "",
                                          qual::Level::Medium, qual::Level::Low}};
        (void)m.add_component(std::move(c));
    }
    for (int i = 0; i + 1 < n; ++i) {
        (void)m.add_relation({"c" + std::to_string(i), "c" + std::to_string(i + 1),
                              model::RelationType::SignalFlow, ""});
    }
    return m;
}

security::AttackScenario head_fault() {
    security::AttackScenario s;
    s.id = "bench";
    s.mutations = {{"c0", "fail"}};
    s.likelihood = qual::Level::Low;
    return s;
}

void BM_EvaluateChain(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    auto m = chain_model(n);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;  // enough steps to traverse the chain
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c" + std::to_string(n - 1))}, {}, options);
    auto scenario = head_fault();
    for (auto _ : state) {
        auto verdict = analysis.value().evaluate(scenario, {});
        benchmark::DoNotOptimize(verdict);
    }
    state.SetComplexityN(n);
}
BENCHMARK(BM_EvaluateChain)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Complexity();

void BM_HorizonSweep(benchmark::State& state) {
    const int horizon = static_cast<int>(state.range(0));
    auto m = chain_model(6);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = horizon;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c5")}, {}, options);
    auto scenario = head_fault();
    for (auto _ : state) {
        auto verdict = analysis.value().evaluate(scenario, {});
        benchmark::DoNotOptimize(verdict);
    }
}
BENCHMARK(BM_HorizonSweep)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ScenarioSpaceSweep(benchmark::State& state) {
    // Exhaustive evaluation cost over a growing scenario space
    // (k single-fault scenarios on a fixed chain).
    const int n = 6;
    auto m = chain_model(n);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c5")}, {}, options);

    const int scenarios = static_cast<int>(state.range(0));
    std::vector<security::AttackScenario> space;
    for (int i = 0; i < scenarios; ++i) {
        security::AttackScenario s;
        s.id = "s" + std::to_string(i);
        s.mutations = {{"c" + std::to_string(i % n), "fail"}};
        space.push_back(std::move(s));
    }
    for (auto _ : state) {
        for (const auto& scenario : space) {
            auto verdict = analysis.value().evaluate(scenario, {});
            benchmark::DoNotOptimize(verdict);
        }
    }
    state.counters["scenarios"] = scenarios;
}
BENCHMARK(BM_ScenarioSpaceSweep)->Arg(4)->Arg(16)->Arg(64);

void BM_FocusAblation_Topology(benchmark::State& state) {
    // Ablation 4a: topology-only analysis of a behaviour-rich model.
    auto m = chain_model(6);
    (void)m.add_behavior("c0", "#program always. alarm :- error(c0).");
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = 7;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c5")}, {}, options);
    auto scenario = head_fault();
    for (auto _ : state) {
        auto verdict = analysis.value().evaluate(scenario, {});
        benchmark::DoNotOptimize(verdict);
    }
}
BENCHMARK(BM_FocusAblation_Topology);

void BM_FocusAblation_Behavioral(benchmark::State& state) {
    // Ablation 4b: same model with the behaviour fragments compiled in.
    auto m = chain_model(6);
    (void)m.add_behavior("c0", "#program always. alarm :- error(c0).");
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Behavioral;
    options.horizon = 7;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c5")}, {}, options);
    auto scenario = head_fault();
    for (auto _ : state) {
        auto verdict = analysis.value().evaluate(scenario, {});
        benchmark::DoNotOptimize(verdict);
    }
}
BENCHMARK(BM_FocusAblation_Behavioral);

// --- Ground-once/solve-many + parallel sweep -----------------------------

security::ScenarioSpace sweep_space(int scenarios, int chain) {
    std::vector<security::AttackScenario> list;
    list.reserve(static_cast<std::size_t>(scenarios));
    for (int i = 0; i < scenarios; ++i) {
        security::AttackScenario s;
        s.id = "s" + std::to_string(i);
        s.mutations = {{"c" + std::to_string(i % chain), "fail"}};
        s.likelihood = qual::Level::Low;
        list.push_back(std::move(s));
    }
    return security::ScenarioSpace(std::move(list));
}

void BM_SweepConfig(benchmark::State& state) {
    // range(0): ground_once, range(1): jobs. The (0, 1) point is the
    // pre-cache sequential engine — the speedup baseline.
    const int n = 8;
    auto m = chain_model(n);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.ground_once = state.range(0) != 0;
    RunContext ctx;
    ctx.jobs = static_cast<std::size_t>(state.range(1));
    options.ctx = &ctx;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c" + std::to_string(n - 1))}, {}, options);
    const auto space = sweep_space(48, n);
    for (auto _ : state) {
        auto verdicts = analysis.value().evaluate_all(space, {});
        benchmark::DoNotOptimize(verdicts);
    }
    state.counters["ground_once"] = static_cast<double>(state.range(0));
    state.counters["jobs"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_SweepConfig)
    ->Args({0, 1})  // seed: full per-scenario reground, sequential
    ->Args({1, 1})  // cache alone
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8});

/// Wall-clock of one exhaustive sweep under the given configuration. When
/// `ctx` is non-null the run goes through the caller's RunContext (null
/// trace and metrics sinks unless the caller attached some) — the
/// configuration the <2% null-observability overhead budget is measured
/// against. Without one, jobs > 1 builds a local context; jobs == 1 runs on
/// plain options (no context at all) — the uninstrumented baseline arm.
double sweep_seconds(bool ground_once, std::size_t jobs, RunContext* ctx = nullptr,
                     int rounds = 3, bool static_prefilter = true) {
    const int n = 8;
    auto m = chain_model(n);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    options.ground_once = ground_once;
    options.static_prefilter = static_prefilter;
    RunContext local;
    if (ctx == nullptr && jobs != 1) ctx = &local;
    if (ctx != nullptr) {
        ctx->jobs = jobs;
        options.ctx = ctx;
    }
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c" + std::to_string(n - 1))}, {}, options);
    const auto space = sweep_space(48, n);
    (void)analysis.value().evaluate_all(space, {});  // warm-up
    double best = 0.0;
    for (int round = 0; round < rounds; ++round) {
        const auto start = std::chrono::steady_clock::now();
        auto verdicts = analysis.value().evaluate_all(space, {});
        benchmark::DoNotOptimize(verdicts);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        if (round == 0 || elapsed.count() < best) best = elapsed.count();
    }
    return best;
}

/// Ratio of sweep wall-clock with a null-sink RunContext over plain options
/// (no context at all). The delta isolates the observability
/// instrumentation: the Span/metric enabled() branches and the context
/// accessors, with nobody listening. Budget: < 1.02
/// (docs/observability.md).
double null_obs_overhead() {
    // Interleave A/B rounds so drift (thermal, page cache) hits both arms.
    double plain = 0.0;
    double with_ctx = 0.0;
    for (int round = 0; round < 5; ++round) {
        const double p = sweep_seconds(true, 1, nullptr, 1);
        RunContext ctx;
        const double c = sweep_seconds(true, 1, &ctx, 1);
        if (round == 0 || p < plain) plain = p;
        if (round == 0 || c < with_ctx) with_ctx = c;
    }
    return with_ctx / plain;
}

/// Fraction of the sweep's scenarios the ternary prefilter resolved without
/// a CDCL solve (docs/static-analysis.md), read off the metrics counters of
/// one instrumented sweep.
double static_resolution_fraction() {
    obs::MetricsRegistry metrics;
    RunContext ctx;
    ctx.metrics = &metrics;
    (void)sweep_seconds(true, 1, &ctx, 1);
    const double resolved =
        static_cast<double>(metrics.counter("epa.absint.static_safe").value() +
                            metrics.counter("epa.absint.static_hazard").value());
    const double unknown =
        static_cast<double>(metrics.counter("epa.absint.static_unknown").value());
    const double total = resolved + unknown;
    return total > 0.0 ? resolved / total : 0.0;
}

/// One pruned exhaustive frontier over the full 2^n fault lattice of a
/// negation-free chain (docs/exhaustive-search.md). The chain certifies
/// monotone, so the sweep evaluates the empty set plus the n singletons and
/// prunes everything above them: the pruning ratio candidates/evaluated is
/// 2^n/(n+1), ~3855x at n=16 — the number EXPERIMENTS.md records.
struct FrontierNumbers {
    double seconds = 0.0;
    std::size_t candidates = 0;
    std::size_t evaluated = 0;
    std::size_t pruned = 0;
    std::size_t minimal = 0;
    bool monotone = false;
};

FrontierNumbers frontier_numbers(int n) {
    auto m = chain_model(n);
    epa::EpaOptions options;
    options.focus = epa::AnalysisFocus::Topology;
    options.horizon = n + 1;
    auto analysis = epa::ErrorPropagationAnalysis::create(
        m, {epa::Requirement::no_error_reaches("c" + std::to_string(n - 1))}, {}, options);
    FrontierNumbers numbers;
    for (int round = 0; round < 3; ++round) {
        const auto start = std::chrono::steady_clock::now();
        auto result = epa::run_frontier(analysis.value(), {});
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        if (!result.ok()) {
            std::fprintf(stderr, "bench_perf_epa: frontier failed: %s\n", result.error().c_str());
            return numbers;
        }
        const epa::FrontierResult& frontier = result.value();
        if (round == 0 || elapsed.count() < numbers.seconds) numbers.seconds = elapsed.count();
        numbers.candidates = frontier.candidates;
        numbers.evaluated = frontier.evaluated;
        numbers.pruned = frontier.pruned;
        numbers.minimal = frontier.minimal_hazards.size();
        numbers.monotone = frontier.certificate.has_value() && frontier.certificate->monotone;
    }
    return numbers;
}

// --- warm CDCL pool on a search-heavy sweep ------------------------------

/// Behaviour fragment that defeats the static prefilter and forces real
/// stable-model search per scenario. Three ingredients:
///
///  - `{ jam }.` — a free choice the ternary analysis cannot decide, so the
///    prefilter leaves every scenario to the solver (static_fraction < 1);
///  - positive loops ping(N)/pong(N) whose only external support is `jam`:
///    when jam is false the loops are supported-but-unfounded, so a cold
///    search stability-rejects the candidates on every scenario, while the
///    warm CDCL solver keeps the loop cuts (entailed by the base program)
///    across the whole sweep;
///  - a pigeonhole contradiction gated on `jam` (7 pigeons, 6 holes, places
///    forced empty when jam is off): refuting the jam branch takes real
///    search, which the CDCL pool's learned lemmas — entailed by the base
///    program, so kept across solves — reduce to propagation on the later
///    scenarios;
///  - `boom` depends on both the injected faults and the choice, so the
///    verdict genuinely needs the solver: the surviving jam-false answer
///    set violates the requirement exactly when a fault is injected.
constexpr const char* kSearchBehavior = R"(
#program base.
sidx(1..12).
ping(N) :- pong(N), sidx(N).
pong(N) :- ping(N), sidx(N).
ping(N) :- jam, sidx(N).
{ jam }.
pigeon(1..7). hole(1..6).
{ place(P, H) } :- pigeon(P), hole(H).
:- place(P, H), not jam.
placed(P) :- place(P, H).
:- jam, pigeon(P), not placed(P).
:- place(P1, H), place(P2, H), P1 < P2.
#program always.
boom :- injected_fault(C, _), not jam.
)";

struct CdclNumbers {
    double cdcl_s = 0.0;        ///< steady-state sweep wall-clock, warm CDCL pool
    std::size_t learned = 0;    ///< clauses learned across one cold CDCL sweep
    std::size_t reused = 0;     ///< propagations from clauses learned by earlier scenarios
    double static_fraction = 0.0;  ///< prefilter share on this workload (< 1 by design)
    bool verdicts_match = false;   ///< warm pool == full reground on all 48 verdicts
};

/// The cdcl block of BENCH_epa.json (docs/solver.md): a 48-scenario
/// ground-once sweep on a workload the static prefilter cannot resolve. The
/// sweep leases warm solvers from the cache's pool, so clauses learned by
/// early scenarios propagate for the remaining ones — `reused` counts
/// exactly those propagations. Its verdicts are checked against the
/// full-reground path, which grounds and solves every scenario cold.
CdclNumbers cdcl_numbers() {
    const int n = 8;
    auto m = chain_model(n);
    (void)m.add_behavior("c0", kSearchBehavior);
    const auto space = sweep_space(48, n);
    const std::vector<epa::Requirement> requirements = {
        epa::Requirement::never("rb", "the jammable loop bank must not report boom",
                                asp::parse_atom("boom").value())};

    const auto make_analysis = [&](bool ground_once, RunContext* ctx) {
        epa::EpaOptions options;
        options.focus = epa::AnalysisFocus::Behavioral;
        options.horizon = 3;
        options.ground_once = ground_once;
        options.ctx = ctx;
        return epa::ErrorPropagationAnalysis::create(m, requirements, {}, options);
    };

    CdclNumbers numbers;

    // Stats from one instrumented sweep on a fresh pool: the first
    // scenarios learn, the remaining ones reuse, so a single sweep already
    // shows cross-scenario reuse.
    std::vector<epa::ScenarioVerdict> cdcl_verdicts;
    {
        obs::MetricsRegistry metrics;
        RunContext ctx;
        ctx.metrics = &metrics;
        auto analysis = make_analysis(true, &ctx);
        auto verdicts = analysis.value().evaluate_all(space, {});
        if (!verdicts.ok()) {
            std::fprintf(stderr, "bench_perf_epa: cdcl sweep failed: %s\n",
                         verdicts.error().c_str());
            return numbers;
        }
        cdcl_verdicts = std::move(verdicts).value();
        for (const epa::ScenarioVerdict& verdict : cdcl_verdicts) {
            numbers.learned += verdict.solver_stats.learned_clauses;
            numbers.reused += verdict.solver_stats.reused_clause_propagations;
        }
        const double resolved =
            static_cast<double>(metrics.counter("epa.absint.static_safe").value() +
                                metrics.counter("epa.absint.static_hazard").value());
        const double unknown =
            static_cast<double>(metrics.counter("epa.absint.static_unknown").value());
        const double total = resolved + unknown;
        numbers.static_fraction = total > 0.0 ? resolved / total : 0.0;
    }
    {
        auto analysis = make_analysis(false, nullptr);
        auto verdicts = analysis.value().evaluate_all(space, {});
        if (!verdicts.ok()) {
            std::fprintf(stderr, "bench_perf_epa: reground sweep failed: %s\n",
                         verdicts.error().c_str());
            return numbers;
        }
        numbers.verdicts_match = verdicts.value().size() == cdcl_verdicts.size();
        for (std::size_t i = 0; numbers.verdicts_match && i < cdcl_verdicts.size(); ++i) {
            const epa::ScenarioVerdict& a = cdcl_verdicts[i];
            const epa::ScenarioVerdict& b = verdicts.value()[i];
            numbers.verdicts_match = a.status == b.status &&
                                     a.violated_requirements == b.violated_requirements;
        }
    }

    // Steady-state wall-clock: one warm-up sweep, then best of three. The
    // warm-up also charges the CDCL pool, so the timed rounds measure the
    // persistent-solver regime the daemon and exhaustive sweeps run in.
    auto analysis = make_analysis(true, nullptr);
    (void)analysis.value().evaluate_all(space, {});
    for (int round = 0; round < 3; ++round) {
        const auto start = std::chrono::steady_clock::now();
        auto verdicts = analysis.value().evaluate_all(space, {});
        benchmark::DoNotOptimize(verdicts);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        if (round == 0 || elapsed.count() < numbers.cdcl_s) numbers.cdcl_s = elapsed.count();
    }
    return numbers;
}

// --- Daemon hot cache: cold vs warm requests, eviction under the cap -----

/// Latency of one daemon-style assess request: ModelCache::acquire plus a
/// RiskAssessment run through the entry's shared ground-once bases — the
/// path `cprisk serve` executes per request (src/serve/server.cpp).
double request_seconds(serve::ModelCache& cache, const std::string& path,
                       const core::AssessmentConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    auto model = cache.acquire(path);
    if (!model.ok()) {
        std::fprintf(stderr, "bench_perf_epa: acquire failed: %s\n", model.error().c_str());
        return 0.0;
    }
    RunContext ctx;
    ctx.base_cache = &model.value()->bases;
    auto report = model.value()->assessment->run(config, ctx);
    benchmark::DoNotOptimize(report);
    if (!report.ok()) {
        std::fprintf(stderr, "bench_perf_epa: assess failed: %s\n", report.error().c_str());
        return 0.0;
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

struct ServeNumbers {
    double cold_s = 0.0;    ///< first request on a fresh cache: load + ground + solve
    double warm_s = 0.0;    ///< steady state: cache hit, warm ground-once bases
    double thrash_s = 0.0;  ///< per-request cost while two tenants thrash a 1-entry cap
    std::size_t evictions = 0;
    std::size_t misses = 0;
    std::size_t hits = 0;
};

/// The serve block of BENCH_epa.json (docs/serve.md): warm-hit speedup of
/// the daemon's hot-model cache against a cold request, and the cost of
/// running over the cap. Two tenants share a `--hot-models 1` cache, each
/// issuing two consecutive requests per turn — the realistic burst shape:
/// the first request of a turn misses and evicts the other tenant, the
/// second hits the freshly resident entry, and all of them still succeed.
/// (A strictly alternating loop would report hits == 0 and measure only the
/// degenerate worst case.)
ServeNumbers serve_numbers() {
    const std::string watertank =
        std::string(CPRISK_SOURCE_DIR) + "/examples/models/watertank.cpm";
    const std::string reactor = std::string(CPRISK_SOURCE_DIR) + "/examples/models/reactor.cpm";
    core::AssessmentConfig config;
    config.horizon = 6;
    config.max_simultaneous_faults = 1;

    ServeNumbers numbers;
    // Cold = first request against a fresh cache; warm = repeat requests on
    // the resident entry. Best of three fresh caches / three repeats each.
    for (int round = 0; round < 3; ++round) {
        serve::ModelCache cache(1, 0, nullptr);
        const double cold = request_seconds(cache, watertank, config);
        if (round == 0 || cold < numbers.cold_s) numbers.cold_s = cold;
        for (int repeat = 0; repeat < 3; ++repeat) {
            const double warm = request_seconds(cache, watertank, config);
            if ((round == 0 && repeat == 0) || warm < numbers.warm_s) numbers.warm_s = warm;
        }
    }

    obs::MetricsRegistry metrics;
    serve::ModelCache cache(1, 0, &metrics);
    const auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < 3; ++round) {
        (void)request_seconds(cache, watertank, config);
        (void)request_seconds(cache, watertank, config);  // hit: still resident
        (void)request_seconds(cache, reactor, config);
        (void)request_seconds(cache, reactor, config);  // hit
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    numbers.thrash_s = elapsed.count() / 12.0;
    numbers.evictions =
        static_cast<std::size_t>(metrics.counter("serve.cache.evictions").value());
    numbers.misses = static_cast<std::size_t>(metrics.counter("serve.cache.misses").value());
    numbers.hits = static_cast<std::size_t>(metrics.counter("serve.cache.hits").value());
    if (numbers.hits == 0) {
        std::fprintf(stderr,
                     "bench_perf_epa: serve thrash bench expected warm hits under the "
                     "1-model cap but counted none\n");
    }
    return numbers;
}

/// Mean wall time of one `epa.absint_prefilter` span — one scenario's
/// static prefilter, verdict extraction included — in warm daemon-style
/// requests on watertank and reactor (horizon 6, single faults): the
/// in-process counterpart of e2ebench's `epa.prefilter_us_per_eval`. One
/// traced request per bundle per round, pooled over both; best of five
/// rounds.
double prefilter_us_per_eval() {
    const std::vector<std::string> bundles = {
        std::string(CPRISK_SOURCE_DIR) + "/examples/models/watertank.cpm",
        std::string(CPRISK_SOURCE_DIR) + "/examples/models/reactor.cpm"};
    core::AssessmentConfig config;
    config.horizon = 6;
    config.max_simultaneous_faults = 1;
    serve::ModelCache cache(bundles.size(), 0, nullptr);
    for (const std::string& path : bundles) (void)request_seconds(cache, path, config);

    double best = 0.0;
    for (int round = 0; round < 5; ++round) {
        double total_us = 0.0;
        std::size_t spans = 0;
        for (const std::string& path : bundles) {
            auto model = cache.acquire(path);
            if (!model.ok()) return 0.0;
            obs::ChromeTraceSink sink;
            RunContext ctx;
            ctx.base_cache = &model.value()->bases;
            ctx.trace = &sink;
            auto report = model.value()->assessment->run(config, ctx);
            if (!report.ok()) return 0.0;
            for (const obs::TraceEvent& event : sink.drain_ordered()) {
                if (event.name != "epa.absint_prefilter") continue;
                total_us += static_cast<double>(event.duration_us);
                ++spans;
            }
        }
        const double mean = spans > 0 ? total_us / static_cast<double>(spans) : 0.0;
        if (round == 0 || mean < best) best = mean;
    }
    return best;
}

// --- Anytime priors: coverage at a 50% evaluation budget -------------------

struct PriorNumbers {
    std::size_t scenarios = 0;
    long long total_micros = 0;        ///< expected-risk mass of the whole space
    long long enumeration_micros = 0;  ///< decided mass at half budget, generation order
    long long priority_micros = 0;     ///< same budget, expected-risk order
    double ratio = 0.0;                ///< priority / enumeration coverage
};

/// The priors block of BENCH_epa.json (docs/quantitative-risk.md): how much
/// expected-risk mass a run interrupted at half the watertank fault space
/// has decided, in generation order vs the expected-risk priority order.
/// Pure scoring arithmetic — no solves — so the ratio is deterministic.
PriorNumbers prior_numbers() {
    PriorNumbers numbers;
    const std::string watertank =
        std::string(CPRISK_SOURCE_DIR) + "/examples/models/watertank.cpm";
    auto bundle = core::load_bundle_file(watertank);
    if (!bundle.ok()) {
        std::fprintf(stderr, "bench_perf_epa: %s\n", bundle.error().c_str());
        return numbers;
    }
    const model::SystemModel& model = bundle.value().model;
    security::ScenarioSpaceOptions options;
    options.include_attack_scenarios = false;
    options.include_vulnerability_scenarios = false;
    options.max_simultaneous_faults = 2;
    const auto matrix = security::AttackMatrix::standard_ics();
    const auto space = security::ScenarioSpace::build(model, matrix, {}, options);
    const risk::ScenarioPriority priority(model, risk::PriorityPolicy::ExpectedRisk);
    std::vector<security::AttackScenario> ordered = space.scenarios();
    priority.order(ordered);

    const std::size_t budget = (space.size() + 1) / 2;
    const auto covered = [&](const std::vector<security::AttackScenario>& scenarios) {
        long long sum = 0;
        for (std::size_t i = 0; i < budget && i < scenarios.size(); ++i) {
            sum += priority.score_micros(scenarios[i]);
        }
        return sum;
    };
    numbers.scenarios = space.size();
    for (const auto& scenario : space.scenarios()) {
        numbers.total_micros += priority.score_micros(scenario);
    }
    numbers.enumeration_micros = covered(space.scenarios());
    numbers.priority_micros = covered(ordered);
    numbers.ratio = numbers.enumeration_micros > 0
                        ? static_cast<double>(numbers.priority_micros) /
                              static_cast<double>(numbers.enumeration_micros)
                        : 0.0;
    if (numbers.ratio < 2.0) {
        std::fprintf(stderr,
                     "bench_perf_epa: priority coverage ratio %.2f below the expected 2x\n",
                     numbers.ratio);
    }
    return numbers;
}

/// Times every sweep configuration and writes BENCH_epa.json.
void write_sweep_json() {
    const double seed = sweep_seconds(false, 1);
    const double cache_only = sweep_seconds(true, 1);
    const double no_prefilter = sweep_seconds(true, 1, nullptr, 3, false);
    const double jobs2 = sweep_seconds(true, 2);
    const double jobs4 = sweep_seconds(true, 4);
    const double jobs8 = sweep_seconds(true, 8);
    const double obs_overhead = null_obs_overhead();
    const double static_fraction = static_resolution_fraction();
    const double prefilter_us = prefilter_us_per_eval();
    const CdclNumbers cdcl = cdcl_numbers();
    const ServeNumbers serve = serve_numbers();
    const double warm_speedup = serve.warm_s > 0.0 ? serve.cold_s / serve.warm_s : 0.0;
    const FrontierNumbers frontier = frontier_numbers(16);
    const double pruning_ratio =
        frontier.evaluated > 0
            ? static_cast<double>(frontier.candidates) / static_cast<double>(frontier.evaluated)
            : 0.0;
    const PriorNumbers priors = prior_numbers();

    std::FILE* out = std::fopen("BENCH_epa.json", "w");
    if (out == nullptr) {
        std::fprintf(stderr, "bench_perf_epa: cannot write BENCH_epa.json\n");
        return;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"epa_ground_once_parallel_sweep\",\n"
                 "  \"workload\": \"chain(8), topology focus, horizon 9, 48 scenarios\",\n"
                 "  \"seed_reground_jobs1_s\": %.6f,\n"
                 "  \"ground_once_jobs1_s\": %.6f,\n"
                 "  \"ground_once_jobs2_s\": %.6f,\n"
                 "  \"ground_once_jobs4_s\": %.6f,\n"
                 "  \"ground_once_jobs8_s\": %.6f,\n"
                 "  \"speedup_ground_once_alone\": %.2f,\n"
                 "  \"speedup_jobs8_vs_seed\": %.2f,\n"
                 "  \"obs_null_overhead\": %.4f,\n"
                 "  \"absint_prefilter\": {\n"
                 "    \"prefilter_on_jobs1_s\": %.6f,\n"
                 "    \"prefilter_off_jobs1_s\": %.6f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"static_fraction\": %.4f,\n"
                 "    \"prefilter_workload\": \"watertank.cpm + reactor.cpm, warm requests, "
                 "horizon 6, single-fault\",\n"
                 "    \"prefilter_us_per_eval\": %.1f\n"
                 "  },\n"
                 "  \"cdcl\": {\n"
                 "    \"workload\": \"chain(8) + choice-gated loop bank, behavioural "
                 "focus, horizon 3, 48 scenarios\",\n"
                 "    \"cdcl_warm_jobs1_s\": %.6f,\n"
                 "    \"learned_clauses\": %zu,\n"
                 "    \"reused_propagations\": %zu,\n"
                 "    \"static_fraction\": %.4f,\n"
                 "    \"verdicts_match\": %s\n"
                 "  },\n"
                 "  \"exhaustive_frontier\": {\n"
                 "    \"workload\": \"chain(16), topology focus, horizon 17, full lattice\",\n"
                 "    \"certificate\": \"%s\",\n"
                 "    \"candidates\": %zu,\n"
                 "    \"evaluated\": %zu,\n"
                 "    \"pruned\": %zu,\n"
                 "    \"minimal_hazards\": %zu,\n"
                 "    \"wall_s\": %.6f,\n"
                 "    \"pruning_ratio\": %.2f\n"
                 "  },\n"
                 "  \"priors\": {\n"
                 "    \"workload\": \"watertank.cpm fault combinations, max_faults 2, "
                 "50%% evaluation budget\",\n"
                 "    \"scenarios\": %zu,\n"
                 "    \"total_risk_micros\": %lld,\n"
                 "    \"enumeration_covered_micros\": %lld,\n"
                 "    \"priority_covered_micros\": %lld,\n"
                 "    \"coverage_ratio\": %.2f\n"
                 "  },\n"
                 "  \"serve\": {\n"
                 "    \"workload\": \"watertank.cpm + reactor.cpm, horizon 6, single-fault\",\n"
                 "    \"cold_request_s\": %.6f,\n"
                 "    \"warm_request_s\": %.6f,\n"
                 "    \"warm_speedup\": %.2f,\n"
                 "    \"hot_models_cap\": 1,\n"
                 "    \"thrash_request_s\": %.6f,\n"
                 "    \"evictions\": %zu,\n"
                 "    \"misses\": %zu,\n"
                 "    \"hits\": %zu\n"
                 "  }\n"
                 "}\n",
                 seed, cache_only, jobs2, jobs4, jobs8, seed / cache_only, seed / jobs8,
                 obs_overhead, cache_only, no_prefilter, no_prefilter / cache_only,
                 static_fraction, prefilter_us, cdcl.cdcl_s, cdcl.learned,
                 cdcl.reused, cdcl.static_fraction, cdcl.verdicts_match ? "true" : "false",
                 frontier.monotone ? "monotone" : "mixed", frontier.candidates,
                 frontier.evaluated, frontier.pruned, frontier.minimal, frontier.seconds,
                 pruning_ratio, priors.scenarios, priors.total_micros,
                 priors.enumeration_micros, priors.priority_micros, priors.ratio,
                 serve.cold_s, serve.warm_s, warm_speedup, serve.thrash_s, serve.evictions,
                 serve.misses, serve.hits);
    std::fclose(out);
    std::printf("BENCH_epa.json: ground-once alone %.2fx, jobs=8 vs seed %.2fx, "
                "null-obs overhead %.4fx, prefilter %.2fx (static fraction %.2f, "
                "%.1f us per bundle evaluation), "
                "warm cdcl %.4fs (%zu reused propagations, verdicts %s), "
                "frontier pruning %.0fx (%zu/%zu), priority coverage %.2fx at half "
                "budget, serve warm hit %.2fx "
                "(%zu evictions, %zu hits under a 1-model cap)\n",
                seed / cache_only, seed / jobs8, obs_overhead, no_prefilter / cache_only,
                static_fraction, prefilter_us, cdcl.cdcl_s, cdcl.reused,
                cdcl.verdicts_match ? "match" : "MISMATCH", pruning_ratio,
                frontier.candidates, frontier.evaluated, priors.ratio, warm_speedup,
                serve.evictions, serve.hits);
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    write_sweep_json();
    return 0;
}
