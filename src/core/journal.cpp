#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/fault_injection.hpp"

namespace cprisk::core {

namespace {

using hierarchy::ScenarioRecord;
using hierarchy::StageOutcome;

json::Value stats_to_json(const asp::SolveStats& stats) {
    json::Object o;
    json::set(o, "decisions", stats.decisions);
    json::set(o, "propagations", stats.propagations);
    json::set(o, "conflicts", stats.conflicts);
    json::set(o, "stability_rejects", stats.stability_rejects);
    json::set(o, "models_enumerated", stats.models_enumerated);
    return o;
}

asp::SolveStats stats_from_json(const json::Value& value) {
    asp::SolveStats stats;
    stats.decisions = static_cast<std::size_t>(value.get_int("decisions"));
    stats.propagations = static_cast<std::size_t>(value.get_int("propagations"));
    stats.conflicts = static_cast<std::size_t>(value.get_int("conflicts"));
    stats.stability_rejects = static_cast<std::size_t>(value.get_int("stability_rejects"));
    stats.models_enumerated = static_cast<std::size_t>(value.get_int("models_enumerated"));
    return stats;
}

json::Value mutations_to_json(const std::vector<security::Mutation>& mutations) {
    json::Array out;
    for (const security::Mutation& mutation : mutations) {
        json::Object o;
        json::set(o, "component", mutation.component);
        json::set(o, "fault", mutation.fault_id);
        out.push_back(std::move(o));
    }
    return out;
}

std::vector<security::Mutation> mutations_from_json(const json::Value& value) {
    std::vector<security::Mutation> out;
    if (!value.is_array()) return out;
    for (const json::Value& item : value.as_array()) {
        out.push_back(security::Mutation{item.get_string("component"), item.get_string("fault")});
    }
    return out;
}

json::Value strings_to_json(const std::vector<std::string>& items) {
    json::Array out;
    for (const std::string& item : items) out.push_back(item);
    return out;
}

std::vector<std::string> strings_from_json(const json::Value& value) {
    std::vector<std::string> out;
    if (!value.is_array()) return out;
    for (const json::Value& item : value.as_array()) {
        if (item.is_string()) out.push_back(item.as_string());
    }
    return out;
}

qual::Level level_from_int(long long value) {
    if (value < 0) value = 0;
    if (value > 4) value = 4;
    return static_cast<qual::Level>(value);
}

json::Value verdict_to_json(const epa::ScenarioVerdict& verdict) {
    json::Object o;
    json::set(o, "scenario_id", verdict.scenario_id);
    json::set(o, "status", std::string(epa::to_string(verdict.status)));
    if (verdict.undetermined_reason) {
        json::set(o, "reason", std::string(epa::to_string(*verdict.undetermined_reason)));
    }
    if (!verdict.undetermined_detail.empty()) {
        json::set(o, "detail", verdict.undetermined_detail);
    }
    json::set(o, "mutations", mutations_to_json(verdict.mutations));
    json::set(o, "active_mitigations", strings_to_json(verdict.active_mitigations));
    json::set(o, "violated", strings_to_json(verdict.violated_requirements));
    json::set(o, "injected", mutations_to_json(verdict.injected));
    json::Array propagation;
    for (const epa::PropagationStep& step : verdict.propagation) {
        json::Object s;
        json::set(s, "time", step.time);
        json::set(s, "component", step.component);
        propagation.push_back(std::move(s));
    }
    json::set(o, "propagation", std::move(propagation));
    json::set(o, "severity", static_cast<int>(verdict.severity));
    json::set(o, "likelihood", static_cast<int>(verdict.likelihood));
    json::set(o, "stats", stats_to_json(verdict.solver_stats));
    json::set(o, "provenance", std::string(epa::to_string(verdict.provenance)));
    return o;
}

Result<epa::ScenarioVerdict> verdict_from_json(const json::Value& value) {
    if (!value.is_object()) {
        return Result<epa::ScenarioVerdict>::failure("journal: verdict is not an object");
    }
    epa::ScenarioVerdict verdict;
    verdict.scenario_id = value.get_string("scenario_id");
    auto status = epa::parse_verdict_status(value.get_string("status"));
    if (!status) {
        return Result<epa::ScenarioVerdict>::failure("journal: bad verdict status '" +
                                                     value.get_string("status") + "'");
    }
    verdict.status = *status;
    if (const json::Value* reason = value.get("reason")) {
        verdict.undetermined_reason = epa::parse_undetermined_reason(reason->as_string());
    }
    verdict.undetermined_detail = value.get_string("detail");
    if (const json::Value* mutations = value.get("mutations")) {
        verdict.mutations = mutations_from_json(*mutations);
    }
    if (const json::Value* active = value.get("active_mitigations")) {
        verdict.active_mitigations = strings_from_json(*active);
    }
    if (const json::Value* violated = value.get("violated")) {
        verdict.violated_requirements = strings_from_json(*violated);
    }
    if (const json::Value* injected = value.get("injected")) {
        verdict.injected = mutations_from_json(*injected);
    }
    if (const json::Value* propagation = value.get("propagation")) {
        if (propagation->is_array()) {
            for (const json::Value& step : propagation->as_array()) {
                verdict.propagation.push_back(epa::PropagationStep{
                    static_cast<int>(step.get_int("time")), step.get_string("component")});
            }
        }
    }
    verdict.severity = level_from_int(value.get_int("severity"));
    verdict.likelihood = level_from_int(value.get_int("likelihood"));
    if (const json::Value* stats = value.get("stats")) {
        verdict.solver_stats = stats_from_json(*stats);
    }
    // Absent in pre-absint journals: those verdicts all came from the solver.
    if (const json::Value* provenance = value.get("provenance")) {
        if (auto parsed = epa::parse_verdict_provenance(provenance->as_string())) {
            verdict.provenance = *parsed;
        }
    }
    return verdict;
}

}  // namespace

json::Value journal_header(const AssessmentConfig& config) {
    json::Object echo;
    json::set(echo, "horizon", config.horizon);
    json::set(echo, "max_simultaneous_faults", config.max_simultaneous_faults);
    json::set(echo, "include_attack_scenarios", config.include_attack_scenarios);
    json::set(echo, "use_cegar", config.use_cegar);
    json::set(echo, "active_mitigations", strings_to_json(config.active_mitigations));
    json::set(echo, "max_decisions", config.max_decisions);
    // Exhaustive-frontier knobs change the candidate universe, so a journal
    // from one mode must not resume under another. `static_prefilter` stays
    // excluded: like the job count (RunContext::jobs), it changes no verdict
    // or byte.
    json::set(echo, "exhaustive", config.exhaustive);
    json::set(echo, "max_card", config.max_card);
    json::set(echo, "attack_reachable_only", config.attack_reachable_only);
    // The priority policy fixes the order records are appended in, so a
    // journal must not resume under a different one (the compacted journal
    // would interleave two orders and break byte-identical resume).
    // `prior_seed` stays excluded: it only shapes the rendered confidence
    // bound, never a verdict or a journal byte.
    json::set(echo, "priority_policy", std::string(risk::to_string(config.priority_policy)));
    json::Object header;
    json::set(header, "kind", "cprisk-journal");
    json::set(header, "version", 1);
    json::set(header, "config", std::move(echo));
    return header;
}

json::Value record_to_json(const ScenarioRecord& record) {
    json::Object o;
    json::set(o, "kind", "scenario");
    json::set(o, "id", record.scenario_id);
    json::set(o, "outcome", std::string(hierarchy::to_string(record.outcome)));
    json::Array stages;
    for (const StageOutcome& stage : record.stages) {
        json::Object s;
        json::set(s, "stage", stage.stage);
        json::set(s, "status", std::string(epa::to_string(stage.status)));
        if (stage.undetermined_reason) {
            json::set(s, "reason", std::string(epa::to_string(*stage.undetermined_reason)));
        }
        json::set(s, "degraded", stage.degraded);
        stages.push_back(std::move(s));
    }
    json::set(o, "stages", std::move(stages));
    json::set(o, "verdict", verdict_to_json(record.verdict));
    // Only stamped under a scoring priority policy; omitted (not zero) when
    // absent so enumeration-policy journals keep their pre-prior bytes.
    if (record.expected_risk_micros >= 0) {
        json::set(o, "expected_risk", record.expected_risk_micros);
    }
    return o;
}

Result<ScenarioRecord> record_from_json(const json::Value& value) {
    if (!value.is_object() || value.get_string("kind") != "scenario") {
        return Result<ScenarioRecord>::failure("journal: not a scenario record");
    }
    ScenarioRecord record;
    record.scenario_id = value.get_string("id");
    if (record.scenario_id.empty()) {
        return Result<ScenarioRecord>::failure("journal: scenario record without id");
    }
    auto outcome = hierarchy::parse_scenario_outcome(value.get_string("outcome"));
    if (!outcome) {
        return Result<ScenarioRecord>::failure("journal: bad outcome '" +
                                               value.get_string("outcome") + "' for scenario " +
                                               record.scenario_id);
    }
    record.outcome = *outcome;
    if (const json::Value* stages = value.get("stages")) {
        if (stages->is_array()) {
            for (const json::Value& stage : stages->as_array()) {
                StageOutcome out;
                out.stage = stage.get_string("stage");
                auto status = epa::parse_verdict_status(stage.get_string("status"));
                if (!status) {
                    return Result<ScenarioRecord>::failure(
                        "journal: bad stage status for scenario " + record.scenario_id);
                }
                out.status = *status;
                if (const json::Value* reason = stage.get("reason")) {
                    out.undetermined_reason = epa::parse_undetermined_reason(reason->as_string());
                }
                out.degraded = stage.get_bool("degraded");
                record.stages.push_back(std::move(out));
            }
        }
    }
    const json::Value* verdict = value.get("verdict");
    if (verdict == nullptr) {
        return Result<ScenarioRecord>::failure("journal: scenario " + record.scenario_id +
                                               " has no verdict");
    }
    auto parsed = verdict_from_json(*verdict);
    if (!parsed.ok()) return Result<ScenarioRecord>::failure(parsed.error());
    record.verdict = std::move(parsed).value();
    if (const json::Value* score = value.get("expected_risk")) {
        record.expected_risk_micros = score->as_int();
    }
    return record;
}

Result<JournalContents> load_journal(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        return Result<JournalContents>::failure("journal: cannot read " + path);
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    if (lines.empty()) {
        return Result<JournalContents>::failure("journal: " + path + " is empty");
    }

    JournalContents contents;
    auto header = json::parse(lines.front());
    if (!header.ok() || header.value().get_string("kind") != "cprisk-journal") {
        return Result<JournalContents>::failure("journal: " + path +
                                                " has a missing or corrupt header");
    }
    contents.header = std::move(header).value();

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const bool last = i + 1 == lines.size();
        auto parsed = json::parse(lines[i]);
        if (!parsed.ok()) {
            // The line in flight when the writer died; anything earlier must
            // be intact.
            if (last) {
                contents.torn_tail = true;
                break;
            }
            return Result<JournalContents>::failure("journal: " + path + " line " +
                                                    std::to_string(i + 1) + ": " +
                                                    parsed.error());
        }
        auto record = record_from_json(parsed.value());
        if (!record.ok()) {
            if (last) {
                contents.torn_tail = true;
                break;
            }
            return Result<JournalContents>::failure("journal: " + path + " line " +
                                                    std::to_string(i + 1) + ": " +
                                                    record.error());
        }
        contents.records.push_back(std::move(record).value());
    }
    return contents;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), sync_(other.sync_) {
    other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
    if (this != &other) {
        if (fd_ >= 0) ::close(fd_);
        path_ = std::move(other.path_);
        fd_ = other.fd_;
        sync_ = other.sync_;
        other.fd_ = -1;
    }
    return *this;
}

JournalWriter::~JournalWriter() {
    if (fd_ >= 0) ::close(fd_);
}

Result<void> JournalWriter::write_all(const char* data, std::size_t size) {
    while (size > 0) {
        const ::ssize_t wrote = ::write(fd_, data, size);
        if (wrote < 0) {
            if (errno == EINTR) continue;
            return Result<void>::failure("journal: write failed: " + path_ + ": " +
                                         std::strerror(errno));
        }
        data += wrote;
        size -= static_cast<std::size_t>(wrote);
    }
    if (sync_ && ::fsync(fd_) != 0) {
        return Result<void>::failure("journal: fsync failed: " + path_ + ": " +
                                     std::strerror(errno));
    }
    return {};
}

Result<JournalWriter> JournalWriter::open(const std::string& path, const json::Value& header,
                                          JournalOptions options) {
    if (fault::should_fail("core.journal.open")) {
        return Result<JournalWriter>::failure("journal: injected I/O fault (site "
                                              "core.journal.open)");
    }
    JournalWriter writer(path);
    writer.sync_ = options.sync;
    writer.fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (writer.fd_ < 0) {
        return Result<JournalWriter>::failure("journal: cannot open " + path + " for writing: " +
                                              std::strerror(errno));
    }
    const std::string line = header.serialize() + '\n';
    if (auto written = writer.write_all(line.data(), line.size()); !written.ok()) {
        return Result<JournalWriter>::failure(written.error());
    }
    return writer;
}

Result<void> JournalWriter::append(const hierarchy::ScenarioRecord& record) {
    const std::string line = record_to_json(record).serialize();
    if (fault::should_fail("core.journal.append")) {
        // Simulate a torn write: half the line, no newline, then the
        // "crash". Resume must discard exactly this line. The torn bytes go
        // through the same write (and fsync) path a real crash would race.
        (void)write_all(line.data(), line.size() / 2);
        return Result<void>::failure("journal: injected I/O fault (site core.journal.append)");
    }
    const std::string full = line + '\n';
    return write_all(full.data(), full.size());
}

}  // namespace cprisk::core
