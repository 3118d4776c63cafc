// Reproduces Table II of the paper: exhaustive qualitative EPA of the
// water-tank case study over the S1-S7 fault-mode combinations, printing the
// same rows (active fault modes, mitigation status, R1/R2 violations).
// Self-checking against the verdicts printed in the paper.
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/watertank.hpp"

namespace {

using cprisk::core::Table2Row;
using cprisk::core::WaterTankCaseStudy;
using cprisk::security::Mutation;

struct Expected {
    const char* id;
    bool r1;
    bool r2;
};

// Table II as printed: S2 violates both; S4 violates R1 only; S5 and S7
// violate both; S1, S3, S6 violate nothing.
constexpr Expected kExpected[] = {
    {"s1", false, false}, {"s2", true, true},  {"s3", false, false}, {"s4", true, false},
    {"s5", true, true},   {"s6", false, false}, {"s7", true, true},
};

bool has_mutation(const std::vector<Mutation>& mutations, const char* component,
                  const char* fault) {
    for (const Mutation& m : mutations) {
        if (m.component == component && m.fault_id == fault) return true;
    }
    return false;
}

}  // namespace

int main() {
    auto built = WaterTankCaseStudy::build();
    if (!built.ok()) {
        std::printf("case study build failed: %s\n", built.error().c_str());
        return 1;
    }
    const WaterTankCaseStudy& cs = built.value();

    cprisk::epa::EpaOptions options;
    options.focus = cprisk::epa::AnalysisFocus::Behavioral;
    options.horizon = cs.horizon;
    auto epa = cprisk::epa::ErrorPropagationAnalysis::create(cs.system, cs.requirements,
                                                             cs.mitigations, options);
    if (!epa.ok()) {
        std::printf("EPA setup failed: %s\n", epa.error().c_str());
        return 1;
    }

    std::printf("== Table II: analysis results of the water-tank case study ==\n");
    std::printf("   F1: input valve stuck-at-open      F2: output valve stuck-at-closed\n");
    std::printf("   F3: HMI no-signal                  F4: infected engineering workstation\n");
    std::printf("   M1: user training                  M2: endpoint security\n\n");

    cprisk::TextTable table({"", "F1", "F2", "F3", "F4", "M1", "M2", "R1", "R2"});
    int mismatches = 0;
    const auto rows = cs.table2_rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Table2Row& row = rows[i];
        auto verdict = epa.value().evaluate(row.scenario, row.active_mitigations);
        if (!verdict.ok()) {
            std::printf("scenario %s failed: %s\n", row.scenario.id.c_str(),
                        verdict.error().c_str());
            return 1;
        }
        const auto& v = verdict.value();
        auto star = [&](const char* component, const char* fault) {
            return has_mutation(row.scenario.mutations, component, fault) ? "*" : "";
        };
        auto active = [&](const char* mitigation) {
            for (const auto& m : row.active_mitigations) {
                if (m == mitigation) return "Active";
            }
            return "";
        };
        const bool r1 = v.violates("r1");
        const bool r2 = v.violates("r2");
        table.add_row({cprisk::numbered("S", i + 1),
                       star("input_valve", "stuck_at_open"),
                       star("output_valve", "stuck_at_closed"), star("hmi", "no_signal"),
                       star("workstation", "infected"), active("M-TRAIN"),
                       active("M-ENDPOINT"), r1 ? "Violated" : "-", r2 ? "Violated" : "-"});
        if (r1 != kExpected[i].r1 || r2 != kExpected[i].r2) {
            std::printf("MISMATCH %s: paper R1=%d R2=%d, ours R1=%d R2=%d\n", kExpected[i].id,
                        kExpected[i].r1, kExpected[i].r2, r1, r2);
            ++mismatches;
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper-vs-ours: %d/7 scenario rows match%s\n",
                7 - mismatches, mismatches == 0 ? " (exact reproduction)" : "");

    // The paper's closing observation: S5 is the most severe two-fault
    // combination; S7 yields the same violations at lower likelihood.
    auto s5 = epa.value().evaluate(rows[4].scenario, rows[4].active_mitigations);
    auto s7 = epa.value().evaluate(rows[6].scenario, rows[6].active_mitigations);
    if (s5.ok() && s7.ok()) {
        std::printf(
            "S5 vs S7: identical violations=%s; likelihood S7 (%s) <= S5 (%s) — \"the "
            "potential probability of the simultaneous occurrence of all faults is much "
            "lower\"\n",
            s5.value().violated_requirements == s7.value().violated_requirements ? "yes" : "NO",
            std::string(cprisk::qual::to_short_string(rows[6].scenario.likelihood)).c_str(),
            std::string(cprisk::qual::to_short_string(rows[4].scenario.likelihood)).c_str());
    }
    return mismatches == 0 ? 0 : 1;
}
