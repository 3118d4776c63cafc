// cprisk/common/schema.hpp
//
// Version stamp shared by every machine-readable output surface: report /
// metrics / trace / graph JSON and the serve protocol replies. Consumers
// key their parsers on the top-level "schema_version" field.
//
// Compatibility rule (documented in docs/quantitative-risk.md): within one
// major value the schemas are strictly additive — existing keys never change
// meaning or type and never disappear, new keys may appear anywhere. The
// value is bumped exactly when a key is removed or its meaning changes, and
// the release notes carry a migration note. Removed C++ API follows the same
// pattern: one release of deprecated coexistence, then removal (as with
// `HardeningResult`, docs/quantitative-risk.md).
#pragma once

namespace cprisk {

/// Current schema generation for all JSON emitters. History:
///   1 — implicit (pre-versioned outputs, no "schema_version" key)
///   2 — versioned outputs; adds priors/pareto blocks to the report
inline constexpr long long kSchemaVersion = 2;

}  // namespace cprisk
