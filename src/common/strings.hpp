// cprisk/common/strings.hpp
//
// Small string utilities shared by the parser, report emitters and catalogs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cprisk {

/// Splits `text` on `sep`; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `prefix` followed by the decimal `n` ("c", 3 -> "c3"), the generated-id
/// idiom. Prefer it to `"c" + std::to_string(n)`, which GCC 12 misreports
/// under -Wrestrict when optimizing.
std::string numbered(std::string_view prefix, long long n);

/// Lower-cases ASCII letters.
std::string to_lower(std::string_view text);

/// Converts an arbitrary label to a lower_snake_case identifier usable as an
/// ASP constant (e.g. "Engineering Workstation" -> "engineering_workstation").
std::string to_identifier(std::string_view label);

}  // namespace cprisk
