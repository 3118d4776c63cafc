#include "common/strings.hpp"

#include <cctype>

namespace cprisk {

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            return out;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string numbered(std::string_view prefix, long long n) {
    std::string out(prefix);
    out += std::to_string(n);
    return out;
}

std::string_view trim(std::string_view text) {
    while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
        text.remove_prefix(1);
    }
    while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
        text.remove_suffix(1);
    }
    return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string to_identifier(std::string_view label) {
    std::string out;
    out.reserve(label.size());
    bool last_underscore = false;
    for (char raw : label) {
        const auto c = static_cast<unsigned char>(raw);
        if (std::isalnum(c)) {
            out += static_cast<char>(std::tolower(c));
            last_underscore = false;
        } else if (!out.empty() && !last_underscore) {
            out += '_';
            last_underscore = true;
        }
    }
    while (!out.empty() && out.back() == '_') out.pop_back();
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out.front()))) {
        out.insert(out.begin(), 'x');
    }
    return out;
}

}  // namespace cprisk
