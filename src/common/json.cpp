#include "common/json.hpp"

#include <cctype>

namespace cprisk::json {

const Value* Value::get(std::string_view key) const {
    if (kind_ != Kind::Object) return nullptr;
    for (const auto& [name, value] : object_) {
        if (name == key) return &value;
    }
    return nullptr;
}

long long Value::get_int(std::string_view key, long long fallback) const {
    const Value* v = get(key);
    return v != nullptr && v->is_int() ? v->as_int() : fallback;
}

std::string Value::get_string(std::string_view key, const std::string& fallback) const {
    const Value* v = get(key);
    return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

bool Value::get_bool(std::string_view key, bool fallback) const {
    const Value* v = get(key);
    return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    static const char* hex = "0123456789abcdef";
                    out += "\\u00";
                    out += hex[(c >> 4) & 0xF];
                    out += hex[c & 0xF];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string Value::serialize() const {
    switch (kind_) {
        case Kind::Null: return "null";
        case Kind::Bool: return bool_ ? "true" : "false";
        case Kind::Int: return std::to_string(int_);
        case Kind::String: {
            std::string out = "\"";
            out += escape(string_);
            out += '"';
            return out;
        }
        case Kind::Array: {
            std::string out = "[";
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i > 0) out += ",";
                out += array_[i].serialize();
            }
            return out + "]";
        }
        case Kind::Object: {
            std::string out = "{";
            for (std::size_t i = 0; i < object_.size(); ++i) {
                if (i > 0) out += ",";
                out += '"';
                out += escape(object_[i].first);
                out += "\":";
                out += object_[i].second.serialize();
            }
            return out + "}";
        }
    }
    return "null";
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Result<Value> run() {
        auto value = parse_value();
        if (!value.ok()) return value;
        skip_ws();
        if (pos_ != text_.size()) {
            return fail("trailing characters after JSON value");
        }
        return value;
    }

private:
    Result<Value> fail(const std::string& message) const {
        return Result<Value>::failure("json: " + message + " at offset " + std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool consume(char c) {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool consume_keyword(std::string_view keyword) {
        if (text_.substr(pos_, keyword.size()) == keyword) {
            pos_ += keyword.size();
            return true;
        }
        return false;
    }

    Result<Value> parse_value() {
        skip_ws();
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{') return parse_object();
        if (c == '[') return parse_array();
        if (c == '"') {
            auto s = parse_string();
            if (!s.ok()) return Result<Value>::failure(s.error());
            return Value(std::move(s).value());
        }
        if (consume_keyword("true")) return Value(true);
        if (consume_keyword("false")) return Value(false);
        if (consume_keyword("null")) return Value();
        if (c == '-' || (c >= '0' && c <= '9')) return parse_int();
        return fail(std::string("unexpected character '") + c + "'");
    }

    Result<Value> parse_int() {
        const std::size_t start = pos_;
        if (consume('-') && pos_ >= text_.size()) return fail("bare '-'");
        while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
            return fail("floating-point numbers are not supported");
        }
        const std::string digits(text_.substr(start, pos_ - start));
        if (digits.empty() || digits == "-") return fail("malformed number");
        try {
            return Value(static_cast<long long>(std::stoll(digits)));
        } catch (const std::exception&) {
            return fail("integer out of range: " + digits);
        }
    }

    Result<std::string> parse_string() {
        if (!consume('"')) {
            return Result<std::string>::failure("json: expected '\"' at offset " +
                                                std::to_string(pos_));
        }
        std::string out;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) break;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        return Result<std::string>::failure("json: truncated \\u escape");
                    }
                    int code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code += h - '0';
                        } else if (h >= 'a' && h <= 'f') {
                            code += h - 'a' + 10;
                        } else if (h >= 'A' && h <= 'F') {
                            code += h - 'A' + 10;
                        } else {
                            return Result<std::string>::failure("json: bad \\u escape digit");
                        }
                    }
                    // The journal only ever escapes control characters; emit
                    // basic-plane code points as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default:
                    return Result<std::string>::failure(std::string("json: bad escape '\\") + esc +
                                                        "'");
            }
        }
        return Result<std::string>::failure("json: unterminated string");
    }

    Result<Value> parse_array() {
        consume('[');
        Array items;
        skip_ws();
        if (consume(']')) return Value(std::move(items));
        while (true) {
            auto item = parse_value();
            if (!item.ok()) return item;
            items.push_back(std::move(item).value());
            skip_ws();
            if (consume(']')) return Value(std::move(items));
            if (!consume(',')) return fail("expected ',' or ']' in array");
        }
    }

    Result<Value> parse_object() {
        consume('{');
        Object members;
        skip_ws();
        if (consume('}')) return Value(std::move(members));
        while (true) {
            skip_ws();
            auto key = parse_string();
            if (!key.ok()) return Result<Value>::failure(key.error());
            skip_ws();
            if (!consume(':')) return fail("expected ':' after object key");
            auto value = parse_value();
            if (!value.ok()) return value;
            members.emplace_back(std::move(key).value(), std::move(value).value());
            skip_ws();
            if (consume('}')) return Value(std::move(members));
            if (!consume(',')) return fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace cprisk::json
