#include "asp/term.hpp"

#include <ostream>

#include "common/error.hpp"

namespace cprisk::asp {

Term Term::integer(long long value) {
    Term t;
    t.kind_ = Kind::Integer;
    t.int_ = value;
    return t;
}

Term Term::symbol(std::string name) {
    Term t;
    t.kind_ = Kind::Symbol;
    t.name_ = std::move(name);
    return t;
}

Term Term::variable(std::string name) {
    Term t;
    t.kind_ = Kind::Variable;
    t.name_ = std::move(name);
    return t;
}

Term Term::compound(std::string functor, std::vector<Term> args) {
    Term t;
    t.kind_ = Kind::Compound;
    t.name_ = std::move(functor);
    t.args_ = std::move(args);
    return t;
}

long long Term::as_int() const {
    require(is_integer(), "Term::as_int on non-integer term " + to_string());
    return int_;
}

const std::string& Term::name() const {
    require(!is_integer(), "Term::name on integer term");
    return name_;
}

const std::vector<Term>& Term::args() const {
    require(is_compound(), "Term::args on non-compound term " + to_string());
    return args_;
}

bool Term::is_ground() const {
    switch (kind_) {
        case Kind::Integer:
        case Kind::Symbol: return true;
        case Kind::Variable: return false;
        case Kind::Compound:
            for (const Term& a : args_) {
                if (!a.is_ground()) return false;
            }
            return true;
    }
    return false;
}

void Term::collect_variables(std::vector<std::string>& out) const {
    switch (kind_) {
        case Kind::Variable: out.push_back(name_); break;
        case Kind::Compound:
            for (const Term& a : args_) a.collect_variables(out);
            break;
        default: break;
    }
}

bool Term::operator==(const Term& other) const {
    if (kind_ != other.kind_) return false;
    switch (kind_) {
        case Kind::Integer: return int_ == other.int_;
        case Kind::Symbol:
        case Kind::Variable: return name_ == other.name_;
        case Kind::Compound: return name_ == other.name_ && args_ == other.args_;
    }
    return false;
}

bool Term::operator<(const Term& other) const {
    if (kind_ != other.kind_) return static_cast<int>(kind_) < static_cast<int>(other.kind_);
    switch (kind_) {
        case Kind::Integer: return int_ < other.int_;
        case Kind::Symbol:
        case Kind::Variable: return name_ < other.name_;
        case Kind::Compound:
            if (name_ != other.name_) return name_ < other.name_;
            return args_ < other.args_;
    }
    return false;
}

std::string Term::to_string() const {
    switch (kind_) {
        case Kind::Integer: return std::to_string(int_);
        case Kind::Symbol:
        case Kind::Variable: return name_;
        case Kind::Compound: {
            // Render binary operators infix for readability.
            if (args_.size() == 2 &&
                (name_ == "+" || name_ == "-" || name_ == "*" || name_ == "/" ||
                 name_ == "mod" || name_ == "..")) {
                std::string out = "(";
                out += args_[0].to_string();
                out += name_;
                out += args_[1].to_string();
                out += ')';
                return out;
            }
            std::string out = name_ + "(";
            for (std::size_t i = 0; i < args_.size(); ++i) {
                if (i > 0) out += ",";
                out += args_[i].to_string();
            }
            return out + ")";
        }
    }
    return "?";
}

std::ostream& operator<<(std::ostream& os, const Term& t) { return os << t.to_string(); }

bool Atom::is_ground() const {
    for (const Term& a : args) {
        if (!a.is_ground()) return false;
    }
    return true;
}

bool Atom::operator==(const Atom& other) const {
    return predicate == other.predicate && args == other.args;
}

bool Atom::operator<(const Atom& other) const {
    if (predicate != other.predicate) return predicate < other.predicate;
    return args < other.args;
}

std::string Atom::to_string() const {
    if (args.empty()) return predicate;
    std::string out = predicate + "(";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ",";
        out += args[i].to_string();
    }
    return out + ")";
}

std::ostream& operator<<(std::ostream& os, const Atom& a) { return os << a.to_string(); }

}  // namespace cprisk::asp
