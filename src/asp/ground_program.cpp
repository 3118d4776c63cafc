#include "asp/ground_program.hpp"

#include "common/error.hpp"

namespace cprisk::asp {

int GroundProgram::intern(const Atom& atom) {
    auto it = ids_.find(atom);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(atoms_.size());
    atoms_.push_back(atom);
    ids_.emplace(atom, id);
    return id;
}

int GroundProgram::find(const Atom& atom) const {
    auto it = ids_.find(atom);
    return it == ids_.end() ? -1 : it->second;
}

const Atom& GroundProgram::atom(int id) const {
    require(id >= 0 && id < static_cast<int>(atoms_.size()),
            "GroundProgram: atom id out of range");
    return atoms_[static_cast<std::size_t>(id)];
}

bool GroundProgram::is_shown(int id) const {
    if (shows_.empty()) return true;
    const Atom& a = atom(id);
    for (const Signature& s : shows_) {
        if (s.predicate == a.predicate && s.arity == a.args.size()) return true;
    }
    return false;
}

std::string GroundProgram::to_string() const {
    std::string out;
    auto body_string = [&](const GroundRule& r) {
        std::string b;
        for (int id : r.positive_body) {
            if (!b.empty()) b += ", ";
            b += atom(id).to_string();
        }
        for (int id : r.negative_body) {
            if (!b.empty()) b += ", ";
            b += "not " + atom(id).to_string();
        }
        return b;
    };
    for (const GroundRule& r : rules_) {
        switch (r.kind) {
            case GroundRule::Kind::Normal: out += atom(r.head).to_string(); break;
            case GroundRule::Kind::Constraint: break;
            case GroundRule::Kind::Choice: {
                if (r.lower_bound) out += std::to_string(*r.lower_bound) + " ";
                out += "{ ";
                for (std::size_t i = 0; i < r.choice_heads.size(); ++i) {
                    if (i > 0) out += "; ";
                    out += atom(r.choice_heads[i]).to_string();
                }
                out += " }";
                if (r.upper_bound) {
                    out += ' ';
                    out += std::to_string(*r.upper_bound);
                }
                break;
            }
        }
        const std::string body = body_string(r);
        if (!body.empty() || r.kind == GroundRule::Kind::Constraint) {
            out += (out.empty() || out.back() == '\n' ? ":- " : " :- ") + body;
        }
        out += ".\n";
    }
    for (const GroundWeak& w : weaks_) {
        std::string b;
        for (int id : w.positive_body) {
            if (!b.empty()) b += ", ";
            b += atom(id).to_string();
        }
        for (int id : w.negative_body) {
            if (!b.empty()) b += ", ";
            b += "not " + atom(id).to_string();
        }
        out += ":~ " + b + ". [" + std::to_string(w.weight) + "@" + std::to_string(w.priority) +
               (w.tuple.empty() ? "" : ", " + w.tuple) + "]\n";
    }
    return out;
}

}  // namespace cprisk::asp
