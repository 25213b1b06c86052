// event-lifecycle rules: every EventId or TimerId that outlives the scheduling
// statement must have an owner that can retire it.
//
//   event-owner        — a class member of type (Simulator::)EventId must be
//                        named inside a Cancel(...) call somewhere in the
//                        project. A stored id nobody can cancel is a leak
//                        waiting for a stale fire: the two-level scheduler
//                        cancels on every deschedule, so an uncancellable
//                        stored id is always a protocol miss, not a style
//                        choice.
//   timer-owner        — the same contract for the timer lane: a class member
//                        of type (Simulator::)TimerId must be named inside a
//                        DisarmTimer(...) call somewhere in the project. A
//                        timer nobody disarms keeps firing for an owner that
//                        has stopped (an advance timer outliving its vCPU's
//                        run).
//   event-freeze-path  — src/guest/ and src/vscale/ (the layers the vScale
//                        freeze path reenters) must not persist raw EventIds
//                        at all: a frozen vCPU's stored id can be recycled
//                        before unfreeze. Periodic work in those layers owns
//                        its timer through PeriodicTask, whose Stop()/dtor
//                        cancels deterministically.
//
// Matching is by member *name* project-wide, which can under-report when two
// classes share a member name — acceptable for a lint; the corpus pins the
// intended semantics.

#include <set>

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

struct IdMember {
  std::string rel;
  int line;
  std::string cls;
  std::string name;
};

// Member declarations of type `type` / `Simulator::<type>` at class scope
// (function bodies excluded, so locals never match).
void CollectIdMembers(const ParsedFile& pf, const std::string& type,
                      std::vector<IdMember>* out) {
  const std::vector<Token>& toks = pf.src.tokens;
  for (const ClassInfo& ci : pf.classes) {
    for (size_t t = ci.body_begin; t + 1 < ci.body_end && t < toks.size();
         ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != type) continue;
      if (InFunctionBody(pf, t)) continue;
      // Skip `using EventId = ...;` aliases and `static constexpr EventId`
      // constants (kInvalidEvent is a sentinel, not a stored schedule).
      bool is_alias_or_constant = false;
      size_t back = t;
      if (back >= 2 && toks[back - 1].kind == Token::kPunct &&
          toks[back - 1].text == "::") {
        back -= 2;  // step over the `Simulator::` qualifier
      }
      for (size_t k = 0; k < 3 && back > ci.body_begin; ++k) {
        --back;
        if (toks[back].kind != Token::kIdent) break;
        if (toks[back].text == "using" || toks[back].text == "constexpr" ||
            toks[back].text == "typedef") {
          is_alias_or_constant = true;
          break;
        }
      }
      if (is_alias_or_constant) continue;
      const Token& next = toks[t + 1];
      if (next.kind != Token::kIdent) continue;
      // Require a declarator: `EventId name;` or `EventId name = ...;`.
      if (t + 2 < toks.size() && toks[t + 2].kind == Token::kPunct &&
          (toks[t + 2].text == ";" || toks[t + 2].text == "=" ||
           toks[t + 2].text == "{")) {
        out->push_back({pf.src.rel, next.line, ci.name, next.text});
      }
    }
  }
}

// Every identifier that appears inside a `call(...)` argument list anywhere
// in the project.
void CollectRetiredNames(const Project& project, const std::string& call,
                         std::set<std::string>* out) {
  for (const ParsedFile& pf : project.files) {
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != call) {
        continue;
      }
      if (toks[t + 1].kind != Token::kPunct || toks[t + 1].text != "(") {
        continue;
      }
      int depth = 1;
      for (size_t j = t + 2; j < toks.size() && depth > 0; ++j) {
        if (toks[j].kind == Token::kPunct) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
        } else if (toks[j].kind == Token::kIdent) {
          out->insert(toks[j].text);
        }
      }
    }
  }
}

// Flags every stored `type` member never named inside a `retire_call(...)`.
void CheckOwned(const Project& project, const std::string& type,
                const std::string& retire_call, const char* rule,
                std::vector<Finding>* out) {
  std::vector<IdMember> members;
  for (const ParsedFile& pf : project.files) {
    CollectIdMembers(pf, type, &members);
  }
  if (members.empty()) return;
  std::set<std::string> retired;
  CollectRetiredNames(project, retire_call, &retired);
  for (const IdMember& m : members) {
    if (retired.count(m.name) != 0) continue;
    out->push_back({m.rel, m.line, rule,
                    "stored " + type + " '" + m.name + "' in class '" + m.cls +
                        "' is never passed to " + retire_call +
                        "(); every persisted " + type + " needs an owner that "
                        "retires it"});
  }
}

}  // namespace

void EventOwner(const Project& project, std::vector<Finding>* out) {
  CheckOwned(project, "EventId", "Cancel", "event-owner", out);
}

void TimerOwner(const Project& project, std::vector<Finding>* out) {
  CheckOwned(project, "TimerId", "DisarmTimer", "timer-owner", out);
}

void EventFreezePath(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    const std::string& rel = pf.src.rel;
    if (rel.rfind("src/guest/", 0) != 0 && rel.rfind("src/vscale/", 0) != 0) {
      continue;
    }
    std::vector<IdMember> members;
    CollectIdMembers(pf, "EventId", &members);
    for (const IdMember& m : members) {
      out->push_back({m.rel, m.line, "event-freeze-path",
                      "raw EventId '" + m.name +
                          "' persisted in a freeze-path layer; the freeze "
                          "path can recycle ids under it — own the timer via "
                          "PeriodicTask instead"});
    }
  }
}

}  // namespace rules
}  // namespace vslint
