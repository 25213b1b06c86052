// event-lifecycle rule: a timer that outlives the arming statement must have
// an owner that can disarm it.
//
//   timer-owner        — a class member of type (Simulator::)TimerId must be
//                        named inside a DisarmTimer(...) call somewhere in the
//                        project. A timer nobody disarms keeps firing for an
//                        owner that has stopped (an advance timer outliving
//                        its vCPU's run, a periodic task outliving its owner).
//
// One-shot events need no rule: ScheduleAt returns nothing, so no code can
// store a handle to a pending one.
//
// Matching is by member *name* project-wide, which can under-report when two
// classes share a member name — acceptable for a lint; the corpus pins the
// intended semantics.

#include <set>

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

struct TimerMember {
  std::string rel;
  int line;
  std::string cls;
  std::string name;
};

// Member declarations of type `TimerId` / `Simulator::TimerId` at class scope
// (function bodies excluded, so locals never match).
void CollectTimerMembers(const ParsedFile& pf, std::vector<TimerMember>* out) {
  const std::vector<Token>& toks = pf.src.tokens;
  for (const ClassInfo& ci : pf.classes) {
    for (size_t t = ci.body_begin; t + 1 < ci.body_end && t < toks.size();
         ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "TimerId") continue;
      if (InFunctionBody(pf, t)) continue;
      // Skip `using TimerId = ...;` aliases and constants: neither is a
      // stored timer.
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
      // Require a declarator: `TimerId name;` or `TimerId name = ...;`.
      if (t + 2 < toks.size() && toks[t + 2].kind == Token::kPunct &&
          (toks[t + 2].text == ";" || toks[t + 2].text == "=" ||
           toks[t + 2].text == "{")) {
        out->push_back({pf.src.rel, next.line, ci.name, next.text});
      }
    }
  }
}

// Every identifier that appears inside a `DisarmTimer(...)` argument list
// anywhere in the project.
void CollectDisarmedNames(const Project& project, std::set<std::string>* out) {
  for (const ParsedFile& pf : project.files) {
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "DisarmTimer") {
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

}  // namespace

void TimerOwner(const Project& project, std::vector<Finding>* out) {
  std::vector<TimerMember> members;
  for (const ParsedFile& pf : project.files) {
    CollectTimerMembers(pf, &members);
  }
  if (members.empty()) return;
  std::set<std::string> disarmed;
  CollectDisarmedNames(project, &disarmed);
  for (const TimerMember& m : members) {
    if (disarmed.count(m.name) != 0) continue;
    out->push_back({m.rel, m.line, "timer-owner",
                    "stored TimerId '" + m.name + "' in class '" + m.cls +
                        "' is never passed to DisarmTimer(); every persisted "
                        "TimerId needs an owner that disarms it"});
  }
}

}  // namespace rules
}  // namespace vslint
