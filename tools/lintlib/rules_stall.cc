// stall-hook rule: the paper's time-accounting argument only holds if the
// 8-bucket stall decomposition is exhaustive, and the decomposition is driven
// by hooks at run-state transitions. So every function in the two files that
// mutate run state — src/hypervisor/machine.cc (VcpuState) and
// src/guest/kernel_sched.cc (ThreadState) — must carry a stall attribution,
// `VS_OBSERVE(<observers>, stall, <call>)`, next to the mutation, or an
// explicit `vslint: allow(stall-hook, reason)` saying where the attribution
// happens instead (e.g. guest thread transitions are accounted at the
// hypervisor dispatch/desched sites).
//
// A mutation site is `<expr>.state = ...` / `<expr>->state = ...`; the
// adjacency requirement is "same function contains a VS_OBSERVE whose second
// argument is `stall`" (a coverage hook does not count).

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

// True when toks[t] opens `VS_OBSERVE(<observers>, stall, ...)`: the second
// depth-1 argument is the single identifier `stall`.
bool IsStallHook(const std::vector<Token>& toks, size_t t) {
  if (toks[t].kind != Token::kIdent || toks[t].text != "VS_OBSERVE" ||
      t + 1 >= toks.size() || toks[t + 1].text != "(") {
    return false;
  }
  int depth = 0;
  for (size_t j = t + 1; j + 2 < toks.size(); ++j) {
    if (toks[j].kind != Token::kPunct) continue;
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")" && --depth == 0) return false;
    if (toks[j].text == "," && depth == 1) {
      return toks[j + 1].kind == Token::kIdent && toks[j + 1].text == "stall" &&
             toks[j + 2].text == ",";
    }
  }
  return false;
}

}  // namespace

void StallHook(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    const std::string& rel = pf.src.rel;
    if (rel != "src/hypervisor/machine.cc" &&
        rel != "src/guest/kernel_sched.cc") {
      continue;
    }
    const std::vector<Token>& toks = pf.src.tokens;
    for (const FunctionInfo& fn : pf.functions) {
      bool has_hook = false;
      for (size_t t = fn.body_begin; t < fn.body_end && t < toks.size(); ++t) {
        if (IsStallHook(toks, t)) {
          has_hook = true;
          break;
        }
      }
      if (has_hook) continue;
      for (size_t t = fn.body_begin;
           t + 1 < fn.body_end && t + 1 < toks.size(); ++t) {
        if (toks[t].kind != Token::kIdent || toks[t].text != "state") continue;
        if (t < 1 || toks[t - 1].kind != Token::kPunct ||
            (toks[t - 1].text != "." && toks[t - 1].text != "->")) {
          continue;
        }
        if (toks[t + 1].kind != Token::kPunct || toks[t + 1].text != "=") {
          continue;
        }
        out->push_back(
            {rel, toks[t].line, "stall-hook",
             "run-state mutation in " + fn.name +
                 "() without a VS_OBSERVE(..., stall, ...) attribution in the "
                 "same function; the 8-bucket stall decomposition must stay "
                 "exhaustive (docs/OBSERVABILITY.md)"});
      }
    }
  }
}

}  // namespace rules
}  // namespace vslint
