// lintlib parsing layer: brace/scope tracking and per-function extraction
// over the token stream from source.h. This is not a C++ parser — it is the
// smallest structural recovery the semantic rules need:
//
//   * namespaces and class/struct bodies, with names, as a scope stack;
//   * function definitions (free, inline-member and out-of-class member),
//     each with its name, owning class (when derivable), parameter-list and
//     body token ranges;
//   * a fast "is this token inside a function body" predicate, so rules can
//     scan class bodies for member declarations without tripping on locals.
//
// Heuristics (documented limits, all fail-safe towards *not* extracting):
//   - a function is `name (params) [ctor-init/const/noexcept/...]{`; an `=`
//     after the parameter list (= default, = delete, assignment) disqualifies;
//   - control-flow keywords never reach the detector because detection only
//     runs at namespace/class scope, and bodies are skipped wholesale;
//   - lambdas live inside bodies and are therefore never mis-extracted.

#ifndef VSCALE_TOOLS_LINTLIB_PARSE_H_
#define VSCALE_TOOLS_LINTLIB_PARSE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "tools/lintlib/source.h"

namespace vslint {

struct FunctionInfo {
  std::string name;
  std::string cls;  // owning class ("" for free functions)
  int line = 0;     // line of the name token
  size_t params_begin = 0, params_end = 0;  // tokens inside ( ), half-open
  size_t body_begin = 0, body_end = 0;      // tokens inside { }, half-open
  // Tokens between ')' and '{': ctor-init list, const, noexcept, trailing
  // return — rules that care about init-list validation scan these too.
  size_t after_params_begin = 0, after_params_end = 0;
};

struct ClassInfo {
  std::string name;
  int line = 0;
  size_t body_begin = 0, body_end = 0;  // tokens inside { }, half-open
};

struct ParsedFile {
  SourceFile src;
  std::vector<ClassInfo> classes;      // in declaration order, nested included
  std::vector<FunctionInfo> functions; // in definition order
};

ParsedFile Parse(SourceFile src);

}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_PARSE_H_
