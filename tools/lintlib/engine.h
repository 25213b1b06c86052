// lintlib engine: rule registry, suppression accounting, and the lint driver.
//
// A rule is a free function over the whole parsed project (cross-file rules
// like validate-before-use need project scope), reporting raw findings. The engine
// then:
//   1. drops findings covered by a `vslint: allow(rule, reason)` marker,
//      marking the marker used;
//   2. reports `allow-needs-reason` for markers without a reason;
//   3. reports `stale-suppression` for markers that suppressed nothing
//      (only for rules that were active in this run, so a determinism-only
//      `--family` pass cannot mis-flag semantic-rule markers);
//   4. reports `faults-allow-escape` for any marker inside src/faults/ or
//      src/fuzz/ (those layers must stay escape-free; this finding is itself
//      unsuppressable).
//
// Rule families (selectable with `vslint --family`): determinism,
// observability, validate, meta.
// docs/CHECKING.md#vslint-the-protocol-lint carries the catalogue.

#ifndef VSCALE_TOOLS_LINTLIB_ENGINE_H_
#define VSCALE_TOOLS_LINTLIB_ENGINE_H_

#include <string>
#include <vector>

#include "tools/lintlib/parse.h"

namespace vslint {

struct Finding {
  std::string rel;
  int line = 0;
  std::string rule;
  std::string detail;
};

struct Project {
  std::vector<ParsedFile> files;
  std::string docs_text;  // concatenated docs/*.md (+ top-level *.md) content
};

struct RuleDef {
  const char* name;
  const char* family;
  const char* contract;  // one-line statement of the enforced protocol
  void (*fn)(const Project&, std::vector<Finding>*);  // null for engine rules
};

// Every rule, semantic and determinism, in catalogue order.
const std::vector<RuleDef>& AllRules();

struct LintOptions {
  // Families to activate; empty = all.
  std::vector<std::string> families;
  // Disable the unused-marker pass (used by single-snippet selftests where a
  // marker's target rule may be deliberately absent).
  bool stale_check = true;
};

// Runs the active rules over `project` and returns the surviving findings,
// sorted by (rel, line, rule).
std::vector<Finding> RunLint(const Project& project, const LintOptions& opts);

}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_ENGINE_H_
