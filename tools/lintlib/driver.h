// lintlib driver: filesystem loading and output formatting for the vslint
// CLI.

#ifndef VSCALE_TOOLS_LINTLIB_DRIVER_H_
#define VSCALE_TOOLS_LINTLIB_DRIVER_H_

#include <filesystem>
#include <string>
#include <vector>

#include "tools/lintlib/engine.h"

namespace vslint {

struct TreeLoad {
  Project project;
  size_t file_count = 0;
  bool io_ok = true;
};

// Loads every *.h/*.cc/*.cpp/*.hpp/*.cxx under root/{src,bench,tests,tools,
// examples} (or the given subdirs), skipping build trees and the planted
// lint corpus, plus the docs text (docs/*.md and top-level *.md).
TreeLoad LoadTree(const std::filesystem::path& root,
                  const std::vector<std::string>& subdirs);

// Human output: `rel:line: [rule] detail`.
void PrintFindings(const std::vector<Finding>& findings, FILE* out);
// Machine output: a JSON array of finding objects.
std::string FindingsJson(const std::vector<Finding>& findings);

// Built-in snippet selftest for the rule engine, every family. Returns the
// number of failing cases.
int RunSelfTest();

}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_DRIVER_H_
