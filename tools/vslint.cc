// vslint — the repo's tree lint (docs/CHECKING.md).
//
// Beside line-level determinism hygiene, vslint enforces the cross-layer
// *protocols* the design docs promise: event lifecycle ownership, stall-hook
// exhaustiveness, metric/trace documentation and pairing, no process-wide
// observers, and validate-before-use. Rules run over a comment/string-aware
// token stream with scope and function extents (tools/lintlib/), so they
// survive formatting churn that would defeat grep.
//
// Usage:
//   vslint <root> [subdir...]        lint the tree (default src bench tests
//                                    tools examples); exit 1 on findings
//     --json                         machine-readable findings on stdout
//     --family <name>                restrict to a rule family (repeatable)
//   vslint --selftest                run the in-binary snippet suite
//   vslint --corpus <dir>            run the planted-violation corpus
//   vslint --list-rules              print the rule catalogue
//
// Suppress a deliberate violation with `// vslint: allow(<rule>, <reason>)`
// on the line (or alone on the line above). The reason is mandatory; unused
// markers are themselves findings (stale-suppression).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lintlib/driver.h"

namespace vslint {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrEmpty(const fs::path& p, bool* found) {
  std::ifstream f(p);
  if (!f) {
    if (found != nullptr) *found = false;
    return "";
  }
  if (found != nullptr) *found = true;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int ListRules() {
  std::string family;
  for (const RuleDef& r : AllRules()) {
    if (family != r.family) {
      family = r.family;
      std::printf("%s:\n", r.family);
    }
    std::printf("  %-22s %s\n", r.name, r.contract);
  }
  return 0;
}

// --- planted-violation corpus ----------------------------------------------
//
// Each tests/lint_corpus/*.lint file is linted as a single-file project.
// Directives (all inside comments, invisible to the rules):
//   // corpus-path: <rel>     virtual path the rules see (path-scoped rules)
//   // corpus-doc: <text>     a line added to the docs corpus
//   // expect: <rule>...      findings required on exactly this line
// A file with no expect markers must lint clean.

int RunCorpusFile(const fs::path& file) {
  bool found = true;
  const std::string content = ReadFileOrEmpty(file, &found);
  if (!found) {
    std::fprintf(stderr, "corpus: cannot open %s\n", file.string().c_str());
    return 1;
  }
  std::string rel = "tests/lint_corpus/" + file.stem().string() + ".cc";
  std::string docs;
  std::multimap<int, std::string> want;
  std::istringstream in(content);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t pos;
    if ((pos = line.find("corpus-path:")) != std::string::npos) {
      pos += std::strlen("corpus-path:");
      while (pos < line.size() && line[pos] == ' ') ++pos;
      rel = line.substr(pos);
      while (!rel.empty() && (rel.back() == ' ' || rel.back() == '\r')) {
        rel.pop_back();
      }
    } else if ((pos = line.find("corpus-doc:")) != std::string::npos) {
      docs += line.substr(pos + std::strlen("corpus-doc:")) + "\n";
    } else if ((pos = line.find("expect:")) != std::string::npos) {
      std::istringstream rules(line.substr(pos + std::strlen("expect:")));
      std::string r;
      while (rules >> r) want.emplace(lineno, r);
    }
  }

  Project project;
  project.files.push_back(Parse(AnalyzeSource(rel, content)));
  project.docs_text = docs;
  std::vector<Finding> findings = RunLint(project, LintOptions{});

  std::multimap<int, std::string> got;
  for (const Finding& f : findings) got.emplace(f.line, f.rule);
  if (got == want) return 0;
  std::fprintf(stderr, "corpus FAIL: %s (as %s)\n", file.string().c_str(),
               rel.c_str());
  for (const auto& [l, r] : want) {
    std::fprintf(stderr, "  want line %d: %s\n", l, r.c_str());
  }
  for (const Finding& f : findings) {
    std::fprintf(stderr, "  got  line %d: %s (%s)\n", f.line, f.rule.c_str(),
                 f.detail.c_str());
  }
  return 1;
}

int RunCorpus(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "corpus: %s is not a directory\n",
                 dir.string().c_str());
    return 1;
  }
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".lint") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "corpus: no .lint files in %s\n",
                 dir.string().c_str());
    return 1;
  }
  int failures = 0;
  for (const fs::path& f : files) failures += RunCorpusFile(f);
  std::fprintf(stderr, "corpus: %zu case file(s), %d failure(s)\n",
               files.size(), failures);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> subdirs;
  std::vector<std::string> families;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vslint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return RunSelfTest() == 0 ? 0 : 1;
    if (arg == "--list-rules") return ListRules();
    if (arg == "--corpus") return RunCorpus(next());
    if (arg == "--json") {
      json = true;
    } else if (arg == "--family") {
      families.push_back(next());
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "vslint: unknown flag %s (see tools/vslint.cc)\n",
                   arg.c_str());
      return 2;
    } else if (root.empty()) {
      root = arg;
    } else {
      subdirs.push_back(arg);
    }
  }
  if (root.empty()) {
    std::fprintf(stderr,
                 "usage: vslint <root> [subdir...] [--json] [--family F]\n"
                 "       vslint --selftest | --corpus <dir> | --list-rules\n");
    return 2;
  }

  TreeLoad tree = LoadTree(root, subdirs);
  LintOptions opts;
  opts.families = families;
  const std::vector<Finding> findings = RunLint(tree.project, opts);

  if (json) {
    std::fputs(FindingsJson(findings).c_str(), stdout);
  } else {
    PrintFindings(findings, stdout);
  }
  std::fprintf(stderr, "vslint: %zu file(s), %zu finding(s)\n",
               tree.file_count, findings.size());
  return (findings.empty() && tree.io_ok) ? 0 : 1;
}

}  // namespace
}  // namespace vslint

int main(int argc, char** argv) { return vslint::Main(argc, argv); }
