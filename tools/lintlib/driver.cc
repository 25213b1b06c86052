#include "tools/lintlib/driver.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace vslint {

namespace fs = std::filesystem;

namespace {

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp" ||
         ext == ".cxx";
}

std::string ReadFileOr(const fs::path& p, bool* ok) {
  std::ifstream f(p);
  if (!f) {
    if (ok != nullptr) *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string RelSlash(const fs::path& p, const fs::path& root) {
  std::string s = fs::relative(p, root).generic_string();
  return s;
}

}  // namespace

TreeLoad LoadTree(const fs::path& root, const std::vector<std::string>& subs) {
  TreeLoad out;
  std::vector<std::string> subdirs = subs;
  if (subdirs.empty()) {
    for (const char* s : {"src", "bench", "tests", "tools", "examples"}) {
      if (fs::is_directory(root / s)) subdirs.push_back(s);
    }
  }
  std::vector<fs::path> files;
  for (const std::string& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !HasSourceExtension(entry.path())) {
        continue;
      }
      const std::string rel = RelSlash(entry.path(), root);
      // The corpus plants violations on purpose; never lint it as the tree.
      if (rel.rfind("tests/lint_corpus/", 0) == 0) continue;
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) {
    bool ok = true;
    const std::string content = ReadFileOr(p, &ok);
    if (!ok) {
      std::fprintf(stderr, "lint: cannot open %s\n", p.string().c_str());
      out.io_ok = false;
      continue;
    }
    out.project.files.push_back(
        Parse(AnalyzeSource(RelSlash(p, root), content)));
    ++out.file_count;
  }
  // Docs corpus: docs/*.md plus top-level *.md (README, DESIGN, ...).
  std::string docs;
  std::vector<fs::path> mds;
  if (fs::is_directory(root / "docs")) {
    for (const auto& e : fs::directory_iterator(root / "docs")) {
      if (e.is_regular_file() && e.path().extension() == ".md") {
        mds.push_back(e.path());
      }
    }
  }
  for (const auto& e : fs::directory_iterator(root)) {
    if (e.is_regular_file() && e.path().extension() == ".md") {
      mds.push_back(e.path());
    }
  }
  std::sort(mds.begin(), mds.end());
  for (const fs::path& p : mds) docs += ReadFileOr(p, nullptr);
  out.project.docs_text = std::move(docs);
  return out;
}

void PrintFindings(const std::vector<Finding>& findings, FILE* out) {
  for (const Finding& f : findings) {
    std::fprintf(out, "%s:%d: [%s] %s\n", f.rel.c_str(), f.line,
                 f.rule.c_str(), f.detail.c_str());
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string FindingsJson(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + JsonEscape(f.rel) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           JsonEscape(f.rule) + "\", \"detail\": \"" +
           JsonEscape(f.detail) + "\"}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace vslint
