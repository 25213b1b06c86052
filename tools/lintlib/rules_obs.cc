// observability hygiene rules: the repo's contract is that metric names and
// trace event names are *documented interface*, not ad-hoc strings — harness
// scripts and the trace tooling key on them (docs/OBSERVABILITY.md).
//
//   metric-docs    — every metric-name string literal passed to Counter() in
//                    src/ must appear in the docs.
//   trace-docs     — every event-name literal given to a VSCALE_TRACE_* macro
//                    in src/ must appear in the docs.
//   cov-docs       — every coverage-point name in a kCoverPointNames catalogue
//                    table in src/ must appear in the docs: frontier files,
//                    cov_report output, and the baseline gate all speak these
//                    names (docs/FUZZING.md keeps the catalogue).
//   observer-global — no process-wide observer in src/: a `static` variable of
//                    a sink type (Tracer, StallAccountant, CoverageMap,
//                    MetricsRegistry), a pointer or smart pointer to one, or a
//                    static function returning one. Such a sink is shared by
//                    every run in the process; runs attach their own through
//                    Observers (src/base/observers.h).

#include <string>

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

bool InSrc(const std::string& rel) { return rel.rfind("src/", 0) == 0; }

// A literal that participates in a metric path: lowercase [a-z0-9_.], at
// least 4 chars, with some structure ('.' or '_'). Short glue fragments
// ("_ns") and plain words ("count") are ignored.
bool LooksLikeMetricName(const std::string& s) {
  if (s.size() < 4) return false;
  bool structured = false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '_' || c == '.') structured = true;
  }
  return structured;
}

// Token index of the matching ')' for the '(' at `open`.
size_t MatchParen(const std::vector<Token>& toks, size_t open) {
  int depth = 1;
  size_t j = open + 1;
  while (j < toks.size() && depth > 0) {
    if (toks[j].kind == Token::kPunct) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")") --depth;
    }
    ++j;
  }
  return j - 1;
}

}  // namespace

void MetricDocs(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "Counter") {
        continue;
      }
      if (toks[t + 1].kind != Token::kPunct || toks[t + 1].text != "(") {
        continue;
      }
      const size_t close = MatchParen(toks, t + 1);
      // First argument only: stop at a depth-1 comma.
      int depth = 1;
      for (size_t j = t + 2; j < close; ++j) {
        if (toks[j].kind == Token::kPunct) {
          if (toks[j].text == "(") ++depth;
          if (toks[j].text == ")") --depth;
          if (toks[j].text == "," && depth == 1) break;
          continue;
        }
        if (toks[j].kind != Token::kString) continue;
        const std::string& name = toks[j].text;
        if (!LooksLikeMetricName(name)) continue;
        if (project.docs_text.find(name) != std::string::npos) continue;
        out->push_back({pf.src.rel, toks[j].line, "metric-docs",
                        "metric name '" + name +
                            "' is registered here but appears nowhere in the "
                            "docs; document it (docs/OBSERVABILITY.md keeps "
                            "the metric catalogue)"});
      }
      t = close;
    }
  }
}

void TraceDocs(const Project& project, std::vector<Finding>* out) {
  static const char* kMacros[] = {"VSCALE_TRACE_INSTANT",
                                  "VSCALE_TRACE_INSTANT_ARG",
                                  "VSCALE_TRACE_EVENT", "VSCALE_TRACE_COUNTER",
                                  "VSCALE_TRACE_SLICE"};
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent) continue;
      bool is_macro = false;
      for (const char* m : kMacros) {
        if (toks[t].text == m) {
          is_macro = true;
          break;
        }
      }
      if (!is_macro || toks[t + 1].kind != Token::kPunct ||
          toks[t + 1].text != "(") {
        continue;
      }
      const size_t close = MatchParen(toks, t + 1);
      for (size_t j = t + 2; j < close; ++j) {
        if (toks[j].kind != Token::kString) continue;
        const std::string& name = toks[j].text;
        if (project.docs_text.find(name) == std::string::npos) {
          out->push_back({pf.src.rel, toks[j].line, "trace-docs",
                          "trace event name '" + name +
                              "' is emitted here but appears nowhere in the "
                              "docs; add it to the trace schema table in "
                              "docs/OBSERVABILITY.md"});
        }
        break;  // only the first string literal is the event name
      }
      t = close;
    }
  }
}

// The coverage catalogue (src/obs/coverage.cc) is a name table the whole
// coverage plane keys on: frontier files, tests/coverage.baseline, and
// cov_report all parse these strings. A renamed or added point that never
// makes it into the docs breaks the "frontier files are self-describing"
// contract, so every string literal inside a kCoverPointNames initializer
// must appear verbatim in the docs.
void CovDocs(const Project& project, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "kCoverPointNames") {
        continue;
      }
      // Advance to the initializer's opening brace (skipping the array-size
      // brackets and '=' between the name and the '{').
      size_t open = t + 1;
      while (open < toks.size() &&
             !(toks[open].kind == Token::kPunct && toks[open].text == "{") &&
             !(toks[open].kind == Token::kPunct && toks[open].text == ";")) {
        ++open;
      }
      if (open >= toks.size() || toks[open].text != "{") continue;
      int depth = 1;
      size_t j = open + 1;
      for (; j < toks.size() && depth > 0; ++j) {
        if (toks[j].kind == Token::kPunct) {
          if (toks[j].text == "{") ++depth;
          if (toks[j].text == "}") --depth;
          continue;
        }
        if (toks[j].kind != Token::kString) continue;
        const std::string& name = toks[j].text;
        if (project.docs_text.find(name) != std::string::npos) continue;
        out->push_back({pf.src.rel, toks[j].line, "cov-docs",
                        "coverage point '" + name +
                            "' is in the catalogue table but appears nowhere "
                            "in the docs; add it to the coverage catalogue in "
                            "docs/FUZZING.md"});
      }
      t = j;
    }
  }
}

void ObserverGlobal(const Project& project, std::vector<Finding>* out) {
  static const char* kSinks[] = {"Tracer", "StallAccountant", "CoverageMap",
                                 "MetricsRegistry"};
  // Tokens that may sit between `static` and the type name.
  const auto is_prefix = [](const Token& k) {
    return k.text == "::" || k.text == "const" || k.text == "constexpr" ||
           k.text == "inline" || k.text == "thread_local" ||
           k.text == "vscale" || k.text == "std" || k.text == "unique_ptr" ||
           k.text == "shared_ptr" || k.text == "<";
  };
  for (const ParsedFile& pf : project.files) {
    if (!InSrc(pf.src.rel)) continue;
    const std::vector<Token>& toks = pf.src.tokens;
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != Token::kIdent || toks[t].text != "static") continue;
      size_t j = t + 1;
      while (j < toks.size() && is_prefix(toks[j])) ++j;
      if (j >= toks.size() || toks[j].kind != Token::kIdent) continue;
      for (const char* sink : kSinks) {
        if (toks[j].text != sink) continue;
        out->push_back({pf.src.rel, toks[t].line, "observer-global",
                        "process-wide " + toks[j].text +
                            ": a static sink, or a static function returning "
                            "one, is shared by every run in the process; "
                            "attach a per-run sink through Observers "
                            "(src/base/observers.h)"});
      }
    }
  }
}

}  // namespace rules
}  // namespace vslint
