// lintlib: infrastructure for the repo's static lint (tools/vslint). This
// layer turns one source file into the three views every rule consumes:
//
//   * raw lines        — exactly as on disk, used for suppression markers;
//   * stripped lines   — comments and string/char-literal bodies blanked with
//                        spaces, line structure preserved, used by the
//                        line-pattern (determinism) rules;
//   * token stream     — a comment/string-aware C++ token sequence (idents,
//                        numbers, string literals with their *contents*,
//                        punctuation with multi-char operators fused), used by
//                        the semantic rules. Raw strings R"delim(...)delim"
//                        are handled, including multi-line bodies.
//
// Preprocessor directives (and their backslash continuations) are kept in the
// stripped lines but omitted from the token stream: macro definitions carry
// unbalanced braces that would corrupt scope tracking, and no semantic rule
// inspects directives.
//
// Suppressions (docs/CHECKING.md#vslint-suppression-policy):
//   // vslint: allow(<rule>, <reason>)     reason is mandatory
// A marker applies to its own line; a marker on a comment-only line also
// covers the next line. The engine tracks which markers actually suppressed a
// finding — unused ones are findings themselves (stale-suppression).
//
// Markers are recognized only in comment text, only with a valid lowercase
// rule slug, and only when preceded by whitespace — so string literals and
// backquote-quoted prose describing the syntax never parse as markers.

#ifndef VSCALE_TOOLS_LINTLIB_SOURCE_H_
#define VSCALE_TOOLS_LINTLIB_SOURCE_H_

#include <string>
#include <vector>

namespace vslint {

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;  // for kString/kChar: the literal's contents, unquoted
  int line;          // 1-based
};

struct Allow {
  std::string rule;
  std::string reason;  // empty when the marker omits it (allow-needs-reason)
  int line = 0;        // 1-based line the marker sits on
  mutable bool used = false;  // set by the engine when it suppresses a finding
};

struct SourceFile {
  std::string rel;  // forward-slash path relative to the scan root
  std::vector<std::string> raw;
  std::vector<std::string> stripped;
  std::vector<std::string> comments;  // the inverse view: comment text only
  std::vector<Token> tokens;
  std::vector<Allow> allows;

  // The marker (if any) that suppresses `rule` at 1-based `line`: on the same
  // line, or on the line above when that line holds no code.
  const Allow* FindAllow(int line, const std::string& rule) const;
};

// Lexes `content` into the three views. `rel` should use forward slashes.
SourceFile AnalyzeSource(std::string rel, const std::string& content);

// Whole-word occurrence check used by the line-pattern rules.
bool ContainsWord(const std::string& code, const char* word);
bool IsIdentChar(char c);

}  // namespace vslint

#endif  // VSCALE_TOOLS_LINTLIB_SOURCE_H_
