#include "tools/lintlib/source.h"

#include <cctype>
#include <cstring>

namespace vslint {

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool ContainsWord(const std::string& code, const char* word) {
  const size_t n = std::strlen(word);
  size_t pos = 0;
  while ((pos = code.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    const bool right_ok = pos + n >= code.size() || !IsIdentChar(code[pos + n]);
    if (left_ok && right_ok) return true;
    pos += n;
  }
  return false;
}

namespace {

// One forward scan over the whole file producing stripped lines and tokens
// together, so string/comment state is shared and raw strings (whose bodies
// span lines and contain braces) cannot desynchronize the two views.
class Scanner {
 public:
  explicit Scanner(const std::string& content) : s_(content) {}

  void Run(SourceFile* out) {
    SplitLines();
    out->raw = lines_;
    stripped_.assign(lines_.size(), std::string());
    comments_.assign(lines_.size(), std::string());
    for (size_t i = 0; i < lines_.size(); ++i) {
      stripped_[i].assign(lines_[i].size(), ' ');
      comments_[i].assign(lines_[i].size(), ' ');
    }
    ScanAll(out);
    out->stripped = std::move(stripped_);
    out->comments = std::move(comments_);
  }

 private:
  void SplitLines() {
    std::string cur;
    for (char c : s_) {
      if (c == '\n') {
        lines_.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    lines_.push_back(cur);
  }

  // Flat (line, column) cursor over the whole file. A raw-string literal can
  // advance the line cursor mid-token; everything else stays within one line.
  void ScanAll(SourceFile* out) {
    bool in_block_comment = false;
    size_t li = 0;  // current line index
    size_t i = 0;   // current column
    bool at_line_start = true;
    while (li < lines_.size()) {
      const std::string& line = lines_[li];
      if (i >= line.size()) {
        ++li;
        i = 0;
        at_line_start = true;
        continue;
      }
      // Preprocessor directive: keep it in the stripped view (minus comments)
      // but emit no tokens; swallow backslash continuations.
      if (at_line_start && !in_block_comment) {
        const size_t ws = line.find_first_not_of(" \t");
        if (ws != std::string::npos && line[ws] == '#') {
          while (true) {
            StripDirectiveLine(li);
            if (!lines_[li].empty() && lines_[li].back() == '\\' &&
                li + 1 < lines_.size()) {
              ++li;
            } else {
              break;
            }
          }
          ++li;
          i = 0;
          continue;
        }
      }
      at_line_start = false;
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          comments_[li][i] = line[i];
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (line.compare(i, 2, "//") == 0) {  // rest of line is a comment
        for (size_t k = i + 2; k < line.size(); ++k) {
          comments_[li][k] = line[k];
        }
        ++li;
        i = 0;
        at_line_start = true;
        continue;
      }
      if (line.compare(i, 2, "/*") == 0) {
        in_block_comment = true;
        i += 2;
        continue;
      }
      // Raw string literal: R"delim( ... )delim", possibly multi-line.
      if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
          (i == 0 || !IsIdentChar(line[i - 1]))) {
        Keep(li, i);      // R
        Keep(li, i + 1);  // "
        size_t j = i + 2;
        std::string delim;
        while (j < line.size() && line[j] != '(') delim.push_back(line[j++]);
        if (j >= line.size()) {  // malformed; blank the rest of the line
          i = line.size();
          continue;
        }
        const std::string closer = ")" + delim + "\"";
        std::string body;
        size_t lj = li, k = j + 1;
        bool closed = false;
        while (lj < lines_.size()) {
          const std::string& l2 = lines_[lj];
          const size_t end = l2.find(closer, k);
          if (end != std::string::npos) {
            body.append(l2, k, end - k);
            // Keep the closing quote visible in the stripped view.
            Keep(lj, end + closer.size() - 1);
            k = end + closer.size();
            closed = true;
            break;
          }
          body.append(l2, k, std::string::npos);
          body.push_back('\n');
          ++lj;
          k = 0;
        }
        out->tokens.push_back({Token::kString, body, static_cast<int>(li) + 1});
        if (!closed) return;  // unterminated raw string: stop scanning
        li = lj;
        i = k;
        continue;
      }
      if (c == '"' || c == '\'') {
        Keep(li, i);
        const char quote = c;
        std::string body;
        ++i;
        while (i < line.size() && line[i] != quote) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            body.push_back(line[i]);
            body.push_back(line[i + 1]);
            i += 2;
          } else {
            body.push_back(line[i]);
            ++i;
          }
        }
        if (i < line.size()) {
          Keep(li, i);
          ++i;
        }
        out->tokens.push_back({quote == '"' ? Token::kString : Token::kChar,
                               body, static_cast<int>(li) + 1});
        continue;
      }
      if (IsIdentChar(c) && !(c >= '0' && c <= '9')) {
        size_t j = i;
        while (j < line.size() && IsIdentChar(line[j])) ++j;
        for (size_t k = i; k < j; ++k) Keep(li, k);
        out->tokens.push_back(
            {Token::kIdent, line.substr(i, j - i), static_cast<int>(li) + 1});
        i = j;
        continue;
      }
      if (c >= '0' && c <= '9') {
        size_t j = i;
        // Good enough for C++ numeric literals incl. 1'000'000 and 0x1f.
        while (j < line.size() &&
               (IsIdentChar(line[j]) || line[j] == '\'' || line[j] == '.')) {
          ++j;
        }
        for (size_t k = i; k < j; ++k) Keep(li, k);
        out->tokens.push_back(
            {Token::kNumber, line.substr(i, j - i), static_cast<int>(li) + 1});
        i = j;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        ++i;
        continue;
      }
      // Punctuation; fuse the two-char operators that matter for parsing.
      static const char* kTwo[] = {"::", "==", "!=", "<=", ">=", "->", "&&",
                                   "||", "+=", "-=", "<<", ">>", "++", "--"};
      std::string p(1, c);
      for (const char* t : kTwo) {
        if (line.compare(i, 2, t) == 0) {
          p = t;
          break;
        }
      }
      for (size_t k = i; k < i + p.size(); ++k) Keep(li, k);
      out->tokens.push_back({Token::kPunct, p, static_cast<int>(li) + 1});
      i += p.size();
    }
  }

  // Copies one character of line `li` at column `col` into the stripped view.
  void Keep(size_t li, size_t col) {
    const std::string& l = lines_[li];
    if (col < l.size()) stripped_[li][col] = l[col];
  }

  // Directive lines: strip trailing // comments, keep the rest verbatim.
  void StripDirectiveLine(size_t li) {
    const std::string& l = lines_[li];
    size_t cut = l.find("//");
    const size_t n = cut == std::string::npos ? l.size() : cut;
    for (size_t k = 0; k < n; ++k) stripped_[li][k] = l[k];
    if (cut != std::string::npos) {
      for (size_t k = cut + 2; k < l.size(); ++k) comments_[li][k] = l[k];
    }
  }

  const std::string& s_;
  std::vector<std::string> lines_;
  std::vector<std::string> stripped_;
  std::vector<std::string> comments_;
};

// A legal rule slug: lowercase kebab-case starting with a letter. Rejects the
// `<rule>` placeholders that appear in prose describing the marker syntax.
bool ValidRuleName(const std::string& s) {
  if (s.empty() || s[0] < 'a' || s[0] > 'z') return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

// Parses every `vslint: allow(rule, reason)` marker in the comment text of
// one line. The reason runs to the parenthesis that balances the opener, so it
// may itself contain parentheses. Only whitespace may precede the marker word
// — so prose *mentioning* the syntax in backquotes (as this comment does) is
// not itself a marker.
void ParseAllowsOnLine(const std::string& raw, int line,
                       std::vector<Allow>* out) {
  static const char kMarker[] = "vslint: allow(";
  const size_t mn = std::strlen(kMarker);
  size_t pos = 0;
  while ((pos = raw.find(kMarker, pos)) != std::string::npos) {
    if (pos > 0 && raw[pos - 1] != ' ' && raw[pos - 1] != '\t') {
      pos += mn;
      continue;
    }
    size_t i = pos + mn;
    int depth = 1;
    size_t end = std::string::npos;
    for (size_t j = i; j < raw.size(); ++j) {
      if (raw[j] == '(') ++depth;
      if (raw[j] == ')' && --depth == 0) {
        end = j;
        break;
      }
    }
    if (end == std::string::npos) break;
    const std::string inner = raw.substr(i, end - i);
    Allow a;
    a.line = line;
    const size_t comma = inner.find(',');
    if (comma == std::string::npos) {
      a.rule = inner;
    } else {
      a.rule = inner.substr(0, comma);
      size_t rs = inner.find_first_not_of(" \t", comma + 1);
      a.reason = rs == std::string::npos ? "" : inner.substr(rs);
    }
    while (!a.rule.empty() && (a.rule.back() == ' ' || a.rule.back() == '\t'))
      a.rule.pop_back();
    if (ValidRuleName(a.rule)) out->push_back(a);
    pos = end + 1;
  }
}

}  // namespace

const Allow* SourceFile::FindAllow(int line, const std::string& rule) const {
  for (const Allow& a : allows) {
    if (a.rule != rule) continue;
    if (a.line == line) return &a;
    // A marker on a code-free line also covers the next line.
    if (a.line == line - 1) {
      const size_t idx = static_cast<size_t>(a.line - 1);
      if (idx < stripped.size() &&
          stripped[idx].find_first_not_of(" \t") == std::string::npos) {
        return &a;
      }
    }
  }
  return nullptr;
}

SourceFile AnalyzeSource(std::string rel, const std::string& content) {
  SourceFile f;
  f.rel = std::move(rel);
  Scanner(content).Run(&f);
  for (size_t i = 0; i < f.comments.size(); ++i) {
    ParseAllowsOnLine(f.comments[i], static_cast<int>(i) + 1, &f.allows);
  }
  return f;
}

}  // namespace vslint
