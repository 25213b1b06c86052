#include "tools/lintlib/parse.h"

#include <algorithm>

namespace vslint {

namespace {

bool IsKeyword(const std::string& s) {
  static const char* kKw[] = {"if",     "for",    "while",  "switch",
                              "catch",  "return", "sizeof", "alignof",
                              "static_assert", "decltype", "operator"};
  for (const char* k : kKw) {
    if (s == k) return true;
  }
  return false;
}

struct Scope {
  enum Kind { kNamespace, kClass, kPlain };
  Kind kind;
  std::string name;
  size_t class_index = 0;  // into ParsedFile::classes when kind == kClass
};

class Parser {
 public:
  explicit Parser(ParsedFile* pf) : pf_(*pf), toks_(pf->src.tokens) {}

  void Run() {
    size_t t = 0;
    while (t < toks_.size()) {
      t = Declaration(t);
    }
  }

 private:
  const Token& Tok(size_t t) const { return toks_[t]; }
  bool Is(size_t t, Token::Kind k, const char* text) const {
    return t < toks_.size() && toks_[t].kind == k && toks_[t].text == text;
  }
  bool IsPunct(size_t t, const char* text) const {
    return Is(t, Token::kPunct, text);
  }
  bool IsIdent(size_t t, const char* text) const {
    return Is(t, Token::kIdent, text);
  }

  // Advances past one balanced token starting at `t`; returns the index after
  // the matching closer when toks_[t] opens a group, else t + 1.
  size_t SkipBalanced(size_t t) {
    static const struct { const char *open, *close; } kPairs[] = {
        {"(", ")"}, {"{", "}"}, {"[", "]"}};
    for (const auto& p : kPairs) {
      if (!IsPunct(t, p.open)) continue;
      int depth = 1;
      size_t j = t + 1;
      while (j < toks_.size() && depth > 0) {
        if (IsPunct(j, p.open)) ++depth;
        if (IsPunct(j, p.close)) --depth;
        ++j;
      }
      return j;
    }
    return t + 1;
  }

  // Skips an initializer / disqualified run up to the ';' that closes it,
  // balancing every bracket kind so brace initializers and lambdas inside
  // cannot desynchronize scope tracking.
  size_t SkipToSemicolon(size_t t) {
    while (t < toks_.size()) {
      if (IsPunct(t, ";")) return t + 1;
      t = SkipBalanced(t);
    }
    return t;
  }

  size_t Declaration(size_t t) {
    const Token& tok = Tok(t);
    if (tok.kind == Token::kPunct) {
      if (tok.text == "{") {
        scopes_.push_back({Scope::kPlain, "", 0});
        return t + 1;
      }
      if (tok.text == "}") {
        if (!scopes_.empty()) {
          if (scopes_.back().kind == Scope::kClass) {
            pf_.classes[scopes_.back().class_index].body_end = t;
          }
          scopes_.pop_back();
        }
        return t + 1;
      }
      if (tok.text == "=") {
        return SkipToSemicolon(t + 1);
      }
      return t + 1;
    }
    if (tok.kind != Token::kIdent) return t + 1;

    if (tok.text == "namespace") {
      size_t j = t + 1;
      std::string name;
      while (j < toks_.size() && (Tok(j).kind == Token::kIdent ||
                                  IsPunct(j, "::"))) {
        if (Tok(j).kind == Token::kIdent) name = Tok(j).text;
        ++j;
      }
      if (IsPunct(j, "{")) {
        scopes_.push_back({Scope::kNamespace, name, 0});
        return j + 1;
      }
      return j + 1;  // alias or using-directive fragment
    }
    if (tok.text == "enum") {
      // enum [class|struct] Name [: type] { ... } — no scope of interest.
      size_t j = t + 1;
      while (j < toks_.size() && !IsPunct(j, "{") && !IsPunct(j, ";")) ++j;
      if (IsPunct(j, "{")) return SkipBalanced(j);
      return j + 1;
    }
    if (tok.text == "class" || tok.text == "struct") {
      size_t j = t + 1;
      std::string name;
      if (j < toks_.size() && Tok(j).kind == Token::kIdent) {
        name = Tok(j).text;
      }
      // Scan to the body opener or a ';' (forward declaration); the base
      // clause may contain templates but never braces.
      while (j < toks_.size() && !IsPunct(j, "{") && !IsPunct(j, ";") &&
             !IsPunct(j, "(")) {
        ++j;
      }
      if (IsPunct(j, "(")) {
        // `struct X {...} f()` style or a macro; treat as opaque.
        return j;
      }
      if (IsPunct(j, "{")) {
        ClassInfo ci;
        ci.name = name;
        ci.line = tok.line;
        ci.body_begin = j + 1;
        ci.body_end = toks_.size();
        pf_.classes.push_back(ci);
        scopes_.push_back({Scope::kClass, name, pf_.classes.size() - 1});
        return j + 1;
      }
      return j + 1;
    }
    if (IsKeyword(tok.text)) {
      // `operator...` and friends: not extractable, skip conservatively.
      return t + 1;
    }
    // Candidate function: ident '(' ... ')' [stuff] '{'.
    if (t + 1 < toks_.size() && IsPunct(t + 1, "(")) {
      const size_t params_begin = t + 2;
      const size_t after_paren = SkipBalanced(t + 1);
      if (after_paren == toks_.size()) return t + 1;
      const size_t params_end = after_paren - 1;
      size_t j = after_paren;
      bool is_fn = false;
      size_t body_open = 0;
      while (j < toks_.size()) {
        if (IsPunct(j, "{")) {
          is_fn = true;
          body_open = j;
          break;
        }
        if (IsPunct(j, ";") || IsPunct(j, "=") || IsPunct(j, "?") ||
            IsPunct(j, ",")) {
          break;  // declaration / defaulted / expression context
        }
        if (IsPunct(j, ":")) {
          // Ctor-init list: balanced groups (parens or brace-init) until the
          // body opener.
          ++j;
          while (j < toks_.size()) {
            if (IsPunct(j, "{")) {
              // Brace at init-list position is a member brace-init unless it
              // follows a ',' or the ':' itself directly after an identifier
              // chain... Distinguish: member-init braces are always preceded
              // by an identifier; the body '{' is preceded by ')' or '}'.
              const Token& prev = Tok(j - 1);
              if (prev.kind == Token::kIdent || prev.text == ">") {
                j = SkipBalanced(j);
                continue;
              }
              break;
            }
            if (IsPunct(j, ";")) break;
            j = SkipBalanced(j);
          }
          continue;  // re-inspect toks_[j] in the outer classifier
        }
        if (IsPunct(j, "(")) {
          j = SkipBalanced(j);  // noexcept(...)
          continue;
        }
        // const, noexcept, override, final, ->, type tokens, & * :: < > [ ]
        if (Tok(j).kind == Token::kIdent || IsPunct(j, "->") ||
            IsPunct(j, "::") || IsPunct(j, "&") || IsPunct(j, "*") ||
            IsPunct(j, "<") || IsPunct(j, ">") || IsPunct(j, "[") ||
            IsPunct(j, "]") || IsPunct(j, "&&")) {
          ++j;
          continue;
        }
        break;
      }
      if (is_fn) {
        FunctionInfo fi;
        fi.name = tok.text;
        fi.line = tok.line;
        fi.params_begin = params_begin;
        fi.params_end = params_end;
        fi.after_params_begin = after_paren;
        fi.after_params_end = body_open;
        fi.body_begin = body_open + 1;
        const size_t after_body = SkipBalanced(body_open);
        fi.body_end = after_body > 0 ? after_body - 1 : body_open + 1;
        // Owning class: `Cls :: name (` beats the enclosing scope.
        if (t >= 2 && IsPunct(t - 1, "::") &&
            Tok(t - 2).kind == Token::kIdent) {
          fi.cls = Tok(t - 2).text;
        } else {
          for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            if (it->kind == Scope::kClass) {
              fi.cls = it->name;
              break;
            }
            if (it->kind == Scope::kPlain) break;
          }
        }
        pf_.functions.push_back(fi);
        return after_body;
      }
      return after_paren;
    }
    return t + 1;
  }

  ParsedFile& pf_;
  const std::vector<Token>& toks_;
  std::vector<Scope> scopes_;
};

}  // namespace

ParsedFile Parse(SourceFile src) {
  ParsedFile pf;
  pf.src = std::move(src);
  Parser(&pf).Run();
  return pf;
}

}  // namespace vslint
