// The determinism rule family: line-pattern rules over the stripped source.
// Rationale catalogue: docs/CHECKING.md.

#include <cstring>

#include "tools/lintlib/rules.h"

namespace vslint {
namespace rules {

namespace {

// Applies `match` to every stripped line of every file.
template <typename MatchFn>
void ForEachLine(const Project& project, const char* rule, const char* message,
                 MatchFn match, std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    for (size_t i = 0; i < pf.src.stripped.size(); ++i) {
      if (match(pf.src.stripped[i])) {
        out->push_back({pf.src.rel, static_cast<int>(i) + 1, rule, message});
      }
    }
  }
}

// True when the first template argument of `std::map<`/`std::set<` at `pos`
// (pos = index just past the '<') names a pointer type.
bool FirstTemplateArgIsPointer(const std::string& code, size_t pos) {
  int depth = 0;
  std::string arg;
  for (size_t i = pos; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') {
      ++depth;
    } else if (c == '>') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) {
      break;
    }
    arg.push_back(c);
  }
  while (!arg.empty() && (arg.back() == ' ' || arg.back() == '\t')) {
    arg.pop_back();
  }
  return !arg.empty() && arg.back() == '*';
}

bool HasPointerKeyedContainer(const std::string& code) {
  for (const char* tmpl : {"std::map<", "std::set<"}) {
    const size_t n = std::strlen(tmpl);
    size_t pos = 0;
    while ((pos = code.find(tmpl, pos)) != std::string::npos) {
      if (FirstTemplateArgIsPointer(code, pos + n)) return true;
      pos += n;
    }
  }
  return false;
}

// float/double declaration (or member) whose identifier suggests credit or
// nanosecond bookkeeping — quantities the scheduler must keep integral.
bool HasFloatTimeOrCredit(const std::string& code) {
  if (!ContainsWord(code, "float") && !ContainsWord(code, "double")) {
    return false;
  }
  if (code.find("credit") != std::string::npos) return true;
  // Any identifier token ending in `_ns`.
  size_t pos = 0;
  while ((pos = code.find("_ns", pos)) != std::string::npos) {
    const bool right_ok = pos + 3 >= code.size() || !IsIdentChar(code[pos + 3]);
    if (right_ok && pos > 0 && IsIdentChar(code[pos - 1])) return true;
    pos += 3;
  }
  return false;
}

}  // namespace

void UnorderedContainer(const Project& project, std::vector<Finding>* out) {
  ForEachLine(
      project, "unordered-container",
      "hashed container: iteration order is implementation-defined; use "
      "std::map/std::set keyed by a stable id",
      [](const std::string& c) {
        return ContainsWord(c, "unordered_map") ||
               ContainsWord(c, "unordered_set") ||
               ContainsWord(c, "unordered_multimap") ||
               ContainsWord(c, "unordered_multiset");
      },
      out);
}

void RawRand(const Project& project, std::vector<Finding>* out) {
  ForEachLine(
      project, "raw-rand",
      "RNG outside the seeded vscale::Rng forks; replays diverge",
      [](const std::string& c) {
        return ContainsWord(c, "rand") || ContainsWord(c, "srand") ||
               ContainsWord(c, "drand48") || ContainsWord(c, "lrand48") ||
               ContainsWord(c, "mrand48") || ContainsWord(c, "random_device");
      },
      out);
}

void WallClock(const Project& project, std::vector<Finding>* out) {
  ForEachLine(
      project, "wall-clock",
      "host wall-clock leaking into the DES; use Simulator::Now()",
      [](const std::string& c) {
        return ContainsWord(c, "system_clock") ||
               ContainsWord(c, "steady_clock") ||
               ContainsWord(c, "high_resolution_clock") ||
               ContainsWord(c, "gettimeofday") ||
               ContainsWord(c, "clock_gettime") ||
               c.find("time(nullptr)") != std::string::npos ||
               c.find("time(NULL)") != std::string::npos;
      },
      out);
}

void PointerKey(const Project& project, std::vector<Finding>* out) {
  ForEachLine(project, "pointer-key",
              "ordered container keyed by a pointer: iterates in "
              "allocation-address order, which varies across runs",
              HasPointerKeyedContainer, out);
}

void FloatAccum(const Project& project, std::vector<Finding>* out) {
  ForEachLine(project, "float-accum",
              "float/double credit or *_ns bookkeeping: accumulation is "
              "order-sensitive; keep it in TimeNs (int64)",
              HasFloatTimeOrCredit, out);
}

}  // namespace rules
}  // namespace vslint
