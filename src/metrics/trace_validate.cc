#include "src/metrics/trace_validate.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/base/parse.h"
#include "src/metrics/trace_export.h"  // pid scheme constants

namespace vscale {

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser. Only what trace files need: objects,
// arrays, strings with the common escapes, numbers, true/false/null.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* Get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue& out) {
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON document");
    }
    return true;
  }

 private:
  bool Fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = msg + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return Fail(std::string("expected '") + lit + "'");
    }
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue& out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.str);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.b = true;
        return Literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.b = false;
        return Literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      std::string key;
      if (!ParseString(key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      JsonValue v;
      if (!ParseValue(v)) {
        return false;
      }
      out.obj.emplace(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!ParseValue(v)) {
        return false;
      }
      out.arr.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          // Decode to a single byte when it fits; exotic codepoints are not emitted
          // by our exporter, so a literal '?' placeholder is acceptable.
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code += h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code += h - 'A' + 10;
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        digits = true;
      }
      ++pos_;
    }
    // The scan above only finds the token's end; the whole token must parse
    // as one finite number ("1-2" is not 1, "1e999" is not a trace time).
    if (!digits || !ParseF64(std::string_view(text_).substr(start, pos_ - start),
                             &out.num)) {
      return Fail("malformed number");
    }
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

bool GetInt(const JsonValue& ev, const std::string& key, int& out) {
  const JsonValue* v = ev.Get(key);
  // An id is an integer in int range: 1.5 is not one, and casting 1e12 to
  // int is undefined behaviour.
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber ||
      v->num != std::trunc(v->num) || v->num < INT_MIN || v->num > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v->num);
  return true;
}

std::string Describe(size_t index, const std::string& what) {
  return "traceEvents[" + std::to_string(index) + "]: " + what;
}

}  // namespace

bool ValidateChromeTrace(const std::string& json, std::string* error,
                         TraceStats* stats) {
  if (error != nullptr) {
    error->clear();
  }
  JsonValue root;
  JsonParser parser(json, error);
  if (!parser.Parse(root)) {
    return false;
  }

  const JsonValue* events = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    events = &root;
  } else if (root.kind == JsonValue::Kind::kObject) {
    events = root.Get("traceEvents");
  }
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) {
      *error = "no traceEvents array found";
    }
    return false;
  }

  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };

  TraceStats local;
  std::map<std::pair<int, int>, double> last_ts;
  std::map<std::pair<int, int>, std::vector<std::string>> open;
  // Cumulative-counter monotonicity, keyed per (pid, counter name): the
  // StallAccountant's stall_* tracks are running totals, so a decrease means
  // the sampler double-flushed or attributed negative time.
  std::map<std::pair<int, std::string>, double> last_counter;

  for (size_t i = 0; i < events->arr.size(); ++i) {
    const JsonValue& ev = events->arr[i];
    if (ev.kind != JsonValue::Kind::kObject) {
      return fail(Describe(i, "event is not an object"));
    }
    const JsonValue* ph = ev.Get("ph");
    if (ph == nullptr || ph->kind != JsonValue::Kind::kString ||
        ph->str.size() != 1) {
      return fail(Describe(i, "missing or malformed \"ph\""));
    }
    const char phase = ph->str[0];
    int pid = 0;
    if (!GetInt(ev, "pid", pid)) {
      return fail(Describe(i, "missing or malformed \"pid\""));
    }
    if (phase == 'M') {
      continue;  // metadata: no timestamp or ordering requirements
    }
    int tid = 0;
    if (!GetInt(ev, "tid", tid)) {
      return fail(Describe(i, "missing or malformed \"tid\""));
    }
    const JsonValue* ts = ev.Get("ts");
    if (ts == nullptr || ts->kind != JsonValue::Kind::kNumber) {
      return fail(Describe(i, "missing or malformed \"ts\""));
    }
    const JsonValue* name = ev.Get("name");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->str.empty()) {
      return fail(Describe(i, "missing or empty \"name\""));
    }

    const std::pair<int, int> track{pid, tid};
    auto it = last_ts.find(track);
    if (it != last_ts.end() && ts->num < it->second) {
      return fail(Describe(i, "timestamp regresses on track pid=" +
                                  std::to_string(pid) +
                                  " tid=" + std::to_string(tid)));
    }
    last_ts[track] = ts->num;

    switch (phase) {
      case 'B':
        open[track].push_back(name->str);
        break;
      case 'E': {
        auto& stack = open[track];
        if (stack.empty()) {
          return fail(Describe(i, "'E' with no open 'B' on its track"));
        }
        stack.pop_back();
        break;
      }
      case 'i':
      case 'I':
        break;
      case 'C': {
        const JsonValue* args = ev.Get("args");
        if (args == nullptr || args->kind != JsonValue::Kind::kObject ||
            args->obj.empty()) {
          return fail(Describe(i, "'C' event without an args object"));
        }
        double value = 0.0;
        bool have_value = false;
        for (const auto& [key, v] : args->obj) {
          (void)key;
          if (v.kind != JsonValue::Kind::kNumber || !std::isfinite(v.num)) {
            return fail(Describe(
                i, "'C' event \"" + name->str + "\" has a non-finite or "
                   "non-numeric args value"));
          }
          value = v.num;
          have_value = true;
        }
        if (!have_value) {
          return fail(Describe(i, "'C' event without a numeric args value"));
        }
        if (name->str.compare(0, 6, "stall_") == 0) {
          // A decrease is legal only when it is an explicit reset to zero: the
          // accountant emits an all-zero sample when a new run restarts a
          // domain's cumulative tracks on a shared timeline.
          const std::pair<int, std::string> ckey{pid, name->str};
          auto cit = last_counter.find(ckey);
          if (cit != last_counter.end() && value < cit->second &&
              value != 0.0) {
            return fail(Describe(
                i, "cumulative counter \"" + name->str + "\" decreases on pid=" +
                   std::to_string(pid) + " without resetting to zero"));
          }
          last_counter[ckey] = value;
        }
        ++local.counters;
        local.counter_names.insert(name->str);
        break;
      }
      default:
        return fail(Describe(i, std::string("unsupported phase '") + phase + "'"));
    }

    ++local.events;
    local.tracks.insert(track);
    if (pid >= kTraceDomainPidBase) {
      local.domain_pids.insert(pid);
    }
    const JsonValue* cat = ev.Get("cat");
    if (cat != nullptr && cat->kind == JsonValue::Kind::kString) {
      local.categories.insert(cat->str);
    }
  }

  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      return fail("track pid=" + std::to_string(track.first) +
                  " tid=" + std::to_string(track.second) + " has " +
                  std::to_string(stack.size()) + " unclosed 'B' slice(s)");
    }
  }

  if (stats != nullptr) {
    *stats = std::move(local);
  }
  return true;
}

}  // namespace vscale
