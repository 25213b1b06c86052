#include "harness/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  if (open_.empty()) {
    s.unit = next_unit_++;
  } else {
    s.parent = open_.back();
    s.unit = spans_[static_cast<size_t>(s.parent)].unit;
  }
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = NowNs();
  spans_.push_back(s);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();  // scoped spans close innermost-first
}

bool SpanRecorder::WriteChromeTrace(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%u,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.unit, s.parent);
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;  // end of the covered prefix so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, LayerTime> AggregateByName(const std::vector<Span>& spans,
                                                 const std::vector<int64_t>& self) {
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.calls;
    t.self_ns += self[i];
  }
  return out;
}

std::vector<UnitAttribution> AttributeUnits(const std::vector<Span>& spans,
                                            const std::vector<int64_t>& self) {
  std::vector<UnitAttribution> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    out.push_back({spans[i].name, spans[i].end_ns - spans[i].start_ns, self[i]});
  }
  return out;
}

}  // namespace perfbench
