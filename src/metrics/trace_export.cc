#include "src/metrics/trace_export.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

namespace vscale {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MicrosString(TimeNs ns) {
  // Integer-only µs formatting with 3 decimals: keeps the export bit-deterministic.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

struct Track {
  int pid = 0;
  int tid = 0;
  bool operator<(const Track& o) const {
    return pid < o.pid || (pid == o.pid && tid < o.tid);
  }
};

// Where an event is drawn. Hypervisor "run" slices get TWO homes (machine pCPU row
// and the domain's vCPU row); everything else gets one.
Track HomeTrack(const TraceEvent& e) {
  if (e.domain >= 0) {
    return {kTraceDomainPidBase + e.domain, e.vcpu >= 0 ? e.vcpu : kTraceDomainTid};
  }
  return {kTraceMachinePid, e.pcpu >= 0 ? e.pcpu : kTraceEngineTid};
}

void EmitEvent(std::ostream& os, bool& first, const std::string& name,
               const char phase, const Track& tr, TimeNs ts,
               const TraceEvent* args_src) {
  os << (first ? "\n" : ",\n");
  first = false;
  os << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"" << phase
     << "\",\"pid\":" << tr.pid << ",\"tid\":" << tr.tid
     << ",\"ts\":" << MicrosString(ts) << ",\"cat\":\""
     << ToString(args_src != nullptr ? args_src->category : TraceCategory::kSim)
     << "\"";
  if (phase == 'i') {
    os << ",\"s\":\"t\"";
  }
  if (args_src != nullptr && args_src->arg_name != nullptr) {
    os << ",\"args\":{\"" << JsonEscape(args_src->arg_name)
       << "\":" << args_src->arg << "}";
  }
  os << "}";
}

void EmitMeta(std::ostream& os, bool& first, const char* what, int pid, int tid,
              const std::string& name) {
  os << (first ? "\n" : ",\n");
  first = false;
  os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) {
    os << ",\"tid\":" << tid;
  }
  os << ",\"args\":{\"name\":\"" << JsonEscape(name) << "\"}}";
}

}  // namespace

void WriteChromeTrace(const Tracer& tracer, std::ostream& os) {
  const std::vector<TraceEvent> events = tracer.Snapshot();

  // Pass 1: discover every track so metadata can name them up front.
  std::map<Track, bool> tracks;  // value unused
  TimeNs final_ts = 0;
  for (const TraceEvent& e : events) {
    tracks[HomeTrack(e)] = true;
    if (e.phase == TracePhase::kBegin || e.phase == TracePhase::kEnd) {
      if (e.domain >= 0 && e.pcpu >= 0) {
        tracks[Track{kTraceMachinePid, e.pcpu}] = true;
      }
    }
    final_ts = e.ts;  // buffer order is chronological
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;

  // Metadata: process and thread names.
  std::map<int, std::string> process_names;
  process_names[kTraceMachinePid] = "machine";
  for (const auto& [dom, name] : tracer.domain_names()) {
    process_names[kTraceDomainPidBase + dom] = "dom" + std::to_string(dom) + " " + name;
  }
  for (const auto& [tr, unused] : tracks) {
    (void)unused;
    auto it = process_names.find(tr.pid);
    if (it == process_names.end()) {
      // Domain without a registered name (tracing enabled mid-run).
      process_names[tr.pid] =
          "dom" + std::to_string(tr.pid - kTraceDomainPidBase);
    }
  }
  for (const auto& [pid, name] : process_names) {
    EmitMeta(os, first, "process_name", pid, -1, name);
  }
  for (const auto& [tr, unused] : tracks) {
    (void)unused;
    std::string tname;
    if (tr.pid == kTraceMachinePid) {
      tname = tr.tid == kTraceEngineTid ? "engine" : "pCPU" + std::to_string(tr.tid);
    } else {
      tname = tr.tid == kTraceDomainTid ? "domain" : "vCPU" + std::to_string(tr.tid);
    }
    EmitMeta(os, first, "thread_name", tr.pid, tr.tid, tname);
  }

  // Pass 2: emit events in buffer (chronological) order, balancing B/E per track.
  // Slices cut in half by ring wraparound lose their B; drop the orphan E. Slices
  // still open at the end of the buffer are closed at the final timestamp.
  std::map<Track, std::vector<std::pair<std::string, TraceCategory>>> open;
  auto begin_slice = [&](const Track& tr, const std::string& name,
                         const TraceEvent& e) {
    EmitEvent(os, first, name, 'B', tr, e.ts, &e);
    open[tr].emplace_back(name, e.category);
  };
  auto end_slice = [&](const Track& tr, const TraceEvent& e) {
    auto& stack = open[tr];
    if (stack.empty()) {
      return;  // begin lost to wraparound
    }
    EmitEvent(os, first, stack.back().first, 'E', tr, e.ts, &e);
    stack.pop_back();
  };

  for (const TraceEvent& e : events) {
    const Track home = HomeTrack(e);
    switch (e.phase) {
      case TracePhase::kInstant:
        EmitEvent(os, first, e.name, 'i', home, e.ts, &e);
        break;
      case TracePhase::kCounter:
        EmitEvent(os, first, e.name, 'C', home, e.ts, &e);
        break;
      case TracePhase::kBegin: {
        begin_slice(home, e.name, e);
        if (e.domain >= 0 && e.pcpu >= 0) {
          // Mirror onto the machine's pCPU row, labeled with who is running.
          begin_slice(Track{kTraceMachinePid, e.pcpu},
                      "d" + std::to_string(e.domain) + "/v" +
                          std::to_string(e.vcpu),
                      e);
        }
        break;
      }
      case TracePhase::kEnd: {
        end_slice(home, e);
        if (e.domain >= 0 && e.pcpu >= 0) {
          end_slice(Track{kTraceMachinePid, e.pcpu}, e);
        }
        break;
      }
    }
  }

  for (auto& [tr, stack] : open) {
    while (!stack.empty()) {
      TraceEvent closer;
      closer.category = stack.back().second;
      EmitEvent(os, first, stack.back().first, 'E', tr, final_ts, &closer);
      stack.pop_back();
    }
  }

  os << "\n]}\n";
}

bool WriteChromeTraceFile(const Tracer& tracer, const std::string& path,
                          std::string* error) {
  // Ring overflow silently truncates the trace's oldest window; surface it once
  // per process so nobody reads a partial timeline as a complete one. The same
  // figure is published as the trace.events_dropped counter.
  static bool warned_dropped = false;
  if (!warned_dropped && tracer.dropped() > 0) {
    warned_dropped = true;
    std::fprintf(stderr,
                 "trace: WARNING: ring dropped %llu events; %s starts "
                 "mid-timeline (construct the Tracer with a larger capacity "
                 "to keep the full run)\n",
                 static_cast<unsigned long long>(tracer.dropped()),
                 path.c_str());
  }
  std::ofstream f(path);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  WriteChromeTrace(tracer, f);
  f.flush();
  if (!f) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

}  // namespace vscale
