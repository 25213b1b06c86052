// Built-in snippet selftest for the lint engine: every rule family gets
// positive and negative cases, plus the suppression / reason / staleness
// semantics. The planted-file corpus under tests/lint_corpus/ covers the
// same ground with on-disk files; this selftest is the fast in-binary check
// that runs even with no filesystem access.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "tools/lintlib/driver.h"

namespace vslint {

namespace {

using FileSpec = std::vector<std::pair<std::string, std::string>>;

Project MakeProject(const FileSpec& files, const std::string& docs) {
  Project p;
  for (const auto& [rel, content] : files) {
    p.files.push_back(Parse(AnalyzeSource(rel, content)));
  }
  p.docs_text = docs;
  return p;
}

// Runs the engine over the snippet project and compares the surviving rule
// names (sorted) against `want`. Returns 1 on mismatch.
int Expect(const char* label, const FileSpec& files, const std::string& docs,
           LintOptions opts, std::vector<std::string> want) {
  const Project p = MakeProject(files, docs);
  const std::vector<Finding> got_findings = RunLint(p, opts);
  std::vector<std::string> got;
  for (const Finding& f : got_findings) got.push_back(f.rule);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return 0;
  std::fprintf(stderr, "selftest FAIL: %s\n  want:", label);
  for (const auto& r : want) std::fprintf(stderr, " %s", r.c_str());
  std::fprintf(stderr, "\n  got: ");
  for (const auto& r : got) std::fprintf(stderr, " %s", r.c_str());
  std::fprintf(stderr, "\n");
  for (const Finding& f : got_findings) {
    std::fprintf(stderr, "    %s:%d [%s] %s\n", f.rel.c_str(), f.line,
                 f.rule.c_str(), f.detail.c_str());
  }
  return 1;
}

LintOptions Det() {
  LintOptions o;
  o.families = {"determinism"};
  o.stale_check = false;
  return o;
}

LintOptions All() { return LintOptions{}; }

}  // namespace

int RunSelfTest() {
  int failures = 0;
  const auto Case1 = [&](const char* label, const std::string& content,
                         std::vector<std::string> want,
                         const LintOptions& opts) {
    failures += Expect(label, {{"tests/snippet.cc", content}}, "", opts,
                       std::move(want));
  };

  // --- determinism family --------------------------------------------------
  Case1("unordered-map", "std::unordered_map<int, int> m;\n",
        {"unordered-container"}, Det());
  Case1("unordered-set", "std::unordered_set<uint64_t> s;\n",
        {"unordered-container"}, Det());
  Case1("ordered-map-ok", "std::map<int, int> m;\n", {}, Det());
  Case1("raw-rand", "int x = rand();\n", {"raw-rand"}, Det());
  Case1("random-device", "std::random_device rd;\n", {"raw-rand"}, Det());
  Case1("rng-ok", "auto v = rng.NextU64();\n", {}, Det());
  Case1("rand-in-comment-ok", "// rand() would be bad here\nint x = 0;\n", {},
        Det());
  Case1("rand-in-string-ok", "const char* s = \"call rand() never\";\n", {},
        Det());
  Case1("wall-clock", "auto t = std::chrono::steady_clock::now();\n",
        {"wall-clock"}, Det());
  Case1("time-null", "time_t t = time(nullptr);\n", {"wall-clock"}, Det());
  Case1("pointer-key", "std::map<Vcpu*, int> owners;\n", {"pointer-key"},
        Det());
  Case1("pointer-value-ok", "std::map<int, Vcpu*> owners;\n", {}, Det());
  Case1("float-credit", "double credit = 0.0;\n", {"float-accum"}, Det());
  Case1("float-ns", "float wait_ns = 0;\n", {"float-accum"}, Det());
  Case1("int-ns-ok", "int64_t wait_ns = 0;\n", {}, Det());
  Case1("allow-same-line",
        "std::unordered_map<int, int> m;  "
        "// vslint: allow(unordered-container, never iterated)\n",
        {}, Det());
  Case1("allow-line-above",
        "// vslint: allow(raw-rand, tool-local seed)\nint x = rand();\n", {},
        Det());
  Case1("allow-wrong-rule",
        "// vslint: allow(wall-clock, host timing)\nint x = rand();\n",
        {"raw-rand"}, Det());
  Case1("allow-not-transitive",
        "int a = rand();  // vslint: allow(raw-rand, tool-local seed)\n"
        "int b = rand();\n",
        {"raw-rand"}, Det());
  failures += Expect(
      "faults-escape-banned",
      {{"src/faults/inject.cc",
        "int x = rand();  // vslint: allow(raw-rand, jitter)\n"}},
      "", Det(), {"faults-allow-escape"});
  failures += Expect(
      "fuzz-escape-banned",
      {{"src/fuzz/gen.cc",
        "// vslint: allow(raw-rand, jitter)\nint x = rand();\n"}},
      "", Det(), {"faults-allow-escape"});
  failures += Expect(
      "escape-fine-elsewhere",
      {{"src/sim/clock.cc",
        "int x = rand();  // vslint: allow(raw-rand, tool-local seed)\n"}},
      "", Det(), {});

  // --- suppression semantics (vslint form, reasons, staleness) -------------
  Case1("vslint-allow-with-reason",
        "int x = rand();  // vslint: allow(raw-rand, tool-local seed ok)\n",
        {}, All());
  Case1("vslint-allow-missing-reason",
        "int x = rand();  // vslint: allow(raw-rand)\n",
        {"allow-needs-reason"}, All());
  Case1("stale-suppression",
        "int x = 0;  // vslint: allow(raw-rand, nothing here)\n",
        {"stale-suppression"}, All());
  Case1("unknown-rule-marker",
        "int x = 0;  // vslint: allow(no-such-rule, typo)\n",
        {"stale-suppression"}, All());
  {
    // A semantic-rule marker must survive a determinism-only pass untouched:
    // the rule is known but inactive, so the stale check skips it.
    LintOptions det_meta;
    det_meta.families = {"determinism", "meta"};
    Case1("inactive-rule-marker-kept",
          "int x = 0;  // vslint: allow(observer-global, perfbench-only sink)\n",
          {}, det_meta);
  }

  // --- observability --------------------------------------------------------
  failures += Expect(
      "metric-undocumented",
      {{"src/obs/counters.cc",
        "void Init(MetricsRegistry& reg) { c_ = "
        "reg.Counter(\"vscale.widget_spins\"); }\n"}},
      "metrics: none yet\n", All(), {"metric-docs"});
  failures += Expect(
      "metric-documented",
      {{"src/obs/counters.cc",
        "void Init(MetricsRegistry& reg) { c_ = "
        "reg.Counter(\"vscale.widget_spins\"); }\n"}},
      "| `vscale.widget_spins` | spins |\n", All(), {});
  failures += Expect(
      "metric-outside-src-exempt",
      {{"tools/widget.cc",
        "void Init(MetricsRegistry& reg) { c_ = "
        "reg.Counter(\"vscale.widget_spins\"); }\n"}},
      "", All(), {});
  failures += Expect(
      "trace-undocumented",
      {{"src/obs/spans.cc", "void F() { VSCALE_TRACE_INSTANT(\"warp_jump\"); "
                            "}\n"}},
      "", All(), {"trace-docs"});
  const char* kCovTable =
      "const char* const kCoverPointNames[2] = {\n"
      "    \"fault.channel_stale\",\n"
      "    \"shape.policy_vscale\",\n"
      "};\n";
  failures += Expect("cov-undocumented",
                     {{"src/obs/coverage.cc", kCovTable}},
                     "coverage: `fault.channel_stale` only\n", All(),
                     {"cov-docs"});
  failures += Expect("cov-documented", {{"src/obs/coverage.cc", kCovTable}},
                     "| `fault.channel_stale` |\n| `shape.policy_vscale` |\n",
                     All(), {});
  failures += Expect("cov-outside-src-exempt",
                     {{"tools/cov_mirror.cc", kCovTable}}, "", All(), {});
  failures += Expect(
      "observer-global-static-sink",
      {{"src/obs/sink.cc",
        "CoverageMap& Shared() {\n"
        "  static CoverageMap* map = new CoverageMap();\n"
        "  return *map;\n"
        "}\n"}},
      "", All(), {"observer-global"});
  failures += Expect(
      "observer-global-static-accessor",
      {{"src/obs/sink.h",
        "class Hub {\n"
        " public:\n"
        "  static vscale::MetricsRegistry& Registry();\n"
        "};\n"}},
      "", All(), {"observer-global"});
  failures += Expect(
      "observer-global-per-run-ok",
      {{"src/obs/sink.cc",
        "static void Publish(MetricsRegistry& reg, const Tracer* t);\n"
        "void Run() {\n"
        "  Tracer tracer;\n"
        "  static int runs = 0;\n"
        "  Observers obs{&tracer, nullptr, nullptr, nullptr};\n"
        "}\n"}},
      "", All(), {});
  failures += Expect(
      "observer-global-outside-src-exempt",
      {{"bench/scope.h", "static Tracer* g_tracer = nullptr;\n"}}, "", All(),
      {});

  // --- validate -------------------------------------------------------------
  const char* kConfig =
      "struct Config {\n"
      "  int n = 0;\n"
      "  void Validate() const;\n"
      "};\n";
  failures += Expect(
      "run-skips-validate",
      {{"src/workloads/run.cc",
        std::string(kConfig) +
            "int RunJob(const Config& cfg) { return cfg.n * 2; }\n"}},
      "", All(), {"validate-before-use"});
  failures += Expect(
      "run-validates",
      {{"src/workloads/run.cc",
        std::string(kConfig) +
            "int RunJob(const Config& cfg) {\n"
            "  cfg.Validate();\n"
            "  return cfg.n * 2;\n"
            "}\n"}},
      "", All(), {});
  failures += Expect(
      "ctor-skips-validate",
      {{"src/workloads/engine.h",
        std::string(kConfig) +
            "class Engine {\n"
            " public:\n"
            "  explicit Engine(const Config& cfg) : cfg_(cfg) {}\n"
            " private:\n"
            "  Config cfg_;\n"
            "};\n"}},
      "", All(), {"validate-before-use"});
  failures += Expect(
      "ctor-validates-in-body",
      {{"src/workloads/engine.h",
        std::string(kConfig) +
            "class Engine {\n"
            " public:\n"
            "  explicit Engine(const Config& cfg) : cfg_(cfg) { "
            "cfg_.Validate(); }\n"
            " private:\n"
            "  Config cfg_;\n"
            "};\n"}},
      "", All(), {});
  failures += Expect(
      "helper-probe-exempt",
      {{"src/workloads/probe.cc",
        std::string(kConfig) +
            "bool IsLegal(const Config& cfg) { return cfg.n >= 0; }\n"}},
      "", All(), {});

  // --- suppression of a semantic finding ------------------------------------
  failures += Expect(
      "semantic-allow-with-reason",
      {{"src/obs/sink.cc",
        "Tracer& Shared() {\n"
        "  // vslint: allow(observer-global, read only by the benchmark harness)\n"
        "  static Tracer tracer;\n"
        "  return tracer;\n"
        "}\n"}},
      "", All(), {});

  if (failures == 0) std::fprintf(stderr, "lint selftest: all cases pass\n");
  return failures;
}

}  // namespace vslint
