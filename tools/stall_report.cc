// stall_report: per-domain/per-vCPU blame tables over a StallAccountant CSV —
// the `perf sched` + `lockstat` analogue for the DES (docs/OBSERVABILITY.md).
//
//   stall_report <stall.csv> [--top N]     blame tables + offender ranking
//   stall_report <stall.csv> --collapsed   collapsed-stack lines
//                                          (run;domN;vcpuN;bucket cum_ns) for
//                                          flamegraph.pl / speedscope
//   stall_report <stall.csv> --json        per-run/per-domain blame totals as
//                                          flat JSON (the tools/flat_json.h
//                                          schema bench_diff consumes): dotted
//                                          keys runs.<run>.dom<D>.<bucket>_ns
//                                          plus wall_ns / sched_stall_ns
//   stall_report <stall.csv> --fairness [--weights 0=768,1=256] [--eps 0.25]
//                                          per-domain CPU share vs weight
//                                          entitlement (docs/ADVERSARIAL.md);
//                                          exits 1 when a domain is OVER its
//                                          entitlement with waiting victims
//   stall_report --selftest                parser/report checks on synthetic data
//
// Produce the input with any stall-enabled harness, e.g.:
//   ./examples/quickstart lu 4 --stall-csv stall.csv

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "src/base/parse.h"
#include "src/obs/stall_report.h"
#include "tools/flat_json.h"

namespace vscale {
namespace {

// A tiny two-run series shaped like a baseline-vs-vScale quickstart: under
// "vscale" the runnable-wait and LHP-spin shares collapse into frozen time.
const char kSyntheticCsv[] =
    "run,ts_ns,domain,vcpu,bucket,cum_ns\n"
    "base,1000000,0,0,running,500000\n"
    "base,1000000,0,0,runnable_waiting_pcpu,300000\n"
    "base,1000000,0,0,lhp_spinning,150000\n"
    "base,1000000,0,0,futex_blocked,50000\n"
    "base,1000000,0,0,ipi_in_flight,0\n"
    "base,1000000,0,0,frozen,0\n"
    "base,1000000,0,0,stolen,0\n"
    "base,1000000,0,0,idle,0\n"
    "base,1000000,0,1,running,400000\n"
    "base,1000000,0,1,runnable_waiting_pcpu,400000\n"
    "base,1000000,0,1,lhp_spinning,200000\n"
    "base,1000000,0,1,futex_blocked,0\n"
    "base,1000000,0,1,ipi_in_flight,0\n"
    "base,1000000,0,1,frozen,0\n"
    "base,1000000,0,1,stolen,0\n"
    "base,1000000,0,1,idle,0\n"
    "vscale,1000000,0,0,running,800000\n"
    "vscale,1000000,0,0,runnable_waiting_pcpu,100000\n"
    "vscale,1000000,0,0,lhp_spinning,50000\n"
    "vscale,1000000,0,0,futex_blocked,50000\n"
    "vscale,1000000,0,0,ipi_in_flight,0\n"
    "vscale,1000000,0,0,frozen,0\n"
    "vscale,1000000,0,0,stolen,0\n"
    "vscale,1000000,0,0,idle,0\n"
    "vscale,1000000,0,1,running,100000\n"
    "vscale,1000000,0,1,runnable_waiting_pcpu,50000\n"
    "vscale,1000000,0,1,lhp_spinning,0\n"
    "vscale,1000000,0,1,futex_blocked,0\n"
    "vscale,1000000,0,1,ipi_in_flight,0\n"
    "vscale,1000000,0,1,frozen,850000\n"
    "vscale,1000000,0,1,stolen,0\n"
    "vscale,1000000,0,1,idle,0\n";

// Fairness-mode synthetic series: dom1 hogs both pCPUs' worth of runtime
// while dom0 sits runnable — the tick-evader's post-hoc signature.
const char kFairnessCsv[] =
    "run,ts_ns,domain,vcpu,bucket,cum_ns\n"
    "attack,2000000,0,0,running,300000\n"
    "attack,2000000,0,0,runnable_waiting_pcpu,1500000\n"
    "attack,2000000,0,0,idle,200000\n"
    "attack,2000000,0,1,running,300000\n"
    "attack,2000000,0,1,runnable_waiting_pcpu,1500000\n"
    "attack,2000000,0,1,idle,200000\n"
    "attack,2000000,1,0,running,1400000\n"
    "attack,2000000,1,0,runnable_waiting_pcpu,100000\n"
    "attack,2000000,1,0,idle,500000\n"
    "attack,2000000,1,1,running,1400000\n"
    "attack,2000000,1,1,runnable_waiting_pcpu,100000\n"
    "attack,2000000,1,1,idle,500000\n";

// "dom_id=weight" pairs, comma-separated ("0=768,1=256"); false on bad syntax.
bool ParseWeights(const std::string& spec,
                  std::vector<std::pair<int, int64_t>>* out) {
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t eq = item.find('=');
    int64_t dom = 0;
    int64_t weight = 0;
    if (eq == std::string::npos ||
        !ParseI64(std::string_view(item).substr(0, eq), &dom) ||
        !ParseI64(std::string_view(item).substr(eq + 1), &weight) || dom < 0 ||
        dom > INT32_MAX) {
      return false;
    }
    out->emplace_back(static_cast<int>(dom), weight);
  }
  return !out->empty();
}

// Flat-JSON export of the per-domain blame totals: a machine-readable twin of
// the blame tables, in the flat schema tools/flat_json.h parses (string or
// numeric leaves, nesting only as grouping) so bench_diff and scripts can
// consume stall decompositions without a CSV parser. Keys flatten to
// "runs.<run>.dom<D>.<bucket>_ns" and run labels are emitted verbatim —
// StallAccountant labels are sanitized metric names, already JSON-safe.
void WriteJsonReport(const StallSeries& series, std::ostream& os) {
  const auto domains = BuildDomainBlame(BuildVcpuBlame(series));
  os << "{\n  \"schema\": \"vscale-stall-report-v1\",\n  \"runs\": {";
  bool first_run = true;
  for (const std::string& run : series.runs) {
    os << (first_run ? "\n" : ",\n") << "    \"" << run << "\": {";
    first_run = false;
    bool first_dom = true;
    for (const DomainBlame& d : domains) {
      if (d.run != run) continue;
      os << (first_dom ? "\n" : ",\n") << "      \"dom" << d.domain << "\": {\n";
      first_dom = false;
      os << "        \"vcpus\": " << d.vcpus << ",\n";
      for (int b = 0; b < kStallBucketCount; ++b) {
        os << "        \"" << ToString(static_cast<StallBucket>(b))
           << "_ns\": " << d.ns[b] << ",\n";
      }
      os << "        \"wall_ns\": " << d.WallNs() << ",\n";
      os << "        \"sched_stall_ns\": " << d.SchedStallNs() << "\n      }";
    }
    os << "\n    }";
  }
  os << "\n  }\n}\n";
}

#define ST_CHECK(cond)                                                    \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "stall_report selftest FAILED at %s:%d: %s\n", \
                   __FILE__, __LINE__, #cond);                            \
      return 1;                                                           \
    }                                                                     \
  } while (0)

int SelfTest() {
  std::stringstream in(kSyntheticCsv);
  StallSeries series;
  std::string error;
  ST_CHECK(LoadStallCsv(in, &series, &error));
  ST_CHECK(series.runs.size() == 2);
  ST_CHECK(series.rows.size() == 32);

  auto vcpus = BuildVcpuBlame(series);
  ST_CHECK(vcpus.size() == 4);
  auto domains = BuildDomainBlame(vcpus);
  ST_CHECK(domains.size() == 2);

  // The paper-expected shift: scheduler-attributable stall share drops.
  const double base_share =
      DomainBucketShare(domains, "base", 0, StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "base", 0, StallBucket::kLhpSpinning);
  const double vscale_share =
      DomainBucketShare(domains, "vscale", 0,
                        StallBucket::kRunnableWaitingPcpu) +
      DomainBucketShare(domains, "vscale", 0, StallBucket::kLhpSpinning);
  ST_CHECK(base_share > 0.5);
  ST_CHECK(vscale_share < 0.15);

  std::stringstream report;
  PrintBlameReport(series, 3, report);
  const std::string text = report.str();
  ST_CHECK(text.find("per-domain stall decomposition") != std::string::npos);
  ST_CHECK(text.find("top 3 offenders") != std::string::npos);
  ST_CHECK(text.find("share shift") != std::string::npos);

  // Collapsed-stack export: golden output — frame order and values are part
  // of the format contract (stackcollapse viewers diff poorly).
  const char kGoldenCollapsed[] =
      "base;dom0;vcpu0;running 500000\n"
      "base;dom0;vcpu0;runnable_waiting_pcpu 300000\n"
      "base;dom0;vcpu0;lhp_spinning 150000\n"
      "base;dom0;vcpu0;futex_blocked 50000\n"
      "base;dom0;vcpu1;running 400000\n"
      "base;dom0;vcpu1;runnable_waiting_pcpu 400000\n"
      "base;dom0;vcpu1;lhp_spinning 200000\n"
      "vscale;dom0;vcpu0;running 800000\n"
      "vscale;dom0;vcpu0;runnable_waiting_pcpu 100000\n"
      "vscale;dom0;vcpu0;lhp_spinning 50000\n"
      "vscale;dom0;vcpu0;futex_blocked 50000\n"
      "vscale;dom0;vcpu1;running 100000\n"
      "vscale;dom0;vcpu1;runnable_waiting_pcpu 50000\n"
      "vscale;dom0;vcpu1;frozen 850000\n";
  std::stringstream collapsed;
  WriteCollapsedStacks(series, collapsed);
  if (collapsed.str() != kGoldenCollapsed) {
    std::fprintf(stderr,
                 "stall_report selftest FAILED: collapsed-stack output "
                 "diverged from golden:\n--- got ---\n%s--- want ---\n%s",
                 collapsed.str().c_str(), kGoldenCollapsed);
    return 1;
  }

  // Fairness mode: equal weights flag the hog (share 82% vs 50% entitled,
  // victims waiting), while weights that entitle it 3:1 legitimize the split.
  {
    std::stringstream fin(kFairnessCsv);
    StallSeries fseries;
    ST_CHECK(LoadStallCsv(fin, &fseries, &error));
    std::stringstream unweighted;
    ST_CHECK(PrintFairnessReport(fseries, {}, 0.25, unweighted) == 1);
    ST_CHECK(unweighted.str().find("OVER") != std::string::npos);
    ST_CHECK(unweighted.str().find("fairness: VIOLATION") != std::string::npos);
    const auto rows =
        BuildFairnessRows(BuildDomainBlame(BuildVcpuBlame(fseries)), {});
    ST_CHECK(rows.size() == 2);
    ST_CHECK(rows[1].share_of_fair > 1.25);
    std::stringstream weighted;
    ST_CHECK(PrintFairnessReport(fseries, {{0, 256}, {1, 768}}, 0.25,
                                 weighted) == 0);
    ST_CHECK(weighted.str().find("fairness: OK") != std::string::npos);

    std::vector<std::pair<int, int64_t>> weights;
    ST_CHECK(ParseWeights("0=768,1=256", &weights));
    ST_CHECK(weights.size() == 2 && weights[1].second == 256);
    weights.clear();
    ST_CHECK(!ParseWeights("0:768", &weights));
    ST_CHECK(!ParseWeights("", &weights));
    ST_CHECK(!ParseWeights("0=768x", &weights));  // trailing junk
    ST_CHECK(!ParseWeights("1=99999999999999999999", &weights));  // overflow
  }

  // JSON export: must parse back through the repo's own flat-JSON reader with
  // the totals the blame tables computed (dom0 base: 500000+400000 running).
  {
    std::stringstream jin(kSyntheticCsv);
    StallSeries jseries;
    ST_CHECK(LoadStallCsv(jin, &jseries, &error));
    std::stringstream json;
    WriteJsonReport(jseries, json);
    FlatJson flat;
    ST_CHECK(ParseFlatJson(json.str(), &flat, &error));
    ST_CHECK(flat.at("schema").text == "vscale-stall-report-v1");
    ST_CHECK(flat.at("runs.base.dom0.running_ns").number == 900000.0);
    ST_CHECK(flat.at("runs.base.dom0.lhp_spinning_ns").number == 350000.0);
    ST_CHECK(flat.at("runs.vscale.dom0.frozen_ns").number == 850000.0);
    ST_CHECK(flat.at("runs.base.dom0.vcpus").number == 2.0);
    ST_CHECK(flat.at("runs.base.dom0.wall_ns").number == 2000000.0);
    ST_CHECK(flat.count("runs.base.dom0.sched_stall_ns") == 1);
  }

  // Malformed inputs must be rejected, not misread.
  std::stringstream bad_header("nope\n");
  ST_CHECK(!LoadStallCsv(bad_header, &series, &error));
  std::stringstream bad_bucket(
      "run,ts_ns,domain,vcpu,bucket,cum_ns\nr,1,0,0,warp_drive,5\n");
  ST_CHECK(!LoadStallCsv(bad_bucket, &series, &error));
  std::stringstream bad_number(
      "run,ts_ns,domain,vcpu,bucket,cum_ns\nr,x,0,0,running,5\n");
  ST_CHECK(!LoadStallCsv(bad_number, &series, &error));

  std::printf("stall_report selftest OK\n");
  return 0;
}

const char kUsage[] =
    "usage: stall_report <stall.csv> [--top N] [--collapsed] [--json]\n"
    "       stall_report <stall.csv> --fairness [--weights 0=768,1=256] "
    "[--eps 0.25]\n";

int Run(int argc, char** argv) {
  std::string path;
  int top_n = 10;
  bool collapsed = false;
  bool json = false;
  bool fairness = false;
  double eps = 0.25;
  std::vector<std::pair<int, int64_t>> weights;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      return SelfTest();
    }
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      int64_t n = 0;
      if (!ParseI64(argv[++i], &n) || n < 1 || n > INT32_MAX) {
        std::fprintf(stderr, "stall_report: --top wants an integer >= 1, got '%s'\n",
                     argv[i]);
        return 2;
      }
      top_n = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--collapsed") == 0) {
      collapsed = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--fairness") == 0) {
      fairness = true;
    } else if (std::strcmp(argv[i], "--eps") == 0 && i + 1 < argc) {
      if (!ParseF64(argv[++i], &eps) || eps < 0) {
        std::fprintf(stderr, "stall_report: --eps wants a number >= 0, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--weights") == 0 && i + 1 < argc) {
      if (!ParseWeights(argv[i + 1], &weights)) {
        std::fprintf(stderr, "stall_report: bad --weights spec '%s' "
                             "(want dom=weight[,dom=weight...])\n",
                     argv[i + 1]);
        return 2;
      }
      ++i;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "%s", kUsage);
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "stall_report: cannot open %s\n", path.c_str());
    return 1;
  }
  StallSeries series;
  std::string error;
  if (!LoadStallCsv(f, &series, &error)) {
    std::fprintf(stderr, "stall_report: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (fairness) {
    // CI-friendly: a flagged domain is a non-zero exit, like --check modes.
    return PrintFairnessReport(series, weights, eps, std::cout) > 0 ? 1 : 0;
  }
  if (json) {
    WriteJsonReport(series, std::cout);
  } else if (collapsed) {
    // Collapsed-stack lines for flamegraph.pl / speedscope; pipe to a file and
    // feed the viewer directly.
    WriteCollapsedStacks(series, std::cout);
  } else {
    PrintBlameReport(series, top_n, std::cout);
  }
  return 0;
}

}  // namespace
}  // namespace vscale

int main(int argc, char** argv) { return vscale::Run(argc, argv); }
