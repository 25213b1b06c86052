#include "src/obs/stall_report.h"

#include <algorithm>
#include <climits>
#include <map>
#include <sstream>
#include <tuple>

#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/base/time.h"

namespace vscale {

namespace {

std::string ShareCell(int64_t part, int64_t whole) {
  double share = whole > 0 ? 100.0 * static_cast<double>(part) /
                                 static_cast<double>(whole)
                           : 0.0;
  return TextTable::Num(share, 1) + "%";
}

}  // namespace

bool LoadStallCsv(std::istream& is, StallSeries* out, std::string* error) {
  out->rows.clear();
  out->runs.clear();
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      if (line != "run,ts_ns,domain,vcpu,bucket,cum_ns") {
        if (error != nullptr) {
          *error = "line 1: expected stall CSV header, got \"" + line + "\"";
        }
        return false;
      }
      continue;
    }
    std::stringstream ss(line);
    std::string field[6];
    for (int i = 0; i < 6; ++i) {
      if (!std::getline(ss, field[i], ',')) {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) + ": expected 6 fields";
        }
        return false;
      }
    }
    StallRow row;
    row.run = field[0];
    int64_t ts = 0, dom = 0, vcpu = 0, cum = 0;
    // Ids narrow to int: a domain is 0..INT_MAX, a vCPU -1 (domain scope)..INT_MAX.
    if (!ParseI64(field[1], &ts) || !ParseI64(field[2], &dom) ||
        !ParseI64(field[3], &vcpu) || !ParseI64(field[5], &cum) ||
        !ParseStallBucket(field[4], &row.bucket) || dom < 0 || dom > INT_MAX ||
        vcpu < -1 || vcpu > INT_MAX) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": malformed row \"" +
                 line + "\"";
      }
      return false;
    }
    row.ts = ts;
    row.domain = static_cast<int>(dom);
    row.vcpu = static_cast<int>(vcpu);
    row.cum_ns = cum;
    if (std::find(out->runs.begin(), out->runs.end(), row.run) ==
        out->runs.end()) {
      out->runs.push_back(row.run);
    }
    out->rows.push_back(std::move(row));
  }
  if (!saw_header) {
    if (error != nullptr) *error = "empty input: no stall CSV header";
    return false;
  }
  return true;
}

int64_t VcpuBlame::WallNs() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

int64_t VcpuBlame::SchedStallNs() const {
  return ns[static_cast<int>(StallBucket::kRunnableWaitingPcpu)] +
         ns[static_cast<int>(StallBucket::kLhpSpinning)] +
         ns[static_cast<int>(StallBucket::kIpiInFlight)] +
         ns[static_cast<int>(StallBucket::kStolen)];
}

int64_t DomainBlame::WallNs() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

int64_t DomainBlame::SchedStallNs() const {
  return ns[static_cast<int>(StallBucket::kRunnableWaitingPcpu)] +
         ns[static_cast<int>(StallBucket::kLhpSpinning)] +
         ns[static_cast<int>(StallBucket::kIpiInFlight)] +
         ns[static_cast<int>(StallBucket::kStolen)];
}

std::vector<VcpuBlame> BuildVcpuBlame(const StallSeries& series) {
  // (run, domain, vcpu) -> latest timestamp wins; rows arrive in time order
  // per run, so "last write wins" would also do, but be explicit about it.
  struct Acc {
    TimeNs ts = -1;
    int64_t ns[kStallBucketCount] = {};
  };
  std::map<std::tuple<std::string, int, int>, Acc> acc;
  for (const StallRow& row : series.rows) {
    if (row.vcpu < 0) continue;
    Acc& a = acc[{row.run, row.domain, row.vcpu}];
    if (row.ts > a.ts) {
      a.ts = row.ts;
      for (int i = 0; i < kStallBucketCount; ++i) a.ns[i] = 0;
    }
    if (row.ts == a.ts) a.ns[static_cast<int>(row.bucket)] = row.cum_ns;
  }
  std::vector<VcpuBlame> out;
  out.reserve(acc.size());
  for (const auto& [key, a] : acc) {
    VcpuBlame b;
    b.run = std::get<0>(key);
    b.domain = std::get<1>(key);
    b.vcpu = std::get<2>(key);
    for (int i = 0; i < kStallBucketCount; ++i) b.ns[i] = a.ns[i];
    out.push_back(std::move(b));
  }
  return out;
}

void WriteCollapsedStacks(const StallSeries& series, std::ostream& os) {
  for (const VcpuBlame& v : BuildVcpuBlame(series)) {
    for (int i = 0; i < kStallBucketCount; ++i) {
      if (v.ns[i] == 0) continue;  // zero-width frames only clutter the graph
      os << v.run << ";dom" << v.domain << ";vcpu" << v.vcpu << ";"
         << ToString(static_cast<StallBucket>(i)) << ' ' << v.ns[i] << '\n';
    }
  }
}

std::vector<DomainBlame> BuildDomainBlame(const std::vector<VcpuBlame>& vcpus) {
  std::map<std::pair<std::string, int>, DomainBlame> acc;
  for (const VcpuBlame& v : vcpus) {
    DomainBlame& d = acc[{v.run, v.domain}];
    d.run = v.run;
    d.domain = v.domain;
    ++d.vcpus;
    for (int i = 0; i < kStallBucketCount; ++i) d.ns[i] += v.ns[i];
  }
  std::vector<DomainBlame> out;
  out.reserve(acc.size());
  for (auto& [key, d] : acc) out.push_back(std::move(d));
  return out;
}

double DomainBucketShare(const std::vector<DomainBlame>& domains,
                         const std::string& run, int domain, StallBucket b) {
  for (const DomainBlame& d : domains) {
    if (d.run == run && d.domain == domain) {
      int64_t wall = d.WallNs();
      if (wall <= 0) return 0.0;
      return static_cast<double>(d.ns[static_cast<int>(b)]) /
             static_cast<double>(wall);
    }
  }
  return 0.0;
}

void PrintBlameReport(const StallSeries& series, int top_n, std::ostream& os) {
  std::vector<VcpuBlame> vcpus = BuildVcpuBlame(series);
  std::vector<DomainBlame> domains = BuildDomainBlame(vcpus);
  if (vcpus.empty()) {
    os << "no per-vCPU stall totals in input\n";
    return;
  }

  for (const std::string& run : series.runs) {
    os << "== run: " << run << " — per-domain stall decomposition ==\n";
    TextTable table({"domain", "vcpus", "wall_s", "running", "runnable_wait",
                     "lhp_spin", "futex", "ipi", "frozen", "stolen", "idle"});
    for (const DomainBlame& d : domains) {
      if (d.run != run) continue;
      int64_t wall = d.WallNs();
      table.AddRow({TextTable::Int(d.domain), TextTable::Int(d.vcpus),
                    TextTable::Num(ToSeconds(wall), 2),
                    ShareCell(d.ns[0], wall), ShareCell(d.ns[1], wall),
                    ShareCell(d.ns[2], wall), ShareCell(d.ns[3], wall),
                    ShareCell(d.ns[4], wall), ShareCell(d.ns[5], wall),
                    ShareCell(d.ns[6], wall), ShareCell(d.ns[7], wall)});
    }
    os << table.Render() << "\n";
  }

  os << "== top " << top_n
     << " offenders by scheduler-attributable stall "
        "(runnable_wait + lhp_spin + ipi + stolen) ==\n";
  std::vector<const VcpuBlame*> ranked;
  ranked.reserve(vcpus.size());
  for (const VcpuBlame& v : vcpus) ranked.push_back(&v);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const VcpuBlame* x, const VcpuBlame* y) {
                     return x->SchedStallNs() > y->SchedStallNs();
                   });
  TextTable offenders({"rank", "run", "domain", "vcpu", "sched_stall_ms",
                       "stall_share", "worst_bucket"});
  int rank = 0;
  for (const VcpuBlame* v : ranked) {
    if (rank >= top_n) break;
    ++rank;
    int worst = 1;
    const int blame_buckets[] = {
        static_cast<int>(StallBucket::kRunnableWaitingPcpu),
        static_cast<int>(StallBucket::kLhpSpinning),
        static_cast<int>(StallBucket::kIpiInFlight),
        static_cast<int>(StallBucket::kStolen)};
    for (int b : blame_buckets) {
      if (v->ns[b] > v->ns[worst]) worst = b;
    }
    offenders.AddRow(
        {TextTable::Int(rank), v->run, TextTable::Int(v->domain),
         TextTable::Int(v->vcpu),
         TextTable::Num(ToMilliseconds(v->SchedStallNs()), 2),
         ShareCell(v->SchedStallNs(), v->WallNs()),
         ToString(static_cast<StallBucket>(worst))});
  }
  os << offenders.Render() << "\n";

  if (series.runs.size() >= 2) {
    const std::string& a = series.runs[0];
    const std::string& b = series.runs[1];
    os << "== share shift: " << a << " -> " << b
       << " (positive = less time in bucket under " << b << ") ==\n";
    TextTable shift({"domain", "bucket", a, b, "drop_pp"});
    for (const DomainBlame& d : domains) {
      if (d.run != a) continue;
      for (int i = 0; i < kStallBucketCount; ++i) {
        double share_a =
            DomainBucketShare(domains, a, d.domain, static_cast<StallBucket>(i));
        double share_b =
            DomainBucketShare(domains, b, d.domain, static_cast<StallBucket>(i));
        if (share_a < 0.005 && share_b < 0.005) continue;
        shift.AddRow({TextTable::Int(d.domain),
                      ToString(static_cast<StallBucket>(i)),
                      TextTable::Num(100.0 * share_a, 1) + "%",
                      TextTable::Num(100.0 * share_b, 1) + "%",
                      TextTable::Num(100.0 * (share_a - share_b), 1)});
      }
    }
    os << shift.Render() << "\n";
  }
}

std::vector<DomainFairnessRow> BuildFairnessRows(
    const std::vector<DomainBlame>& domains,
    const std::vector<std::pair<int, int64_t>>& weights) {
  auto weight_of = [&](int domain) -> int64_t {
    for (const auto& w : weights) {
      if (w.first == domain) return w.second;
    }
    return 1;
  };
  // Per run: total obtained CPU and total weight, then one row per domain.
  std::vector<DomainFairnessRow> rows;
  std::map<std::string, int64_t> run_running;
  std::map<std::string, int64_t> run_weight;
  for (const DomainBlame& d : domains) {
    run_running[d.run] += d.ns[static_cast<int>(StallBucket::kRunning)];
    run_weight[d.run] += weight_of(d.domain);
  }
  for (const DomainBlame& d : domains) {
    DomainFairnessRow r;
    r.run = d.run;
    r.domain = d.domain;
    r.weight = weight_of(d.domain);
    r.running_ns = d.ns[static_cast<int>(StallBucket::kRunning)];
    r.waited_ns = d.ns[static_cast<int>(StallBucket::kRunnableWaitingPcpu)];
    const int64_t all_running = run_running[d.run];
    const int64_t all_weight = run_weight[d.run];
    if (all_running > 0) {
      r.share = static_cast<double>(r.running_ns) /  // vslint: allow(float-accum, diagnostic ratio of finalized totals, never fed back into TimeNs state)
                static_cast<double>(all_running);
    }
    if (all_weight > 0) {
      r.entitled = static_cast<double>(r.weight) /
                   static_cast<double>(all_weight);
    }
    if (r.entitled > 0.0) {
      r.share_of_fair = r.share / r.entitled;
    }
    rows.push_back(r);
  }
  return rows;
}

int PrintFairnessReport(const StallSeries& series,
                        const std::vector<std::pair<int, int64_t>>& weights,
                        double eps, std::ostream& os) {
  const std::vector<DomainBlame> domains =
      BuildDomainBlame(BuildVcpuBlame(series));
  const std::vector<DomainFairnessRow> rows =
      BuildFairnessRows(domains, weights);
  if (rows.empty()) {
    os << "no per-vCPU stall totals in input\n";
    return 0;
  }

  int flagged = 0;
  for (const std::string& run : series.runs) {
    os << "== run: " << run << " — CPU share vs weight entitlement (eps "
       << TextTable::Num(eps, 2) << ") ==\n";
    TextTable table({"domain", "weight", "cpu_s", "wait_s", "share",
                     "entitled", "share/fair", "verdict"});
    for (const DomainFairnessRow& r : rows) {
      if (r.run != run) continue;
      // Post-hoc FairnessViolated: over-entitlement is theft only if the
      // other domains had unmet demand that could have absorbed the overage.
      int64_t others_waited = 0;
      int64_t all_running = 0;
      for (const DomainFairnessRow& o : rows) {
        if (o.run != run) continue;
        all_running += o.running_ns;
        if (o.domain != r.domain) others_waited += o.waited_ns;
      }
      const int64_t fair_ns = static_cast<int64_t>(
          r.entitled * static_cast<double>(all_running));
      const int64_t overage = r.running_ns -
                              static_cast<int64_t>((1.0 + eps) *
                                                   static_cast<double>(fair_ns));  // vslint: allow(float-accum, one epsilon scaling of a finalized total, not accumulation)
      const bool over = overage > 0 && others_waited >= overage;
      if (over) ++flagged;
      table.AddRow({TextTable::Int(r.domain), TextTable::Int(r.weight),
                    TextTable::Num(ToSeconds(r.running_ns), 3),
                    TextTable::Num(ToSeconds(r.waited_ns), 3),
                    TextTable::Num(100.0 * r.share, 1) + "%",
                    TextTable::Num(100.0 * r.entitled, 1) + "%",
                    TextTable::Num(r.share_of_fair, 3),
                    over ? "OVER" : "fair"});
    }
    os << table.Render() << "\n";
  }
  os << (flagged > 0 ? "fairness: VIOLATION" : "fairness: OK") << " — "
     << flagged << " domain(s) over entitlement with waiting victims\n";
  return flagged;
}

}  // namespace vscale
