// I/O scenario: an Apache-like web server inside a consolidated VM, with and without
// vScale, at a chosen request rate — the live version of the paper's Figure 14 and of
// its Figure 1(c) motivation (delayed I/O interrupt processing).
//
//   $ ./examples/webserver_scaling [rate_per_sec] [seconds]

#include <cstdint>
#include <cstdio>

#include "src/base/parse.h"
#include "src/base/table.h"
#include "src/workloads/testbed.h"
#include "src/workloads/web_server.h"

using namespace vscale;

namespace {

struct Outcome {
  double reply_rate;
  double conn_p50_ms;
  double conn_p99_ms;
  double resp_p50_ms;
  double resp_p99_ms;
  int64_t drops;
};

Outcome RunOne(Policy policy, double rate, int seconds, uint64_t seed) {
  TestbedConfig cfg;
  cfg.policy = policy;
  cfg.primary_vcpus = 4;
  cfg.seed = seed;
  Testbed bed(cfg);

  WebServer server(bed.primary(), bed.sim(), WebServerConfig{}, seed + 1);
  server.Start();
  HttperfClient client(server, bed.sim(), rate, seed + 2);
  bed.sim().RunUntil(Milliseconds(300));
  client.Run(bed.sim().Now(), Seconds(seconds));
  bed.sim().RunUntil(Milliseconds(300) + Seconds(seconds) + Seconds(1));

  const WebServer::Stats& s = server.stats();
  Outcome o;
  o.reply_rate = static_cast<double>(s.replies) / (seconds + 1);
  o.conn_p50_ms = s.connection_time_us.Quantile(0.5) / 1000.0;
  o.conn_p99_ms = s.connection_time_us.Quantile(0.99) / 1000.0;
  o.resp_p50_ms = s.response_time_us.Quantile(0.5) / 1000.0;
  o.resp_p99_ms = s.response_time_us.Quantile(0.99) / 1000.0;
  o.drops = s.drops;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: webserver_scaling [rate_per_sec] [seconds]\n";
  double rate = 5000.0;
  if (argc > 1 && (!ParseF64(argv[1], &rate) || rate <= 0)) {
    std::fprintf(stderr, "%srate must be a finite number > 0, got '%s'\n", kUsage,
                 argv[1]);
    return 2;
  }
  int seconds = 30;
  if (argc > 2) {
    int64_t n = 0;
    if (!ParseI64(argv[2], &n) || n < 1 || n > INT32_MAX) {
      std::fprintf(stderr, "%sseconds must be an integer >= 1, got '%s'\n", kUsage,
                   argv[2]);
      return 2;
    }
    seconds = static_cast<int>(n);
  }

  std::printf("Web server under consolidation: %.0f req/s for %d s, 16 KB replies\n\n",
              rate, seconds);

  TextTable table({"config", "replies/s", "conn p50/p99 (ms)", "resp p50/p99 (ms)",
                   "drops"});
  for (Policy policy : {Policy::kBaseline, Policy::kBaselinePvlock, Policy::kVscale,
                        Policy::kVscalePvlock}) {
    const Outcome o = RunOne(policy, rate, seconds, 99);
    table.AddRow({ToString(policy), TextTable::Num(o.reply_rate, 0),
                  TextTable::Num(o.conn_p50_ms, 2) + " / " +
                      TextTable::Num(o.conn_p99_ms, 2),
                  TextTable::Num(o.resp_p50_ms, 2) + " / " +
                      TextTable::Num(o.resp_p99_ms, 2),
                  TextTable::Int(o.drops)});
  }
  table.Print();
  std::printf(
      "\nThe baseline's connection time reflects I/O interrupts landing on preempted\n"
      "vCPUs (paper Figure 1(c)); vScale keeps the interrupt-receiving vCPU running.\n");
  return 0;
}
