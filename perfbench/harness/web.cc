// web_open_loop: one 4-vCPU vScale testbed on the consolidated pool running
// the Apache model under an open-loop httperf client. Arrivals are fixed
// interval at 7K req/s, past the modelled knee, and are generated on the
// simulated clock: generator lateness is zero by construction, and response
// time runs from each request's due time to its reply leaving the wire.
// Set-up builds the testbed and runs 5 s of untimed load so the queues are
// full; then one simulated second of load is one timed unit, and the drain
// after the load window and teardown belong to the pass but to no unit.

#include <cstdio>
#include <memory>

#include "harness/arith.h"
#include "harness/bench.h"
#include "src/workloads/web_server.h"

namespace perfbench {

namespace {

using vscale::Seconds;
using vscale::TimeNs;

constexpr double kRate = 7000.0;  // requests per simulated second
constexpr int kLoadSeconds = 120;  // timed units per pass
constexpr TimeNs kBoot = vscale::Milliseconds(300);  // before the client starts
constexpr TimeNs kWarmLoad = Seconds(5);  // untimed load that fills the queues
constexpr TimeNs kDrain = Seconds(1);
constexpr double kPaperReplyKps = 6.6;  // Fig. 14, vScale at its peak

struct Outcome {
  int64_t arrivals = 0;
  int64_t replies = 0;
  int64_t drops = 0;
  int64_t carried_in = 0;  // in flight when the warm-up's statistics were reset
  int64_t in_flight_at_window_end = 0;
  int64_t in_flight_after_drain = 0;
  double resp_ms_p50 = 0.0;
  double resp_ms_p99 = 0.0;
};

class WebWorkload : public Workload {
 public:
  explicit WebWorkload(uint64_t seed)
      : testbed_seed_(DeriveSeed(seed, 0)), server_seed_(DeriveSeed(seed, 1)),
        client_seed_(DeriveSeed(seed, 2)) {}

  const char* unit_name() const override { return "simulated second of 7K req/s load"; }

  void Setup() override {
    SpanRecorder off;
    Build(off, /*traced=*/false);
  }

  Pass RunPass(SpanRecorder& rec, bool traced) override {
    Pass pass;
    // The first pass runs on the testbed Setup() built and warmed; later ones
    // build their own, outside the pass's wall time, so every pass times the
    // same work: the load window, the drain and teardown.
    if (bed_ == nullptr) {
      UnitScope setup(pass, rec, "setup", /*timed=*/false);
      Build(rec, traced);
    }
    const int64_t t0 = NowNs();
    const TimeNs sim0 = bed_->sim().Now();
    for (int s = 0; s < kLoadSeconds; ++s) {
      UnitScope unit(pass, rec, "unit", /*timed=*/true);
      {
        ScopedSpan span(rec, "sim.run");
        bed_->sim().RunUntil(bed_->sim().Now() + Seconds(1));
      }
      ++pass.attempted;
      ScopedSpan span(rec, "metrics.digest");
      const vscale::WebServer::Stats& st = server_->stats();
      vscale::StateDigest d;
      d.AbsorbMachine(bed_->machine()).AbsorbGuest(bed_->primary());
      d.Absorb(st.arrivals).Absorb(st.replies).Absorb(st.drops);
      pass.digest.Absorb(d.value());
    }
    {
      UnitScope teardown(pass, rec, "teardown", /*timed=*/false);
      Outcome o;
      const vscale::WebServer::Stats& st = server_->stats();
      o.carried_in = carried_in_;
      o.in_flight_at_window_end = carried_in_ + st.arrivals - st.replies - st.drops;
      {
        ScopedSpan span(rec, "sim.run");
        bed_->sim().RunUntil(bed_->sim().Now() + kDrain);
      }
      o.arrivals = st.arrivals;
      o.replies = st.replies;
      o.drops = st.drops;
      o.in_flight_after_drain = carried_in_ + st.arrivals - st.replies - st.drops;
      {
        ScopedSpan span(rec, "metrics.quantiles");
        o.resp_ms_p50 = st.response_time_us.Quantile(0.50) / 1e3;
        o.resp_ms_p99 = st.response_time_us.Quantile(0.99) / 1e3;
      }
      if (!Check(o)) ++pass.failed;
      if (!have_outcome_) {
        outcome_ = o;
        have_outcome_ = true;
      }
      pass.counts.AddTestbed(*bed_);
      pass.sim_ns += bed_->sim().Now() - sim0;
      {
        ScopedSpan span(rec, "workloads.app_dtor");
        client_.reset();
        server_.reset();
      }
      {
        ScopedSpan span(rec, "workloads.testbed_dtor");
        bed_.reset();
      }
      CloseTestbed(rec, traced, pass.counts);
    }
    pass.wall_ns = NowNs() - t0;
    return pass;
  }

  bool Report() override {
    const Outcome& o = outcome_;
    const double reply_kps = static_cast<double>(o.replies) / kLoadSeconds / 1e3;
    std::printf("\nmodelled outcome (simulated time; open loop, fixed interval, %.0f req/s for "
                "%d s)\n", kRate, kLoadSeconds);
    std::printf("  generator lateness 0 ms by construction (arrivals are events on the "
                "simulated clock); response time runs from each request's due time\n");
    std::printf("  %.0f s of untimed load first; then in flight %lld, arrivals %lld, replies "
                "%lld, drops %lld, in flight at window end %lld, after %.0f s drain %lld\n",
                vscale::ToSeconds(kWarmLoad), static_cast<long long>(o.carried_in),
                static_cast<long long>(o.arrivals), static_cast<long long>(o.replies),
                static_cast<long long>(o.drops),
                static_cast<long long>(o.in_flight_at_window_end), vscale::ToSeconds(kDrain),
                static_cast<long long>(o.in_flight_after_drain));
    std::printf("  reply_rate_kps   %.4f kreplies/s  ref %.1f (paper Fig. 14, vScale), "
                "error %+.1f%%\n",
                reply_kps, kPaperReplyKps, 100.0 * (reply_kps / kPaperReplyKps - 1));
    std::printf("  resp_ms_p50      %.4f ms  (paper plots response time only as a curve; no "
                "published value)\n", o.resp_ms_p50);
    std::printf("  resp_ms_p99      %.4f ms\n", o.resp_ms_p99);
    std::printf("  failed_ops_frac  %.6f  (dropped or unreplied requests / arrivals)\n",
                FailureFraction(o.drops + o.in_flight_after_drain, o.arrivals));
    std::printf("  there is no hardware reference\n");
    return Check(o);
  }

 private:
  void Build(SpanRecorder& rec, bool traced) {
    vscale::TestbedConfig tb;
    tb.policy = vscale::Policy::kVscale;
    tb.primary_vcpus = 4;
    tb.seed = testbed_seed_;
    tb.stall_accounting = traced;
    {
      ScopedSpan s(rec, "workloads.testbed_ctor");
      bed_ = std::make_unique<vscale::Testbed>(tb);
    }
    {
      ScopedSpan s(rec, "workloads.app_ctor");
      server_ = std::make_unique<vscale::WebServer>(bed_->primary(), bed_->sim(),
                                                    vscale::WebServerConfig{}, server_seed_);
      client_ = std::make_unique<vscale::HttperfClient>(*server_, bed_->sim(), kRate,
                                                        client_seed_);
    }
    {
      ScopedSpan s(rec, "workloads.app_start");
      server_->Start();
    }
    {
      ScopedSpan s(rec, "sim.run");
      bed_->sim().RunUntil(kBoot);
    }
    {
      ScopedSpan s(rec, "workloads.app_start");
      client_->Run(kBoot, kWarmLoad + Seconds(kLoadSeconds), /*poisson=*/false);
    }
    {
      ScopedSpan s(rec, "sim.run");
      bed_->sim().RunUntil(kBoot + kWarmLoad);
    }
    ScopedSpan s(rec, "metrics.reset");
    const vscale::WebServer::Stats& st = server_->stats();
    carried_in_ = st.arrivals - st.replies - st.drops;
    server_->ResetStats();
  }

  // carried in + arrivals = replies + drops + in flight, where a drain long
  // enough to empty every queue leaves nothing in flight.
  static bool Check(const Outcome& o) {
    const bool ok = o.arrivals > 0 && o.carried_in >= 0 && o.in_flight_at_window_end >= 0 &&
                    o.in_flight_after_drain == 0;
    if (!ok) {
      std::printf("CHECK FAILED: %lld carried in + %lld arrivals != replies %lld + drops %lld "
                  "(in flight %lld at window end, %lld after the drain)\n",
                  static_cast<long long>(o.carried_in), static_cast<long long>(o.arrivals),
                  static_cast<long long>(o.replies),
                  static_cast<long long>(o.drops),
                  static_cast<long long>(o.in_flight_at_window_end),
                  static_cast<long long>(o.in_flight_after_drain));
    }
    return ok;
  }

  uint64_t testbed_seed_;
  uint64_t server_seed_;
  uint64_t client_seed_;
  std::unique_ptr<vscale::Testbed> bed_;
  std::unique_ptr<vscale::WebServer> server_;
  std::unique_ptr<vscale::HttperfClient> client_;
  int64_t carried_in_ = 0;
  Outcome outcome_;
  bool have_outcome_ = false;
};

}  // namespace

std::unique_ptr<Workload> MakeWebWorkload(uint64_t seed) {
  return std::make_unique<WebWorkload>(seed);
}

}  // namespace perfbench
