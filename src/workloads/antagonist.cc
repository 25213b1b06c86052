#include "src/workloads/antagonist.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/base/check.h"
#include "src/hypervisor/domain.h"

namespace vscale {

const char* ToString(AntagonistKind k) {
  switch (k) {
    case AntagonistKind::kTickEvader:
      return "tick-evader";
    case AntagonistKind::kBoostAbuser:
      return "boost-abuser";
    case AntagonistKind::kChurn:
      return "churn";
    case AntagonistKind::kFreezeStraggler:
      return "freeze-straggler";
  }
  return "?";
}

bool ParseAntagonistKind(const std::string& token, AntagonistKind* out) {
  for (int i = 0; i < kNumAntagonistKinds; ++i) {
    const auto k = static_cast<AntagonistKind>(i);
    if (token == ToString(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

void AntagonistConfig::Validate() const {
  VS_REQUIRE(vcpus >= 1 && vcpus <= 64,
             "antagonist vcpus %d outside [1, 64]", vcpus);
  VS_REQUIRE(weight >= 0, "antagonist weight %d negative", weight);
  VS_REQUIRE(period >= 0, "antagonist period %lld negative",
             static_cast<long long>(period));
  VS_REQUIRE(period == 0 || period >= Microseconds(100),
             "antagonist period %lld below 100us floor (event storm)",
             static_cast<long long>(period));
  VS_REQUIRE(duty_pct >= 0 && duty_pct <= 100,
             "antagonist duty_pct %d outside [0, 100]", duty_pct);
}

namespace {

// Attack cadence resolved from an AntagonistConfig's kind defaults.
struct Cadence {
  // tick-evader (units: accounting windows)
  int64_t cycle_windows = 2;
  int64_t binge_windows = 1;
  // boost-abuser / churn / freeze-straggler (units: ns within one period)
  TimeNs on_ns = 0;
  TimeNs off_ns = 0;
};

Cadence Resolve(const AntagonistConfig& cfg, const CostModel& cost) {
  Cadence c;
  const TimeNs acct = cost.hv_accounting_period;
  switch (cfg.kind) {
    case AntagonistKind::kTickEvader: {
      // Alternate binge and fully-idle *accounting windows*: during idle
      // windows the inactive-domain branch snaps credit back to +period for
      // free, so at 50% duty the evader earns ~2x the weight-fair credit rate.
      const TimeNs period = cfg.period > 0 ? cfg.period : 2 * acct;
      const int duty = cfg.duty_pct > 0 ? cfg.duty_pct : 50;
      c.cycle_windows = std::max<int64_t>(2, period / acct);
      c.binge_windows = std::clamp<int64_t>(c.cycle_windows * duty / 100, 1,
                                            c.cycle_windows - 1);
      break;
    }
    case AntagonistKind::kBoostAbuser: {
      // Sub-tick compute/sleep microcycles: every timer wake is BOOST-eligible
      // and the burst finishes before the 10ms burn tick can demote it.
      const TimeNs period = cfg.period > 0 ? cfg.period : Milliseconds(1);
      const int duty = cfg.duty_pct > 0 ? cfg.duty_pct : 80;
      c.on_ns = std::max<TimeNs>(Microseconds(10), period * duty / 100);
      c.off_ns = std::max<TimeNs>(Microseconds(10), period - c.on_ns);
      break;
    }
    case AntagonistKind::kChurn: {
      // Near-zero consumption, maximal wake rate: each wake lands runnable
      // behind the ratelimit, so runnable-wait (demand) dwarfs consumption.
      const TimeNs period = cfg.period > 0 ? cfg.period : Milliseconds(1);
      const int duty = cfg.duty_pct > 0 ? cfg.duty_pct : 5;
      c.on_ns = std::max<TimeNs>(Microseconds(10), period * duty / 100);
      c.off_ns = std::max<TimeNs>(Microseconds(10), period - c.on_ns);
      break;
    }
    case AntagonistKind::kFreezeStraggler: {
      // Long preempt-disabled critical sections; the vScale freeze path must
      // wait out whichever section is in flight before the vCPU quiesces.
      const TimeNs period = cfg.period > 0 ? cfg.period : Milliseconds(8);
      const int duty = cfg.duty_pct > 0 ? cfg.duty_pct : 60;
      c.on_ns = std::max<TimeNs>(Microseconds(100), period * duty / 100);
      c.off_ns = std::max<TimeNs>(Microseconds(100), period - c.on_ns);
      break;
    }
  }
  return c;
}

}  // namespace

// Binge whole accounting windows, then block through whole windows so the
// inactive-domain credit top-up in Machine::Accounting() refills the balance
// without weight-sharing it. The guard stops compute slightly *before* the
// pass that opens the first idle window (so no consumption is in flight), and
// the wake offset re-enters slightly *after* the pass that closes the last one
// (so the top-up has already been taken while idle).
class Antagonist::EvaderBody : public ThreadBody {
 public:
  EvaderBody(Antagonist& ant, TimeNs acct, const Cadence& c)
      : ant_(ant), acct_(acct), cycle_(c.cycle_windows), binge_(c.binge_windows) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)thread;
    const TimeNs now = kernel.NowNs();
    const int64_t window = now / acct_;
    const int64_t phase = window % cycle_;
    if (phase < binge_) {
      const TimeNs binge_end = (window - phase + binge_) * acct_ - kGuard;
      if (now < binge_end) {
        return Op::Compute(std::min(kGrain, binge_end - now));
      }
    }
    ++ant_.cycles_;
    const TimeNs next_binge = (window - phase + cycle_) * acct_ + kOffset;
    return Op::Sleep(next_binge - now);
  }

 private:
  static constexpr TimeNs kGuard = Microseconds(300);
  static constexpr TimeNs kOffset = Microseconds(200);
  static constexpr TimeNs kGrain = Milliseconds(1);

  Antagonist& ant_;
  const TimeNs acct_;
  const int64_t cycle_;
  const int64_t binge_;
};

// Compute/sleep microcycles. Used for both the boost-abuser (high duty: farm
// BOOST on every timer wake and preempt victims) and the churn attacker (low
// duty: thrash run queues and inflate runnable-wait). They differ only in
// cadence, which Resolve() picks per kind.
class Antagonist::BoostBody : public ThreadBody {
 public:
  BoostBody(Antagonist& ant, TimeNs on, TimeNs off, TimeNs start_delay)
      : ant_(ant), on_(on), off_(off), start_delay_(start_delay) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)kernel;
    (void)thread;
    if (start_delay_ > 0) {
      const TimeNs d = start_delay_;
      start_delay_ = 0;
      return Op::Sleep(d);
    }
    if (computing_) {
      computing_ = false;
      return Op::Sleep(off_);
    }
    computing_ = true;
    ++ant_.cycles_;
    return Op::Compute(on_);
  }

 private:
  Antagonist& ant_;
  const TimeNs on_;
  const TimeNs off_;
  TimeNs start_delay_;
  bool computing_ = false;
};

// Alternates long preempt-disabled kernel critical sections with sleeps. Each
// body holds a private kernel lock: the point is the preempt-off window that
// stalls freeze quiescence, not lock contention between attacker threads.
class Antagonist::StragglerBody : public ThreadBody {
 public:
  StragglerBody(Antagonist& ant, TimeNs hold, TimeNs rest, TimeNs start_delay)
      : ant_(ant), hold_(hold), rest_(rest), start_delay_(start_delay) {}

  Op Next(GuestKernel& kernel, GuestThread& thread) override {
    (void)thread;
    if (lock_ < 0) {
      lock_ = kernel.CreateKernelLock();
      if (start_delay_ > 0) {
        return Op::Sleep(start_delay_);
      }
    }
    if (holding_) {
      holding_ = false;
      return Op::Sleep(rest_);
    }
    holding_ = true;
    ++ant_.cycles_;
    return Op::KernelWork(lock_, hold_);
  }

 private:
  Antagonist& ant_;
  const TimeNs hold_;
  const TimeNs rest_;
  TimeNs start_delay_;
  int lock_ = -1;
  bool holding_ = false;
};

Antagonist::Antagonist(GuestKernel& kernel, AntagonistConfig config,
                       uint64_t seed)
    : kernel_(kernel), config_(config), rng_(seed) {
  config_.Validate();
}

Antagonist::~Antagonist() = default;

void Antagonist::Start() {
  assert(!started_);
  started_ = true;
  const Cadence c = Resolve(config_, kernel_.cost());
  const int n = std::min(config_.vcpus, kernel_.n_cpus());
  for (int i = 0; i < n; ++i) {
    std::unique_ptr<ThreadBody> body;
    switch (config_.kind) {
      case AntagonistKind::kTickEvader:
        // No stagger: the whole domain must go idle in lockstep, or one awake
        // vCPU keeps the domain "active" and forfeits the free top-up.
        body = std::make_unique<EvaderBody>(
            *this, kernel_.cost().hv_accounting_period, c);
        break;
      case AntagonistKind::kBoostAbuser:
      case AntagonistKind::kChurn:
        body = std::make_unique<BoostBody>(
            *this, c.on_ns, c.off_ns,
            rng_.UniformTime(0, c.on_ns + c.off_ns));
        break;
      case AntagonistKind::kFreezeStraggler:
        body = std::make_unique<StragglerBody>(
            *this, c.on_ns, c.off_ns,
            rng_.UniformTime(0, c.on_ns + c.off_ns));
        break;
    }
    bodies_.push_back(std::move(body));
    kernel_.Spawn(std::string(ToString(config_.kind)) + "/" + std::to_string(i),
                  bodies_.back().get(), ThreadType::kUthread, /*pinned_cpu=*/i);
  }
}

FairnessReport ComputeFairness(const Machine& machine) {
  FairnessReport report;
  const TimeNs elapsed = machine.Now();
  report.capacity = elapsed * machine.n_pcpus();
  int64_t total_weight = 0;
  for (const auto& d : machine.domains()) {
    total_weight += d->weight();
  }
  for (const auto& d : machine.domains()) {
    DomainFairness f;
    f.id = d->id();
    f.name = d->name();
    f.weight = d->weight();
    f.runtime = d->TotalRuntime();
    f.waited = d->TotalWait();
    if (total_weight > 0) {
      const double cap = static_cast<double>(report.capacity);
      const double frac = static_cast<double>(f.weight) / static_cast<double>(total_weight);
      f.fair_ns = static_cast<TimeNs>(cap * frac);
    }
    if (f.fair_ns > 0) {
      f.share_of_fair = static_cast<double>(f.runtime) / static_cast<double>(f.fair_ns);  // vslint: allow(float-accum, diagnostic ratio, never fed back into TimeNs state)
    }
    report.domains.push_back(std::move(f));
  }
  return report;
}

bool FairnessViolated(const FairnessReport& report, DomainId attacker,
                      double eps, std::string* detail) {
  const DomainFairness* a = nullptr;
  for (const auto& d : report.domains) {
    if (d.id == attacker) {
      a = &d;
      break;
    }
  }
  if (a == nullptr || a->fair_ns <= 0 || report.capacity <= 0) {
    return false;
  }
  const TimeNs entitled = static_cast<TimeNs>(static_cast<double>(a->fair_ns) * (1.0 + eps));  // vslint: allow(float-accum, one epsilon scaling, not accumulation)
  const TimeNs overage = a->runtime - entitled;
  // An absolute floor keeps sub-permille startup transients from tripping the
  // oracle on short runs.
  const TimeNs floor = report.capacity / 1000;
  TimeNs victim_unmet = 0;
  for (const auto& d : report.domains) {
    if (d.id != attacker) {
      victim_unmet += d.waited;
    }
  }
  const bool violated = overage > floor && victim_unmet > overage;
  if (detail != nullptr) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s: share %.3f of fair (eps %.2f), overage %lld ns, "
                  "victim unmet %lld ns -> %s",
                  a->name.c_str(), a->share_of_fair, eps,
                  static_cast<long long>(overage),
                  static_cast<long long>(victim_unmet),
                  violated ? "VIOLATION" : "ok");
    *detail = buf;
  }
  return violated;
}

FairnessProbe::FairnessProbe(Machine& machine, std::vector<DomainId> attackers,
                             int eps_pct)
    : machine_(machine),
      attackers_(std::move(attackers)),
      eps_pct_(eps_pct),
      period_(machine.cost().hv_accounting_period),
      last_(machine.domains().size()),
      bank_(attackers_.size(), kBankUnset),
      theft_(attackers_.size(), 0) {
  VS_REQUIRE(eps_pct_ >= 0, "FairnessProbe eps_pct must be >= 0 (got %d)",
             eps_pct_);
  for (const auto& d : machine_.domains()) {
    total_weight_ += d->weight();
  }
  // Snapshot baselines now; first window closes after 1.5 periods.
  const TimeNs now = machine_.Now();
  last_now_ = now;
  for (size_t i = 0; i < machine_.domains().size(); ++i) {
    const Domain& d = *machine_.domains()[i];
    last_[i] = {d.TotalRuntime(), d.TotalWait()};
  }
  next_sample_ = machine_.sim().ScheduleAt(now + period_ + period_ / 2,
                                           [this] { Sample(); });
}

FairnessProbe::~FairnessProbe() { machine_.sim().Cancel(next_sample_); }

void FairnessProbe::Sample() {
  const TimeNs now = machine_.Now();
  const TimeNs dt = now - last_now_;
  if (dt > 0 && total_weight_ > 0) {
    TimeNs victim_wait = 0;
    std::vector<TimeNs> run_delta(machine_.domains().size(), 0);
    std::vector<TimeNs> wait_delta(machine_.domains().size(), 0);
    for (size_t i = 0; i < machine_.domains().size(); ++i) {
      const Domain& d = *machine_.domains()[i];
      const TimeNs rt = d.TotalRuntime();
      const TimeNs wt = d.TotalWait();
      run_delta[i] = rt - last_[i].runtime;
      wait_delta[i] = wt - last_[i].waited;
      const bool is_attacker =
          std::find(attackers_.begin(), attackers_.end(), d.id()) !=
          attackers_.end();
      if (!is_attacker) {
        victim_wait += wait_delta[i];
      }
      last_[i] = {rt, wt};
    }
    // Entitlement is measured against the weight that had *demand* this
    // window: a domain blocked throughout (say, an OMP app that already
    // finished) cedes its share, and the scheduler redistributing that slack
    // work-conservingly is not theft. Each weight is scaled by demand/dt
    // (capped at 1) so a domain that was awake for a sliver of the window
    // cannot deflate the attacker's entitlement for all of it. The attacker
    // keeps its full weight in the numerator, which can only overstate its
    // entitlement — conservative in the false-positive direction.
    double active_weight = 0.0;
    for (size_t i = 0; i < machine_.domains().size(); ++i) {
      const Domain& d = *machine_.domains()[i];
      const TimeNs demand = std::min(dt, run_delta[i] + wait_delta[i]);
      active_weight +=
          static_cast<double>(d.weight()) * static_cast<double>(demand) /
          static_cast<double>(dt);
    }
    const TimeNs window_capacity = dt * machine_.n_pcpus();
    sampled_capacity_ += window_capacity;
    for (size_t k = 0; k < attackers_.size(); ++k) {
      for (size_t i = 0; i < machine_.domains().size(); ++i) {
        const Domain& d = *machine_.domains()[i];
        if (d.id() != attackers_[k]) continue;
        const double fair_frac =
            active_weight > 0.0
                ? static_cast<double>(d.weight()) / active_weight
                : 1.0;
        const TimeNs fair = static_cast<TimeNs>(
            static_cast<double>(window_capacity) * std::min(1.0, fair_frac));
        const TimeNs entitled = fair * (100 + eps_pct_) / 100;
        // Token bucket: credit schedulers let a domain bank unused share and
        // spend it in a burst — that is the design, not an attack. The bank
        // cap mirrors the scheduler's own credit clamp (+period per vCPU on
        // top of the window's entitlement), so a burst spending legitimately
        // banked credit passes, while *sustained* consumption above
        // entitlement drains the bank and registers as theft.
        const TimeNs bank_cap =
            entitled + static_cast<TimeNs>(d.n_vcpus()) * period_;
        if (bank_[k] == kBankUnset) {
          bank_[k] = entitled;
        }
        bank_[k] += entitled - run_delta[i];
        if (bank_[k] > bank_cap) {
          bank_[k] = bank_cap;
        }
        if (bank_[k] < 0) {
          theft_[k] += std::min(-bank_[k], victim_wait);
          bank_[k] = 0;
        }
        break;
      }
    }
  }
  last_now_ = now;
  next_sample_ = machine_.sim().ScheduleAt(now + period_, [this] { Sample(); });
}

TimeNs FairnessProbe::theft(DomainId attacker) const {
  for (size_t k = 0; k < attackers_.size(); ++k) {
    if (attackers_[k] == attacker) return theft_[k];
  }
  return 0;
}

TimeNs FairnessProbe::max_theft() const {
  TimeNs worst = 0;
  for (TimeNs t : theft_) {
    worst = std::max(worst, t);
  }
  return worst;
}

}  // namespace vscale
