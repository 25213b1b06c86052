// Tests for VS_INVARIANT and the VSCALE_CHECKED invariant sweeps.
//
// The detection tests corrupt simulation state on purpose — a vCPU credit
// balance blown past the accounting clamp, a migratable thread parked on a
// frozen vCPU's run queue — and assert that the next sweep reports it with a
// message naming the culprit. They install a capturing handler instead of the
// default abort, so a run can be driven past the corruption (error-code style,
// no death tests). In unchecked builds they GTEST_SKIP(); the macro no-op
// behaviour itself is verified in both flavours, and so is the handler being
// the calling thread's own.

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/guest/kernel.h"
#include "src/guest/thread.h"
#include "src/hypervisor/domain.h"
#include "src/hypervisor/machine.h"
#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

// Two threads each hold a capture and raise one VS_REQUIRE failure while the
// other's capture is live: each capture keeps only its own thread's report.
TEST(CheckTest, HandlerBelongsToTheCallingThread) {
  ViolationCapture mine;
  std::latch second_raised(1);
  std::latch first_raised(1);
  std::vector<InvariantViolation> theirs;
  std::thread second([&] {
    ViolationCapture capture;
    VS_REQUIRE(false, "raised on the second thread");
    second_raised.count_down();
    first_raised.wait();
    theirs = capture.reports();
  });
  second_raised.wait();
  VS_REQUIRE(false, "raised on the first thread");
  first_raised.count_down();
  second.join();

  ASSERT_EQ(mine.reports().size(), 1u);
  EXPECT_EQ(mine.reports()[0].message, "raised on the first thread");
  ASSERT_EQ(theirs.size(), 1u);
  EXPECT_EQ(theirs[0].message, "raised on the second thread");
}

#if !VSCALE_CHECKED

TEST(CheckTest, InvariantCompilesToNothingWhenUnchecked) {
  EXPECT_EQ(VSCALE_CHECKED_ACTIVE(), 0);
  ViolationCapture capture;
  int evaluations = 0;
  // Neither the (false) condition nor the message arguments may be evaluated.
  VS_INVARIANT(++evaluations != 0, "never formatted %d", ++evaluations);
  VS_INVARIANT(false, "never formatted");
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(capture.reports().empty());
}

TEST(CheckTest, DetectionTestsNeedCheckedBuild) {
  GTEST_SKIP() << "built with VSCALE_CHECKED=OFF; configure with "
                  "-DVSCALE_CHECKED=ON (or the debug-checked preset) to "
                  "exercise the invariant sweeps";
}

#else  // VSCALE_CHECKED

bool AnyMessageContains(const ViolationCapture& capture,
                        const std::string& needle) {
  return std::any_of(capture.reports().begin(), capture.reports().end(),
                     [&](const InvariantViolation& v) {
                       return v.message.find(needle) != std::string::npos;
                     });
}

std::string FirstMessage(const ViolationCapture& capture) {
  return capture.reports().empty() ? "<none>" : capture.reports()[0].message;
}

TEST(CheckTest, FailReportsExprLocationAndFormattedMessage) {
  ViolationCapture capture;
  const int got = 2;
  VS_INVARIANT(got == 3, "expected 3 slots, found %d", got);
  ASSERT_EQ(capture.reports().size(), 1u);
  const InvariantViolation& v = capture.reports()[0];
  EXPECT_STREQ(v.expr, "got == 3");
  EXPECT_NE(std::string(v.file).find("check_test.cc"), std::string::npos);
  EXPECT_GT(v.line, 0);
  EXPECT_EQ(v.message, "expected 3 slots, found 2");
}

TEST(CheckTest, PassingInvariantReportsNothing) {
  ViolationCapture capture;
  VS_INVARIANT(1 + 1 == 2, "arithmetic broke");
  EXPECT_TRUE(capture.reports().empty());
}

// A clean consolidated run must not trip any sweep: the checks describe the
// scheduler as it is, not as we wish it were.
TEST(CheckedSweepTest, CleanRunReportsNoViolations) {
  ViolationCapture capture;
  TestbedConfig cfg;
  cfg.policy = Policy::kVscale;
  cfg.primary_vcpus = 4;
  cfg.pool_pcpus = 4;
  cfg.seed = 11;
  Testbed bed(cfg);
  OmpAppConfig ac = NpbProfile("cg", 4, kSpinCountDefault);
  ac.intervals = 30;
  OmpApp app(bed.primary(), ac, 3);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  bed.RunUntil([&] { return app.done(); }, Seconds(60));
  EXPECT_TRUE(app.done());
  EXPECT_EQ(capture.reports().size(), 0u);
}

// Paper Algorithm 1 credit flow: csched_acct clamps balances to one accounting
// period. Blow a balance past the clamp behind the scheduler's back and the
// next HvTick sweep must flag that exact vCPU.
TEST(CheckedSweepTest, CorruptedCreditBalanceIsDetected) {
  ViolationCapture capture;
  TestbedConfig cfg;
  cfg.primary_vcpus = 4;
  cfg.pool_pcpus = 4;
  cfg.seed = 11;
  Testbed bed(cfg);
  bed.sim().RunUntil(Milliseconds(100));
  ASSERT_EQ(capture.reports().size(), 0u);

  Vcpu& victim = bed.machine().domain(0).vcpu(0);
  victim.credit_ns = 10 * bed.machine().cost().hv_accounting_period;
  bed.sim().RunUntil(Milliseconds(200));  // spans several 10 ms tick sweeps

  EXPECT_GT(capture.reports().size(), 0u);
  EXPECT_TRUE(AnyMessageContains(capture, "credit leak or external corruption"))
      << "first message: " << FirstMessage(capture);
  EXPECT_TRUE(AnyMessageContains(capture, "dom 0 vcpu 0"));
}

// Co-simulation contract: a RUNNING vCPU's guest only moves forward through its
// armed advance timer. Disarm one behind the scheduler's back and the next
// HvTick sweep must name that vCPU.
TEST(CheckedSweepTest, DisarmedAdvanceTimerIsDetected) {
  ViolationCapture capture;
  TestbedConfig cfg;
  cfg.primary_vcpus = 2;
  cfg.pool_pcpus = 2;
  cfg.background_vms = -1;  // dedicated: no desktop VM preempts the victim
  cfg.seed = 11;
  Testbed bed(cfg);
  OmpAppConfig ac = NpbProfile("ep", 2, kSpinCountDefault);
  ac.intervals = 1'000'000;  // effectively endless
  OmpApp app(bed.primary(), ac, 3);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  bed.sim().RunUntil(Milliseconds(400));  // includes the 400 ms tick sweep
  ASSERT_EQ(capture.reports().size(), 0u);

  Domain& dom = bed.primary_domain();
  Vcpu* victim = nullptr;
  for (int i = 0; i < dom.n_vcpus() && victim == nullptr; ++i) {
    if (dom.vcpu(i).state() == VcpuState::kRunning) victim = &dom.vcpu(i);
  }
  ASSERT_NE(victim, nullptr) << "no running vCPU to corrupt";
  ASSERT_TRUE(victim->advance_timer.armed());
  victim->advance_timer.Disarm();
  bed.sim().RunUntil(Milliseconds(415));  // spans the 410 ms tick sweep

  EXPECT_GT(capture.reports().size(), 0u);
  EXPECT_TRUE(AnyMessageContains(capture, "advance timer is disarmed"))
      << "first message: " << FirstMessage(capture);
  EXPECT_TRUE(AnyMessageContains(capture, "dom " + std::to_string(dom.id()) + " vcpu " +
                                         std::to_string(victim->id())));
}

// Paper Algorithm 2 quiescence: after evacuation completes, a frozen vCPU's
// run queue must hold nothing migratable. Sneak a runnable worker back onto it
// and the next kernel sweep must object.
TEST(CheckedSweepTest, RunnableThreadOnFrozenVcpuIsDetected) {
  ViolationCapture capture;
  TestbedConfig cfg;
  cfg.primary_vcpus = 4;
  cfg.pool_pcpus = 4;
  cfg.background_vms = -1;  // dedicated: keeps the drain deterministic & quick
  cfg.seed = 11;
  Testbed bed(cfg);
  OmpAppConfig ac = NpbProfile("cg", 4, kSpinCountDefault);
  ac.intervals = 1'000'000;  // effectively endless
  OmpApp app(bed.primary(), ac, 3);
  bed.sim().RunUntil(Milliseconds(200));
  app.Start();
  bed.sim().RunUntil(Milliseconds(400));

  GuestKernel& kernel = bed.primary();
  kernel.FreezeCpu(3);
  // Let the evacuation and the target vCPU's block settle.
  bed.RunUntil(
      [&] {
        return kernel.cpu(3).current == nullptr &&
               !kernel.cpu(3).evacuate_pending &&
               bed.primary_domain().vcpu(3).state() == VcpuState::kBlocked;
      },
      Seconds(5));
  ASSERT_TRUE(kernel.IsFrozen(3));
  ASSERT_EQ(capture.reports().size(), 0u);

  // Steal a queued runnable worker from a live CPU and park it on the frozen
  // one, keeping every other bookkeeping field consistent so the quiescence
  // rule is the only one broken.
  GuestThread* mole = nullptr;
  GuestCpu* source = nullptr;
  const bool found = bed.RunUntil(
      [&] {
        for (int c = 0; c < 3; ++c) {
          for (GuestThread* t : kernel.cpu(c).runq) {
            if (t->migratable()) {
              mole = t;
              source = &kernel.cpu(c);
              return true;
            }
          }
        }
        return false;
      },
      Seconds(5));
  ASSERT_TRUE(found) << "no queued migratable worker to reparent";
  auto& src_q = source->runq;
  src_q.erase(std::find(src_q.begin(), src_q.end(), mole));
  mole->cpu = 3;
  kernel.cpu(3).runq.push_back(mole);

  bed.sim().RunUntil(bed.sim().Now() + Milliseconds(20));  // next 1 ms tick sweeps
  EXPECT_GT(capture.reports().size(), 0u);
  EXPECT_TRUE(AnyMessageContains(capture, "frozen"))
      << "first message: " << FirstMessage(capture);
  EXPECT_TRUE(AnyMessageContains(capture, mole->name()));
}

#endif  // VSCALE_CHECKED

}  // namespace
}  // namespace vscale
