// Unit tests for the flight recorder core (src/base/trace.h) and the metrics
// registry (src/base/metrics_registry.h): ring wraparound, timestamp rebasing,
// hooks recording into their own run's tracer only, the unattached no-op
// guarantee, and the counter registry's sorted CSV.

#include "src/base/metrics_registry.h"
#include "src/base/trace.h"

#include <sstream>

#include <gtest/gtest.h>

namespace vscale {
namespace {

TEST(TracerTest, RecordsInOrder) {
  Tracer t(16);
  t.Record(10, TraceCategory::kSim, TracePhase::kInstant, "a", -1, -1, -1, nullptr, 0);
  t.Record(20, TraceCategory::kGuest, TracePhase::kInstant, "b", 0, 1, 2, "x", 7);
  ASSERT_EQ(t.size(), 2u);
  const auto events = t.Snapshot();
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[1].ts, 20);
  EXPECT_EQ(events[1].domain, 0);
  EXPECT_EQ(events[1].vcpu, 1);
  EXPECT_EQ(events[1].pcpu, 2);
  EXPECT_STREQ(events[1].arg_name, "x");
  EXPECT_EQ(events[1].arg, 7);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, RingWraparoundKeepsNewestEvents) {
  Tracer t(8);
  for (int i = 0; i < 20; ++i) {
    t.Record(i, TraceCategory::kSim, TracePhase::kInstant, "e", -1, -1, -1,
             "i", i);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first snapshot of the newest 8 events: args 12..19.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].arg, 12 + i);
  }
}

TEST(TracerTest, RecordsEveryCategory) {
  Tracer t(16);
  t.Record(1, TraceCategory::kSim, TracePhase::kInstant, "sim", -1, -1, -1,
           nullptr, 0);
  t.Record(2, TraceCategory::kGuest, TracePhase::kInstant, "guest", 0, 0, -1,
           nullptr, 0);
  t.Record(3, TraceCategory::kHypervisor, TracePhase::kInstant, "hv", 0, 0, 0,
           nullptr, 0);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].category, TraceCategory::kGuest);
  EXPECT_EQ(events[2].category, TraceCategory::kHypervisor);
}

TEST(TracerTest, MacrosAreNoOpsWithoutATracer) {
  const Observers unobserved;
  EXPECT_FALSE(VSCALE_TRACE_ACTIVE(unobserved));
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 1;
  };
  VSCALE_TRACE_INSTANT_ARG(unobserved, 0, TraceCategory::kSim, "x", -1, -1, -1, "v",
                           expensive());
  // The pointer check must short-circuit before argument evaluation.
  EXPECT_EQ(evaluations, 0);
}

TEST(TracerTest, MacrosRecordIntoTheirOwnRunsTracer) {
  Tracer mine(16);
  Tracer other(16);
  Observers run;
  run.tracer = &mine;
  ASSERT_EQ(run.tracer, &mine);
  VSCALE_TRACE_INSTANT(run, 5, TraceCategory::kGuest, "mine", 0, 1, -1);
  VSCALE_TRACE_COUNTER(run, 6, TraceCategory::kVscale, "level", 0, 3);
  EXPECT_EQ(other.size(), 0u);
  EXPECT_TRUE(VSCALE_TRACE_ACTIVE(run));
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_STREQ(mine.Snapshot()[0].name, "mine");
  EXPECT_EQ(mine.Snapshot()[1].phase, TracePhase::kCounter);
  EXPECT_EQ(mine.Snapshot()[1].arg, 3);
}

TEST(TracerTest, RebasesTimestampsAcrossRuns) {
  Tracer t(16);
  // Run 1 reaches t=100; run 2 restarts at t=5 (a fresh Machine).
  t.Record(50, TraceCategory::kSim, TracePhase::kInstant, "r1a", -1, -1, -1,
           nullptr, 0);
  t.Record(100, TraceCategory::kSim, TracePhase::kInstant, "r1b", -1, -1, -1,
           nullptr, 0);
  t.Record(5, TraceCategory::kSim, TracePhase::kInstant, "r2a", -1, -1, -1,
           nullptr, 0);
  t.Record(30, TraceCategory::kSim, TracePhase::kInstant, "r2b", -1, -1, -1,
           nullptr, 0);
  const auto events = t.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts, events[i - 1].ts) << "event " << i;
  }
  // Relative spacing within the second run is preserved.
  EXPECT_EQ(events[3].ts - events[2].ts, 25);
}

TEST(TracerTest, DomainNames) {
  Tracer t(8);
  t.SetDomainName(0, "primary");
  t.SetDomainName(1, "desktop0");
  ASSERT_EQ(t.domain_names().size(), 2u);
  EXPECT_EQ(t.domain_names().at(0), "primary");
}

TEST(TraceCategoryTest, Names) {
  EXPECT_STREQ(ToString(TraceCategory::kSim), "sim");
  EXPECT_STREQ(ToString(TraceCategory::kHypervisor), "hypervisor");
  EXPECT_STREQ(ToString(TraceCategory::kGuest), "guest");
  EXPECT_STREQ(ToString(TraceCategory::kVscale), "vscale");
}

TEST(MetricsRegistryTest, Counters) {
  MetricsRegistry reg;
  int64_t& c = reg.Counter("hv.context_switches");
  c += 5;
  EXPECT_EQ(reg.Value("hv.context_switches"), 5);
  reg.Counter("dom.primary.active_vcpus") = 3;
  EXPECT_EQ(reg.Value("dom.primary.active_vcpus"), 3);
  EXPECT_TRUE(reg.Has("hv.context_switches"));
  EXPECT_FALSE(reg.Has("nope"));
  EXPECT_EQ(reg.Value("nope"), 0);
  EXPECT_EQ(reg.size(), 2u);
  reg.Clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistryTest, CollectSortedAndCsv) {
  MetricsRegistry reg;
  reg.Counter("b.second") = 2;
  reg.Counter("a.first") = 1;
  reg.Counter("c.third") = 3;
  const auto all = reg.Collect();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a.first");
  EXPECT_EQ(all[2].first, "c.third");
  std::ostringstream os;
  reg.WriteCsv(os);
  EXPECT_EQ(os.str(), "metric,value\na.first,1\nb.second,2\nc.third,3\n");
}

TEST(SanitizeMetricNameTest, MapsToLowercaseUnderscore) {
  EXPECT_EQ(SanitizeMetricName("Xen/Linux+pvlock"), "xen_linux_pvlock");
  EXPECT_EQ(SanitizeMetricName("dom.primary.wait_ns"), "dom.primary.wait_ns");
}

}  // namespace
}  // namespace vscale
