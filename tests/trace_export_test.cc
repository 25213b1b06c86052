// Golden-pipeline tests for the trace exporter and validator: hand-built buffers
// exercise the B/E balancing edge cases, and a real instrumented simulation run is
// exported and re-parsed to check the documented schema guarantees (valid JSON,
// per-track monotonic timestamps, all four layer categories, multiple domains).

#include "src/metrics/trace_export.h"
#include "src/metrics/trace_validate.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/workloads/omp_app.h"
#include "src/workloads/testbed.h"

namespace vscale {
namespace {

std::string Export(const Tracer& t) {
  std::ostringstream os;
  WriteChromeTrace(t, os);
  return os.str();
}

TEST(TraceExportTest, EmptyTracerIsValid) {
  Tracer t(8);
  TraceStats stats;
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error, &stats)) << error;
  EXPECT_EQ(stats.events, 0u);
}

TEST(TraceExportTest, InstantAndCounterLayout) {
  Tracer t(16);
  t.SetDomainName(0, "primary");
  t.Record(1000, TraceCategory::kGuest, TracePhase::kInstant, "ipi_send", 0, 1,
           -1, "to", 3);
  t.Record(2000, TraceCategory::kHypervisor, TracePhase::kCounter, "credit_ns",
           0, -1, -1, "value", 12345);
  t.Record(3000, TraceCategory::kSim, TracePhase::kInstant, "event_fire", -1,
           -1, -1, "pending", 2);
  const std::string json = Export(t);
  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  EXPECT_EQ(stats.events, 3u);
  // Guest instant on the domain's vCPU track; counter on the domain pseudo track;
  // sim instant on the machine engine track.
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, 1}));
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, kTraceDomainTid}));
  EXPECT_TRUE(stats.tracks.count({kTraceMachinePid, kTraceEngineTid}));
  EXPECT_TRUE(stats.categories.count("guest"));
  EXPECT_TRUE(stats.categories.count("hypervisor"));
  EXPECT_TRUE(stats.categories.count("sim"));
  // Domain display name flows into the process metadata.
  EXPECT_NE(json.find("dom0 primary"), std::string::npos);
}

TEST(TraceExportTest, RunSlicesMirroredAndBalanced) {
  Tracer t(16);
  t.Record(100, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 2,
           nullptr, 0);
  t.Record(400, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 1, 2,
           nullptr, 0);
  TraceStats stats;
  std::string error;
  const std::string json = Export(t);
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  // The slice appears on the domain vCPU track and is mirrored onto the machine
  // pCPU track under the "d<dom>/v<vcpu>" label.
  EXPECT_TRUE(stats.tracks.count({kTraceDomainPidBase, 1}));
  EXPECT_TRUE(stats.tracks.count({kTraceMachinePid, 2}));
  EXPECT_NE(json.find("d0/v1"), std::string::npos);
}

TEST(TraceExportTest, OrphanEndDroppedDanglingBeginClosed) {
  Tracer t(16);
  // E with no B (its begin fell off the ring), then a B never closed.
  t.Record(50, TraceCategory::kHypervisor, TracePhase::kEnd, "run", 0, 0, 0,
           nullptr, 0);
  t.Record(60, TraceCategory::kHypervisor, TracePhase::kBegin, "run", 0, 1, 1,
           nullptr, 0);
  t.Record(90, TraceCategory::kGuest, TracePhase::kInstant, "ipi_send", 0, 1,
           -1, nullptr, 0);
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error)) << error;
}

TEST(TraceExportTest, EscapesDomainNames) {
  Tracer t(8);
  t.SetDomainName(0, "we\"ird\\name");
  t.Record(10, TraceCategory::kGuest, TracePhase::kInstant, "x", 0, 0, -1,
           nullptr, 0);
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(Export(t), &error)) << error;
}

TEST(TraceValidateTest, RejectsMalformedInput) {
  EXPECT_FALSE(ValidateChromeTrace("not json"));
  EXPECT_FALSE(ValidateChromeTrace("{\"noTraceEvents\":[]}"));
  // Timestamp regression on one track.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"name":"a","ph":"i","pid":1,"tid":0,"ts":5.0,"s":"t"},
        {"name":"b","ph":"i","pid":1,"tid":0,"ts":4.0,"s":"t"}]})"));
  // Unbalanced B.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1.0}]})"));
  // E without B.
  EXPECT_FALSE(ValidateChromeTrace(
      R"({"traceEvents":[{"name":"a","ph":"E","pid":1,"tid":0,"ts":1.0}]})"));
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(
      R"({"traceEvents":[
        {"name":"a","ph":"B","pid":1,"tid":0,"ts":1.0},
        {"name":"a","ph":"E","pid":1,"tid":0,"ts":2.5}]})",
      &error))
      << error;
}

TEST(TraceExportTest, InstrumentedRunExportsAllLayers) {
  Tracer tracer;
  {
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 4;
    cfg.pool_pcpus = 4;
    cfg.seed = 3;
    cfg.observers.tracer = &tracer;
    Testbed bed(cfg);
    OmpAppConfig ac = NpbProfile("cg", cfg.primary_vcpus, kSpinCountActive);
    ac.intervals = 30;
    OmpApp app(bed.primary(), ac, 11);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
  }
  const std::string json = Export(tracer);

  TraceStats stats;
  std::string error;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &stats)) << error;
  EXPECT_GE(stats.categories.size(), 4u);
  EXPECT_TRUE(stats.categories.count("sim"));
  EXPECT_TRUE(stats.categories.count("hypervisor"));
  EXPECT_TRUE(stats.categories.count("guest"));
  EXPECT_TRUE(stats.categories.count("vscale"));
  EXPECT_GE(stats.domain_pids.size(), 2u);
  EXPECT_GT(stats.events, 100u);
}

TEST(TraceExportTest, TracingDoesNotPerturbSimulation) {
  auto run = [](Tracer* tracer) {
    TestbedConfig cfg;
    cfg.policy = Policy::kVscale;
    cfg.primary_vcpus = 4;
    cfg.pool_pcpus = 4;
    cfg.seed = 5;
    cfg.observers.tracer = tracer;
    Testbed bed(cfg);
    OmpAppConfig ac = NpbProfile("mg", cfg.primary_vcpus, kSpinCountActive);
    ac.intervals = 20;
    OmpApp app(bed.primary(), ac, 21);
    bed.sim().RunUntil(Milliseconds(200));
    app.Start();
    bed.RunUntil([&] { return app.done(); }, Seconds(60));
    return app.duration();
  };
  const TimeNs untraced = run(nullptr);
  Tracer tracer;
  const TimeNs traced = run(&tracer);
  EXPECT_EQ(untraced, traced);  // recording must be invisible to the simulation
}

}  // namespace
}  // namespace vscale
