// Tests for RunCapture (bench/capture.h), the benches' one owner of
// host-side observation: what it detaches, what its trace exports and in
// which order, and the one journey verdict.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/capture.h"

namespace fbufs {
namespace bench {
namespace {

Machine NamedMachine(const std::string& name) {
  MachineConfig cfg;
  cfg.name = name;
  return Machine(cfg);
}

// Opens and closes |n| journeys on |m|'s tracker, as the fbuf hooks would.
void AllocAndFree(Machine& m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    m.lifecycle()->OnAlloc(/*fb=*/7, /*domain=*/1, kPageSize, false);
    m.lifecycle()->OnFree(7, 1, "fbuf");
  }
}

// Position of |pid|'s process_name metadata event in |json|.
std::size_t ProcessAt(const std::string& json, std::uint32_t pid,
                      const std::string& name) {
  return json.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                   std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
                   name + "\"}}");
}

TEST(RunCapture, DestructorDetachesTrackersAndRegistries) {
  Machine m = NamedMachine("host");
  {
    RunCapture capture("run", /*traced=*/true);
    capture.Watch(m, {.trace = true, .journeys = true, .metrics = true});
    EXPECT_NE(m.lifecycle(), nullptr);
    EXPECT_EQ(m.metrics(), &capture.metrics());
    EXPECT_EQ(m.trace().capacity(), RunCapture::kTraceRing);
    EXPECT_TRUE(m.trace().enabled(TraceCategory::kVm));
  }
  EXPECT_EQ(m.lifecycle(), nullptr);
  EXPECT_EQ(m.metrics(), nullptr);
}

TEST(RunCapture, UntracedRunArmsNoTrace) {
  Machine m = NamedMachine("host");
  Resource r("wire/0");
  RunCapture capture("run");
  capture.Watch(m, {.trace = true, .metrics = true});
  capture.Watch(r);
  EXPECT_FALSE(m.trace().enabled(TraceCategory::kPhase));
  EXPECT_FALSE(capture.metrics().trace_sampling());
  r.Acquire(/*now=*/0, /*duration=*/10);
  EXPECT_TRUE(r.intervals().empty());
}

TEST(RunCapture, ExportsDeclaredResourcesOnly) {
  Machine m = NamedMachine("host");
  Resource declared("wire/declared");
  Resource undeclared("wire/undeclared");
  undeclared.set_record_intervals(true);
  RunCapture capture("run", /*traced=*/true);
  capture.Watch(m, {.trace = true});
  capture.Watch(declared);
  declared.Acquire(/*now=*/100, /*duration=*/50);
  undeclared.Acquire(/*now=*/100, /*duration=*/50);
  ASSERT_EQ(undeclared.intervals().size(), 1u);
  const std::string json = capture.Export().ToJson();
  EXPECT_NE(json.find("wire/declared"), std::string::npos);
  EXPECT_EQ(json.find("wire/undeclared"), std::string::npos);
}

TEST(RunCapture, ExportOrderAndPidsAreFixed) {
  Machine a = NamedMachine("a");
  Machine b = NamedMachine("b");
  Machine untraced = NamedMachine("untraced");
  Resource wire("wire/0");
  RunCapture capture("run", /*traced=*/true);
  capture.Watch(a, {.trace = true, .journeys = true, .metrics = true,
                    .conservation = true});
  capture.Watch(untraced, {.journeys = true});
  capture.Watch(b, {.trace = true});
  capture.Watch(wire);
  a.trace().Marker("phase/a");
  b.trace().Marker("phase/b");
  wire.Acquire(/*now=*/0, /*duration=*/10);
  capture.metrics().GetGauge("gauge")->Set(1);
  AllocAndFree(a, 1);

  const std::string json = capture.Export().ToJson();
  const std::vector<std::size_t> order = {
      ProcessAt(json, 1, "a"),          ProcessAt(json, 2, "b"),
      ProcessAt(json, 9999, "resources"), ProcessAt(json, 9998, "conservation"),
      ProcessAt(json, 30, "metrics/run"), ProcessAt(json, 31, "lifecycle/run")};
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_NE(order[i], std::string::npos) << "process " << i;
    if (i > 0) {
      EXPECT_LT(order[i - 1], order[i]) << "process " << i;
    }
  }
  // Untraced hosts get no process; conservation lanes use the lane's name.
  EXPECT_EQ(json.find("\"untraced\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu/a\""), std::string::npos);
}

TEST(RunCapture, VerdictPassesCleanJourneysAndReportsCounts) {
  Machine m = NamedMachine("host");
  RunCapture capture("run");
  capture.Watch(m, {.journeys = true});
  AllocAndFree(m, 3);
  const JourneyVerdict v = capture.Journeys(/*allow_open=*/false);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.journeys, 3u);
  EXPECT_EQ(v.aborted, 0u);
  EXPECT_EQ(capture.tracker(m).journeys().size(), 3u);
}

TEST(RunCapture, VerdictFailsWithNoJourneys) {
  Machine m = NamedMachine("host");
  RunCapture capture("run");
  capture.Watch(m, {.journeys = true});
  EXPECT_FALSE(capture.Journeys(/*allow_open=*/true).ok);
}

TEST(RunCapture, VerdictFailsOnADroppedJourney) {
  Machine m = NamedMachine("host");
  RunCapture capture("run");
  capture.Watch(m, {.journeys = true});
  AllocAndFree(m, RunCapture::kJourneyCap + 1);
  const JourneyVerdict v = capture.Journeys(/*allow_open=*/true);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.journeys, RunCapture::kJourneyCap);
}

TEST(RunCapture, VerdictFailsOnAnOpenJourneyUnlessAllowed) {
  Machine m = NamedMachine("host");
  RunCapture capture("run");
  capture.Watch(m, {.journeys = true});
  m.lifecycle()->OnAlloc(/*fb=*/7, /*domain=*/1, kPageSize, false);
  EXPECT_TRUE(capture.Journeys(/*allow_open=*/true).ok);
  EXPECT_FALSE(capture.Journeys(/*allow_open=*/false).ok);
}

TEST(RunCapture, VerdictFailsOnTooFewAborts) {
  Machine a = NamedMachine("a");
  Machine b = NamedMachine("b");
  RunCapture capture("run");
  capture.Watch(a, {.journeys = true});
  capture.Watch(b, {.journeys = true});
  AllocAndFree(a, 1);
  EXPECT_FALSE(capture.Journeys(/*allow_open=*/true, /*min_aborts=*/1).ok);
  // An abort on any watched machine counts toward the run's floor.
  b.lifecycle()->OnAlloc(/*fb=*/9, /*domain=*/2, kPageSize, false);
  b.lifecycle()->OnAbort(9, 2, "fbuf");
  const JourneyVerdict v = capture.Journeys(/*allow_open=*/true, /*min_aborts=*/1);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.journeys, 2u);
  EXPECT_EQ(v.aborted, 1u);
}

}  // namespace
}  // namespace bench
}  // namespace fbufs
