// Trace-recorder behavior: span nesting, Chrome-JSON export round-trip,
// ring overflow accounting, and session arming/disarming. Uses the
// global recorder (the one SOI_TRACE_SPAN writes to); each test calls
// Start() first, which clears prior events, so the tests are
// order-independent. The ScopedSpan class API is exercised directly, and
// so is the SOI_TRACE_SPAN macro.

#include "obs/trace.h"

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/obs.h"

namespace soi {
namespace obs {
namespace {

TEST(TraceTest, RecordsNestedSpansWithDepthAndContainment) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
    }
    {
      ScopedSpan sibling("sibling");
    }
  }
  recorder.Stop();

  std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 3u);
  // Collect() orders parents before children: "outer" starts first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  const TraceEvent& outer = events[0];
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].depth, 1) << events[i].name;
    EXPECT_EQ(events[i].thread_id, outer.thread_id);
    // Children are contained in the parent interval.
    EXPECT_GE(events[i].start_ns, outer.start_ns) << events[i].name;
    EXPECT_LE(events[i].start_ns + events[i].duration_ns,
              outer.start_ns + outer.duration_ns)
        << events[i].name;
  }
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "sibling");
}

TEST(TraceTest, SpansOutsideASessionRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  recorder.Stop();
  {
    ScopedSpan span("after.stop");
  }
  EXPECT_TRUE(recorder.Collect().empty());

  // A span opened before Stop() but closed after it is dropped too: the
  // recorded set only contains spans fully inside the session.
  recorder.Start();
  {
    ScopedSpan span("straddles.stop");
    recorder.Stop();
  }
  EXPECT_TRUE(recorder.Collect().empty());
}

TEST(TraceTest, StartClearsPreviousSession) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    ScopedSpan span("first.session");
  }
  recorder.Start();  // restart: prior events are discarded
  {
    ScopedSpan span("second.session");
  }
  recorder.Stop();
  std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second.session");
}

TEST(TraceTest, RingOverflowKeepsNewestAndCountsDropped) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("overflow");
  }
  recorder.Stop();
  std::vector<TraceEvent> events = recorder.Collect();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6);
  // The survivors are the newest events: strictly increasing start
  // times, and the last one began after every dropped one.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST(TraceTest, ThreadsGetDistinctIds) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    ScopedSpan main_span("on.main");
  }
  std::thread worker([] {
    ScopedSpan worker_span("on.worker");
  });
  worker.join();
  recorder.Stop();
  std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].thread_id, events[1].thread_id);
}

TEST(TraceTest, ExportsChromeTraceEventJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    ScopedSpan outer("phase.outer");
    ScopedSpan inner("phase.inner");
  }
  recorder.Stop();
  std::ostringstream out;
  recorder.ExportChromeJson(&out);
  std::string text = out.str();
  // The envelope chrome://tracing and Perfetto accept: an object with a
  // traceEvents array of complete ("X") events in microseconds.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"phase.outer\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"phase.inner\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"ts\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"dur\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"tid\""), std::string::npos) << text;
}

TEST(TraceTest, WriteChromeTraceReportsUnwritablePath) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  recorder.Stop();
  Status status =
      recorder.WriteChromeTrace("/nonexistent-dir/trace.json");
  EXPECT_FALSE(status.ok());
}

TEST(TraceTest, MacroRecordsOneSpan) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  {
    SOI_TRACE_SPAN("macro.span");
  }
  recorder.Stop();
  std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "macro.span");
}

}  // namespace
}  // namespace obs
}  // namespace soi
