/**
 * @file
 * TraceRecorder / Chrome-trace exporter tests: ring-buffer bounds,
 * and the exporter's exact text -- events and counter samples merged
 * in timestamp order. ctest json_outputs_strict loads real traces
 * with a strict JSON reader.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace_export.hh"

using namespace cmpcache;

namespace
{

TraceEvent
ev(Tick start, Tick end, std::uint32_t track = 0)
{
    TraceEvent e;
    e.name = "Read";
    e.cat = "coherence";
    e.start = start;
    e.end = end;
    e.track = track;
    e.addr = 0x1000;
    e.result = "HitM";
    return e;
}

TEST(TraceRecorderTest, KeepsNewestCapacityEvents)
{
    TraceRecorder rec(3);
    for (Tick t = 0; t < 5; ++t)
        rec.record(ev(t * 10, t * 10 + 5));

    EXPECT_EQ(rec.capacity(), 3u);
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.recorded(), 5u);
    EXPECT_EQ(rec.dropped(), 2u);

    const auto events = rec.events();
    ASSERT_EQ(events.size(), 3u);
    // Oldest first, ids are recording ordinals: 2, 3, 4 survive.
    EXPECT_EQ(events[0].id, 2u);
    EXPECT_EQ(events[0].start, 20u);
    EXPECT_EQ(events[2].id, 4u);
}

TEST(TraceRecorderTest, PartiallyFilledRingUnwrapsInOrder)
{
    TraceRecorder rec(8);
    rec.record(ev(100, 110));
    rec.record(ev(200, 230));
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.dropped(), 0u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].start, 100u);
    EXPECT_EQ(events[1].start, 200u);
}

TEST(ChromeTraceTest, OutputParsesAndTimestampsAreMonotonic)
{
    // Record out of start-order: the exporter must sort.
    std::vector<TraceEvent> events = {
        ev(300, 340, 1), ev(100, 150, 0), ev(200, 220, 2)};

    SampleSeries series;
    series.interval = 100;
    series.ticks = {100, 200};
    series.names = {"ring.pending_now"};
    series.values = {{2.0, 5.0}};

    std::ostringstream os;
    writeChromeTrace(os, events, &series);
    // 3 duration events and 2 samples of 1 counter channel, sorted by
    // ts; a counter sample follows the event that starts on its tick.
    const std::string x = "{\"name\": \"Read\", \"cat\": \"coherence\", "
                          "\"ph\": \"X\", ";
    const std::string args =
        ", \"args\": {\"addr\": \"0x1000\", \"txn\": 0, "
        "\"resp\": \"HitM\"}}";
    const std::string c = "{\"name\": \"ring.pending_now\", \"ph\": \"C\", ";
    EXPECT_EQ(os.str(),
              "{\n\"traceEvents\": [\n"
                  + x + "\"ts\": 100, \"dur\": 50, \"pid\": 0, \"tid\": 0"
                  + args + ",\n"
                  + c + "\"ts\": 100, \"pid\": 0, \"args\": {\"value\": 2}},\n"
                  + x + "\"ts\": 200, \"dur\": 20, \"pid\": 0, \"tid\": 2"
                  + args + ",\n"
                  + c + "\"ts\": 200, \"pid\": 0, \"args\": {\"value\": 5}},\n"
                  + x + "\"ts\": 300, \"dur\": 40, \"pid\": 0, \"tid\": 1"
                  + args + "\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
}

TEST(ChromeTraceTest, EmptyTraceIsStillValidJson)
{
    std::ostringstream os;
    writeChromeTrace(os, {}, nullptr);
    EXPECT_EQ(os.str(),
              "{\n\"traceEvents\": [\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
}

TEST(ChromeTraceTest, DeterministicForEqualInput)
{
    std::vector<TraceEvent> events = {ev(10, 30), ev(10, 20, 1)};
    std::ostringstream a, b;
    writeChromeTrace(a, events, nullptr);
    writeChromeTrace(b, events, nullptr);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
