// Observability layer tests: TraceRecorder arming/levels/overflow, span
// RAII + identity fields, injectable clock determinism, canonical export
// (Chrome JSON parses; byte-stable across shuffles), stage aggregation,
// and the Prometheus exposition format of MetricsRegistry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace deepcam::obs {
namespace {

/// Deterministic injectable clock: every now() call returns the next
/// multiple of the step, so span begin/end stamps are predictable.
struct FakeClock {
  std::uint64_t next = 0;
  std::uint64_t step = 100;
};

std::uint64_t fake_now(const void* ctx) {
  auto* clock = const_cast<FakeClock*>(static_cast<const FakeClock*>(ctx));
  clock->next += clock->step;
  return clock->next;
}

/// Every test runs against the process-global recorder, so each one starts
/// and ends disabled, cleared, and on the default clock.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    auto& rec = TraceRecorder::instance();
    rec.set_level(TraceLevel::kOff);
    rec.set_clock(nullptr, nullptr);
    rec.clear();
  }
};

TEST_F(TraceTest, DisabledRecorderCapturesNothing) {
  {
    Span sp(TraceLevel::kServe, SpanCat::kQueue, "queue_wait");
    sp.rid(1).session(2);
    EXPECT_FALSE(sp.active());
  }
  instant(TraceLevel::kServe, SpanCat::kAdmission, "admit");
  EXPECT_TRUE(TraceRecorder::instance().collect().empty());
  EXPECT_EQ(TraceRecorder::instance().dropped(), 0u);
}

TEST_F(TraceTest, LevelGatesKernelSpans) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  { Span sp(TraceLevel::kServe, SpanCat::kDispatch, "dispatch"); }
  { Span sp(TraceLevel::kFull, SpanCat::kKernel, "hash"); }  // too fine
  auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "dispatch");

  rec.set_level(TraceLevel::kFull);
  { Span sp(TraceLevel::kFull, SpanCat::kKernel, "hash"); }
  EXPECT_EQ(rec.collect().size(), 2u);
}

TEST_F(TraceTest, SpanCarriesIdentityAndClockStamps) {
  auto& rec = TraceRecorder::instance();
  FakeClock clock;
  rec.set_clock(&fake_now, &clock);
  rec.set_level(TraceLevel::kServe);
  {
    Span sp(TraceLevel::kServe, SpanCat::kRoute, "pick");
    sp.rid(7).session(1).slo(2).replica(3).batch(4).value(5);
  }
  auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 1u);
  const SpanRecord& r = spans[0];
  EXPECT_EQ(r.t_begin_ns, 100u);
  EXPECT_EQ(r.t_end_ns, 200u);
  EXPECT_EQ(r.rid, 7u);
  EXPECT_EQ(r.session, 1u);
  EXPECT_EQ(r.slo, 2u);
  EXPECT_EQ(r.replica, 3u);
  EXPECT_EQ(r.batch, 4u);
  EXPECT_EQ(r.value, 5u);
  EXPECT_EQ(r.cat, SpanCat::kRoute);
}

TEST_F(TraceTest, MovedFromSpanDoesNotDoubleCommit) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  {
    Span a(TraceLevel::kServe, SpanCat::kBatch, "form");
    Span b(std::move(a));
    EXPECT_FALSE(a.active());
    EXPECT_TRUE(b.active());
  }  // only b commits
  EXPECT_EQ(rec.collect().size(), 1u);
}

TEST_F(TraceTest, FinishIsIdempotent) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  {
    Span sp(TraceLevel::kServe, SpanCat::kComplete, "done");
    sp.finish();
    sp.finish();
  }  // destructor after finish(): still one record
  EXPECT_EQ(rec.collect().size(), 1u);
}

TEST_F(TraceTest, ClearDiscardsAndRecordingResumes) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  instant(TraceLevel::kServe, SpanCat::kChaos, "crash");
  EXPECT_EQ(rec.collect().size(), 1u);
  rec.clear();
  EXPECT_TRUE(rec.collect().empty());
  instant(TraceLevel::kServe, SpanCat::kChaos, "heal");
  auto spans = rec.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "heal");
}

TEST_F(TraceTest, OverflowDropsAndCounts) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  SpanRecord r;
  r.t_begin_ns = 1;
  r.t_end_ns = 2;
  r.name = "spam";
  const std::size_t total = TraceRecorder::kRingCapacity + 64;
  for (std::size_t i = 0; i < total; ++i)
    emit(TraceLevel::kServe, r);
  EXPECT_EQ(rec.collect().size(), TraceRecorder::kRingCapacity);
  EXPECT_EQ(rec.dropped(), 64u);
  rec.clear();  // drop counter resets with the spans
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST_F(TraceTest, ScopedTraceTagNestsAndRestores) {
  EXPECT_EQ(current_trace_tag().tag, kNoId);
  {
    ScopedTraceTag outer({42, 0});
    EXPECT_EQ(current_trace_tag().tag, 42u);
    {
      ScopedTraceTag inner({43, 7});
      EXPECT_EQ(current_trace_tag().tag, 43u);
      EXPECT_EQ(current_trace_tag().sample, 7u);
    }
    EXPECT_EQ(current_trace_tag().tag, 42u);
  }
  EXPECT_EQ(current_trace_tag().tag, kNoId);
}

TEST_F(TraceTest, ConcurrentRecordingLosesNothingUnderCapacity) {
  auto& rec = TraceRecorder::instance();
  rec.set_level(TraceLevel::kServe);
  constexpr int kThreads = 4, kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Span sp(TraceLevel::kServe, SpanCat::kEngine, "sample");
        sp.rid(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  for (auto& w : workers) w.join();
  auto spans = rec.collect();
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.dropped(), 0u);
  // Every rid appears exactly once.
  std::vector<std::uint64_t> rids;
  rids.reserve(spans.size());
  for (const auto& s : spans) rids.push_back(s.rid);
  std::sort(rids.begin(), rids.end());
  EXPECT_EQ(std::adjacent_find(rids.begin(), rids.end()), rids.end());
}

// ---- export -------------------------------------------------------------

std::vector<SpanRecord> sample_spans() {
  std::vector<SpanRecord> spans;
  auto add = [&spans](std::uint64_t b, std::uint64_t e, SpanCat cat,
                      const char* name, std::uint64_t rid) {
    SpanRecord r;
    r.t_begin_ns = b;
    r.t_end_ns = e;
    r.cat = cat;
    r.name = name;
    r.rid = rid;
    spans.push_back(r);
  };
  add(3000, 3400, SpanCat::kQueue, "queue_wait", 2);
  add(1000, 1100, SpanCat::kAdmission, "admit", 1);
  add(1000, 1100, SpanCat::kAdmission, "admit", 0);
  add(2000, 9000, SpanCat::kDispatch, "dispatch", 0);
  add(2500, 2600, SpanCat::kKernel, "hash", 0);
  return spans;
}

TEST(TraceExport, CanonicalOrderIsShuffleInvariant) {
  std::vector<SpanRecord> a = sample_spans();
  std::vector<SpanRecord> b = sample_spans();
  std::reverse(b.begin(), b.end());
  canonicalize(a);
  canonicalize(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_begin_ns, b[i].t_begin_ns) << i;
    EXPECT_EQ(a[i].rid, b[i].rid) << i;
    EXPECT_STREQ(a[i].name, b[i].name) << i;
  }
  // Identical span multisets serialize to identical bytes.
  EXPECT_EQ(chrome_trace_json(sample_spans()),
            chrome_trace_json([] {
              auto s = sample_spans();
              std::reverse(s.begin(), s.end());
              return s;
            }()));
  // Ordered by begin time, ties broken deterministically.
  EXPECT_EQ(a.front().t_begin_ns, 1000u);
  EXPECT_EQ(a.back().t_begin_ns, 3000u);
}

TEST(TraceExport, ChromeJsonParsesAndDescribesSpans) {
  const std::string doc = chrome_trace_json(sample_spans());
  const JsonValue root = parse_json(doc);
  EXPECT_EQ(root.at("displayTimeUnit").as_string(), "ms");
  const auto& events = root.at("traceEvents").items();
  std::size_t complete = 0, metadata = 0;
  for (const JsonValue& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_TRUE(ev.find("ts") != nullptr);
      EXPECT_TRUE(ev.find("dur") != nullptr);
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    } else {
      EXPECT_EQ(ph, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(complete, sample_spans().size());
  EXPECT_GE(metadata, 1u);  // at least the process_name record
  // Identity fields ride in args; the kNoId sentinel is omitted.
  EXPECT_NE(doc.find("\"rid\""), std::string::npos);
  EXPECT_EQ(doc.find("18446744073709551615"), std::string::npos);
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerSpan) {
  const std::string csv = trace_csv(sample_spans());
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, sample_spans().size() + 1);  // header + spans
  EXPECT_EQ(csv.rfind("t_begin_ns,", 0), 0u);
}

TEST(TraceExport, AggregateStagesOrdersByTotalTime) {
  const auto rows = aggregate_stages(sample_spans());
  ASSERT_EQ(rows.size(), 4u);  // admit x2 merged, three singletons
  EXPECT_EQ(rows[0].stage, "dispatch/dispatch");  // 7000 ns dominates
  EXPECT_EQ(rows[0].count, 1u);
  double share = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    share += rows[i].share;
    if (i > 0) EXPECT_LE(rows[i].total_ms, rows[i - 1].total_ms);
  }
  EXPECT_NEAR(share, 1.0, 1e-12);
  const auto admit = std::find_if(
      rows.begin(), rows.end(),
      [](const StageStat& s) { return s.stage == "admission/admit"; });
  ASSERT_NE(admit, rows.end());
  EXPECT_EQ(admit->count, 2u);
  EXPECT_NEAR(admit->mean_us, 0.1, 1e-12);
}

TEST(TraceExport, AggregateStagesReportsSelfTimeOfNestedSpans) {
  std::vector<SpanRecord> spans;
  auto add = [&spans](std::uint64_t b, std::uint64_t e, SpanCat cat,
                      const char* name, std::uint64_t rid,
                      std::uint64_t batch) {
    SpanRecord r;
    r.t_begin_ns = b;
    r.t_end_ns = e;
    r.cat = cat;
    r.name = name;
    r.rid = rid;
    r.batch = batch;
    spans.push_back(r);
  };
  // Sample 0 of request 5: three kernel stages inside a 1000 ns sample.
  add(0, 1000, SpanCat::kEngine, "sample", 5, 0);
  add(100, 400, SpanCat::kKernel, "hash", 5, 0);
  add(400, 600, SpanCat::kKernel, "cam_search", 5, 0);
  add(600, 900, SpanCat::kKernel, "postproc", 5, 0);
  // Sample 1 of the same request runs concurrently on another worker:
  // grouped by (rid, batch), its hash is not sample 0's child.
  add(0, 500, SpanCat::kEngine, "sample", 5, 1);
  add(50, 450, SpanCat::kKernel, "hash", 5, 1);
  // A stage covering its whole sample (same interval): the sample is the
  // parent and keeps no self time.
  add(2000, 2100, SpanCat::kKernel, "hash", 7, 0);
  add(2000, 2100, SpanCat::kEngine, "sample", 7, 0);
  // Spans outside the engine keep their full duration.
  add(0, 300, SpanCat::kAdmission, "admit", 5, kNoId);

  const auto rows = aggregate_stages(spans);
  auto row = [&rows](const std::string& stage) -> const StageStat* {
    for (const auto& r : rows)
      if (r.stage == stage) return &r;
    return nullptr;
  };
  EXPECT_EQ(row("engine/sample"), nullptr);
  ASSERT_NE(row(kOtherStage), nullptr);
  EXPECT_EQ(row(kOtherStage)->count, 3u);
  EXPECT_NEAR(row(kOtherStage)->total_ms, 300e-6, 1e-15);  // 200 + 100 + 0
  ASSERT_NE(row("kernel/hash"), nullptr);
  EXPECT_EQ(row("kernel/hash")->count, 3u);
  EXPECT_NEAR(row("kernel/hash")->total_ms, 800e-6, 1e-15);
  EXPECT_NEAR(row("kernel/cam_search")->total_ms, 200e-6, 1e-15);
  EXPECT_NEAR(row("kernel/postproc")->total_ms, 300e-6, 1e-15);
  EXPECT_NEAR(row("admission/admit")->total_ms, 300e-6, 1e-15);
  // Self times partition the root spans: 1000 + 500 + 100 + 300 ns.
  double total_ms = 0.0, share = 0.0;
  for (const auto& r : rows) {
    total_ms += r.total_ms;
    share += r.share;
  }
  EXPECT_NEAR(total_ms, 1900e-6, 1e-12);
  EXPECT_NEAR(share, 1.0, 1e-12);
  EXPECT_NEAR(row("kernel/hash")->share, 800.0 / 1900.0, 1e-12);
}

TEST(TraceExport, EmptySpanSetStillValid) {
  EXPECT_TRUE(aggregate_stages({}).empty());
  const JsonValue root = parse_json(chrome_trace_json({}));
  EXPECT_TRUE(root.at("traceEvents").is_array());
}

// ---- metrics ------------------------------------------------------------

TEST(MetricsRegistry, ExposesPrometheusTextFormat) {
  MetricsRegistry reg;
  reg.add_collector([](MetricsRegistry& r) {
    r.set_counter("deepcam_b_total", "Second family alphabetically", {},
                  3.0);
    r.set_gauge("deepcam_a_depth", "First family alphabetically",
                {{"queue", "main"}}, 7.5);
  });
  const std::string text = reg.expose();
  const auto a = text.find("deepcam_a_depth");
  const auto b = text.find("deepcam_b_total");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);  // families name-sorted
  EXPECT_NE(text.find("# HELP deepcam_a_depth First family alphabetically"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE deepcam_a_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE deepcam_b_total counter"), std::string::npos);
  EXPECT_NE(text.find("deepcam_a_depth{queue=\"main\"} 7.5"),
            std::string::npos);
  EXPECT_NE(text.find("deepcam_b_total 3"), std::string::npos);
}

TEST(MetricsRegistry, HistogramExpandsToCumulativeBuckets) {
  MetricsRegistry reg;
  reg.add_collector([](MetricsRegistry& r) {
    Histogram h(0.001, 10.0, 4, /*exact_cap=*/16);
    h.add(0.002);
    h.add(0.002);
    h.add(5.0);
    r.set_histogram("deepcam_latency_seconds", "Latency", {}, h);
  });
  const std::string text = reg.expose();
  EXPECT_NE(text.find("# TYPE deepcam_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("deepcam_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("deepcam_latency_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("deepcam_latency_seconds_sum 5.004"),
            std::string::npos);
  // Cumulative counts never decrease across le= edges.
  std::uint64_t prev = 0;
  std::size_t pos = 0, buckets = 0;
  while ((pos = text.find("_bucket{le=", pos)) != std::string::npos) {
    const std::size_t sp = text.find(' ', pos);
    const std::uint64_t n = std::stoull(text.substr(sp + 1));
    EXPECT_GE(n, prev);
    prev = n;
    ++buckets;
    ++pos;
  }
  EXPECT_EQ(buckets, 5u);  // 4 finite edges + +Inf
}

TEST(MetricsRegistry, CollectorsRunFreshEachScrape) {
  MetricsRegistry reg;
  int scrapes = 0;
  reg.add_collector([&scrapes](MetricsRegistry& r) {
    ++scrapes;
    r.set_gauge("deepcam_scrapes", "Scrape count", {}, scrapes);
  });
  EXPECT_NE(reg.expose().find("deepcam_scrapes 1"), std::string::npos);
  const std::string second = reg.expose();
  EXPECT_NE(second.find("deepcam_scrapes 2"), std::string::npos);
  EXPECT_EQ(second.find("deepcam_scrapes 1"), std::string::npos);
  EXPECT_EQ(scrapes, 2);
}

TEST(MetricsRegistry, LabelSetsSortDeterministically) {
  MetricsRegistry reg;
  reg.add_collector([](MetricsRegistry& r) {
    r.set_counter("deepcam_req_total", "Requests",
                  {{"session", "zz"}}, 1.0);
    r.set_counter("deepcam_req_total", "Requests",
                  {{"session", "aa"}}, 2.0);
  });
  const std::string text = reg.expose();
  EXPECT_LT(text.find("session=\"aa\""), text.find("session=\"zz\""));
  // Re-publishing identical labels overwrites, not duplicates.
  MetricsRegistry reg2;
  reg2.add_collector([](MetricsRegistry& r) {
    r.set_gauge("deepcam_x", "X", {{"k", "v"}}, 1.0);
    r.set_gauge("deepcam_x", "X", {{"k", "v"}}, 9.0);
  });
  const std::string text2 = reg2.expose();
  EXPECT_NE(text2.find("deepcam_x{k=\"v\"} 9"), std::string::npos);
  EXPECT_EQ(text2.find("deepcam_x{k=\"v\"} 1"), std::string::npos);
}

}  // namespace
}  // namespace deepcam::obs
