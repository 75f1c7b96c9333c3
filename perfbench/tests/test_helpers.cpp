// Tests of the benchmark's own helpers: the percentile rule, span self time,
// and /proc/self/status parsing.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "probe.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, MedianNeedsTenSamplesAboveIt) {
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(19, 0.5), 9u);
  const Percentile ok = percentile(one_to(20), 0.5);
  ASSERT_TRUE(ok.value.has_value());
  EXPECT_DOUBLE_EQ(*ok.value, 10.0);  // nearest rank ceil(0.5 * 20) = 10
  EXPECT_EQ(ok.samples, 20u);
  const Percentile short_sample = percentile(one_to(19), 0.5);
  EXPECT_FALSE(short_sample.value.has_value());
  EXPECT_EQ(short_sample.samples, 19u);
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  const Percentile p = percentile(one_to(1000), 0.99);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 990.0);
  EXPECT_FALSE(percentile(one_to(999), 0.99).value.has_value());
  EXPECT_FALSE(percentile({}, 0.5).value.has_value());
}

TEST(PercentileRule, IgnoresInputOrderAndStatesTheCount) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  const Percentile p = percentile(v, 0.9);
  ASSERT_TRUE(p.value.has_value());
  EXPECT_DOUBLE_EQ(*p.value, 180.0);
  EXPECT_NE(describe("p90", p, "ms", 0.9).find("(n=200)"), std::string::npos);
  EXPECT_NE(describe("p99", percentile(v, 0.99), "ms", 0.99).find("n/a"), std::string::npos);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

Span make(const char* name, std::int64_t parent, std::int64_t start, std::int64_t end) {
  return Span{name, 1, parent, start, end};
}

TEST(SpanSelfTime, SubtractsChildrenAndMergesOverlap) {
  // root [0,100) with children [10,30), [20,50) (overlapping) and [60,70).
  const std::vector<Span> spans = {make("root", -1, 0, 100), make("a", 0, 10, 30),
                                   make("b", 0, 20, 50), make("c", 0, 60, 70)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanSelfTime, ClipsChildrenToTheParentAndNests) {
  // A child that outlives its parent only covers the parent's interval;
  // a grandchild reduces its parent, not the root.
  const std::vector<Span> spans = {make("root", -1, 0, 50), make("child", 0, 40, 80),
                                   make("mid", 0, 0, 20), make("leaf", 2, 5, 15)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50 - 10 - 20);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[1], 40);
  // Within the root's interval, self times add up to the root's duration.
  EXPECT_EQ(self[0] + self[2] + self[3] + (50 - 40), 50);
  const auto by_name = self_seconds_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root"), 20e-9);
}

TEST(SpanRecorder, DisabledRecordsNothingAndParentsLink) {
  SpanRecorder off(false);
  EXPECT_EQ(off.begin("x", 1), -1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  const std::uint64_t req = on.new_request();
  {
    const ScopedSpan root(on, "root", req);
    const ScopedSpan child(on, "child", req, root.id());
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[0].request, spans[1].request);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(ProcStatus, ParsesRssFields) {
  const char* text =
      "Name:\txpuf_perfbench\n"
      "VmRSS:\t   20480 kB\n"
      "RssAnon:\t   12288 kB\n"
      "RssFile:\t    8000 kB\n"
      "RssShmem:\t     192 kB\n";
  const ProcStatus s = parse_proc_status(text);
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.rss_anon_kb, 12288u);
  EXPECT_EQ(s.rss_file_kb, 8000u);
}

TEST(ProcStatus, MissingOrMalformedFieldsAreNotOk) {
  EXPECT_FALSE(parse_proc_status("RssAnon:\t 5 kB\n").ok);
  EXPECT_FALSE(parse_proc_status("RssAnon:\t kB\nRssFile:\t 3 kB").ok);
  // A longer key sharing the prefix is not the field.
  const ProcStatus s = parse_proc_status("RssAnonX:\t 9 kB\nRssAnon: 4 kB\nRssFile: 2 kB");
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.rss_anon_kb, 4u);
  EXPECT_EQ(s.rss_file_kb, 2u);
}

TEST(ProcStatus, ReadsThisProcess) {
  const ProcStatus s = read_proc_status();
  EXPECT_TRUE(s.ok);
  EXPECT_GT(s.rss_anon_kb, 0u);
}

}  // namespace
}  // namespace perfbench
