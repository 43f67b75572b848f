// telemetry_test.cpp — registry semantics, span nesting, disabled-mode
// no-ops, thread-safety smoke, and a parse-it-back check that the Chrome
// trace export is valid trace-event JSON.
//
// The TelemetryIntegration suite is additionally run by ctest as a separate
// invocation with CHAMBOLLE_TELEMETRY=1 in the environment (see
// tests/CMakeLists.txt) to catch instrumentation regressions under the env
// toggle; when run without the env var it enables telemetry
// programmatically, so it passes either way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chambolle/solver.hpp"
#include "chambolle/tiled_solver.hpp"
#include "common/rng.hpp"
#include "hw/accelerator.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/convergence.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "tvl1/tvl1.hpp"
#include "workloads/synthetic.hpp"

namespace chambolle {
namespace {

using telemetry::registry;

/// Restores the telemetry enabled state on scope exit so tests do not leak
/// the toggle into unrelated tests in the same binary.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on) : was_(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~ScopedTelemetry() { telemetry::set_enabled(was_); }

 private:
  bool was_;
};

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON parser, just enough to round-trip-check
// the exporters' output.  Throws std::runtime_error on malformed input.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(key.str, value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::kString;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'b': case 'f': break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;  // validity only; code point not reconstructed
            break;
          default: fail("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) { v.boolean = true; pos_ += 4; }
    else if (s_.compare(pos_, 5, "false") == 0) { v.boolean = false; pos_ += 5; }
    else fail("bad literal");
    return v;
  }

  JsonValue null() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    JsonValue v;
    v.kind = JsonValue::kNull;
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::atof(s_.substr(start, pos_ - start).c_str());
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metric registry semantics.

TEST(MetricRegistry, CounterAccumulatesWhenEnabled) {
  const ScopedTelemetry t(true);
  auto& c = registry().counter("test.counter.accumulates");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before + 42);
}

TEST(MetricRegistry, SameNameReturnsSameMetric) {
  auto& a = registry().counter("test.counter.identity");
  auto& b = registry().counter("test.counter.identity");
  EXPECT_EQ(&a, &b);
}

TEST(MetricRegistry, KindCollisionThrows) {
  registry().counter("test.kind.collision");
  EXPECT_THROW(registry().gauge("test.kind.collision"), std::logic_error);
  EXPECT_THROW(registry().histogram("test.kind.collision"), std::logic_error);
}

TEST(MetricRegistry, GaugeLastValueWins) {
  const ScopedTelemetry t(true);
  auto& g = registry().gauge("test.gauge.lastwins");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(MetricRegistry, HistogramBucketSemantics) {
  const ScopedTelemetry t(true);
  auto& h = registry().histogram("test.histo.buckets", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
}

TEST(MetricRegistry, HistogramRejectsNonIncreasingBounds) {
  EXPECT_THROW(registry().histogram("test.histo.badbounds", {1.0, 1.0}),
               std::invalid_argument);
}

TEST(MetricRegistry, HistogramQuantilesInterpolateWithinBuckets) {
  const ScopedTelemetry t(true);
  auto& h = registry().histogram("test.histo.quantiles", {10.0, 20.0, 40.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);   // bucket (-inf, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);  // bucket (10, 20]
  // p50: rank 10 lands exactly at the top of the first bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  // p95: rank 19 is 9/10 through the (10, 20] bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 19.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 19.8);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));

  // Overflow bucket has no upper edge: report the last finite bound (the
  // Prometheus convention).
  auto& over = registry().histogram("test.histo.quantile.over", {1.0});
  over.observe(100.0);
  EXPECT_DOUBLE_EQ(over.quantile(0.5), 1.0);
  // No observations: 0.
  auto& empty = registry().histogram("test.histo.quantile.empty", {1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(MetricRegistry, HistogramRejectsNonFiniteBoundsAndDropsNonFiniteObs) {
  // Audit regressions: NaN bounds used to pass the strictly-increasing check
  // (every NaN comparison is false), a NaN q escaped both clamps and walked
  // off the bucket array, and a NaN observation landed in bucket 0 and
  // poisoned sum() forever.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(registry().histogram("test.histo.nanbound", {nan}),
               std::invalid_argument);
  EXPECT_THROW(registry().histogram("test.histo.nanbound2", {1.0, nan}),
               std::invalid_argument);
  EXPECT_THROW(registry().histogram("test.histo.infbound", {1.0, inf}),
               std::invalid_argument);
  EXPECT_THROW(registry().histogram("test.histo.ninfbound", {-inf, 1.0}),
               std::invalid_argument);

  const ScopedTelemetry t(true);
  auto& h = registry().histogram("test.histo.nonfinite.obs", {1.0, 10.0});
  h.observe(nan);
  h.observe(inf);
  h.observe(-inf);
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // still empty
  h.observe(5.0);
  EXPECT_EQ(h.total_count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
  // NaN q clamps to the low end instead of indexing garbage.
  EXPECT_DOUBLE_EQ(h.quantile(nan), h.quantile(0.0));
  // Single observation: every quantile sits inside its bucket.
  EXPECT_GT(h.quantile(0.5), 1.0);
  EXPECT_LE(h.quantile(0.99), 10.0);
}

TEST(MetricRegistry, SnapshotCarriesHistogramQuantiles) {
  const ScopedTelemetry t(true);
  auto& h = registry().histogram("test.histo.snapshot.quantiles", {1.0, 8.0});
  h.observe(0.5);
  h.observe(4.0);
  const std::string json = registry().snapshot_json();
  ASSERT_TRUE(telemetry::json_well_formed(json));
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* histo =
      root.find("histograms")->find("test.histo.snapshot.quantiles");
  ASSERT_NE(histo, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    const JsonValue* q = histo->find(key);
    ASSERT_NE(q, nullptr) << key;
    EXPECT_EQ(q->kind, JsonValue::kNumber) << key;
  }
  EXPECT_DOUBLE_EQ(histo->find("p50")->number, h.quantile(0.50));
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

TEST(Prometheus, MetricNameSanitization) {
  using telemetry::prometheus_metric_name;
  EXPECT_EQ(prometheus_metric_name("tiles.passes"), "tiles_passes");
  EXPECT_EQ(prometheus_metric_name("already_fine:name"), "already_fine:name");
  EXPECT_EQ(prometheus_metric_name("0starts.with.digit"),
            "_0starts_with_digit");
  EXPECT_EQ(prometheus_metric_name("sp ace\"quote\nnl"), "sp_ace_quote_nl");
  EXPECT_EQ(prometheus_metric_name(""), "_");
}

TEST(Prometheus, ExpositionFormat) {
  const ScopedTelemetry t(true);
  registry().counter("test.prom.counter").add(3);
  registry().gauge("test.prom.gauge").set(2.5);
  auto& h = registry().histogram("test.prom.histo", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("# TYPE test_prom_counter_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_counter_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_gauge 2.5\n"), std::string::npos);
  // Histogram: cumulative buckets, +Inf = count, sum/count, quantile gauges.
  EXPECT_NE(text.find("# TYPE test_prom_histo histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_sum 55.5\n"), std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_histo_p50 gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_histo_p99 "), std::string::npos);
  // Every line is a comment or "<name> <value>" with a sanitized name.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    for (const char c : name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                  c == '_' || c == ':' || c == '{' || c == '}' || c == '"' ||
                  c == '=' || c == '+' || c == '.' || c == '-')
          << "bad char in: " << line;
  }
}

// ---------------------------------------------------------------------------
// JSON hardening: the exporters must stay well-formed for ANY metric/span
// name, and json_well_formed must actually reject broken documents.

TEST(JsonHardening, ValidatorAcceptsAndRejects) {
  using telemetry::json_well_formed;
  EXPECT_TRUE(json_well_formed("{}"));
  EXPECT_TRUE(json_well_formed("[1, 2.5e-3, -4]"));
  EXPECT_TRUE(json_well_formed("{\"a\": [true, false, null], \"b\": \"x\"}"));
  EXPECT_TRUE(json_well_formed("\"lone \\u0041 string\""));
  EXPECT_FALSE(json_well_formed(""));
  EXPECT_FALSE(json_well_formed("{"));
  EXPECT_FALSE(json_well_formed("{} extra"));
  EXPECT_FALSE(json_well_formed("{\"a\": 01}"));      // leading zero
  EXPECT_FALSE(json_well_formed("{\"a\": .5}"));      // bare fraction
  EXPECT_FALSE(json_well_formed("{\"a\": \"\x01\"}"));  // raw control char
  EXPECT_FALSE(json_well_formed("{\"a\": \"\\x\"}"));   // bad escape
  EXPECT_FALSE(json_well_formed("{\"a\": \"\\u00g1\"}"));
  EXPECT_FALSE(json_well_formed("{\"a\" 1}"));
  EXPECT_FALSE(json_well_formed("[1, ]"));
  // Depth cap: 200 nested arrays overflow the 128-deep cursor.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json_well_formed(deep));
  EXPECT_TRUE(json_well_formed(std::string(64, '[') + std::string(64, ']')));
}

TEST(JsonHardening, HostileMetricNamesSurviveEveryExporter) {
  const ScopedTelemetry t(true);
  // Deterministic fuzz sweep: names covering every escape class (quotes,
  // backslashes, control chars, DEL, high bytes, separators) plus seeded
  // random byte strings.
  std::vector<std::string> names = {
      "test.evil.quote\"name",   "test.evil.back\\slash",
      "test.evil.ctrl\x01\x02",  "test.evil.tab\tnewline\n",
      "test.evil.del\x7f",       "test.evil.high\xc3\xa9\xff",
      "test.evil.{br=\"ace\"}",  "test.evil.\\u0000like",
  };
  std::mt19937_64 rng(0xe5caf);
  for (int i = 0; i < 24; ++i) {
    std::string name = "test.evil.rand.";
    const std::size_t len = 1 + rng() % 12;
    for (std::size_t k = 0; k < len; ++k)
      name.push_back(static_cast<char>(1 + rng() % 255));  // no NUL
    names.push_back(std::move(name));
  }
  for (const std::string& name : names) {
    registry().counter(name).add(1);
    registry().gauge(name + ".g").set(1.0);
  }
  const std::string snapshot = registry().snapshot_json();
  EXPECT_TRUE(telemetry::json_well_formed(snapshot));
  EXPECT_NO_THROW((void)JsonParser(snapshot).parse());
  // The Prometheus side must sanitize the same names into the legal charset.
  const std::string prom = telemetry::prometheus_text();
  EXPECT_EQ(prom.find('\x01'), std::string::npos);
  EXPECT_EQ(prom.find('\x7f'), std::string::npos);
  // And the bench-report envelope, which embeds the snapshot verbatim.
  const std::string bench = telemetry::bench_report_json(
      "hostile\"bench\\name", {{"par\"am", "val\\ue\n"}}, 1.0);
  EXPECT_TRUE(telemetry::json_well_formed(bench));
}

TEST(MetricRegistry, DisabledUpdatesAreNoOps) {
  const ScopedTelemetry t(false);
  auto& c = registry().counter("test.disabled.counter");
  auto& g = registry().gauge("test.disabled.gauge");
  auto& h = registry().histogram("test.disabled.histo", {1.0});
  const std::uint64_t c0 = c.value();
  const double g0 = g.value();
  const std::uint64_t h0 = h.total_count();
  c.add(7);
  g.set(9.0);
  h.observe(0.5);
  EXPECT_EQ(c.value(), c0);
  EXPECT_DOUBLE_EQ(g.value(), g0);
  EXPECT_EQ(h.total_count(), h0);
}

TEST(MetricRegistry, SnapshotIsValidJsonAndContainsValues) {
  const ScopedTelemetry t(true);
  registry().counter("test.snapshot.counter").add(5);
  registry().gauge("test.snapshot.gauge").set(2.5);
  registry().histogram("test.snapshot.histo", {1.0}).observe(0.25);
  const std::string json = registry().snapshot_json();
  const JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->find("test.snapshot.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->number, 5.0);
  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("test.snapshot.gauge"), nullptr);
  const JsonValue* histos = root.find("histograms");
  ASSERT_NE(histos, nullptr);
  const JsonValue* h = histos->find("test.snapshot.histo");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("buckets"), nullptr);
  ASSERT_NE(h->find("count"), nullptr);
}

TEST(MetricRegistry, CounterThreadSafetySmoke) {
  const ScopedTelemetry t(true);
  auto& c = registry().counter("test.threads.counter");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([&c] {
      for (int j = 0; j < kIncrements; ++j) c.add();
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), before + kThreads * kIncrements);
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST(TraceSpan, DisabledSpanIsInert) {
  const ScopedTelemetry t(false);
  const std::size_t before = telemetry::trace_event_count();
  {
    const telemetry::TraceSpan span("test.disabled.span");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(telemetry::trace_event_count(), before);
}

TEST(TraceSpan, NestedSpansRecordDepthAndContainment) {
  const ScopedTelemetry t(true);
  telemetry::clear_trace();
  {
    const telemetry::TraceSpan outer("test.span.outer");
    {
      const telemetry::TraceSpan inner("test.span.inner");
    }
  }
  const std::string json = telemetry::chrome_trace_json();
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);

  const JsonValue* outer_ev = nullptr;
  const JsonValue* inner_ev = nullptr;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "test.span.outer") outer_ev = &e;
    if (name->str == "test.span.inner") inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Chrome trace-event required keys.
  for (const JsonValue* e : {outer_ev, inner_ev}) {
    EXPECT_NE(e->find("ph"), nullptr);
    EXPECT_NE(e->find("ts"), nullptr);
    EXPECT_NE(e->find("dur"), nullptr);
    EXPECT_NE(e->find("pid"), nullptr);
    EXPECT_NE(e->find("tid"), nullptr);
    EXPECT_EQ(e->find("ph")->str, "X");
  }
  // Nesting: inner lies inside outer in time and is one level deeper.
  const double o_ts = outer_ev->find("ts")->number;
  const double o_end = o_ts + outer_ev->find("dur")->number;
  const double i_ts = inner_ev->find("ts")->number;
  const double i_end = i_ts + inner_ev->find("dur")->number;
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end);
  EXPECT_EQ(outer_ev->find("args")->find("depth")->number, 0);
  EXPECT_EQ(inner_ev->find("args")->find("depth")->number, 1);
}

TEST(TraceSpan, SpansFromWorkerThreadsCarryDistinctTids) {
  const ScopedTelemetry t(true);
  telemetry::clear_trace();
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i)
    pool.emplace_back([] {
      const telemetry::TraceSpan span("test.span.worker");
    });
  for (auto& th : pool) th.join();
  const std::string json = telemetry::chrome_trace_json();
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<double> tids;
  for (const JsonValue& e : events->array)
    if (e.find("name")->str == "test.span.worker")
      tids.push_back(e.find("tid")->number);
  ASSERT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
}

// ---------------------------------------------------------------------------
// Convergence recording.

TEST(ConvergenceTrace, SolveFillsMonotoneCurve) {
  Rng rng(7);
  const Matrix<float> v = random_image(rng, 24, 24, -1.f, 1.f);
  ChambolleParams params;
  params.iterations = 20;
  telemetry::ConvergenceTrace conv;
  const ChambolleResult traced = solve(v, params, nullptr, &conv);
  ASSERT_EQ(conv.points().size(), 20u);
  // The curve converges: energy drops overall and the dual residual shrinks.
  // (Strict per-step monotonicity of the primal energy is not guaranteed.)
  for (const auto& pt : conv.points()) EXPECT_TRUE(std::isfinite(pt.energy));
  EXPECT_LT(conv.points().back().energy, conv.points().front().energy);
  EXPECT_LT(conv.points().back().max_delta_p, conv.points().front().max_delta_p);
  // Iteration-by-iteration stepping must not change the result.
  const ChambolleResult plain = solve(v, params);
  for (std::size_t i = 0; i < plain.u.size(); ++i)
    EXPECT_EQ(plain.u.data()[i], traced.u.data()[i]);
  // JSON round-trip.
  const JsonValue root = JsonParser(conv.to_json()).parse();
  ASSERT_EQ(root.kind, JsonValue::kArray);
  ASSERT_EQ(root.array.size(), 20u);
  EXPECT_EQ(root.array[0].find("iteration")->number, 1);
}

// ---------------------------------------------------------------------------
// Bench report schema.

TEST(BenchReport, JsonHasStableSchema) {
  const std::string json = telemetry::bench_report_json(
      "unit_test", {{"param", "value"}}, 12.5);
  const JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_EQ(root.find("name")->str, "unit_test");
  EXPECT_EQ(root.find("params")->find("param")->str, "value");
  EXPECT_DOUBLE_EQ(root.find("wall_ms")->number, 12.5);
  const JsonValue* metrics = root.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end integration: run by ctest once with CHAMBOLLE_TELEMETRY=1.

TEST(TelemetryIntegration, PipelineProducesMetricsAndNestedTrace) {
  const char* env = std::getenv("CHAMBOLLE_TELEMETRY");
  const bool env_enabled = env != nullptr && std::string(env) == "1";
  const ScopedTelemetry t(true);
  if (env_enabled) {
    EXPECT_TRUE(telemetry::enabled());
  }
  telemetry::clear_trace();

  auto& iters = registry().counter("chambolle.solver.iterations");
  auto& profitable = registry().counter("chambolle.tiled.profitable_elements");
  auto& bram_reads = registry().counter("hw.bram.reads");
  const std::uint64_t iters0 = iters.value();
  const std::uint64_t prof0 = profitable.value();
  const std::uint64_t reads0 = bram_reads.value();

  // Software pipeline: reference inner solver, then a tiled solve.
  const auto wl = workloads::translating_scene(32, 32, 1.f, 0.f);
  tvl1::Tvl1Params params;
  params.pyramid_levels = 2;
  params.warps = 2;
  params.chambolle.iterations = 8;
  const FlowField flow = tvl1::compute_flow(wl.frame0, wl.frame1, params);
  EXPECT_GT(flow.u1.size(), 0u);

  Rng rng(3);
  const Matrix<float> v = random_image(rng, 48, 48, -1.f, 1.f);
  ChambolleParams cp;
  cp.iterations = 8;
  TiledSolverOptions topt;
  topt.tile_rows = 24;
  topt.tile_cols = 24;
  topt.merge_iterations = 4;
  topt.num_threads = 2;
  (void)solve_tiled(v, cp, topt);

  // Simulated hardware: one accelerator solve bridges hw.* counters.
  hw::ChambolleAccelerator accel;
  FlowField vf(32, 32);
  ChambolleParams hp;
  hp.iterations = 4;
  (void)accel.solve(vf, hp);

  EXPECT_GT(iters.value(), iters0);
  EXPECT_GT(profitable.value(), prof0);
  EXPECT_GT(bram_reads.value(), reads0);

  // The trace holds nested spans for >= 4 distinct pipeline stages.
  const std::string json = telemetry::chrome_trace_json();
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::string> stages;
  int max_depth = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->str != "X") continue;
    const std::string& name = e.find("name")->str;
    if (std::find(stages.begin(), stages.end(), name) == stages.end())
      stages.push_back(name);
    const JsonValue* args = e.find("args");
    if (args != nullptr && args->find("depth") != nullptr)
      max_depth = std::max(max_depth,
                           static_cast<int>(args->find("depth")->number));
  }
  EXPECT_GE(stages.size(), 4u);
  EXPECT_GE(max_depth, 2);
}

}  // namespace
}  // namespace chambolle
