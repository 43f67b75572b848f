// flight_recorder_test.cpp — the crash flight recorder.
//
// Round-trips breadcrumbs and spans through the normal JSON serializer and
// the async-signal-safe crash writer, checks the bounded-ring overwrite
// semantics and the disabled path, and (where the platform allows death
// tests and no sanitizer owns the signals) crashes a forked child to prove
// the installed handler really writes the postmortem file.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/json_util.hpp"

namespace chambolle {
namespace {

namespace tel = telemetry;
namespace fs = std::filesystem;

/// Forces the recorder on (it defaults on, but an earlier test or the
/// environment may have toggled it) and restores the prior state on exit.
class ScopedFlight {
 public:
  explicit ScopedFlight(bool on) : was_(tel::flight_recorder_enabled()) {
    tel::set_flight_recorder_enabled(on);
  }
  ~ScopedFlight() { tel::set_flight_recorder_enabled(was_); }

 private:
  bool was_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path temp_file(const char* name) {
  return fs::temp_directory_path() / name;
}

TEST(FlightRecorder, MarkRoundTripsThroughJson) {
  const ScopedFlight f(true);
  tel::clear_flight_record();
  tel::flight_mark("test.flight.mark", 42.0);
  tel::flight_mark("test.flight.second");
  EXPECT_EQ(tel::flight_event_count(), 2u);

  const std::string json = tel::flight_record_json();
  ASSERT_TRUE(tel::json_well_formed(json));
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("test.flight.mark"), std::string::npos);
  EXPECT_NE(json.find("test.flight.second"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  // The on-demand dump is the same serializer behind a file write.
  const fs::path path = temp_file("chb_flight_roundtrip.json");
  ASSERT_TRUE(tel::write_flight_record(path.string()));
  EXPECT_EQ(slurp(path), json);
  fs::remove(path);
}

TEST(FlightRecorder, SpanMirrorCarriesDuration) {
  const ScopedFlight f(true);
  tel::clear_flight_record();
  tel::flight_span("test.flight.span", /*start_ns=*/1'000'000,
                   /*dur_ns=*/2'500'000);
  const std::string json = tel::flight_record_json();
  ASSERT_TRUE(tel::json_well_formed(json));
  EXPECT_NE(json.find("test.flight.span"), std::string::npos);
  EXPECT_NE(json.find("\"t_us\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur_us\":2500"), std::string::npos);
}

TEST(FlightRecorder, DisabledPathDropsEvents) {
  const ScopedFlight f(false);
  EXPECT_FALSE(tel::flight_recorder_enabled());
  tel::clear_flight_record();
  tel::flight_mark("test.flight.dropped");
  tel::flight_span("test.flight.dropped.span", 0, 1);
  EXPECT_EQ(tel::flight_event_count(), 0u);
  EXPECT_EQ(tel::flight_record_json().find("dropped"), std::string::npos);
}

TEST(FlightRecorder, RingIsBoundedAndKeepsNewest) {
  const ScopedFlight f(true);
  tel::clear_flight_record();
  char name[32];
  for (std::size_t i = 0; i < tel::kFlightRingCapacity + 10; ++i) {
    std::snprintf(name, sizeof name, "test.ring.%zu", i);
    tel::flight_mark(name, static_cast<double>(i));
  }
  // Other threads are quiescent, so the count is exactly one full ring.
  EXPECT_EQ(tel::flight_event_count(), tel::kFlightRingCapacity);
  const std::string json = tel::flight_record_json();
  ASSERT_TRUE(tel::json_well_formed(json));
  EXPECT_EQ(json.find("\"test.ring.0\""), std::string::npos);  // overwritten
  char last[32];
  std::snprintf(last, sizeof last, "test.ring.%zu",
                tel::kFlightRingCapacity + 9);
  EXPECT_NE(json.find(last), std::string::npos);
  tel::clear_flight_record();
  EXPECT_EQ(tel::flight_event_count(), 0u);
}

TEST(FlightRecorder, HostileNamesStayWellFormed) {
  const ScopedFlight f(true);
  tel::clear_flight_record();
  const char* hostile[] = {
      "quote\"inside", "back\\slash", "ctrl\x01\x02tab\there",
      "newline\nname", "long.name.that.exceeds.the.fixed.event.width.by.far",
  };
  for (const char* name : hostile) tel::flight_mark(name, 1.0);
  EXPECT_TRUE(tel::json_well_formed(tel::flight_record_json()));
  // The crash writer sanitizes rather than escapes; its output must parse too.
  const fs::path path = temp_file("chb_flight_hostile.json");
  ASSERT_TRUE(tel::flight_crash_dump(path.string().c_str()));
  EXPECT_TRUE(tel::json_well_formed(slurp(path)));
  fs::remove(path);
}

TEST(FlightRecorder, CrashDumpWriterProducesParseableJson) {
  {
    const ScopedFlight f(true);
    tel::flight_mark("test.crashdump.mark", 7.0);
  }
  const fs::path path = temp_file("chb_flight_crashdump.json");
  ASSERT_TRUE(tel::flight_crash_dump(path.string().c_str()));
  const std::string json = slurp(path);
  ASSERT_TRUE(tel::json_well_formed(json));
  EXPECT_NE(json.find("\"crash\":true"), std::string::npos);
  EXPECT_NE(json.find("test.crashdump.mark"), std::string::npos);
  fs::remove(path);
  EXPECT_FALSE(tel::flight_crash_dump("/nonexistent-dir/flight.json"));
}

// The end-to-end crash path: a forked child installs the handler, SEGVs,
// and must leave the postmortem file behind while still dying by signal
// (SA_RESETHAND + re-raise keeps the exit status honest).  Skipped where a
// sanitizer owns the crash signals or death tests are unavailable.
#if defined(GTEST_HAS_DEATH_TEST) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__) && !defined(CHB_UNDER_SANITIZER)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define CHB_SKIP_CRASH_DEATH_TEST 1
#endif
#endif
#ifndef CHB_SKIP_CRASH_DEATH_TEST
TEST(FlightRecorderDeathTest, HandlerDumpsOnSegv) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const fs::path path = temp_file("chb_flight_segv.json");
  fs::remove(path);
  const std::string path_str = path.string();
  EXPECT_DEATH(
      {
        tel::set_flight_recorder_enabled(true);
        tel::flight_mark("test.death.breadcrumb", 13.0);
        tel::install_crash_handler(path_str.c_str());
        std::raise(SIGSEGV);
      },
      "");
  ASSERT_TRUE(fs::exists(path)) << "handler did not write " << path_str;
  const std::string json = slurp(path);
  EXPECT_TRUE(tel::json_well_formed(json));
  EXPECT_NE(json.find("\"crash\":true"), std::string::npos);
  EXPECT_NE(json.find("test.death.breadcrumb"), std::string::npos);
  fs::remove(path);
}
#endif
#endif  // death tests available, no sanitizer

}  // namespace
}  // namespace chambolle
