#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "telemetry/json_util.hpp"
#include "telemetry/trace.hpp"

namespace chambolle::telemetry {
namespace detail {

std::atomic<int> g_flight_enabled{-1};

int flight_init_from_env() {
  const char* env = std::getenv("CHAMBOLLE_FLIGHT");
  int v = 1;  // the recorder is on unless explicitly switched off
  if (env != nullptr) {
    const std::string s(env);
    if (s == "0" || s == "off" || s == "OFF" || s == "false" || s == "FALSE" ||
        s == "no" || s == "NO")
      v = 0;
  }
  int expected = -1;
  g_flight_enabled.compare_exchange_strong(expected, v,
                                           std::memory_order_relaxed);
  return g_flight_enabled.load(std::memory_order_relaxed);
}

}  // namespace detail

namespace {

struct FlightEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  double value = 0.0;
  char name[40] = {};
};

/// One thread's ring.  Written only by the owning thread (one release index
/// publish per event); read by the dumpers.  Heap-allocated and leaked so a
/// crash dump can walk rings of threads that already exited.
struct FlightRing {
  std::uint32_t tid = 0;
  std::atomic<std::uint64_t> head{0};  ///< total events ever written
  FlightEvent ring[kFlightRingCapacity];
};

/// Lock-free ring table: slots are claimed with a fetch_add and published
/// with a release store, so the crash handler can walk it without taking
/// any lock (the property a postmortem path must have).
std::atomic<FlightRing*> g_rings[kFlightMaxThreads] = {};
std::atomic<int> g_ring_count{0};

FlightRing* local_ring() {
  thread_local FlightRing* ring = [] {
    const int slot = g_ring_count.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kFlightMaxThreads) return static_cast<FlightRing*>(nullptr);
    auto* r = new FlightRing();  // leaked: must outlive the thread
    r->tid = static_cast<std::uint32_t>(slot) + 1;
    g_rings[slot].store(r, std::memory_order_release);
    return r;
  }();
  return ring;
}

void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
            double value) {
  FlightRing* r = local_ring();
  if (r == nullptr) return;  // more threads than table slots: drop
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  FlightEvent& ev = r->ring[h % kFlightRingCapacity];
  std::strncpy(ev.name, name, sizeof ev.name - 1);
  ev.name[sizeof ev.name - 1] = '\0';
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.value = value;
  r->head.store(h + 1, std::memory_order_release);
}

// ---- async-signal-safe formatting -----------------------------------------

/// write(2)-backed buffered writer using only stack/static storage.
struct SafeWriter {
  int fd = -1;
  char buf[4096];
  std::size_t len = 0;

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s) {
    while (*s != '\0') {
      if (len == sizeof buf) flush();
      buf[len++] = *s++;
    }
  }
  void put_ch(char c) {
    if (len == sizeof buf) flush();
    buf[len++] = c;
  }
  void put_u64(std::uint64_t v) {
    char tmp[24];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) put_ch(tmp[--i]);
  }
  void put_i64(std::int64_t v) {
    if (v < 0) {
      put_ch('-');
      put_u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      put_u64(static_cast<std::uint64_t>(v));
    }
  }
  /// Fixed-point %.6f without touching printf (not async-signal-safe).
  void put_double(double v) {
    if (!(v == v)) {  // NaN
      put("null");
      return;
    }
    if (v < 0) {
      put_ch('-');
      v = -v;
    }
    if (v > 9.2e18) {  // out of int64 range: clamp, precision is gone anyway
      put("9.2e18");
      return;
    }
    const std::uint64_t whole = static_cast<std::uint64_t>(v);
    const std::uint64_t frac =
        static_cast<std::uint64_t>((v - static_cast<double>(whole)) * 1e6);
    put_u64(whole);
    put_ch('.');
    char tmp[8];
    for (int i = 5; i >= 0; --i) {
      tmp[i] = static_cast<char>('0' + (frac / [](int p) {
                                          std::uint64_t m = 1;
                                          for (int k = 0; k < p; ++k) m *= 10;
                                          return m;
                                        }(5 - i)) %
                                           10);
    }
    for (int i = 0; i < 6; ++i) put_ch(tmp[i]);
  }
  /// Names are ASCII literals in practice; anything that would need a JSON
  /// escape is replaced rather than escaped — no state to get wrong mid-crash.
  void put_name(const char* s) {
    put_ch('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      put_ch(c < 0x20 || c > 0x7e || c == '"' || c == '\\' ? '_'
                                                           : static_cast<char>(c));
    }
    put_ch('"');
  }
};

char g_dump_path[512] = "flight_record.json";

extern "C" void chambolle_flight_crash_handler(int sig) {
  flight_crash_dump(g_dump_path);
  // SA_RESETHAND already restored the default disposition; re-raise so the
  // process dies with the original signal (core dump, exit status intact).
  ::raise(sig);
}

}  // namespace

void set_flight_recorder_enabled(bool on) {
  detail::g_flight_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void flight_mark(const char* name, double value) {
  if (!flight_recorder_enabled()) return;
  record(name, detail::trace_now_ns(), 0, value);
}

void flight_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  if (!flight_recorder_enabled()) return;
  record(name, start_ns, dur_ns, 0.0);
}

// The non-crash readers below require recorder quiescence (no thread
// concurrently recording) — see the contract block in flight_recorder.hpp.
// Only the async-signal-safe crash dump may race live writers, and it
// accepts torn slots as best-effort postmortem output.

std::size_t flight_event_count() {
  std::size_t total = 0;
  const int n = std::min(g_ring_count.load(std::memory_order_acquire),
                         kFlightMaxThreads);
  for (int i = 0; i < n; ++i) {
    const FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    total += static_cast<std::size_t>(
        h < kFlightRingCapacity ? h : kFlightRingCapacity);
  }
  return total;
}

void clear_flight_record() {
  const int n = std::min(g_ring_count.load(std::memory_order_acquire),
                         kFlightMaxThreads);
  for (int i = 0; i < n; ++i) {
    FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r != nullptr) r->head.store(0, std::memory_order_release);
  }
}

std::string flight_record_json() {
  std::string out = "{\"flight_recorder\":{\"events\":[\n";
  bool first = true;
  const int n = std::min(g_ring_count.load(std::memory_order_acquire),
                         kFlightMaxThreads);
  for (int i = 0; i < n; ++i) {
    const FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    const std::uint64_t cnt = h < kFlightRingCapacity ? h : kFlightRingCapacity;
    for (std::uint64_t k = h - cnt; k < h; ++k) {
      const FlightEvent& ev = r->ring[k % kFlightRingCapacity];
      out += first ? "{" : ",\n{";
      first = false;
      out += "\"t_us\":" + json_number(static_cast<double>(ev.start_ns) / 1e3);
      out += ",\"dur_us\":" + json_number(static_cast<double>(ev.dur_ns) / 1e3);
      out += ",\"tid\":" + json_number(static_cast<std::uint64_t>(r->tid));
      out += ",\"name\":";
      json_append_escaped(out, ev.name);
      out += ",\"value\":" + json_number(ev.value) + "}";
    }
  }
  out += "\n]}}\n";
  return out;
}

bool write_flight_record(const std::string& path) {
  return write_text_file(path, flight_record_json());
}

bool flight_crash_dump(const char* path) {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  SafeWriter w;
  w.fd = fd;
  w.put("{\"flight_recorder\":{\"crash\":true,\"events\":[\n");
  bool first = true;
  const int n = std::min(g_ring_count.load(std::memory_order_acquire),
                         kFlightMaxThreads);
  for (int i = 0; i < n; ++i) {
    const FlightRing* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    const std::uint64_t cnt = h < kFlightRingCapacity ? h : kFlightRingCapacity;
    for (std::uint64_t k = h - cnt; k < h; ++k) {
      const FlightEvent& ev = r->ring[k % kFlightRingCapacity];
      if (!first) w.put(",\n");
      first = false;
      w.put("{\"t_us\":");
      w.put_u64(ev.start_ns / 1000);
      w.put(",\"dur_us\":");
      w.put_u64(ev.dur_ns / 1000);
      w.put(",\"tid\":");
      w.put_u64(r->tid);
      w.put(",\"name\":");
      w.put_name(ev.name);
      w.put(",\"value\":");
      w.put_double(ev.value);
      w.put_ch('}');
    }
  }
  w.put("\n]}}\n");
  w.flush();
  ::close(fd);
  return true;
}

void install_crash_handler(const char* path) {
  if (path == nullptr) path = std::getenv("CHAMBOLLE_FLIGHT_DUMP");
  if (path != nullptr && *path != '\0') {
    std::strncpy(g_dump_path, path, sizeof g_dump_path - 1);
    g_dump_path[sizeof g_dump_path - 1] = '\0';
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = chambolle_flight_crash_handler;
  sa.sa_flags = SA_RESETHAND;  // one shot: the re-raise takes the default path
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS})
    ::sigaction(sig, &sa, nullptr);
}

}  // namespace chambolle::telemetry
