#include "testing/concurrent_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "chambolle/resident_tiled.hpp"
#include "chambolle/tile.hpp"
#include "common/rng.hpp"
#include "serving/flow_service.hpp"
#include "testing/generators.hpp"

namespace chambolle::oracle {
namespace {

// memcmp, not operator== — same policy as oracle.cpp: the bit-exactness
// claim must not be weakened by float comparison semantics (-0.0, NaN).
bool bits_equal(const Matrix<float>& a, const Matrix<float>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

struct Stream {
  int rows = 0, cols = 0;
  std::vector<Matrix<float>> frames;
  std::vector<Matrix<float>> expected;  ///< serial fresh-engine truth
};

}  // namespace

std::string ConcurrentOracleReport::failure_report() const {
  if (pass) return {};
  std::ostringstream os;
  os << "concurrent-sessions oracle FAILED\n  " << case_line << "\n  "
     << detail << "\n  rerun: run_concurrent_oracle(" << seed << ")\n";
  return os.str();
}

ConcurrentOracleReport run_concurrent_oracle(
    std::uint64_t seed, const ConcurrentOracleOptions& options) {
  if (options.sessions < 1 || options.frames_per_session < 1 ||
      options.slots < 1 || options.max_batch < 1 ||
      options.lane_counts.empty())
    throw std::invalid_argument("run_concurrent_oracle: bad options");

  ConcurrentOracleReport report;
  report.seed = seed;

  // Shared solver configuration, drawn through the common case generator so
  // the parameter distribution (merge depth, theta/tau variation) matches
  // the single-solve oracle's.
  const OracleCase shared = make_case(seed);
  tvl1::Tvl1Params params;
  params.chambolle = shared.params;
  // Only the merge depth: slot engines plan their own tiles for the slot's
  // lanes on the slot's pool.
  params.tiled.merge_iterations = shared.tiled.merge_iterations;
  params.solver = tvl1::InnerSolver::kResident;

  // Per-session streams: shapes differ across sessions (per-resolution
  // engine cache coverage), fixed within a session (warm-start contract).
  // At least 2 * kMinStripCells cells, so every slot of two or more lanes
  // splits each frame into strips that exchange halos.
  Rng rng(seed ^ 0xc0fffee5c0fffee5ULL);
  std::vector<Stream> streams(static_cast<std::size_t>(options.sessions));
  for (Stream& st : streams) {
    st.rows = rng.uniform_int(96, 144);
    st.cols = rng.uniform_int(128, 176);
    for (int f = 0; f < options.frames_per_session; ++f)
      st.frames.push_back(random_image(rng, st.rows, st.cols, -3.f, 3.f));
  }

  std::ostringstream case_os;
  case_os << "seed=" << seed << " sessions=" << options.sessions
          << " frames=" << options.frames_per_session
          << " slots=" << options.slots
          << " iters=" << params.chambolle.iterations
          << " merge=" << params.tiled.merge_iterations << " shapes=";
  for (const Stream& st : streams)
    case_os << st.rows << "x" << st.cols << ",";
  report.case_line = case_os.str();

  // Serial ground truth: each stream alone on one lane, fresh engine per
  // frame, duals chained from solve to solve — the spelled-out form of the
  // warm-start contract the service's engine reuse must be
  // indistinguishable from.  One lane plans one tile, so every service
  // lane count is compared across plans.
  TiledSolverOptions serial = params.tiled;
  serial.num_threads = 1;
  for (Stream& st : streams) {
    DualField duals, next;
    bool has_duals = false;
    for (const Matrix<float>& v : st.frames) {
      ResidentTiledEngine engine(v.rows(), v.cols(), 1, params.chambolle,
                                 serial);
      st.expected.emplace_back();
      engine.solve(v, has_duals ? &duals : nullptr, st.expected.back(), &next);
      std::swap(duals, next);
      has_duals = true;
    }
  }

  for (const int lanes : options.lane_counts) {
    // Interleaved runs: all streams through one service, frame-major round
    // robin so consecutive requests always belong to different sessions.
    serving::FlowServiceOptions svc_opts;
    svc_opts.params = params;
    svc_opts.slots = options.slots;
    svc_opts.lanes_per_slot = lanes;
    svc_opts.max_batch = options.max_batch;
    // Nothing may shed in the exactness run: admit everything.
    svc_opts.queue_capacity =
        static_cast<std::size_t>(options.sessions) *
            static_cast<std::size_t>(options.frames_per_session) +
        1;
    serving::FlowService service(svc_opts);
    int fewest = 0;
    for (const Stream& st : streams) {
      const int strips = static_cast<int>(
          plan_tiling(st.rows, st.cols, 1, service.lanes_per_slot(),
                      params.tiled.merge_iterations)
              .tiles.size());
      fewest = fewest == 0 ? strips : std::min(fewest, strips);
    }
    report.fewest_strips.push_back(fewest);

    std::vector<std::shared_ptr<serving::FlowService::Session>> sessions;
    for (int s = 0; s < options.sessions; ++s)
      sessions.push_back(service.open_session());
    std::vector<std::vector<std::future<serving::Reply>>> futures(
        static_cast<std::size_t>(options.sessions));
    for (int f = 0; f < options.frames_per_session; ++f)
      for (int s = 0; s < options.sessions; ++s)
        futures[static_cast<std::size_t>(s)].push_back(
            sessions[static_cast<std::size_t>(s)]->submit(
                streams[static_cast<std::size_t>(s)].frames
                    [static_cast<std::size_t>(f)]));

    for (int s = 0; s < options.sessions; ++s) {
      for (int f = 0; f < options.frames_per_session; ++f) {
        serving::Reply r =
            futures[static_cast<std::size_t>(s)][static_cast<std::size_t>(f)]
                .get();
        ++report.replies_checked;
        if (!r.ok()) {
          std::ostringstream os;
          os << "lanes=" << lanes << " session=" << s << " frame=" << f
             << ": status=" << serving::to_string(r.status)
             << " (expected ok)";
          report.detail = os.str();
          return report;
        }
        const Matrix<float>& want =
            streams[static_cast<std::size_t>(s)]
                .expected[static_cast<std::size_t>(f)];
        if (!bits_equal(r.u, want)) {
          std::ostringstream os;
          os << "lanes=" << lanes << " session=" << s << " frame=" << f
             << ": interleaved primal differs from serial replay (bitwise)";
          report.detail = os.str();
          return report;
        }
      }
    }
    ++report.lane_counts_checked;
  }

  report.pass = true;
  return report;
}

}  // namespace chambolle::oracle
