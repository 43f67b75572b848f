// harness_params.cpp — structured-input fuzzing of the parameter and
// tile-plan validators.
//
// Raw bytes are decoded into ChambolleParams / Tvl1Params / make_tiling /
// plan_tiling requests.  The contract under test: validate() either throws
// or leaves behind an object whose documented invariants hold (finite
// positive parameters, stability bound satisfied, profitable rectangles
// partitioning the frame, strips thick enough for their halos).
// Historically NaN parameters sailed through the `<= 0` sign checks — this
// harness is what forces and now guards that fix.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "chambolle/params.hpp"
#include "chambolle/solver.hpp"
#include "chambolle/tile.hpp"
#include "harnesses.hpp"
#include "tvl1/tvl1.hpp"

namespace chambolle::fuzzing {
namespace {

// Sequential decoder over the input bytes; past the end it yields zeros, so
// every input length decodes to a complete (if partly zero) structure.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | next();
    return v;
  }

  /// Raw bit-pattern float: the decoder that actually reaches NaN, Inf and
  /// denormal parameter values.
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Bounded int for geometry the harness must keep allocation-safe.
  int bounded(int lo, int hi) {
    return lo + static_cast<int>(u32() % static_cast<std::uint32_t>(
                                     hi - lo + 1));
  }

 private:
  std::uint8_t next() { return pos_ < size_ ? data_[pos_++] : 0; }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

void check_chambolle_params(ByteReader& r) {
  ChambolleParams p;
  p.theta = r.f32();
  p.tau = r.f32();
  p.iterations = static_cast<int>(r.u32());
  try {
    p.validate();
  } catch (const std::exception&) {
    return;
  }
  // validate() accepted: the documented invariants must actually hold.
  if (!std::isfinite(p.theta) || !std::isfinite(p.tau)) std::abort();
  if (p.theta <= 0.f || p.tau <= 0.f || p.iterations < 0) std::abort();
  if (p.tau / p.theta > 0.25f + 1e-6f) std::abort();
  if (!std::isfinite(p.step()) || p.step() <= 0.f) std::abort();
  // Accepted parameters in a moderate range must survive a miniature solve
  // on a well-formed input without throwing.
  if (p.theta >= 1e-3f && p.theta <= 1e3f && p.tau >= 1e-6f) {
    ChambolleParams tiny = p;
    tiny.iterations = p.iterations % 4;
    Matrix<float> v(6, 7);
    for (std::size_t i = 0; i < v.size(); ++i)
      v.data()[i] = static_cast<float>(static_cast<int>(i % 11) - 5);
    const ChambolleResult res = solve(v, tiny);
    for (const float x : res.u)
      if (!std::isfinite(x)) std::abort();
  }
}

void check_tvl1_params(ByteReader& r) {
  tvl1::Tvl1Params p;
  p.lambda = r.f32();
  p.pyramid_levels = static_cast<int>(r.u32());
  p.warps = static_cast<int>(r.u32());
  p.chambolle.theta = r.f32();
  p.chambolle.tau = r.f32();
  p.chambolle.iterations = static_cast<int>(r.u32());
  try {
    p.validate();
  } catch (const std::exception&) {
    return;
  }
  if (!std::isfinite(p.lambda) || p.lambda <= 0.f) std::abort();
  if (p.pyramid_levels < 1 || p.warps < 1) std::abort();
}

// make_tiling's accepted plans must tile the frame exactly and stay in
// bounds.
void check_window_plan(int frame_rows, int frame_cols, int tile_rows,
                       int tile_cols, int halo) {
  TilingPlan plan;
  try {
    plan = make_tiling(frame_rows, frame_cols, tile_rows, tile_cols, halo);
  } catch (const std::exception&) {
    return;
  }
  if (plan.total_profitable_elements() !=
      static_cast<std::size_t>(frame_rows) *
          static_cast<std::size_t>(frame_cols))
    std::abort();
  for (const TileSpec& t : plan.tiles) {
    if (t.buf_row0 < 0 || t.buf_col0 < 0 || t.buf_rows <= 0 || t.buf_cols <= 0)
      std::abort();
    if (t.buf_row0 + t.buf_rows > frame_rows ||
        t.buf_col0 + t.buf_cols > frame_cols)
      std::abort();
    if (t.prof_row0 < t.buf_row0 || t.prof_col0 < t.buf_col0 ||
        t.prof_row0 + t.prof_rows > t.buf_row0 + t.buf_rows ||
        t.prof_col0 + t.prof_cols > t.buf_col0 + t.buf_cols)
      std::abort();
  }
}

// plan_tiling's accepted plans must be full-width strips, in bounds, whose
// profitable rows partition the frame top to bottom, each keeping at least
// `halo` of them when there is more than one: what lets the resident
// engine trade halos with the adjacent strips alone.
void check_strip_plan(int frame_rows, int frame_cols, int fields, int lanes,
                      int halo) {
  TilingPlan plan;
  try {
    plan = plan_tiling(frame_rows, frame_cols, fields, lanes, halo);
  } catch (const std::exception&) {
    return;
  }
  if (plan.tiles.empty()) std::abort();
  int next = 0;  // the first frame row no strip covers yet
  for (const TileSpec& t : plan.tiles) {
    if (t.buf_col0 != 0 || t.prof_col0 != 0 || t.buf_cols != frame_cols ||
        t.prof_cols != frame_cols)
      std::abort();
    if (t.prof_row0 != next || t.prof_rows <= 0 || t.buf_row0 < 0 ||
        t.buf_row0 > t.prof_row0 ||
        t.prof_row0 + t.prof_rows > t.buf_row0 + t.buf_rows ||
        t.buf_row0 + t.buf_rows > frame_rows)
      std::abort();
    if (plan.tiles.size() > 1 && t.prof_rows < halo) std::abort();
    next += t.prof_rows;
  }
  if (next != frame_rows) std::abort();
}

void check_tiling(ByteReader& r) {
  // Geometry is drawn bounded — the harness probes the plan logic, not the
  // allocator (reject-by-cap for giant frames is read_flo/read_pgm's job).
  const int frame_rows = r.bounded(-4, 300);
  const int frame_cols = r.bounded(-4, 300);
  const int tile_rows = r.bounded(-2, 64);
  const int tile_cols = r.bounded(-2, 64);
  const int halo = r.bounded(-2, 12);
  check_window_plan(frame_rows, frame_cols, tile_rows, tile_cols, halo);
  // At most 16 lanes, so a draw tries at most 16 strip cuts.
  const int fields = r.bounded(-1, 4);
  const int lanes = r.bounded(-1, 16);
  check_strip_plan(frame_rows, frame_cols, fields, lanes, halo);
}

}  // namespace

int fuzz_params(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  check_chambolle_params(r);
  check_tvl1_params(r);
  check_tiling(r);
  return 0;
}

}  // namespace chambolle::fuzzing
