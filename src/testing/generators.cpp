#include "testing/generators.hpp"

#include <cstdio>
#include <random>

namespace chambolle::oracle {
namespace {

// Deterministic bounded draws built directly on the mt19937_64 output
// stream.  std::uniform_*_distribution is implementation-defined, which
// would make the same seed describe different cases on different standard
// libraries — unacceptable for a printed reproducer.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : eng_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int range(int lo, int hi) {
    if (hi <= lo) return lo;
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<int>(eng_() % span);
  }

  /// Uniform float in [lo, hi) with 24 bits of resolution.
  float real(float lo, float hi) {
    const float unit =
        static_cast<float>(eng_() >> 40) * (1.f / 16777216.f);  // 2^-24
    return lo + (hi - lo) * unit;
  }

  /// True with probability num/den.
  bool chance(int num, int den) { return range(1, den) <= num; }

 private:
  std::mt19937_64 eng_;
};

Matrix<float> draw_image(Draw& d, int rows, int cols, float lo, float hi) {
  Matrix<float> m(rows, cols);
  for (float& v : m) v = d.real(lo, hi);
  return m;
}

// Random accelerator architecture, mirroring the distribution the absorbed
// hw_fuzz_test used: ladder depth from the supported set, evenly-striping
// tile rows, and a merge depth the tile can carry.
hw::ArchConfig draw_arch(Draw& d) {
  hw::ArchConfig cfg;
  const int lanes_choices[] = {3, 5, 7};
  cfg.pe_lanes = lanes_choices[d.range(0, 2)];
  cfg.num_brams = cfg.pe_lanes + 1;
  cfg.tile_rows = cfg.num_brams * d.range(4, 10);
  cfg.tile_cols = 8 * d.range(3, 10);
  cfg.num_sliding_windows = d.range(1, 3);
  const int max_merge = std::min(cfg.tile_rows, cfg.tile_cols) / 2 - 1;
  cfg.merge_iterations = d.range(1, std::min(max_merge, 6));
  cfg.model_tile_io = d.chance(1, 2);
  return cfg;
}

}  // namespace

OracleCase make_case(std::uint64_t seed, const CaseLimits& limits) {
  // Distinct multiplier from every other seeded sweep in the repo so case
  // streams never alias a solver test's.
  Draw d(seed * 0x9e3779b97f4a7c15ULL + 0x0c0ffee0ULL);
  OracleCase c;
  c.seed = seed;

  const int rows = d.range(limits.min_rows, limits.max_rows);
  const int cols = d.range(limits.min_cols, limits.max_cols);
  c.v = draw_image(d, rows, cols, limits.v_lo, limits.v_hi);
  c.v2 = draw_image(d, rows, cols, limits.v_lo, limits.v_hi);

  c.params.iterations = d.range(limits.min_iterations, limits.max_iterations);
  c.default_params = !limits.allow_param_variation || d.chance(1, 2);
  if (!c.default_params) {
    // Random point on or under the tau/theta <= 1/4 stability bound.
    c.params.theta = d.real(0.1f, 0.5f);
    c.params.tau = c.params.theta * d.real(0.05f, 0.25f);
  }

  c.tiled.merge_iterations = d.range(1, limits.max_merge);
  const int tile_lo = 2 * c.tiled.merge_iterations + 1;
  c.tiled.tile_rows = d.range(tile_lo, tile_lo + limits.tile_span - 1);
  c.tiled.tile_cols = d.range(tile_lo, tile_lo + limits.tile_span - 1);
  c.tiled.num_threads = d.range(1, limits.max_threads);
  // An unused draw: it keeps every seed expanding to the case that
  // recorded reproducers name.
  (void)d.range(1, 24);

  c.warm_start = limits.allow_warm_start && d.chance(1, 4);
  if (c.warm_start) {
    // Any finite dual state exercises the warm-start path; the projection
    // step contracts it back into the unit ball within one iteration.
    c.initial.px = draw_image(d, rows, cols, -0.7f, 0.7f);
    c.initial.py = draw_image(d, rows, cols, -0.7f, 0.7f);
  }

  c.arch = draw_arch(d);
  return c;
}

std::string OracleCase::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "seed=%llu frame=%dx%d iters=%d theta=%.9g tau=%.9g "
                "tile=%dx%d merge=%d threads=%d warm=%d arch=%dL%dx%d",
                static_cast<unsigned long long>(seed), v.rows(), v.cols(),
                params.iterations, static_cast<double>(params.theta),
                static_cast<double>(params.tau), tiled.tile_rows,
                tiled.tile_cols, tiled.merge_iterations, tiled.num_threads,
                warm_start ? 1 : 0, arch.pe_lanes,
                arch.tile_rows, arch.tile_cols);
  return buf;
}

}  // namespace chambolle::oracle
