#include "chambolle/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "grid/diff_ops.hpp"
#include "grid/transfer.hpp"
#include "kernels/kernel.hpp"

namespace chambolle {

void project_unit_ball(Matrix<float>& px, Matrix<float>& py) {
  if (!px.same_shape(py))
    throw std::invalid_argument("project_unit_ball: shape mismatch");
  float* x = px.data().data();
  float* y = py.data().data();
  const std::size_t n = px.size();
  for (std::size_t i = 0; i < n; ++i) {
    const float s = std::sqrt(x[i] * x[i] + y[i] * y[i]);
    if (s > 1.f) {
      x[i] /= s;
      y[i] /= s;
    }
  }
}

int CoarseCorrector::resolve_levels(int rows, int cols,
                                    const MultilevelOptions& options) {
  if (!options.enabled()) return 0;
  const int min_dim = std::min(rows, cols);
  // Deepest ladder whose coarsest extent still has >= 4 cells; frames that
  // cannot coarsen even once run without correction.
  int max_levels = 0;
  for (int d = min_dim; grid::coarse_extent(d) >= 4; d = grid::coarse_extent(d))
    ++max_levels;
  if (max_levels == 0) return 0;
  int levels = options.levels;
  if (levels == 0) {
    // Auto rule: one coarse level (see the resolve_levels doc — with the
    // default iteration budgets a two-level cycle out-corrects deeper
    // ladders, whose under-solved base feeds safeguard rejections).
    levels = 1;
  }
  return std::min(levels, max_levels);
}

void CoarseCorrector::setup(const Matrix<float>& v,
                            const ChambolleParams& params,
                            const MultilevelOptions& options) {
  params.validate();
  options.validate();
  params_ = params;
  options_ = options;
  levels_ = resolve_levels(v.rows(), v.cols(), options);
  v_.clear();
  px_.clear();
  py_.clear();
  p0x_.clear();
  p0y_.clear();
  div_.clear();
  rdiv_.clear();
  if (levels_ == 0) return;
  fv_ = v;
  v_.resize(levels_);
  px_.resize(levels_);
  py_.resize(levels_);
  p0x_.resize(levels_);
  p0y_.resize(levels_);
  div_.resize(levels_ + 1);
  rdiv_.resize(levels_);
  div_[0].resize(v.rows(), v.cols());
  int rows = v.rows(), cols = v.cols();
  for (int l = 1; l <= levels_; ++l) {
    rows = grid::coarse_extent(rows);
    cols = grid::coarse_extent(cols);
    v_[l - 1].resize(rows, cols);
    px_[l - 1].resize(rows, cols);
    py_[l - 1].resize(rows, cols);
    div_[l].resize(rows, cols);
    rdiv_[l - 1].resize(rows, cols);
  }
  dpx_.resize(v.rows(), v.cols());
  dpy_.resize(v.rows(), v.cols());
  u_.resize(v.rows(), v.cols());
  prev_u_.resize(v.rows(), v.cols());
  has_baseline_ = false;
}

namespace {

float max_abs(const Matrix<float>& m) {
  float best = 0.f;
  const float* p = m.data().data();
  const std::size_t n = m.size();
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, std::fabs(p[i]));
  return best;
}

}  // namespace

CoarseCorrector::Result CoarseCorrector::compute(const Matrix<float>& px,
                                                 const Matrix<float>& py,
                                                 float residual) {
  if (!active())
    throw std::logic_error("CoarseCorrector::compute: corrector is inactive");
  if (!px.same_shape(dpx_) || !py.same_shape(dpy_))
    throw std::invalid_argument(
        "CoarseCorrector::compute: snapshot shape mismatch");

  Result res;

  // Progress gate.  The fine divergence doubles as the first defect-data
  // ingredient, so computing the primal here costs one extra O(N) sweep;
  // the dual objective D = sum u^2 of the current state rides along for
  // free (the safeguard's d_bar_ bookkeeping below).
  grid::divergence_into(px, py, div_[0]);
  double d_cur = 0.0;
  {
    const float* v = fv_.data().data();
    const float* d = div_[0].data().data();
    float* u = u_.data().data();
    const std::size_t nf = u_.size();
    for (std::size_t i = 0; i < nf; ++i) {
      u[i] = v[i] - params_.theta * d[i];
      d_cur += static_cast<double>(u[i]) * u[i];
    }
  }
  if (!has_baseline_) {
    std::swap(u_, prev_u_);
    has_baseline_ = true;
    d_bar_ = d_cur;
    return res;
  }
  {
    float drift = 0.f;
    const float* u = u_.data().data();
    const float* pu = prev_u_.data().data();
    const std::size_t nf = u_.size();
    for (std::size_t i = 0; i < nf; ++i)
      drift = std::max(drift, std::fabs(u[i] - pu[i]));
    res.progress = drift / static_cast<float>(options_.period);
  }
  std::swap(u_, prev_u_);
  if (res.progress <= options_.gate_factor * residual) {
    d_bar_ = d_cur;
    return res;
  }
  res.applied = true;

  // Downward leg: restrict the dual state level by level, keeping the
  // pre-cycle snapshot p0 of each coarse level, and build each level's
  // defect-corrected data (header comment):
  //   vt_l = R(vt_{l-1}) + theta_l * (div_l(R p) - 2 * R(div_{l-1} p)).
  const Matrix<float>* sx = &px;
  const Matrix<float>* sy = &py;
  const Matrix<float>* sv = &fv_;
  for (int l = 1; l <= levels_; ++l) {
    grid::restrict_half(*sx, px_[l - 1]);
    grid::restrict_half(*sy, py_[l - 1]);
    p0x_[l - 1] = px_[l - 1];
    p0y_[l - 1] = py_[l - 1];
    grid::divergence_into(px_[l - 1], py_[l - 1], div_[l]);
    grid::restrict_half(*sv, v_[l - 1]);
    grid::restrict_half(div_[l - 1], rdiv_[l - 1]);
    const float theta_l = params_.theta / static_cast<float>(1 << l);
    float* vt = v_[l - 1].data().data();
    const float* dc = div_[l].data().data();
    const float* rd = rdiv_[l - 1].data().data();
    const std::size_t nl = v_[l - 1].size();
    for (std::size_t i = 0; i < nl; ++i)
      vt[i] += theta_l * (dc[i] - 2.f * rd[i]);
    sx = &px_[l - 1];
    sy = &py_[l - 1];
    sv = &v_[l - 1];
  }

  // Base solve on the coarsest level.
  solve_level(levels_, MultilevelOptions::kCoarseIterations);

  // Upward leg through the intermediate levels: lift each level's dual
  // increment one level up, restore feasibility, smooth.
  for (int l = levels_; l >= 2; --l) {
    Matrix<float>& up_x = px_[l - 2];
    Matrix<float>& up_y = py_[l - 2];
    grid::sub_into(px_[l - 1], p0x_[l - 1], p0x_[l - 1]);
    grid::sub_into(py_[l - 1], p0y_[l - 1], p0y_[l - 1]);
    grid::prolong_bilinear_into(p0x_[l - 1], up_x.rows(), up_x.cols(), lift_);
    grid::add_scaled(up_x, lift_, MultilevelOptions::kProlongScale);
    grid::prolong_bilinear_into(p0y_[l - 1], up_y.rows(), up_y.cols(), lift_);
    grid::add_scaled(up_y, lift_, MultilevelOptions::kProlongScale);
    project_unit_ball(up_x, up_y);
    solve_level(l - 1, MultilevelOptions::kSmoothIterations);
  }

  // Fine-level candidate: the corrected feasible state, assembled in the
  // delta buffers — the projection is taken here, once, on the globally
  // assembled field.
  grid::sub_into(px_[0], p0x_[0], p0x_[0]);
  grid::sub_into(py_[0], p0y_[0], p0y_[0]);
  grid::prolong_bilinear_into(p0x_[0], px.rows(), px.cols(), lift_);
  dpx_ = px;
  grid::add_scaled(dpx_, lift_, MultilevelOptions::kProlongScale);
  grid::prolong_bilinear_into(p0y_[0], py.rows(), py.cols(), lift_);
  dpy_ = py;
  grid::add_scaled(dpy_, lift_, MultilevelOptions::kProlongScale);
  project_unit_ball(dpx_, dpy_);

  // Dual-objective safeguard: the candidate is applied only if it strictly
  // undercuts d_bar_, the dual objective D(p) = ||v - theta div p||^2
  // = ||u(p)||^2 of the state the PREVIOUS rendezvous exited with.  D is
  // the fine iteration's own descent function (its minimizer over the unit
  // ball is the fixed point), so this makes the exit-state sequence
  //   D(exit_0) > D(exit_1) > D(exit_2) > ...
  // strictly decreasing — a Lyapunov invariant of the composed iteration
  // that structurally rules out correction/fine-pass limit cycles: a
  // correction that drags the state back toward the coarse model's fixed
  // point (which sits a discretization gap from the fine one) would need D
  // to return to a prior value, and is declined instead, so the fine
  // iteration converges past the coarse accuracy floor undisturbed.  The
  // comparison is deliberately against the previous EXIT state and not the
  // current one: the prolongated increment carries transient roughness that
  // can raise D (and the primal energy) instantaneously even when the
  // period as a whole — fine passes plus correction — nets real progress.
  grid::divergence_into(dpx_, dpy_, div_[0]);
  double d_corrected = 0.0;
  {
    const float* vv = fv_.data().data();
    const float* d = div_[0].data().data();
    float* uc = u_.data().data();  // u_ is scratch after the baseline swap
    const std::size_t nf = u_.size();
    for (std::size_t i = 0; i < nf; ++i) {
      uc[i] = vv[i] - params_.theta * d[i];
      d_corrected += static_cast<double>(uc[i]) * uc[i];
    }
  }
  if (!(d_corrected < d_bar_)) {
    res.applied = false;
    res.safeguard_declined = true;
    d_bar_ = d_cur;  // exit state = the unchanged current state
    return res;
  }
  d_bar_ = d_corrected;
  // Accepted: the next call's drift baseline is the CORRECTED primal, so the
  // gate measures fine-pass progress only, never the correction's own jump.
  std::swap(u_, prev_u_);

  grid::sub_into(dpx_, px, dpx_);
  grid::sub_into(dpy_, py, dpy_);

  res.max_delta = std::max(max_abs(dpx_), max_abs(dpy_));
  return res;
}

void CoarseCorrector::solve_level(int level, int iterations) {
  Matrix<float>& lpx = px_[level - 1];
  Matrix<float>& lpy = py_[level - 1];
  // theta_l = theta / 2^l, tau_l = tau / 2^l: the ratio (and so the kernel
  // step) is unchanged, only inv_theta scales.
  const float inv_theta =
      static_cast<float>(1 << level) / params_.theta;
  kernels::iterate_region_fused(
      lpx, lpy, v_[level - 1],
      RegionGeometry::full_frame(lpx.rows(), lpx.cols()), inv_theta,
      params_.step(), iterations, term_);
}

}  // namespace chambolle
