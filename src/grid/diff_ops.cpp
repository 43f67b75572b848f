#include "grid/diff_ops.hpp"

#include <stdexcept>

namespace chambolle::grid {

Matrix<float> forward_x(const Matrix<float>& z) {
  Matrix<float> out(z.rows(), z.cols());
  for (int r = 0; r < z.rows(); ++r) {
    for (int c = 0; c + 1 < z.cols(); ++c) out(r, c) = z(r, c + 1) - z(r, c);
    if (z.cols() > 0) out(r, z.cols() - 1) = 0.f;
  }
  return out;
}

Matrix<float> forward_y(const Matrix<float>& z) {
  Matrix<float> out(z.rows(), z.cols());
  for (int r = 0; r + 1 < z.rows(); ++r)
    for (int c = 0; c < z.cols(); ++c) out(r, c) = z(r + 1, c) - z(r, c);
  if (z.rows() > 0)
    for (int c = 0; c < z.cols(); ++c) out(z.rows() - 1, c) = 0.f;
  return out;
}

Matrix<float> backward_x(const Matrix<float>& p) {
  Matrix<float> out(p.rows(), p.cols());
  const int last = p.cols() - 1;
  // A 1-wide axis has no gradient direction, so its adjoint is zero.
  if (last == 0) return out;
  for (int r = 0; r < p.rows(); ++r)
    for (int c = 0; c < p.cols(); ++c)
      out(r, c) = backward_diff(p(r, c), c > 0 ? p(r, c - 1) : 0.f, c == 0,
                                c == last);
  return out;
}

Matrix<float> backward_y(const Matrix<float>& p) {
  Matrix<float> out(p.rows(), p.cols());
  const int last = p.rows() - 1;
  if (last == 0) return out;
  for (int r = 0; r < p.rows(); ++r)
    for (int c = 0; c < p.cols(); ++c)
      out(r, c) = backward_diff(p(r, c), r > 0 ? p(r - 1, c) : 0.f, r == 0,
                                r == last);
  return out;
}

Matrix<float> divergence(const Matrix<float>& px, const Matrix<float>& py) {
  if (!px.same_shape(py)) throw std::invalid_argument("divergence: shape");
  Matrix<float> dx = backward_x(px);
  const Matrix<float> dy = backward_y(py);
  for (std::size_t i = 0; i < dx.size(); ++i) dx.data()[i] += dy.data()[i];
  return dx;
}

double dot(const Matrix<float>& a, const Matrix<float>& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("dot: shape");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += static_cast<double>(a.data()[i]) * static_cast<double>(b.data()[i]);
  return s;
}

}  // namespace chambolle::grid
