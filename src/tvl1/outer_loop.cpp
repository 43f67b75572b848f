#include "tvl1/outer_loop.hpp"

#include <optional>

namespace chambolle::tvl1 {

parallel::ThreadPool& pool_for(const Tvl1Params& params) {
  return params.tiled.pool != nullptr ? *params.tiled.pool
                                      : parallel::default_pool();
}

std::pair<Pyramid, Pyramid> build_pyramids(const Image& i0, const Image& i1,
                                           int levels,
                                           parallel::ThreadPool& pool) {
  std::optional<Pyramid> p0, p1;
  pool.parallel_for(2, 2, [&](std::size_t begin, std::size_t end, int) {
    for (std::size_t i = begin; i < end; ++i) {
      const telemetry::TraceSpan span("tvl1.pyramid");
      if (i == 0)
        p0.emplace(normalize_frame(i0), levels);
      else
        p1.emplace(normalize_frame(i1), levels);
    }
  });
  return {std::move(*p0), std::move(*p1)};
}

}  // namespace chambolle::tvl1
