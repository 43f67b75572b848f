#include "chambolle/engine_cache.hpp"

#include <algorithm>

namespace chambolle {

ResidentTiledEngine& EngineCache::engine(int rows, int cols, int fields) {
  const auto hit = std::find_if(engines_.begin(), engines_.end(), [&](auto& e) {
    return e->fields() == fields && e->rows() == rows && e->cols() == cols;
  });
  if (hit != engines_.end()) {
    std::rotate(hit, hit + 1, engines_.end());
    return *engines_.back();
  }
  if (engines_.size() == kCapacity) {  // evict first: never kCapacity + 1
    engines_.erase(engines_.begin());
    evictions_.fetch_add(1);
  }
  engines_.push_back(std::make_unique<ResidentTiledEngine>(rows, cols, fields,
                                                           params_, options_));
  builds_.fetch_add(1);
  return *engines_.back();
}

}  // namespace chambolle
