#include "chambolle/engine_cache.hpp"

#include <algorithm>

namespace chambolle {

ResidentTiledEngine& EngineCache::bind(ResidentTiledEngine::Fields fields,
                                       ResidentTiledEngine::DualFields initial) {
  const auto hit = std::find_if(engines_.begin(), engines_.end(), [&](auto& e) {
    return e->fields() == static_cast<int>(fields.size()) &&
           fields[0] != nullptr && e->rows() == fields[0]->rows() &&
           e->cols() == fields[0]->cols();
  });
  if (hit != engines_.end()) {
    (*hit)->reset_v(fields, initial);
    // reset_v without `initial` keeps the last bind's duals: zero them.
    if (initial.empty()) (*hit)->reset_duals();
    std::rotate(hit, hit + 1, engines_.end());
    return *engines_.back();
  }
  if (engines_.size() == kCapacity) {  // evict first: never kCapacity + 1
    engines_.erase(engines_.begin());
    evictions_.fetch_add(1);
  }
  engines_.push_back(std::make_unique<ResidentTiledEngine>(fields, params_,
                                                           options_, initial));
  builds_.fetch_add(1);
  return *engines_.back();
}

}  // namespace chambolle
