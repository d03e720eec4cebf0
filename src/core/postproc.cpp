#include "core/postproc.hpp"

#include "hash/cosine_approx.hpp"

namespace deepcam::core {

std::vector<double> PostProcessingUnit::cosine_table(
    std::size_t k, std::size_t max_hd) const {
  std::vector<double> table(max_hd + 1);
  for (std::size_t h = 0; h <= max_hd; ++h)
    table[h] = hash::approx_dot(1.0, 1.0, h, k, opts_.use_pwl_cosine);
  return table;
}

}  // namespace deepcam::core
