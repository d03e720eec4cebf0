#include "core/postproc.hpp"

namespace deepcam::core {

double PostProcessingUnit::finish_dot_product(const Context& weight,
                                              const Context& activation,
                                              std::size_t hamming,
                                              std::size_t hash_len,
                                              float bias) const {
  return finish_dot_product(
      ContextRef{weight.bits.data(), weight.norm_code, weight.exact_norm},
      ContextRef{activation.bits.data(), activation.norm_code,
                 activation.exact_norm},
      hamming, hash_len, bias);
}

double PostProcessingUnit::finish_dot_product(const ContextRef& weight,
                                              const ContextRef& activation,
                                              std::size_t hamming,
                                              std::size_t hash_len,
                                              float bias) const {
  const double nw = opts_.minifloat_norms ? weight.norm() : weight.exact_norm;
  const double na =
      opts_.minifloat_norms ? activation.norm() : activation.exact_norm;
  return hash::approx_dot(nw, na, hamming, hash_len, opts_.use_pwl_cosine) +
         static_cast<double>(bias);
}

}  // namespace deepcam::core
