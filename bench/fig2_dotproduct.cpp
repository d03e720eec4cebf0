// Fig. 2 reproduction: approximate (geometric) vs conventional (algebraic)
// dot-product as a function of hash length.
//
// Uses the paper's own 4-element example vectors (algebraic result 2.0765)
// plus a batch of random vectors, sweeping k = 16..1024. Columns report the
// approximate value (mean over independent projection matrices) and the
// mean absolute error — the figure's visual: longer hashes converge to the
// algebraic value.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/context.hpp"
#include "hash/cosine_approx.hpp"

using namespace deepcam;

namespace {

double exact_dot(const std::vector<float>& a, const std::vector<float>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += double(a[i]) * b[i];
  return s;
}

/// The contexts of a and b under the full-width C drawn from `seed`, hashed
/// by the contexts_into call the engine runs, and their approximate dot
/// product at hash length k from the exact L2 norms (paper eq. 4).
struct HashedPair {
  core::ContextBatch ctx;

  HashedPair(const std::vector<float>& a, const std::vector<float>& b,
             std::uint64_t seed) {
    std::vector<float> ab(a);
    ab.insert(ab.end(), b.begin(), b.end());
    core::ContextGenerator(a.size(), seed)
        .contexts_into(ab.data(), 2, ctx, hash::kMaxHashBits);
  }
  double norm_product() const { return ctx.exact_norm(0) * ctx.exact_norm(1); }
  double approx_dot(std::size_t k, bool use_pwl) const {
    const std::size_t hd = hamming_prefix_words(ctx.sig(0), ctx.sig(1), k);
    return hash::approx_dot(ctx.exact_norm(0), ctx.exact_norm(1), hd, k,
                            use_pwl);
  }
};

}  // namespace

int main() {
  std::printf("== Fig. 2: approximate vs algebraic dot-product ==\n");
  std::printf("(seeds fixed; %d independent projection matrices per k)\n\n",
              32);

  const std::vector<float> x = {0.6012f, 0.8383f, 0.6859f, 0.5712f};
  const std::vector<float> y = {0.9044f, 0.5352f, 0.8110f, 0.9243f};
  const double exact = exact_dot(x, y);
  std::printf("paper example vectors: algebraic dot-product = %.4f "
              "(paper: 2.0765)\n\n", exact);

  Table t({"hash k", "approx dot (mean)", "abs err (mean)", "rel err"});
  const int trials = 32;
  for (std::size_t k : {16u, 32u, 64u, 128u, 256u, 512u, 768u, 1024u}) {
    double sum = 0.0, err = 0.0;
    for (int tr = 0; tr < trials; ++tr) {
      const HashedPair h(x, y, 42 + static_cast<std::uint64_t>(tr));
      const double approx = h.approx_dot(k, /*use_pwl=*/false);
      sum += approx;
      err += std::abs(approx - exact);
    }
    t.add_row({std::to_string(k), Table::num(sum / trials, 4),
               Table::num(err / trials, 4),
               Table::num(err / trials / exact, 4)});
  }
  t.print();

  // Random-vector panel: mean relative error vs k, 64-dim vectors.
  std::printf("\nrandom 64-dim vectors (mean |approx-exact| / |x||y|, "
              "%d pairs):\n", 24);
  Table t2({"hash k", "norm. error", "PWL-cosine norm. error"});
  Rng rng(7);
  for (std::size_t k : {64u, 128u, 256u, 512u, 768u, 1024u}) {
    double err = 0.0, err_pwl = 0.0;
    int n = 0;
    for (int tr = 0; tr < 24; ++tr) {
      std::vector<float> a(64), b(64);
      for (auto& v : a) v = static_cast<float>(rng.gaussian());
      for (auto& v : b) v = static_cast<float>(rng.gaussian());
      const HashedPair h(a, b, 1000 + static_cast<std::uint64_t>(tr));
      const double norm_prod = h.norm_product();
      const double exact_ab = exact_dot(a, b);
      err += std::abs(h.approx_dot(k, false) - exact_ab) / norm_prod;
      err_pwl += std::abs(h.approx_dot(k, true) - exact_ab) / norm_prod;
      ++n;
    }
    t2.add_row({std::to_string(k), Table::num(err / n, 4),
                Table::num(err_pwl / n, 4)});
  }
  t2.print();
  std::printf("\nShape check: error decreases ~1/sqrt(k); PWL cosine adds a "
              "small constant floor (paper eq. 5).\n");
  return 0;
}
