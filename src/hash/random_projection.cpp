#include "hash/random_projection.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "codelet/codelet.hpp"
#include "common/error.hpp"

namespace deepcam::hash {

namespace {

/// Maps `bytes` of zeroed memory, or returns nullptr. A mapping of a huge
/// page or more starts on a huge-page boundary and asks for transparent
/// huge pages, so filling C takes a fault per 2 MB instead of per 4 KB; a
/// tail shorter than a huge page keeps small pages, so the mapping holds no
/// more than `bytes` rounded up to a small page.
void* map_zeroed(std::size_t bytes) {
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  const auto map = [](std::size_t len) {
    void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? nullptr : static_cast<char*>(p);
  };
  if (bytes < kHugePage ||
      bytes > std::numeric_limits<std::size_t>::max() - kHugePage)
    return map(bytes);
  const std::size_t span = bytes + kHugePage;
  char* const raw = map(span);
  if (raw == nullptr) return nullptr;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t len = (bytes + page - 1) / page * page;
  char* const p = raw + (kHugePage - reinterpret_cast<std::uintptr_t>(raw) %
                                         kHugePage) % kHugePage;
  if (p != raw) munmap(raw, static_cast<std::size_t>(p - raw));
  if (p + len != raw + span)
    munmap(p + len, static_cast<std::size_t>(raw + span - (p + len)));
  madvise(p, len, MADV_HUGEPAGE);  // a hint: without THP, small pages
  return p;
}

}  // namespace

RandomProjection::RandomProjection(std::size_t input_dim,
                                   std::size_t hash_bits)
    : input_dim_(input_dim), hash_bits_(hash_bits) {
  DEEPCAM_CHECK(input_dim > 0);
  DEEPCAM_CHECK(hash_bits > 0);
  DEEPCAM_CHECK_MSG(
      input_dim <= std::numeric_limits<std::size_t>::max() / sizeof(float) /
                       hash_bits,
      "projection matrix size overflows");
  const std::size_t bytes = input_dim * hash_bits * sizeof(float);
  void* p = map_zeroed(bytes);
  DEEPCAM_CHECK_MSG(p != nullptr,
                    "cannot map a " + std::to_string(input_dim) + " x " +
                        std::to_string(hash_bits) + " projection matrix");
  storage_ = decltype(storage_)(static_cast<float*>(p), Unmap{bytes});
}

void RandomProjection::Unmap::operator()(float* p) const { munmap(p, bytes); }

RandomProjection::RandomProjection(std::size_t input_dim,
                                   std::size_t hash_bits, std::uint64_t seed)
    : RandomProjection(input_dim, hash_bits) {
  Rng rng(seed);
  rng.fill_gaussian(mutable_data(), input_dim * hash_bits);
}

RandomProjection RandomProjection::prefix(std::size_t input_dim,
                                          std::size_t width,
                                          std::uint64_t seed) {
  // fill_gaussian_rows pairs a row's draws, so the full row must be even.
  static_assert(kMaxHashBits % 2 == 0);
  DEEPCAM_CHECK_MSG(width <= static_cast<std::size_t>(kMaxHashBits),
                    "a prefix is at most kMaxHashBits wide");
  if (width == static_cast<std::size_t>(kMaxHashBits))
    return RandomProjection(input_dim, width, seed);
  RandomProjection p(input_dim, width);
  Rng rng(seed);
  rng.fill_gaussian_rows(p.mutable_data(), input_dim, kMaxHashBits, width);
  return p;
}

RandomProjection::RandomProjection(const RandomProjection& other)
    : RandomProjection(other.input_dim_, other.hash_bits_) {
  std::copy_n(other.data(), input_dim_ * hash_bits_, mutable_data());
}

RandomProjection& RandomProjection::operator=(const RandomProjection& other) {
  if (this != &other) *this = RandomProjection(other);
  return *this;
}

void RandomProjection::sign_hash_batch(const float* xs, std::size_t count,
                                       std::size_t k,
                                       std::uint64_t* sig_words) const {
  DEEPCAM_CHECK_MSG(k <= hash_bits_, "hash length wider than the projection");
  codelet::kernels().sign_hash_cols(xs, data(), count, input_dim_,
                                    hash_bits_, k, sig_words);
}

}  // namespace deepcam::hash
