#include "cam/dynamic_cam.hpp"

#include <algorithm>

#include "codelet/codelet.hpp"

namespace deepcam::cam {

DynamicCam::DynamicCam(CamConfig cfg, SenseAmpConfig sa_cfg)
    : cfg_(cfg),
      sense_amp_(sa_cfg),
      active_chunks_(cfg.num_chunks),
      words_per_row_((cfg.max_word_bits() + 63) / 64) {
  cfg_.validate();
  row_words_.assign(cfg_.rows * words_per_row_, 0ULL);
  occupied_.assign(cfg_.rows, false);
}

void DynamicCam::set_active_chunks(std::size_t chunks) {
  DEEPCAM_CHECK_MSG(chunks >= 1 && chunks <= cfg_.num_chunks,
                    "chunk count out of range");
  active_chunks_ = chunks;
}

void DynamicCam::set_hash_length(std::size_t hash_bits) {
  DEEPCAM_CHECK_MSG(hash_bits >= 1 && hash_bits <= cfg_.max_word_bits(),
                    "hash length exceeds CAM word");
  const std::size_t chunks =
      (hash_bits + cfg_.chunk_bits - 1) / cfg_.chunk_bits;
  set_active_chunks(chunks);
}

void DynamicCam::clear() {
  occupied_.assign(cfg_.rows, false);
  occupied_count_ = 0;
  max_occupied_row_ = 0;
  // Unoccupied rows are never read and every re-occupation goes through
  // write_row (which reprograms the full word), so outstanding fault
  // records refer to logically dead cells: drop them.
  faults_.clear();
}

void DynamicCam::write_row(std::size_t row, const BitVec& bits) {
  DEEPCAM_CHECK_MSG(bits.size() >= active_bits(),
                    "context shorter than active word");
  write_row(row, std::span<const std::uint64_t>(bits.data(),
                                                bits.word_count()));
}

void DynamicCam::write_row(std::size_t row,
                           std::span<const std::uint64_t> words) {
  DEEPCAM_CHECK_MSG(row < cfg_.rows, "CAM row out of range");
  const std::size_t k = active_bits();
  DEEPCAM_CHECK_MSG(words.size() * 64 >= k,
                    "context shorter than active word");
  // Prefix-copy with stale-tail clearing (same primitive as
  // BitVec::assign_prefix): the bits past the active word are zeroed so a
  // later word-length increase never observes a previous write's data.
  copy_prefix_words(&row_words_[row * words_per_row_], words.data(), k,
                    words_per_row_);

  if (!occupied_[row]) {
    occupied_[row] = true;
    ++occupied_count_;
  }
  // Reprogramming the row overwrites any injected flips in its cells, so
  // their records no longer describe outstanding damage.
  if (!faults_.empty())
    faults_.erase(std::remove_if(faults_.begin(), faults_.end(),
                                 [&](const BitFault& f) {
                                   return f.row == row;
                                 }),
                  faults_.end());
  max_occupied_row_ = std::max(max_occupied_row_, row);
}

DynamicCam::SearchResult DynamicCam::search(const BitVec& key) const {
  SearchResult result;
  search_into(key, result);
  return result;
}

void DynamicCam::search_into(const BitVec& key, SearchResult& out) const {
  const std::size_t k = active_bits();
  DEEPCAM_CHECK_MSG(key.size() >= k, "search key shorter than active word");
  out.row_hd.assign(cfg_.rows, std::nullopt);
  for (std::size_t r = 0; r < cfg_.rows; ++r) {
    if (!occupied_[r]) continue;
    const std::size_t true_hd =
        hamming_prefix_words(key.data(), &row_words_[r * words_per_row_], k);
    out.row_hd[r] = sense_amp_.measure(true_hd);
  }
}

void DynamicCam::search_flat(std::span<const std::uint64_t> key_words,
                             FlatSearchResult& out) const {
  if (out.row_hd.size() < occupied_count_) out.row_hd.resize(occupied_count_);
  search_flat(key_words, out.row_hd.data());
  out.occupied = occupied_count_;
}

void DynamicCam::search_flat(std::span<const std::uint64_t> key_words,
                             std::uint16_t* out_hd) const {
  const std::size_t k = active_bits();
  DEEPCAM_CHECK_MSG(key_words.size() * 64 >= k,
                    "search key shorter than active word");
  DEEPCAM_CHECK_MSG(prefix_occupancy(),
                    "search_flat requires rows occupied contiguously from 0");
  // uint16_t results: ideal mode is bounded by the word length (<= 1024);
  // quantized mode saturates at tau_unit_bins, which must therefore fit.
  DEEPCAM_CHECK_MSG(sense_amp_.config().mode == SenseMode::kIdeal ||
                        sense_amp_.config().tau_unit_bins <= 0xFFFF,
                    "quantized sense-amp tau exceeds uint16 HD range");
  // Row-blocked Hamming codelet: dense uint16 HDs over the contiguous row
  // arena in one dispatched call. The ideal sense amp is the identity, so
  // the measure() pass only runs in quantized mode.
  codelet::kernels().hamming_many(key_words.data(), row_words_.data(),
                                  words_per_row_, occupied_count_, k, out_hd);
  if (sense_amp_.config().mode != SenseMode::kIdeal)
    for (std::size_t r = 0; r < occupied_count_; ++r)
      out_hd[r] = static_cast<std::uint16_t>(sense_amp_.measure(out_hd[r]));
}

void DynamicCam::inject_bit_fault(std::size_t row, std::size_t bit) {
  DEEPCAM_CHECK(row < cfg_.rows);
  DEEPCAM_CHECK(bit < cfg_.max_word_bits());
  row_words_[row * words_per_row_ + (bit >> 6)] ^= 1ULL << (bit & 63);
  // Double injection of the same cell is a no-op on the contents (XOR), so
  // it must also be a no-op on the mask.
  const auto it = std::find_if(faults_.begin(), faults_.end(),
                               [&](const BitFault& f) {
                                 return f.row == row && f.bit == bit;
                               });
  if (it != faults_.end())
    faults_.erase(it);
  else
    faults_.push_back(BitFault{row, bit});
}

void DynamicCam::clear_faults() {
  for (const BitFault& f : faults_)
    row_words_[f.row * words_per_row_ + (f.bit >> 6)] ^= 1ULL << (f.bit & 63);
  faults_.clear();
}

}  // namespace deepcam::cam
