// Dynamic-size CAM array (paper Fig. 6).
//
// Functional model of the reconfigurable FeFET CAM:
//  * rows hold contexts (SimHash signatures) of up to num_chunks*256 bits;
//  * set_active_chunks() drives the transmission gates, selecting the word
//    (hash) length for subsequent operations;
//  * search() compares a key against every occupied row in parallel and
//    returns the per-row Hamming distances as seen through the sense
//    amplifier model.
//
// The array keeps no cost counters: what a layer's searches and writes cost
// is priced from its event counts by core::price_cam_layer.
// Fault injection (inject_bit_fault) supports the failure-injection tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cam/config.hpp"
#include "cam/energy_model.hpp"
#include "cam/sense_amp.hpp"
#include "common/bitvec.hpp"

namespace deepcam::cam {

class DynamicCam {
 public:
  explicit DynamicCam(CamConfig cfg, SenseAmpConfig sa_cfg = {});

  const CamConfig& config() const { return cfg_; }

  /// Number of currently enabled 256-bit chunks (1..num_chunks).
  std::size_t active_chunks() const { return active_chunks_; }
  /// Active word length in bits (the effective hash length k).
  std::size_t active_bits() const { return active_chunks_ * cfg_.chunk_bits; }

  /// Drives the transmission gates: word length = chunks*chunk_bits.
  void set_active_chunks(std::size_t chunks);

  /// Convenience: selects the smallest chunk count covering `hash_bits`.
  void set_hash_length(std::size_t hash_bits);

  /// Clears all occupancy.
  void clear();

  /// Programs `bits` (must be >= active_bits() long; the first active_bits()
  /// are stored) into row `row` and marks it occupied. Copies 64-bit words,
  /// not individual bits.
  void write_row(std::size_t row, const BitVec& bits);

  /// Word-span overload for callers whose signatures live in a flat arena
  /// (ContextBatch): programs the first active_bits() bits of `words`
  /// (at least ceil(active_bits()/64) words) into row `row`. Identical
  /// semantics and occupancy to the BitVec overload.
  void write_row(std::size_t row, std::span<const std::uint64_t> words);

  /// Number of occupied rows — O(1), maintained as a counter by
  /// write_row()/clear() instead of scanning the occupancy vector.
  std::size_t occupied_rows() const { return occupied_count_; }
  bool row_occupied(std::size_t row) const { return occupied_[row]; }

  /// Result of one parallel search.
  struct SearchResult {
    /// Measured Hamming distance per row; nullopt for unoccupied rows.
    std::vector<std::optional<std::size_t>> row_hd;
  };

  /// Searches `key` (first active_bits() used) against all occupied rows in
  /// parallel — O(1) in rows and word length, one sense window in time.
  SearchResult search(const BitVec& key) const;

  /// Buffer-reuse variant of search(): overwrites `out.row_hd` in place so
  /// steady-state searching performs no heap allocation. `out` may be the
  /// result of a previous call on any DynamicCam.
  void search_into(const BitVec& key, SearchResult& out) const;

  /// Dense result of one parallel search over a contiguously occupied CAM:
  /// row r's measured HD at row_hd[r] for r < occupied — no optionals to
  /// unwrap, no per-row occupancy branch in the consumer's inner loop.
  /// uint16_t suffices: HDs are bounded by the 1024-bit max word length.
  struct FlatSearchResult {
    std::vector<std::uint16_t> row_hd;
    std::size_t occupied = 0;
  };

  /// Flat-result search for the engine's inner loop. Requires the occupied
  /// rows to be exactly [0, occupied_rows()) — the clear(); write_row(0..n)
  /// pattern every mapping pass uses (checked once per search, not per
  /// row). Same Hamming/sense-amp math as search().
  void search_flat(std::span<const std::uint64_t> key_words,
                   FlatSearchResult& out) const;

  /// search_flat into caller storage: writes the occupied_rows() measured
  /// HDs to out_hd[0 .. occupied_rows()). The engine searches every
  /// streamed context of a pass into one HD block this way.
  void search_flat(std::span<const std::uint64_t> key_words,
                   std::uint16_t* out_hd) const;

  /// Flips one stored bit (FeFET retention/program fault model) and records
  /// the (row, bit) pair so clear_faults() can undo it later. Injecting the
  /// same bit twice cancels out — the XOR restores the cell and the record
  /// is dropped.
  void inject_bit_fault(std::size_t row, std::size_t bit);

  /// One outstanding stuck/flipped cell, as injected by inject_bit_fault().
  struct BitFault {
    std::size_t row;
    std::size_t bit;
  };

  /// Currently outstanding injected faults. A write_row() to a faulted row
  /// reprograms the cells, so that row's faults are dropped from the mask;
  /// clear() wipes the whole mask along with occupancy.
  const std::vector<BitFault>& faults() const { return faults_; }

  /// Heals every outstanding fault by re-flipping the recorded bits,
  /// restoring the stored contents bit-exactly. Chaos runs use this to
  /// inject/heal repeatedly without rebuilding (or rewriting) the array.
  void clear_faults();

  /// Area of this array instance (µm²).
  double area_um2() const { return CamCostModel::area_um2(cfg_); }

 private:
  CamConfig cfg_;
  SenseAmp sense_amp_;
  std::size_t active_chunks_;
  // Row storage is one contiguous word arena (row r at r*words_per_row_)
  // instead of a BitVec per row: searches stream it linearly and writes are
  // word copies into place, with no per-row indirection.
  std::size_t words_per_row_;
  std::vector<std::uint64_t> row_words_;
  std::vector<bool> occupied_;
  std::size_t occupied_count_ = 0;
  // Highest row index ever written since the last clear(). The occupied set
  // is a subset of [0, max_occupied_row_], so it equals the prefix
  // [0, occupied_count_) — the search_flat precondition — exactly when
  // occupied_count_ == max_occupied_row_ + 1, regardless of write order.
  std::size_t max_occupied_row_ = 0;
  // Outstanding injected faults, in injection order (see faults()).
  std::vector<BitFault> faults_;

  bool prefix_occupancy() const {
    return occupied_count_ == 0 || occupied_count_ == max_occupied_row_ + 1;
  }
};

}  // namespace deepcam::cam
