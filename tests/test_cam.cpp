#include "cam/dynamic_cam.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace deepcam::cam {
namespace {

BitVec random_bits(std::size_t n, std::uint64_t seed) {
  deepcam::Rng rng(seed);
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.uniform() < 0.5);
  return v;
}

TEST(DynamicCam, StartsEmptyAllChunksActive) {
  DynamicCam cam(CamConfig{64, 256, 4});
  EXPECT_EQ(cam.occupied_rows(), 0u);
  EXPECT_EQ(cam.active_chunks(), 4u);
  EXPECT_EQ(cam.active_bits(), 1024u);
}

TEST(DynamicCam, SearchMatchesSoftwareHammingEveryConfig) {
  // CAM search must equal software Hamming distance for every row/word
  // configuration the paper sweeps (Fig. 8 grid).
  for (std::size_t rows : {64u, 128u, 256u, 512u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 4u}) {
      DynamicCam cam(CamConfig{rows, 256, 4});
      cam.set_active_chunks(chunks);
      const std::size_t k = chunks * 256;
      std::vector<BitVec> stored;
      const std::size_t n_rows = std::min<std::size_t>(rows, 8);
      for (std::size_t r = 0; r < n_rows; ++r) {
        stored.push_back(random_bits(1024, 100 + r));
        cam.write_row(r, stored.back());
      }
      const BitVec key = random_bits(1024, 999);
      const auto res = cam.search(key);
      for (std::size_t r = 0; r < n_rows; ++r) {
        ASSERT_TRUE(res.row_hd[r].has_value());
        EXPECT_EQ(*res.row_hd[r], key.hamming_prefix(stored[r], k))
            << "rows=" << rows << " chunks=" << chunks << " r=" << r;
      }
    }
  }
}

TEST(DynamicCam, UnoccupiedRowsReportNothing) {
  DynamicCam cam(CamConfig{16, 256, 4});
  cam.write_row(3, random_bits(1024, 1));
  const auto res = cam.search(random_bits(1024, 2));
  for (std::size_t r = 0; r < 16; ++r)
    EXPECT_EQ(res.row_hd[r].has_value(), r == 3);
}

TEST(DynamicCam, ReconfigurationChangesWordLength) {
  DynamicCam cam(CamConfig{8, 256, 4});
  cam.set_hash_length(256);
  EXPECT_EQ(cam.active_chunks(), 1u);
  cam.set_hash_length(257);
  EXPECT_EQ(cam.active_chunks(), 2u);
  cam.set_hash_length(768);
  EXPECT_EQ(cam.active_chunks(), 3u);
  cam.set_hash_length(1024);
  EXPECT_EQ(cam.active_chunks(), 4u);
  EXPECT_THROW(cam.set_hash_length(1025), deepcam::Error);
  EXPECT_THROW(cam.set_active_chunks(5), deepcam::Error);
  EXPECT_THROW(cam.set_active_chunks(0), deepcam::Error);
}

TEST(DynamicCam, ShorterWordIgnoresTailBits) {
  DynamicCam cam(CamConfig{4, 256, 4});
  BitVec a = random_bits(1024, 5);
  cam.set_active_chunks(4);
  cam.write_row(0, a);
  // Key differs from a only in bits >= 256.
  BitVec key = a;
  for (std::size_t i = 256; i < 1024; ++i) key.flip(i);
  cam.set_active_chunks(1);
  const auto res = cam.search(key);
  EXPECT_EQ(*res.row_hd[0], 0u);  // 256-bit window sees a perfect match
  cam.set_active_chunks(4);
  const auto res4 = cam.search(key);
  EXPECT_EQ(*res4.row_hd[0], 768u);
}

TEST(DynamicCam, ClearDropsOccupancy) {
  DynamicCam cam(CamConfig{8, 256, 4});
  cam.write_row(0, random_bits(1024, 1));
  cam.clear();
  EXPECT_EQ(cam.occupied_rows(), 0u);
}

TEST(DynamicCam, FaultInjectionPerturbsDistanceByOne) {
  DynamicCam cam(CamConfig{4, 256, 4});
  const BitVec data = random_bits(1024, 20);
  cam.write_row(0, data);
  const BitVec key = random_bits(1024, 21);
  const std::size_t before = *cam.search(key).row_hd[0];
  cam.inject_bit_fault(0, 100);
  const std::size_t after = *cam.search(key).row_hd[0];
  EXPECT_EQ(std::max(before, after) - std::min(before, after), 1u);
}

TEST(DynamicCam, RowRangeChecks) {
  DynamicCam cam(CamConfig{4, 256, 4});
  EXPECT_THROW(cam.write_row(4, random_bits(1024, 1)), deepcam::Error);
  EXPECT_THROW(cam.inject_bit_fault(4, 0), deepcam::Error);
  EXPECT_THROW(cam.inject_bit_fault(0, 1024), deepcam::Error);
  BitVec small(128);
  EXPECT_THROW(cam.write_row(0, small), deepcam::Error);
}

TEST(DynamicCam, OccupiedRowsCounterMatchesOccupancy) {
  // occupied_rows() is a counter now, not a scan; it must stay exact under
  // rewrites (same row written twice counts once) and clears.
  DynamicCam cam(CamConfig{8, 256, 4});
  EXPECT_EQ(cam.occupied_rows(), 0u);
  cam.write_row(2, random_bits(1024, 1));
  cam.write_row(5, random_bits(1024, 2));
  cam.write_row(2, random_bits(1024, 3));  // rewrite, not a new occupancy
  EXPECT_EQ(cam.occupied_rows(), 2u);
  EXPECT_TRUE(cam.row_occupied(2));
  EXPECT_TRUE(cam.row_occupied(5));
  cam.clear();
  EXPECT_EQ(cam.occupied_rows(), 0u);
  cam.write_row(0, random_bits(1024, 4));
  EXPECT_EQ(cam.occupied_rows(), 1u);
}

TEST(DynamicCam, SearchIntoMatchesSearchAndReusesBuffer) {
  DynamicCam cam(CamConfig{16, 256, 4});
  for (std::size_t r = 0; r < 5; ++r) cam.write_row(r, random_bits(1024, r));
  DynamicCam::SearchResult buf;
  for (std::size_t q = 0; q < 3; ++q) {
    const BitVec key = random_bits(1024, 100 + q);
    cam.search_into(key, buf);  // same buffer across queries
    const auto fresh = cam.search(key);
    ASSERT_EQ(buf.row_hd.size(), fresh.row_hd.size());
    for (std::size_t r = 0; r < buf.row_hd.size(); ++r)
      EXPECT_EQ(buf.row_hd[r], fresh.row_hd[r]);
  }
}

TEST(DynamicCam, WordCopyWriteZeroesTailLikeBitWrite) {
  // write_row copies 64-bit words; at a 257-bit word length the partial-word
  // mask and tail-zeroing must reproduce the old per-bit semantics exactly.
  DynamicCam cam(CamConfig{4, 257, 4});
  cam.set_active_chunks(1);  // 257 active bits: 4 full words + 1 bit
  BitVec data(1028);
  for (std::size_t i = 0; i < 1028; ++i) data.set(i, true);
  cam.write_row(0, data);
  cam.set_active_chunks(4);
  BitVec key(1028);  // all zeros
  // 257 stored ones mismatch the zero key; the zeroed tail matches.
  EXPECT_EQ(*cam.search(key).row_hd[0], 257u);
}

// write_row copies 64-bit words with a masked tail; chunk_bits straddling a
// word boundary (63/64/65) at every chunk count exercises each mask shape.
// Property: the stored row, observed through an exact-sense search at the
// same word length, Hamming-matches the written prefix for every key.
class CamWriteRowBoundaryTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CamWriteRowBoundaryTest, SearchSeesExactlyTheWrittenPrefix) {
  const std::size_t chunk_bits = GetParam();
  DynamicCam cam(CamConfig{2, chunk_bits, 4});
  for (std::size_t chunks = 1; chunks <= 4; ++chunks) {
    cam.set_active_chunks(chunks);
    const std::size_t k = chunks * chunk_bits;
    const BitVec data = random_bits(4 * chunk_bits, 77 + k);
    cam.write_row(0, data);
    const BitVec key = random_bits(4 * chunk_bits, 900 + k);
    std::size_t expect = 0;
    for (std::size_t i = 0; i < k; ++i)
      if (data.get(i) != key.get(i)) ++expect;
    ASSERT_EQ(*cam.search(key).row_hd[0], expect)
        << "chunk_bits=" << chunk_bits << " chunks=" << chunks;
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, CamWriteRowBoundaryTest,
                         ::testing::Values(63, 64, 65, 128, 256));

TEST(DynamicCam, WriteRowSourceShorterThanStoredWordIsAccepted) {
  // The source only needs active_bits() bits; rows physically store the
  // full max word. A 63-bit source programming a 63-bit active word must
  // work even though the row itself is 252 bits wide.
  DynamicCam cam(CamConfig{2, 63, 4});
  cam.set_active_chunks(1);
  const BitVec data = random_bits(63, 3);
  cam.write_row(0, data);
  BitVec key(63);
  EXPECT_EQ(*cam.search(key).row_hd[0], data.popcount());
  // One bit short of the active word still throws.
  cam.set_active_chunks(2);
  EXPECT_THROW(cam.write_row(0, random_bits(125, 4)), deepcam::Error);
}

TEST(DynamicCam, RewriteAtShorterWordClearsStaleTail) {
  // Program a full 1024-bit word, reconfigure to 256 bits and rewrite the
  // row: widening back to 1024 must observe zeros beyond bit 256, not the
  // stale bits of the first write (assign_prefix zeroes the tail).
  DynamicCam cam(CamConfig{2, 256, 4});
  cam.set_active_chunks(4);
  cam.write_row(0, random_bits(1024, 11));
  cam.set_active_chunks(1);
  const BitVec short_data = random_bits(1024, 12);
  cam.write_row(0, short_data);
  cam.set_active_chunks(4);
  BitVec key(1024);  // all-zero key: distance == stored popcount
  std::size_t prefix_pop = 0;
  for (std::size_t i = 0; i < 256; ++i)
    if (short_data.get(i)) ++prefix_pop;
  EXPECT_EQ(*cam.search(key).row_hd[0], prefix_pop);
}

// ---- flat word-arena API: write_row(span) + search_flat ----------------

TEST(DynamicCam, WriteRowWordSpanMatchesBitVecOverload) {
  // Two CAMs programmed through the two overloads must be indistinguishable
  // under search, across hash lengths (including after a length shrink that
  // exercises the stale-tail clearing).
  DynamicCam a(CamConfig{8, 256, 4}), b(CamConfig{8, 256, 4});
  for (std::size_t k : {1024u, 256u}) {
    a.set_hash_length(k);
    b.set_hash_length(k);
    a.clear();
    b.clear();
    for (std::size_t r = 0; r < 8; ++r) {
      const BitVec bits = random_bits(1024, 50 * k + r);
      a.write_row(r, bits);
      b.write_row(r, std::span<const std::uint64_t>(bits.data(),
                                                    bits.word_count()));
    }
    // Compare at full width too: the cleared tails must agree.
    a.set_hash_length(1024);
    b.set_hash_length(1024);
    const BitVec key = random_bits(1024, 777);
    const auto ra = a.search(key), rb = b.search(key);
    for (std::size_t r = 0; r < 8; ++r)
      EXPECT_EQ(*ra.row_hd[r], *rb.row_hd[r]) << "k=" << k << " r=" << r;
  }
}

TEST(DynamicCam, SearchFlatMatchesSearchInto) {
  DynamicCam cam(CamConfig{64, 256, 4});
  cam.set_hash_length(512);
  const std::size_t occupied = 23;  // partial occupancy, rows 0..22
  for (std::size_t r = 0; r < occupied; ++r)
    cam.write_row(r, random_bits(1024, 300 + r));
  const BitVec key = random_bits(1024, 888);

  DynamicCam::SearchResult ref;
  cam.search_into(key, ref);

  DynamicCam::FlatSearchResult flat;
  cam.search_flat(std::span<const std::uint64_t>(key.data(),
                                                 key.word_count()),
                  flat);

  EXPECT_EQ(flat.occupied, occupied);
  ASSERT_GE(flat.row_hd.size(), occupied);
  for (std::size_t r = 0; r < occupied; ++r)
    EXPECT_EQ(flat.row_hd[r], *ref.row_hd[r]) << r;
}

TEST(DynamicCam, SearchFlatQuantizedSenseAmpMatchesSearch) {
  SenseAmpConfig sa;
  sa.mode = SenseMode::kQuantized;
  DynamicCam cam(CamConfig{16, 256, 4}, sa);
  for (std::size_t r = 0; r < 16; ++r)
    cam.write_row(r, random_bits(1024, 40 + r));
  const BitVec key = random_bits(1024, 41);
  const auto ref = cam.search(key);
  DynamicCam::FlatSearchResult flat;
  cam.search_flat(std::span<const std::uint64_t>(key.data(),
                                                 key.word_count()),
                  flat);
  for (std::size_t r = 0; r < 16; ++r)
    EXPECT_EQ(flat.row_hd[r], *ref.row_hd[r]) << r;
}

TEST(DynamicCam, SearchFlatRequiresContiguousOccupancy) {
  DynamicCam cam(CamConfig{8, 256, 4});
  cam.write_row(3, random_bits(1024, 1));  // hole at rows 0..2
  const BitVec key = random_bits(1024, 2);
  DynamicCam::FlatSearchResult flat;
  EXPECT_THROW(cam.search_flat(std::span<const std::uint64_t>(
                                   key.data(), key.word_count()),
                               flat),
               deepcam::Error);
  // clear() restores the precondition.
  cam.clear();
  cam.write_row(0, random_bits(1024, 3));
  cam.search_flat(std::span<const std::uint64_t>(key.data(),
                                                 key.word_count()),
                  flat);
  EXPECT_EQ(flat.occupied, 1u);
}

TEST(DynamicCam, SearchFlatAcceptsOutOfOrderPrefixWrites) {
  // The precondition is on the occupancy *set*, not the write order:
  // writing rows {1, 0} leaves the valid prefix {0, 1}.
  DynamicCam cam(CamConfig{8, 256, 4});
  cam.write_row(1, random_bits(1024, 61));
  cam.write_row(0, random_bits(1024, 62));
  const BitVec key = random_bits(1024, 63);
  DynamicCam::FlatSearchResult flat;
  cam.search_flat(std::span<const std::uint64_t>(key.data(),
                                                 key.word_count()),
                  flat);
  EXPECT_EQ(flat.occupied, 2u);
  const auto ref = cam.search(key);
  EXPECT_EQ(flat.row_hd[0], *ref.row_hd[0]);
  EXPECT_EQ(flat.row_hd[1], *ref.row_hd[1]);
}

TEST(DynamicCam, SearchFlatEmptyCamReportsZeroOccupied) {
  DynamicCam cam(CamConfig{8, 256, 4});
  const BitVec key = random_bits(1024, 5);
  DynamicCam::FlatSearchResult flat;
  cam.search_flat(std::span<const std::uint64_t>(key.data(),
                                                 key.word_count()),
                  flat);
  EXPECT_EQ(flat.occupied, 0u);
}

TEST(DynamicCam, RewriteKeepsOccupancyAndRowIndependence) {
  // Rewriting one row at a word boundary must not disturb neighbors.
  DynamicCam cam(CamConfig{3, 64, 4});
  cam.set_active_chunks(2);
  const BitVec a = random_bits(256, 1), b = random_bits(256, 2);
  cam.write_row(0, a);
  cam.write_row(2, b);
  cam.write_row(0, random_bits(256, 3));
  EXPECT_EQ(cam.occupied_rows(), 2u);
  const auto res = cam.search(b);
  EXPECT_EQ(*res.row_hd[2], 0u);
  EXPECT_FALSE(res.row_hd[1].has_value());
}

}  // namespace
}  // namespace deepcam::cam
