// Configuration of the dynamic-size CAM array (paper §III-B, Fig. 6).
//
// The array has `rows` words. Each word is built from up to four 256-bit
// chunks connected by transmission gates; enabling 1..4 chunks realizes word
// (= hash) lengths 256/512/768/1024. The paper evaluates row counts
// 64/128/256/512 and all four word lengths (Fig. 8).
#pragma once

#include <cstddef>

#include "common/error.hpp"

namespace deepcam::cam {

enum class CellTech {
  kFeFET,  // 2T-2FeFET cell (the paper's choice)
  kCmos,   // 16T CMOS TCAM cell (comparison point)
};

struct CamConfig {
  std::size_t rows = 64;
  std::size_t chunk_bits = 256;
  std::size_t num_chunks = 4;  // physical chunks present
  CellTech tech = CellTech::kFeFET;

  std::size_t max_word_bits() const { return chunk_bits * num_chunks; }

  void validate() const {
    DEEPCAM_CHECK_MSG(rows > 0, "CAM must have rows");
    DEEPCAM_CHECK_MSG(chunk_bits > 0, "CAM chunk must have bits");
    DEEPCAM_CHECK_MSG(num_chunks >= 1 && num_chunks <= 8,
                      "CAM supports 1..8 chunks");
  }
};

}  // namespace deepcam::cam
