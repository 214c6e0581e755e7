// Training-state checkpointing: serializes the replicated model state
// (weights + Adam moments + step counter) to a flat binary file so long
// full-batch runs (the paper trains Reddit for 466 epochs, §6) can resume
// exactly.
//
// Format (little-endian):
//   magic "MGCKPT1\0" | version u32 | adam_step i32 | num_layers u32
//   per layer: d_in i64 | d_out i64 | w f32[] | m f32[] | v f32[]
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dense/matrix.hpp"

namespace mggcn::core {

struct Checkpoint {
  int adam_step = 0;
  std::vector<dense::HostMatrix> weights;
  std::vector<dense::HostMatrix> adam_m;
  std::vector<dense::HostMatrix> adam_v;

  [[nodiscard]] std::size_t num_layers() const { return weights.size(); }
  /// Whether there is one m and one v per layer, each of its W's shape.
  [[nodiscard]] bool consistent() const;
};

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path);
[[nodiscard]] Checkpoint load_checkpoint(const std::string& path);

}  // namespace mggcn::core
