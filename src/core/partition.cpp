#include "core/partition.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mggcn::core {

PartitionVector::PartitionVector(std::vector<std::int64_t> offsets)
    : offsets_(std::move(offsets)) {
  MGGCN_CHECK_MSG(offsets_.size() >= 2, "partition vector needs >= 1 part");
  MGGCN_CHECK_MSG(offsets_.front() == 0, "partition must start at 0");
  MGGCN_CHECK_MSG(std::is_sorted(offsets_.begin(), offsets_.end()),
                  "partition offsets must be monotone");
}

PartitionVector PartitionVector::uniform(std::int64_t n, int parts) {
  MGGCN_CHECK(n >= 0 && parts >= 1);
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(parts) + 1);
  const std::int64_t base = n / parts;
  const std::int64_t extra = n % parts;
  offsets[0] = 0;
  for (int i = 0; i < parts; ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] + base + (i < extra ? 1 : 0);
  }
  return PartitionVector(std::move(offsets));
}

PartitionVector PartitionVector::balanced_nnz(const sparse::Csr& matrix,
                                              int parts) {
  MGGCN_CHECK(parts >= 1);
  const std::int64_t n = matrix.rows();
  const auto row_ptr = matrix.row_ptr();
  const double total = static_cast<double>(matrix.nnz());

  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(parts) + 1);
  offsets.push_back(0);
  std::int64_t row = 0;
  for (int part = 1; part < parts; ++part) {
    const double target = total * part / parts;
    while (row < n &&
           static_cast<double>(row_ptr[static_cast<std::size_t>(row) + 1]) <
               target) {
      ++row;
    }
    // Keep at least one row available for each remaining part.
    row = std::min(row, n - (parts - part));
    row = std::max(row, offsets.back());
    offsets.push_back(row);
  }
  offsets.push_back(n);
  return PartitionVector(std::move(offsets));
}

std::int64_t PartitionVector::max_part_size() const {
  std::int64_t m = 0;
  for (int i = 0; i < parts(); ++i) m = std::max(m, size(i));
  return m;
}

int PartitionVector::part_of(std::int64_t v) const {
  MGGCN_CHECK(v >= 0 && v < total());
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), v);
  return static_cast<int>(it - offsets_.begin()) - 1;
}

void TileGrid::size_plan_slots() const {
  auto& slots = plans_->slots;
  if (!slots.empty()) return;
  slots.resize(tiles.size());
  plans_->inspect_charged.resize(tiles.size());
  for (std::size_t r = 0; r < tiles.size(); ++r) {
    slots[r].resize(tiles[r].size());
    plans_->inspect_charged[r].resize(tiles[r].size());
  }
}

const sparse::SpmmPlan& TileGrid::plan(int i, int j) const {
  size_plan_slots();
  auto& slot =
      plans_->slots[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  if (slot == nullptr || !slot->matches(tile(i, j))) {
    slot = std::make_shared<const sparse::SpmmPlan>(
        sparse::SpmmPlan::inspect(tile(i, j)));
  }
  return *slot;
}

bool TileGrid::plan_ready(int i, int j) const {
  const auto& slots = plans_->slots;
  if (slots.empty()) return false;
  const auto& slot =
      slots[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  return slot != nullptr && slot->matches(tile(i, j));
}

void TileGrid::build_plans() const {
  size_plan_slots();
  std::vector<std::pair<int, int>> missing;
  for (int i = 0; i < parts(); ++i) {
    for (int j = 0; j < parts(); ++j) {
      if (!plan_ready(i, j)) missing.emplace_back(i, j);
    }
  }
  util::parallel_for(static_cast<std::int64_t>(missing.size()),
                     [&](std::int64_t t) {
                       const auto [i, j] = missing[static_cast<std::size_t>(t)];
                       (void)plan(i, j);
                     });
}

bool TileGrid::claim_inspect_charge(int i, int j) const {
  size_plan_slots();
  std::vector<bool>& row = plans_->inspect_charged[static_cast<std::size_t>(i)];
  if (row[static_cast<std::size_t>(j)]) return false;
  row[static_cast<std::size_t>(j)] = true;
  return true;
}

std::int64_t TileGrid::row_nnz(int i) const {
  std::int64_t total = 0;
  for (const auto& t : tiles[static_cast<std::size_t>(i)]) total += t.nnz();
  return total;
}

double TileGrid::imbalance() const {
  std::int64_t total = 0;
  std::int64_t worst = 0;
  for (int i = 0; i < parts(); ++i) {
    const std::int64_t r = row_nnz(i);
    total += r;
    worst = std::max(worst, r);
  }
  if (total == 0) return 1.0;
  const double mean = static_cast<double>(total) / parts();
  return static_cast<double>(worst) / mean;
}

namespace {

/// One tile's arrays. The tile builders allocate them on the calling
/// thread and let workers only fill them: tiles outlive the call, and a
/// block a helper thread allocates comes from that thread's malloc arena,
/// which keeps it from the next grid built on another thread (peak RSS of
/// repeated trainer set-ups rose ~10% when workers allocated the tiles).
struct TileArrays {
  std::vector<std::int64_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;

  void size(std::int64_t rows, std::int64_t nnz) {
    row_ptr.resize(static_cast<std::size_t>(rows) + 1);
    col_idx.resize(static_cast<std::size_t>(nnz));
    values.resize(static_cast<std::size_t>(nnz));
  }
};

/// Moves the arrays into grid.tiles; tile (i, j) is arrays[i * P + j].
void install_tiles(TileGrid& grid, std::vector<TileArrays>& arrays) {
  const PartitionVector& partition = grid.partition;
  const int parts = partition.parts();
  grid.tiles.resize(static_cast<std::size_t>(parts));
  for (int i = 0; i < parts; ++i) {
    auto& row = grid.tiles[static_cast<std::size_t>(i)];
    row.reserve(static_cast<std::size_t>(parts));
    for (int j = 0; j < parts; ++j) {
      TileArrays& a = arrays[static_cast<std::size_t>(i * parts + j)];
      row.emplace_back(partition.size(i), partition.size(j),
                       std::move(a.row_ptr), std::move(a.col_idx),
                       std::move(a.values));
    }
  }
}

}  // namespace

TileGrid make_tile_grid(const sparse::Csr& matrix,
                        const PartitionVector& partition) {
  MGGCN_CHECK_MSG(matrix.rows() == matrix.cols(),
                  "symmetric tiling needs a square matrix");
  MGGCN_CHECK_MSG(matrix.rows() == partition.total(),
                  "partition must cover the matrix");

  const int parts = partition.parts();
  const auto np = static_cast<std::size_t>(parts);
  const auto row_ptr = matrix.row_ptr();
  const auto col_idx = matrix.col_idx();
  // Tile (i, j) is arrays[i * P + j], with partition.size(i) rows.
  std::vector<TileArrays> arrays(np * np);
  const auto rows_of = [&](std::size_t t) {
    return partition.size(static_cast<int>(t / np));
  };
  for (std::size_t t = 0; t < arrays.size(); ++t) arrays[t].size(rows_of(t), 0);
  // Rows are column-sorted, so each row of row block i splits into one
  // contiguous run per column part j: visit(tile, j, local row, entry).
  const auto for_each_entry = [&](int i, const auto& visit) {
    const std::int64_t rb = partition.begin(i);
    for (std::int64_t r = 0; r < partition.size(i); ++r) {
      const auto row = static_cast<std::size_t>(rb + r);
      int j = 0;
      for (auto k = static_cast<std::size_t>(row_ptr[row]);
           k < static_cast<std::size_t>(row_ptr[row + 1]); ++k) {
        while (j + 1 < parts && col_idx[k] >= partition.end(j)) ++j;
        visit(arrays[static_cast<std::size_t>(i * parts + j)], j,
              static_cast<std::size_t>(r), k);
      }
    }
  };

  // Count every tile's rows, then fill them, one row block per task. The
  // count pass also rejects what the run split cannot place: a column out
  // of range, or one below the part an earlier column of its row reached.
  util::parallel_for(parts, [&](std::int64_t i) {
    for_each_entry(static_cast<int>(i), [&](TileArrays& a, int j,
                                            std::size_t r, std::size_t k) {
      MGGCN_CHECK_MSG(col_idx[k] >= partition.begin(j) &&
                          col_idx[k] < partition.end(j),
                      "make_tile_grid needs column-sorted rows with in-range "
                      "column indices");
      ++a.row_ptr[r + 1];
    });
    for (std::size_t j = 0; j < np; ++j) {
      auto& ptr = arrays[static_cast<std::size_t>(i) * np + j].row_ptr;
      std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());
    }
  });
  for (std::size_t t = 0; t < arrays.size(); ++t) {
    arrays[t].size(rows_of(t), arrays[t].row_ptr.back());
  }
  const auto values = matrix.values();
  util::parallel_for(parts, [&](std::int64_t i) {
    std::vector<std::size_t> fill(np, 0);
    for_each_entry(static_cast<int>(i), [&](TileArrays& a, int j,
                                            std::size_t, std::size_t k) {
      std::size_t& at = fill[static_cast<std::size_t>(j)];
      a.col_idx[at] =
          static_cast<std::uint32_t>(col_idx[k] - partition.begin(j));
      a.values[at++] = values[k];
    });
  });

  TileGrid grid;
  grid.partition = partition;
  install_tiles(grid, arrays);
  return grid;
}

TileGrid transpose_tile_grid(const TileGrid& grid) {
  const int parts = grid.parts();
  const auto np = static_cast<std::size_t>(parts);
  // Tile (i, j) of the transpose is tile (j, i) transposed.
  const auto source = [&](std::size_t t) -> const sparse::Csr& {
    return grid.tile(static_cast<int>(t % np), static_cast<int>(t / np));
  };
  std::vector<TileArrays> arrays(np * np);
  for (std::size_t t = 0; t < arrays.size(); ++t) {
    arrays[t].size(source(t).cols(), source(t).nnz());
  }
  util::parallel_for(static_cast<std::int64_t>(arrays.size()),
                     [&](std::int64_t t) {
                       TileArrays& a = arrays[static_cast<std::size_t>(t)];
                       source(static_cast<std::size_t>(t))
                           .transpose_into(a.row_ptr, a.col_idx, a.values);
                     });

  TileGrid out;
  out.partition = grid.partition;
  install_tiles(out, arrays);
  return out;
}

sparse::Csr assemble_tile_grid(const TileGrid& grid) {
  const PartitionVector& partition = grid.partition;
  const int parts = grid.parts();
  const auto n = static_cast<std::size_t>(partition.total());
  std::vector<std::int64_t> block_start(static_cast<std::size_t>(parts) + 1, 0);
  for (int i = 0; i < parts; ++i) {
    block_start[static_cast<std::size_t>(i) + 1] =
        block_start[static_cast<std::size_t>(i)] + grid.row_nnz(i);
  }
  const auto nnz = static_cast<std::size_t>(block_start.back());
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::vector<std::uint32_t> cols(nnz);
  std::vector<float> vals(nnz);
  util::parallel_for(parts, [&](std::int64_t block) {
    const auto i = static_cast<int>(block);
    auto out =
        static_cast<std::size_t>(block_start[static_cast<std::size_t>(i)]);
    for (std::int64_t r = 0; r < partition.size(i); ++r) {
      // Tiles (i, 0..P-1) hold ascending column ranges, so the row stays
      // column-sorted.
      for (int j = 0; j < parts; ++j) {
        const sparse::Csr& t = grid.tile(i, j);
        const auto offset = static_cast<std::uint32_t>(partition.begin(j));
        for (std::int64_t e = t.row_ptr()[static_cast<std::size_t>(r)];
             e < t.row_ptr()[static_cast<std::size_t>(r) + 1]; ++e) {
          cols[out] = t.col_idx()[static_cast<std::size_t>(e)] + offset;
          vals[out++] = t.values()[static_cast<std::size_t>(e)];
        }
      }
      row_ptr[static_cast<std::size_t>(partition.begin(i) + r) + 1] =
          static_cast<std::int64_t>(out);
    }
  });
  return sparse::Csr(partition.total(), partition.total(), std::move(row_ptr),
                     std::move(cols), std::move(vals));
}

}  // namespace mggcn::core
