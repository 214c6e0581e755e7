// Binary sparse-matrix IO — the stand-in for the PIGO library the paper uses
// for fast graph loading (§6). The format is a flat little-endian dump:
//
//   magic "MGCSR1\0\0" | rows i64 | cols i64 | nnz i64
//   row_ptr  (rows+1) x i64
//   col_idx  nnz x u32
//   values   nnz x f32
#pragma once

#include <string>

#include "sparse/csr.hpp"

namespace mggcn::sparse {

void write_csr(const Csr& matrix, const std::string& path);
/// Reads a write_csr file. Throws InvalidArgumentError when the header does
/// not match the file size, row_ptr is not monotone from 0 to nnz, a
/// column index is out of range, or a row's columns are not strictly
/// ascending.
[[nodiscard]] Csr read_csr(const std::string& path);

/// Reads/writes an edge-list text file ("u v" per line, comments with '#'),
/// for interoperability with common dataset dumps.
[[nodiscard]] Coo read_edge_list(const std::string& path,
                                 std::int64_t num_vertices);
void write_edge_list(const Csr& matrix, const std::string& path);

/// Reads a MatrixMarket coordinate file (the other format PIGO ingests):
/// supports `matrix coordinate (real|pattern) (general|symmetric)`.
/// 1-based indices are converted; symmetric files are expanded.
[[nodiscard]] Coo read_matrix_market(const std::string& path);
void write_matrix_market(const Csr& matrix, const std::string& path);

}  // namespace mggcn::sparse
