// Reference graph-preparation algorithms for the equivalence tests: the
// straightforward constructions the library's parallel preparation must
// reproduce bit for bit, plus a bitwise Csr comparison.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace mggcn::testing {

/// Same shape, row pointers, column indices and value bits (operator==
/// compares floats by value, so it cannot tell -0.0 from 0.0).
inline ::testing::AssertionResult csr_bits_equal(const sparse::Csr& got,
                                                 const sparse::Csr& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  if (!std::ranges::equal(got.row_ptr(), want.row_ptr())) {
    return ::testing::AssertionFailure() << "row_ptr differs";
  }
  if (!std::ranges::equal(got.col_idx(), want.col_idx())) {
    return ::testing::AssertionFailure() << "col_idx differs";
  }
  if (got.nnz() > 0 &&
      std::memcmp(got.values().data(), want.values().data(),
                  got.values().size_bytes()) != 0) {
    return ::testing::AssertionFailure() << "value bits differ";
  }
  return ::testing::AssertionSuccess();
}

/// Symmetric permutation through a COO round trip: entry (u, v) moves to
/// (perm[u], perm[v]), then from_coo sorts the rows and sums duplicates.
inline sparse::Csr reference_permute_symmetric(
    const sparse::Csr& a, std::span<const std::uint32_t> perm) {
  sparse::Coo coo(a.rows(), a.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t e = a.row_ptr()[static_cast<std::size_t>(r)];
         e < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++e) {
      coo.add(perm[static_cast<std::size_t>(r)],
              perm[a.col_idx()[static_cast<std::size_t>(e)]],
              a.values()[static_cast<std::size_t>(e)]);
    }
  }
  return sparse::Csr::from_coo(coo);
}

}  // namespace mggcn::testing
