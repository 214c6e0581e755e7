// Sparse-matrix x dense-matrix multiplication (the paper's dominant kernel,
// 60-94% of GCN runtime per Fig. 5) and its cost descriptor.
//
// Like the dense GeMMs, spmm() dispatches through the kernel-policy
// registry (dense/kernel_policy.hpp): `naive::spmm` is the reference loop,
// `tiled::spmm` the cache-blocked implementation, and `planned::spmm`
// (sparse/spmm_plan.hpp) the inspector-executor path that amortizes a
// one-time degree-binning pass across launches. All three fold the beta
// scale into the first-nonzero accumulation (no separate zeroing pass) and
// accumulate edges in CSR order per output element, so the policies agree
// bit-for-bit at beta == 0.
#pragma once

#include "dense/kernel_policy.hpp"
#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sparse/csr.hpp"

namespace mggcn::sparse {

namespace naive {
/// Reference row-at-a-time SpMM (the correctness oracle).
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta);
}  // namespace naive

namespace tiled {
/// Cache-blocked SpMM: the dense dimension is tiled into column panels so
/// the gathered B-row slices and the C-row panel stay L1-resident, and
/// high-degree rows take an edge-batched path (4 gathers in flight plus
/// software prefetch of upcoming B rows) for memory-level parallelism.
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta);
}  // namespace tiled

/// C = alpha * A * B + beta * C, with A in CSR (m x k), B (k x d), C (m x d).
/// Dispatches on the active dense::KernelPolicy.
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha = 1.0f, float beta = 0.0f);

/// Cost of one SpMM launch. `src_rows` is the number of B rows the tile can
/// touch (the tile width): it bounds the gather working set, which is what
/// gives narrower tiles better cache reuse (the paper's super-linear
/// speedups, §6.4).
[[nodiscard]] sim::KernelCost spmm_cost(std::int64_t nnz,
                                        std::int64_t out_rows,
                                        std::int64_t src_rows, std::int64_t d);

/// Convenience overload from a concrete tile.
[[nodiscard]] sim::KernelCost spmm_cost(const Csr& a, std::int64_t d);

}  // namespace mggcn::sparse
