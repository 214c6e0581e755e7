// Graph attention on the MG-GCN substrate (the paper's §7 future-work
// direction): build an attention operator with SDDMM + edge softmax, apply
// it as an SpMM, and compare its behaviour against the fixed GCN operator.
//
//   ./build/examples/graph_attention
#include <iostream>

#include "core/gat_layer.hpp"
#include "dense/kernels.hpp"
#include "graph/datasets.hpp"
#include "sparse/sddmm.hpp"
#include "sparse/spmm.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main() {
  graph::DatasetOptions options;
  options.scale = 128.0;
  options.seed = 5;
  const graph::Dataset ds = graph::make_dataset(graph::arxiv(), options);
  std::cout << "Arxiv replica: n=" << ds.n() << ", nnz=" << ds.nnz()
            << "\n\n";

  // A single additive-attention head and a dot-product head.
  for (const auto& [kind, name] :
       {std::pair{core::AttentionKind::kAdditive, "additive (GATv1)"},
        std::pair{core::AttentionKind::kDotProduct, "scaled dot-product"}}) {
    core::GraphAttentionLayer layer(ds.adjacency, ds.spec.feature_dim, 32,
                                    kind, 17);
    const dense::HostMatrix out = layer.forward(ds.features.view());

    // How far does learned attention deviate from eq. (2)'s uniform 1/deg?
    const sparse::Csr& attention = layer.last_attention();
    const sparse::Csr uniform = ds.adjacency.normalize_gcn().transpose();
    double max_dev = 0.0, mean_dev = 0.0;
    const auto a_values = attention.values();
    const auto u_values = uniform.values();
    for (std::size_t e = 0; e < a_values.size(); ++e) {
      const double dev = std::abs(
          static_cast<double>(a_values[e]) - u_values[e]);
      max_dev = std::max(max_dev, dev);
      mean_dev += dev;
    }
    mean_dev /= static_cast<double>(a_values.size());

    std::cout << name << " attention:\n"
              << "  output shape " << out.rows() << " x " << out.cols()
              << ", |deviation from uniform 1/deg| mean "
              << util::format_double(mean_dev, 4) << ", max "
              << util::format_double(max_dev, 4) << '\n';
  }

  // The SDDMM kernel cost at the paper's scales — what §7 proposes to
  // accelerate next.
  const auto cost = sparse::sddmm_cost(ds.nnz(), ds.n(), ds.n(), 32);
  std::cout << "\nSDDMM on this replica (d=32): "
            << util::format_bytes(static_cast<std::uint64_t>(
                   cost.gather_bytes))
            << " gathered, "
            << util::format_double(cost.flops / 1e6, 1) << " MFLOP\n";
  return 0;
}
