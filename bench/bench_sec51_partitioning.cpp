// §5.1: the bandwidth analysis behind MG-GCN's choice of 1D partitioning.
//
// Reproduces the paper's arithmetic with the Topology model: a full
// feature-matrix rotation (n*d floats) as (a) the 1D algorithm — P
// broadcasts of n*d/P — and (b) the 1.5D algorithm with replication factor
// c = 2 — two rounds of group broadcasts plus a cross-group reduction that,
// on DGX-1's hybrid cube mesh, only has 2 links. The paper's conclusions:
// 1.5D is ~2/3 the speed of 1D on DGX-1 but ~4/3 on DGX-A100, and always
// needs twice the memory — which is why MG-GCN implements 1D only.
#include <iostream>

#include "bench/common.hpp"
#include "comm/topology.hpp"
#include "core/part_mode.hpp"
#include "core/partitioner.hpp"
#include "graph/generators.hpp"
#include "sparse/csr.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace mggcn;

namespace {

struct Analysis {
  double one_d = 0.0;
  double one_5d = 0.0;
};

Analysis analyze(const comm::Topology& topology, std::uint64_t nd_bytes,
                 int gpus) {
  Analysis a;
  // 1D: P broadcasts of nd/P bytes across all P devices.
  a.one_d = gpus * topology.broadcast_seconds(nd_bytes / gpus, gpus);

  // 1.5D with c = 2: two rounds of broadcasts of nd/4 within each group of
  // P/2, plus a reduction of nd/4 between the two groups (2 links on the
  // cube mesh; full links behind the switch).
  const int group = gpus / 2;
  a.one_5d = 2.0 * topology.broadcast_seconds(nd_bytes / 4, group) +
             topology.reduce_seconds(nd_bytes / 4, 2);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("§5.1 reproduction: 1D vs 1.5D bandwidth analysis");
  cli.option("n", "233000", "vertices (default: Reddit)");
  cli.option("d", "512", "feature width");
  cli.option("gpus", "8", "GPU count");
  cli.option("part", "locality",
             "partitioner mode for the compacted-rotation section "
             "(random|balanced|locality|hier|auto)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const auto nd_bytes = static_cast<std::uint64_t>(cli.get_int("n")) *
                        static_cast<std::uint64_t>(cli.get_int("d")) * 4;
  const int gpus = static_cast<int>(cli.get_int("gpus"));

  bench::print_header("§5.1",
                      "communication time of a full H rotation: 1D vs 1.5D "
                      "(c=2), per machine");

  util::Table table({"Machine", "1D (ms)", "1.5D (ms)", "1.5D/1D speed",
                     "1.5D memory"});
  for (const auto& machine : {sim::dgx_v100(), sim::dgx_a100()}) {
    const comm::Topology topology(machine.interconnect);
    const Analysis a = analyze(topology, nd_bytes, gpus);
    table.add_row({machine.name, util::format_double(a.one_d * 1e3, 2),
                   util::format_double(a.one_5d * 1e3, 2),
                   util::format_speedup(a.one_d / a.one_5d), "2x"});
  }
  std::cout << table.to_string()
            << "\n(paper: 1.5D is 2/3x on DGX-1 — the cross-group reduction "
               "only has 2 links — but 4/3x on DGX-A100; both need twice "
               "the memory, so MG-GCN implements 1D.)\n";

  // Partitioner extension: the §5.1 arithmetic assumes every stage moves a
  // full nd/P block. With the compacted exchange the rotation only moves
  // ghost rows, so the partitioner's cut directly prices the rotation.
  const core::PartMode mode =
      core::part_mode_knob.parse_or_throw(cli.get("part"), "--part");
  const std::int64_t n = cli.get_int("n");
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(cli.get_int("d")) * 4;
  util::Rng rng(1);
  const sparse::Csr adjacency = sparse::Csr::from_coo(
      graph::bter_like({.n = n,
                        .avg_degree = 8.0,
                        .degree_sigma = 0.6,
                        .clustering = 0.9},
                       rng)
          .edges);
  core::PartitionerOptions popt;
  popt.parts = gpus;

  std::cout << "\ncompacted rotation (ghost rows only), clustered graph "
               "(BTER k=8 sigma=0.6 c=0.9), "
            << gpus << " GPUs:\n";
  util::Table ghost_table({"Machine", "partitioner", "ghost rows",
                           "avg density", "rotation (ms)", "vs dense 1D"});
  for (const auto& machine : {sim::dgx_v100(), sim::dgx_a100()}) {
    const comm::Topology topology(machine.interconnect);
    const Analysis a = analyze(topology, nd_bytes, gpus);
    for (const core::PartMode candidate :
         {core::PartMode::kRandom, mode}) {
      const core::PartitionResult plan =
          core::plan_partition(adjacency, candidate, popt);
      const core::PartitionCutStats stats = core::partition_cut_stats(
          adjacency, plan.perm, plan.partition, /*devices_per_node=*/0);
      // P sendv stages: each root sends its ghost rows to P-1 peers.
      const double rotation = topology.sendv_seconds(
          static_cast<std::uint64_t>(stats.ghost_rows) * row_bytes,
          gpus * (gpus - 1), gpus);
      ghost_table.add_row(
          {machine.name, core::part_mode_name(plan.mode),
           std::to_string(stats.ghost_rows),
           util::format_double(stats.avg_ghost_density, 3),
           util::format_double(rotation * 1e3, 2),
           util::format_speedup(a.one_d / rotation)});
    }
  }
  std::cout << ghost_table.to_string()
            << "(the §5.2 random permutation densifies every tile; the "
               "locality cut is what makes the compacted rotation beat the "
               "dense 1D bound.)\n";
  return 0;
}
