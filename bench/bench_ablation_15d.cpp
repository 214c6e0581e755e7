// Empirical counterpart of §5.1: run the implemented 1D and 1.5D (c = 2)
// distributed SpMMs on both machines and compare the measured ratio with
// the paper's closed-form prediction (1.5D = 2/3x of 1D on DGX-1, 4/3x on
// DGX-A100, at 2x dense-input memory).
#include <array>
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "comm/communicator.hpp"
#include "core/dist_spmm.hpp"
#include "core/dist_spmm_15d.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

struct Measured {
  double total = 0.0;
  double comm = 0.0;  // max over devices of summed collective time
};

Measured measure(sim::Machine& machine, double t0) {
  machine.synchronize();
  Measured m;
  m.total = machine.sim_time() - t0;
  for (int r = 0; r < machine.num_devices(); ++r) {
    double comm = 0.0;
    for (const auto& rec : machine.trace().device_records(r, t0)) {
      if (rec.kind == sim::TaskKind::kComm) comm += rec.duration();
    }
    m.comm = std::max(m.comm, comm);
  }
  return m;
}

Measured time_1d(const sim::MachineProfile& profile, const sparse::Csr& op,
               std::int64_t d, int gpus) {
  sim::Machine machine(profile, gpus, sim::ExecutionMode::kPhantom);
  comm::Communicator comm(machine);
  const auto partition = core::PartitionVector::uniform(op.rows(), gpus);
  core::DistSpmm spmm(machine, comm, core::make_tile_grid(op, partition));

  std::vector<sim::DeviceBuffer> input, output, bc1, bc2;
  for (int r = 0; r < gpus; ++r) {
    sim::Device& dev = machine.device(r);
    input.emplace_back(dev,
                       static_cast<std::size_t>(partition.size(r) * d), "H");
    output.emplace_back(dev,
                        static_cast<std::size_t>(partition.size(r) * d), "C");
    bc1.emplace_back(
        dev, static_cast<std::size_t>(partition.max_part_size() * d), "BC1");
    bc2.emplace_back(
        dev, static_cast<std::size_t>(partition.max_part_size() * d), "BC2");
  }
  std::vector<std::array<sim::Event, 2>> readers(
      static_cast<std::size_t>(gpus));
  core::DistSpmm::Io io;
  for (auto& b : input) io.input.push_back(&b);
  for (auto& b : output) io.output.push_back(&b);
  for (auto& b : bc1) io.bc1.push_back(&b);
  for (auto& b : bc2) io.bc2.push_back(&b);
  io.d = d;
  io.slot_readers = &readers;
  const double t0 = machine.align_clocks();
  spmm.run(io);
  return measure(machine, t0);
}

Measured time_15d(const sim::MachineProfile& profile, const sparse::Csr& op,
                std::int64_t d, int gpus) {
  sim::Machine machine(profile, gpus, sim::ExecutionMode::kPhantom);
  core::DistSpmm15D spmm(machine, op);
  const auto& partition = spmm.partition();

  std::vector<sim::DeviceBuffer> input, output, bc;
  for (int r = 0; r < gpus; ++r) {
    sim::Device& dev = machine.device(r);
    const int block = spmm.block_of(r);
    input.emplace_back(
        dev, static_cast<std::size_t>(partition.size(block) * d), "H");
    output.emplace_back(
        dev, static_cast<std::size_t>(partition.size(block) * d), "C");
    bc.emplace_back(
        dev, static_cast<std::size_t>(partition.max_part_size() * d), "BC");
  }
  core::DistSpmm15D::Io io;
  for (auto& b : input) io.input.push_back(&b);
  for (auto& b : output) io.output.push_back(&b);
  for (auto& b : bc) io.bc1.push_back(&b);
  io.d = d;
  const double t0 = machine.align_clocks();
  spmm.run(io);
  return measure(machine, t0);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Ablation: measured 1D vs 1.5D distributed SpMM (the §5.1 decision)");
  cli.option("dataset", "Reddit", "dataset replica to partition");
  cli.option("d", "512", "dense width");
  cli.option("gpus", "8", "GPU count (even)");
  cli.option("scale", "0", "replica scale override");
  cli.option("json", "", "write results to this JSON file");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const graph::DatasetSpec spec = graph::dataset_by_name(cli.get("dataset"));
  const double scale = cli.get_double("scale") > 0 ? cli.get_double("scale")
                                                   : bench::default_scale(spec);
  const graph::Dataset ds = bench::load_replica(spec, scale);
  const sparse::Csr op = ds.adjacency.normalize_gcn().transpose();
  const auto d = cli.get_int("d");
  const int gpus = static_cast<int>(cli.get_int("gpus"));

  bench::print_header("§5.1 (measured)",
                      "1D vs 1.5D distributed SpMM on both machines", spec,
                      ds.scale);

  // §5.1 reasons about the *communication* time; the comm-only column is
  // the apples-to-apples comparison with its prediction. Totals include
  // compute, where 1.5D's wider tiles also have worse cache behaviour.
  util::Table table({"Machine", "1D total/comm (ms)", "1.5D total/comm (ms)",
                     "comm speed 1.5D/1D", "paper's prediction (comm)"});
  std::ostringstream json_rows;
  for (const auto& [machine, prediction] :
       {std::pair{sim::dgx_v100(), "2/3x (slower)"},
        std::pair{sim::dgx_a100(), "4/3x (faster)"}}) {
    const sim::MachineProfile profile =
        sim::scale_profile(machine, ds.scale);
    const double x = ds.extrapolation();
    const Measured m1d = time_1d(profile, op, d, gpus);
    const Measured m15d = time_15d(profile, op, d, gpus);
    table.add_row(
        {machine.name,
         util::format_double(m1d.total * x * 1e3, 2) + " / " +
             util::format_double(m1d.comm * x * 1e3, 2),
         util::format_double(m15d.total * x * 1e3, 2) + " / " +
             util::format_double(m15d.comm * x * 1e3, 2),
         util::format_speedup(m1d.comm / m15d.comm), prediction});
    if (!json_rows.str().empty()) json_rows << ",\n";
    json_rows << "    {\"machine\": \"" << machine.name << "\", \"dataset\": \""
              << spec.name << "\", \"gpus\": " << gpus << ", \"d\": " << d
              << ", \"total_1d_seconds\": " << m1d.total * x
              << ", \"comm_1d_seconds\": " << m1d.comm * x
              << ", \"total_15d_seconds\": " << m15d.total * x
              << ", \"comm_15d_seconds\": " << m15d.comm * x << "}";
  }
  std::cout << table.to_string()
            << "\n(1.5D also replicates H twofold; MG-GCN therefore ships "
               "1D only — §5.1.)\n";
  return bench::write_json(cli, "ablation_15d", json_rows.str()) ? 0 : 1;
}
