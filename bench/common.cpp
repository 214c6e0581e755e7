#include "bench/common.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <array>

#include "baselines/cagnet.hpp"
#include "baselines/dgl_like.hpp"
#include "comm/communicator.hpp"
#include "core/dist_spmm.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "core/trainer.hpp"
#include "sparse/io.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace mggcn::bench {

double default_scale(const graph::DatasetSpec& spec) {
  if (spec.name == "Cora") return 1.0;
  if (spec.name == "Arxiv") return 4.0;
  if (spec.name == "Products") return 48.0;
  if (spec.name == "Proteins") return 256.0;
  if (spec.name == "Reddit") return 24.0;
  if (spec.name == "Papers") return 2048.0;
  return std::max(1.0, static_cast<double>(spec.n) / 50'000.0);
}

graph::Dataset load_replica(const graph::DatasetSpec& spec, double scale,
                            std::uint64_t seed) {
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::temp_directory_path() / "mggcn_bench_cache";
  std::error_code ec;
  fs::create_directories(cache_dir, ec);

  const fs::path path =
      cache_dir / (spec.name + "_s" + std::to_string(static_cast<int>(scale)) +
                   "_r" + std::to_string(seed) + ".csr");

  graph::Dataset ds;
  ds.spec = spec;
  if (!ec && fs::exists(path)) {
    ds.adjacency = sparse::read_csr(path.string());
    ds.scale = static_cast<double>(spec.n) /
               static_cast<double>(ds.adjacency.rows());
    return ds;
  }

  graph::DatasetOptions options;
  options.scale = scale;
  options.seed = seed;
  options.with_features = false;
  ds = graph::make_dataset(spec, options);
  if (!ec) sparse::write_csr(ds.adjacency, path.string());
  return ds;
}

void add_dataset_options(util::CliParser& cli,
                         const std::string& default_datasets) {
  cli.option("datasets", default_datasets, "datasets");
  cli.option("scale", "0", "replica scale override (0 = per-dataset default)");
  cli.option("json", "", "write results to this JSON file");
}

double resolved_scale(const util::CliParser& cli,
                      const graph::DatasetSpec& spec) {
  const double requested = cli.get_double("scale");
  return requested > 0 ? requested : default_scale(spec);
}

graph::Dataset load_cli_replica(const util::CliParser& cli,
                                const std::string& name) {
  const graph::DatasetSpec spec = graph::dataset_by_name(name);
  return load_replica(spec, resolved_scale(cli, spec));
}

graph::Dataset load_cli_featured_replica(const util::CliParser& cli,
                                         const std::string& name) {
  const graph::DatasetSpec spec = graph::dataset_by_name(name);
  graph::DatasetOptions options;
  options.scale = resolved_scale(cli, spec);
  options.seed = 42;
  options.with_features = true;
  return graph::make_dataset(spec, options);
}

bool write_json(const util::CliParser& cli, const std::string& bench_name,
                const std::string& rows) {
  const std::string path = cli.get("json");
  if (path.empty()) return true;
  std::ofstream os(path);
  os << "{\n  \"bench\": \"" << bench_name << "\",\n  \"rows\": [\n"
     << rows << "\n  ]\n}\n";
  if (!os.good()) {
    std::cerr << "error: could not write " << path << '\n';
    return false;
  }
  std::cout << "wrote " << path << '\n';
  return true;
}

const char* system_name(System system) {
  switch (system) {
    case System::kMgGcn: return "MG-GCN";
    case System::kDgl: return "DGL";
    case System::kCagnet: return "CAGNET";
  }
  return "?";
}

core::EpochStats extrapolate(core::EpochStats stats, double x,
                             std::uint64_t invariant) {
  const auto scaled = [x](auto count) {
    return static_cast<decltype(count)>(static_cast<double>(count) * x);
  };
  stats.sim_seconds *= x;
  for (auto& [kind, busy] : stats.busy_by_kind) busy *= x;
  const std::uint64_t invariant_part =
      std::min<std::uint64_t>(stats.peak_memory_bytes, invariant);
  stats.peak_memory_bytes =
      invariant_part + scaled(stats.peak_memory_bytes - invariant_part);
  stats.comm_wire_bytes = scaled(stats.comm_wire_bytes);
  stats.comm_bytes_saved = scaled(stats.comm_bytes_saved);
  stats.comm_wire_bytes_inter = scaled(stats.comm_wire_bytes_inter);
  stats.part_cut_edges = scaled(stats.part_cut_edges);
  stats.part_inter_node_cut_edges = scaled(stats.part_inter_node_cut_edges);
  stats.part_ghost_rows = scaled(stats.part_ghost_rows);
  stats.part_inter_node_ghost_rows = scaled(stats.part_inter_node_ghost_rows);
  stats.pool_peak_bytes = scaled(stats.pool_peak_bytes);
  stats.pipe_sample_seconds *= x;
  stats.pipe_extract_seconds *= x;
  stats.pipe_train_seconds *= x;
  return stats;
}

EpochResult run_epoch(System system, const sim::MachineProfile& machine_prof,
                      int gpus, const graph::Dataset& dataset,
                      const core::TrainConfig& config) {
  EpochResult result;
  try {
    core::TrainConfig effective = config;
    switch (system) {
      case System::kMgGcn: break;
      case System::kDgl: effective = baselines::dgl_like_config(effective); break;
      case System::kCagnet: effective = baselines::cagnet_config(effective); break;
    }

    const std::uint64_t invariant =
        core::replicated_state_bytes(core::layer_dims(dataset, effective));
    sim::Machine machine(
        sim::scale_profile(machine_prof, dataset.scale, invariant), gpus,
        sim::ExecutionMode::kPhantom);
    core::MgGcnTrainer trainer(machine, dataset, effective);

    // Two epochs; the second is steady state (Adam state touched, clocks
    // aligned). Phantom mode is deterministic, so no further repeats.
    trainer.train_epoch();
    result.stats =
        extrapolate(trainer.train_epoch(), dataset.extrapolation(), invariant);
    result.imbalance = trainer.tile_imbalance();
  } catch (const OutOfMemoryError&) {
    result.oom = true;
  }
  return result;
}

SpmmTimeline run_spmm_timeline(const graph::Dataset& dataset,
                               const sim::MachineProfile& profile, int gpus,
                               std::int64_t d, bool permute, bool overlap,
                               std::uint64_t seed, core::PartMode part_mode) {
  sim::Machine machine(sim::scale_profile(profile, dataset.scale), gpus,
                       sim::ExecutionMode::kPhantom);

  const bool overlapping = overlap && gpus > 1;
  comm::CommOptions comm_options;
  comm_options.duration_scale = overlapping ? 1.10 : 1.0;
  comm::Communicator comm(machine, comm_options);

  // Preprocessing identical to the trainer's (Â§5.2 + eq. (2)), routed
  // through the partitioner registry so the structured orderings are
  // available to the timeline figures too.
  core::PartitionerOptions popt;
  popt.parts = gpus;
  popt.permute_random = permute;
  popt.seed = seed;
  popt.devices_per_node = profile.interconnect.devices_per_node;
  core::PartitionResult planned =
      core::plan_partition(dataset.adjacency, part_mode, popt);
  const bool identity_perm =
      std::is_sorted(planned.perm.begin(), planned.perm.end());
  const sparse::Csr adj =
      identity_perm ? dataset.adjacency
                    : dataset.adjacency.permute_symmetric(planned.perm);
  const sparse::Csr op = adj.normalize_gcn().transpose();
  const core::PartitionVector partition = std::move(planned.partition);
  core::DistSpmm spmm(machine, comm, core::make_tile_grid(op, partition));

  const auto np = static_cast<std::size_t>(gpus);
  std::vector<sim::DeviceBuffer> input(np), output(np), bc1(np), bc2(np);
  for (int r = 0; r < gpus; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    sim::Device& dev = machine.device(r);
    const auto block = static_cast<std::size_t>(partition.size(r) * d);
    const auto bc = static_cast<std::size_t>(partition.max_part_size() * d);
    input[rr] = sim::DeviceBuffer(dev, block, "H");
    output[rr] = sim::DeviceBuffer(dev, block, "AHW");
    bc1[rr] = sim::DeviceBuffer(dev, bc, "BC1");
    if (overlapping) bc2[rr] = sim::DeviceBuffer(dev, bc, "BC2");
  }

  std::vector<std::array<sim::Event, 2>> slot_readers(np);
  core::DistSpmm::Io io;
  for (auto& b : input) io.input.push_back(&b);
  for (auto& b : output) io.output.push_back(&b);
  for (auto& b : bc1) io.bc1.push_back(&b);
  for (auto& b : bc2) io.bc2.push_back(&b);
  io.d = d;
  io.overlap = overlapping;
  io.compute_bandwidth_scale =
      overlapping
          ? std::max(0.5, 1.0 - profile.interconnect.collective_bandwidth() /
                                    profile.device.memory_bandwidth)
          : 1.0;
  io.slot_readers = &slot_readers;

  const double mark = machine.align_clocks();
  spmm.run(io);
  machine.synchronize();

  SpmmTimeline result;
  const double x = dataset.extrapolation();
  result.total_seconds = (machine.sim_time() - mark) * x;
  result.stage_seconds.assign(
      np, std::vector<std::pair<double, double>>(np, {0.0, 0.0}));
  for (const auto& rec : machine.trace().records()) {
    if (rec.t_begin < mark || rec.stage < 0) continue;
    auto& cell = result.stage_seconds[static_cast<std::size_t>(rec.device)]
                                     [static_cast<std::size_t>(rec.stage)];
    if (rec.kind == sim::TaskKind::kComm) {
      cell.first += rec.duration() * x;
    } else {
      cell.second += rec.duration() * x;
    }
  }
  result.gantt = machine.trace().render_timeline(mark, machine.sim_time());
  return result;
}

std::string cell_seconds(const EpochResult& result) {
  if (result.oom) return "OOM";
  const double seconds = result.stats.sim_seconds;
  return util::format_double(seconds, seconds < 0.1 ? 4 : 3);
}

std::string comm_json_fragment(const core::EpochStats& stats) {
  std::ostringstream os;
  os << "\"comm\": {\"wire_bytes\": " << stats.comm_wire_bytes
     << ", \"bytes_saved\": " << stats.comm_bytes_saved
     << ", \"packs\": " << stats.comm_packs
     << ", \"compact_stages\": " << stats.comm_compact_stages
     << ", \"dense_stages\": " << stats.comm_dense_stages << "}";
  return os.str();
}

std::string plan_json_fragment(const core::EpochStats& stats) {
  std::ostringstream os;
  os << "\"plan_counters\": {\"products_1d\": " << stats.plan_products_1d
     << ", \"products_15d\": " << stats.plan_products_15d
     << ", \"products_replicated\": " << stats.plan_products_replicated
     << ", \"decisions\": " << stats.plan_decisions
     << ", \"fallbacks\": " << stats.plan_fallbacks << "}";
  return os.str();
}

std::string part_json_fragment(const core::EpochStats& stats) {
  std::ostringstream os;
  os << "\"part_stats\": {\"cut_edges\": " << stats.part_cut_edges
     << ", \"inter_node_cut_edges\": " << stats.part_inter_node_cut_edges
     << ", \"ghost_rows\": " << stats.part_ghost_rows
     << ", \"inter_node_ghost_rows\": " << stats.part_inter_node_ghost_rows
     << ", \"avg_ghost_density\": " << stats.part_avg_ghost_density
     << ", \"imbalance\": " << stats.part_imbalance << "}";
  return os.str();
}

std::string pipeline_json_fragment(const core::EpochStats& stats) {
  std::ostringstream os;
  os << "\"pipeline\": {\"rounds\": " << stats.pipe_rounds
     << ", \"cache_hits\": " << stats.cache_hits
     << ", \"cache_misses\": " << stats.cache_misses
     << ", \"cache_evictions\": " << stats.cache_evictions
     << ", \"cache_hit_rate\": " << stats.cache_hit_rate
     << ", \"sample_seconds\": " << stats.pipe_sample_seconds
     << ", \"extract_seconds\": " << stats.pipe_extract_seconds
     << ", \"train_seconds\": " << stats.pipe_train_seconds
     << ", \"occupancy\": " << stats.pipe_occupancy << "}";
  return os.str();
}

void print_header(const std::string& id, const std::string& what,
                  const graph::DatasetSpec& spec, double scale) {
  std::cout << "=== " << id << ": " << what << " ===\n"
            << "dataset " << spec.name << " (full scale n=" << spec.n
            << ", m=" << spec.m << "), replica scale 1/" << scale
            << "; timings extrapolated to full scale\n\n";
}

void print_header(const std::string& id, const std::string& what) {
  std::cout << "=== " << id << ": " << what << " ===\n\n";
}

}  // namespace mggcn::bench
