// Shared infrastructure for the per-figure/table benchmark binaries.
//
// Scaling methodology: replicas are generated at spec.n / scale vertices
// with the full-scale average degree and feature dimensions. To keep the
// simulation scale-invariant, the machine profile's extensive quantities
// (HBM capacity, L2 capacity, kernel launch overhead) are divided by the
// same factor — every term of the cost model is then exactly 1/scale of its
// full-scale value, so `sim_seconds * scale` reproduces the full-scale
// estimate and out-of-memory cells appear for exactly the configurations
// that would OOM at full scale. Each bench prints the scale it used.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace mggcn::bench {

/// Default structure-reduction factor per dataset, tuned so every bench
/// runs in seconds on one host core.
double default_scale(const graph::DatasetSpec& spec);

/// Generates (or loads from the on-disk cache) a structure-only replica.
graph::Dataset load_replica(const graph::DatasetSpec& spec, double scale,
                            std::uint64_t seed = 42);

/// Registers the option set shared by per-dataset sweep benches:
/// --datasets, --scale (0 = the per-dataset default_scale), and --json.
void add_dataset_options(util::CliParser& cli,
                         const std::string& default_datasets);

/// Resolves --scale against the spec: explicit positive value wins,
/// otherwise default_scale(spec).
double resolved_scale(const util::CliParser& cli,
                      const graph::DatasetSpec& spec);

/// dataset_by_name + resolved_scale + load_replica in one call — the
/// per-dataset loop body every sweep bench used to spell out.
graph::Dataset load_cli_replica(const util::CliParser& cli,
                                const std::string& name);

/// load_cli_replica for benches that run real-mode numerics (e.g. the
/// workspace-pool parity cells): materializes features/labels/splits.
/// Not disk-cached — the feature matrix dominates the file size and
/// regenerates in milliseconds at bench scales.
graph::Dataset load_cli_featured_replica(const util::CliParser& cli,
                                         const std::string& name);

/// Writes `{"bench": <name>, "rows": [<rows>]}` to the --json path if one
/// was given. Returns false (after printing an error) when the write
/// failed, so mains can `return write_json(...) ? 0 : 1;`.
bool write_json(const util::CliParser& cli, const std::string& bench_name,
                const std::string& rows);

enum class System { kMgGcn, kDgl, kCagnet };
const char* system_name(System system);

/// Scales a replica epoch's stats to full scale by the extrapolation
/// factor `x`: simulated seconds (epoch, busy per kind, pipeline stages),
/// wire/saved/inter-node bytes, cut edges and ghost rows, and the pool
/// peak grow with the graph; peak device memory grows except for its
/// `invariant` replicated model-state part. Counters of decisions, stages,
/// packs, hits and every ratio are replica counts and stay as they are.
core::EpochStats extrapolate(core::EpochStats stats, double x,
                             std::uint64_t invariant);

struct EpochResult {
  bool oom = false;
  /// Load imbalance of the tiling (max/mean tile-row nnz).
  double imbalance = 1.0;
  /// The steady-state epoch, extrapolated to full scale.
  core::EpochStats stats;
};

/// Builds a phantom-mode machine + the requested system and measures one
/// steady-state epoch. `machine` is the UNSCALED profile; it is scaled by
/// dataset.scale internally (with the replicated model state held
/// invariant). OOM configurations return oom = true.
EpochResult run_epoch(System system, const sim::MachineProfile& machine,
                      int gpus, const graph::Dataset& dataset,
                      const core::TrainConfig& config);

/// Pretty seconds for table cells ("0.033" style, like the paper's tables);
/// "OOM" when the configuration did not fit.
std::string cell_seconds(const EpochResult& result);

/// An epoch's counters as JSON object fragments for splicing into a
/// bench's --json rows: the exchange path (`"comm": {...}`), the planner
/// (`"plan_counters": {...}`), the partitioner's cut quality
/// (`"part_stats": {...}`) and the sampled pipeline's cache and stages
/// (`"pipeline": {...}`). Pass extrapolated stats; each fragment prints
/// them as they are.
std::string comm_json_fragment(const core::EpochStats& stats);
std::string plan_json_fragment(const core::EpochStats& stats);
std::string part_json_fragment(const core::EpochStats& stats);
std::string pipeline_json_fragment(const core::EpochStats& stats);

/// Isolated one-shot distributed SpMM for the timeline figures (6 and 8):
/// partitions the dataset's normalized adjacency transpose, allocates the
/// dense blocks, runs one staged product, and returns the per-stage
/// compute/communication trace plus an ASCII Gantt chart.
struct SpmmTimeline {
  /// Simulated seconds of the whole staged SpMM (full-scale extrapolated).
  double total_seconds = 0.0;
  /// [gpu][stage] -> {comm, compute} simulated seconds (extrapolated).
  std::vector<std::vector<std::pair<double, double>>> stage_seconds;
  std::string gantt;
};

/// `profile` is the unscaled machine profile (scaled internally).
/// `part_mode` selects the vertex ordering (core::PartMode); kRandom with
/// permute=false reproduces the natural-order baseline, kRandom with
/// permute=true the §5.2 shuffle, and the structured modes route through
/// core::plan_partition.
SpmmTimeline run_spmm_timeline(const graph::Dataset& dataset,
                               const sim::MachineProfile& profile, int gpus,
                               std::int64_t d, bool permute, bool overlap,
                               std::uint64_t seed = 1,
                               core::PartMode part_mode = core::PartMode::kRandom);

/// Prints the standard bench header (what is reproduced, scale used).
void print_header(const std::string& id, const std::string& what,
                  const graph::DatasetSpec& spec, double scale);
void print_header(const std::string& id, const std::string& what);

}  // namespace mggcn::bench
