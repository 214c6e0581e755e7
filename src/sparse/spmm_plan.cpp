// SpmmPlan inspector and plan cache. The hot executor loops live in
// spmm_planned.cpp (compiled at -O3 with the kernel ISA flags, like the
// other optimized-kernel TUs); this TU is cold one-time work.
#include "sparse/spmm_plan.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/error.hpp"

namespace mggcn::sparse {

SpmmPlan::Bin SpmmPlan::bin_of_degree(std::int64_t degree) {
  if (degree <= 0) return kEmpty;
  if (degree == 1) return kDeg1;
  if (degree == 2) return kDeg2;
  if (degree == 3) return kDeg3;
  if (degree < kMediumDegree) return kShort;
  if (degree < kLongDegree) return kMedium;
  return kLong;
}

std::uint64_t SpmmPlan::probe_row_ptr(std::span<const std::int64_t> row_ptr) {
  // Eight strided probes plus the endpoints: enough to reject a different
  // matrix that coincidentally landed on the same allocation with the same
  // shape and nnz, at O(1) cost per matches() call.
  const std::size_t n = row_ptr.size();
  std::uint64_t sum = 0x9e3779b97f4a7c15ULL;
  const std::size_t stride = n > 8 ? n / 8 : 1;
  for (std::size_t i = 0; i < n; i += stride) {
    sum = sum * 31 + static_cast<std::uint64_t>(row_ptr[i]);
  }
  sum = sum * 31 + static_cast<std::uint64_t>(row_ptr[n - 1]);
  return sum;
}

SpmmPlan SpmmPlan::inspect(const Csr& a) {
  SpmmPlan plan;
  plan.rows_ = a.rows();
  plan.cols_ = a.cols();
  plan.nnz_ = a.nnz();
  plan.row_ptr_id_ = a.row_ptr().data();
  plan.col_idx_id_ = a.col_idx().data();
  plan.probe_sum_ = probe_row_ptr(a.row_ptr());

  const auto row_ptr = a.row_ptr();
  std::array<std::int64_t, kNumBins> counts{};
  for (std::int64_t r = 0; r < plan.rows_; ++r) {
    const std::int64_t degree = row_ptr[static_cast<std::size_t>(r) + 1] -
                                row_ptr[static_cast<std::size_t>(r)];
    ++counts[bin_of_degree(degree)];
  }
  plan.bin_offsets_[0] = 0;
  for (int b = 0; b < kNumBins; ++b) {
    plan.bin_offsets_[static_cast<std::size_t>(b) + 1] =
        plan.bin_offsets_[static_cast<std::size_t>(b)] + counts[b];
  }

  // Stable counting scatter: within each bin rows stay ascending. The
  // same pass collects the natural-order sweep list (every non-empty row),
  // which is what the executor actually iterates.
  plan.rows_by_bin_.resize(static_cast<std::size_t>(plan.rows_));
  plan.sweep_rows_.reserve(
      static_cast<std::size_t>(plan.rows_ - counts[kEmpty]));
  std::array<std::int64_t, kNumBins> cursor{};
  for (int b = 0; b < kNumBins; ++b) cursor[b] = plan.bin_offsets_[b];
  for (std::int64_t r = 0; r < plan.rows_; ++r) {
    const std::int64_t degree = row_ptr[static_cast<std::size_t>(r) + 1] -
                                row_ptr[static_cast<std::size_t>(r)];
    const Bin bin = bin_of_degree(degree);
    plan.rows_by_bin_[static_cast<std::size_t>(cursor[bin]++)] =
        static_cast<std::uint32_t>(r);
    if (bin != kEmpty) plan.sweep_rows_.push_back(static_cast<std::uint32_t>(r));
  }

  // Ghost set: mark the touched columns, scan the mark array into the
  // sorted distinct list (a counting sort — ascending for free), then turn
  // the marks into ranks and remap every nonzero. O(nnz + cols).
  const auto col_idx = a.col_idx();
  std::vector<std::uint32_t> rank(static_cast<std::size_t>(plan.cols_), 0);
  for (const std::uint32_t c : col_idx) rank[c] = 1;
  std::int64_t distinct = 0;
  for (std::int64_t c = 0; c < plan.cols_; ++c) {
    distinct += static_cast<std::int64_t>(rank[static_cast<std::size_t>(c)]);
  }
  plan.required_cols_.reserve(static_cast<std::size_t>(distinct));
  for (std::int64_t c = 0; c < plan.cols_; ++c) {
    if (rank[static_cast<std::size_t>(c)] == 0) continue;
    rank[static_cast<std::size_t>(c)] =
        static_cast<std::uint32_t>(plan.required_cols_.size());
    plan.required_cols_.push_back(static_cast<std::uint32_t>(c));
  }
  plan.compact_col_idx_.resize(col_idx.size());
  for (std::size_t e = 0; e < col_idx.size(); ++e) {
    plan.compact_col_idx_[e] = rank[col_idx[e]];
  }
  std::uint64_t fp = 0x9e3779b97f4a7c15ULL +
                     static_cast<std::uint64_t>(plan.required_cols_.size());
  for (const std::uint32_t c : plan.required_cols_) {
    fp ^= c + 0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2);
  }
  plan.ghost_fingerprint_ = fp;
  return plan;
}

std::int64_t count_distinct_cols(const Csr& a) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(a.cols()), 0);
  for (const std::uint32_t c : a.col_idx()) seen[c] = 1;
  std::int64_t distinct = 0;
  for (const std::uint8_t s : seen) distinct += s;
  return distinct;
}

bool SpmmPlan::matches(const Csr& a) const {
  return rows_ == a.rows() && cols_ == a.cols() && nnz_ == a.nnz() &&
         row_ptr_id_ == a.row_ptr().data() &&
         col_idx_id_ == a.col_idx().data() &&
         probe_sum_ == probe_row_ptr(a.row_ptr());
}

std::span<const std::uint32_t> SpmmPlan::bin_rows(int bin) const {
  MGGCN_CHECK_MSG(bin >= 0 && bin < kNumBins, "bin out of range");
  const auto begin = static_cast<std::size_t>(bin_offsets_[
      static_cast<std::size_t>(bin)]);
  const auto end = static_cast<std::size_t>(bin_offsets_[
      static_cast<std::size_t>(bin) + 1]);
  return std::span<const std::uint32_t>(rows_by_bin_).subspan(begin,
                                                              end - begin);
}

namespace {

/// Process-wide plan cache behind the dispatched `planned` policy. Keyed
/// by the column-index allocation (unique per live nonempty CSR); entries
/// are validated with SpmmPlan::matches() before reuse, so a recycled
/// allocation rebuilds instead of executing a stale plan.
struct PlanCache {
  std::mutex mutex;
  std::unordered_map<const void*, std::shared_ptr<const SpmmPlan>> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

/// Bound on retained plans: 2·P² tiles of the largest supported machine
/// plus headroom. On overflow the cache resets wholesale — rebuilding a
/// few plans beats tracking LRU order on the hot path.
constexpr std::size_t kMaxCachedPlans = 8192;

const void* plan_key(const Csr& a) {
  return a.nnz() > 0 ? static_cast<const void*>(a.col_idx().data())
                     : static_cast<const void*>(a.row_ptr().data());
}

std::shared_ptr<const SpmmPlan> cached_plan(const Csr& a) {
  const void* key = plan_key(a);
  PlanCache& cache = plan_cache();
  {
    std::lock_guard lock(cache.mutex);
    const auto it = cache.map.find(key);
    if (it != cache.map.end() && it->second->matches(a)) {
      ++cache.hits;
      return it->second;
    }
  }
  // Build outside the lock; a concurrent builder of the same key just
  // produces an equivalent plan and the last insert wins.
  auto plan = std::make_shared<const SpmmPlan>(SpmmPlan::inspect(a));
  std::lock_guard lock(cache.mutex);
  ++cache.misses;
  if (cache.map.size() >= kMaxCachedPlans) cache.map.clear();
  cache.map[key] = plan;
  return plan;
}

}  // namespace

namespace planned {

void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta) {
  const std::shared_ptr<const SpmmPlan> plan = cached_plan(a);
  plan->execute(a, b, c, alpha, beta);
}

}  // namespace planned

SpmmPlanCacheStats spmm_plan_cache_stats() {
  PlanCache& cache = plan_cache();
  std::lock_guard lock(cache.mutex);
  return {cache.hits, cache.misses, cache.map.size()};
}

void clear_spmm_plan_cache() {
  PlanCache& cache = plan_cache();
  std::lock_guard lock(cache.mutex);
  cache.map.clear();
  cache.hits = 0;
  cache.misses = 0;
}

void forget_spmm_plan(const Csr& a) {
  PlanCache& cache = plan_cache();
  std::lock_guard lock(cache.mutex);
  cache.map.erase(plan_key(a));
}

sim::KernelCost spmm_inspect_cost(std::int64_t rows, std::int64_t nnz,
                                  std::int64_t cols) {
  sim::KernelCost cost;
  // Counting pass + scatter pass over the 8-byte row pointers, one 4-byte
  // write per row into each of the two row lists (bin-sorted + sweep); no
  // feature traffic, negligible flops. The ghost-set construction adds a
  // mark pass + remap scatter over the 4-byte column indices and a scan
  // over the per-column mark array.
  cost.stream_bytes = 24.0 * static_cast<double>(rows) + 8.0 +
                      12.0 * static_cast<double>(nnz) +
                      5.0 * static_cast<double>(cols);
  cost.flops = 2.0 * static_cast<double>(rows);
  cost.launches = 1;
  return cost;
}

}  // namespace mggcn::sparse
