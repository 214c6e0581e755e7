// Fork-join loop for host-side work that splits into independent pieces:
// graph preparation (permutation, tiling, plan inspection), the sampled
// pipeline's per-rank batch preparation and the serving planner's
// per-batch plans.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace mggcn::util {

/// The most threads parallel_for runs at once: hardware_concurrency(), at
/// least 1. Callers that split work into one piece per thread (each with
/// its own scratch) size the split with it.
inline std::int64_t hardware_threads() {
  return static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs body(i) once for every i in [0, n) and returns when all calls have
/// finished. The calling thread and up to hardware_concurrency() - 1 helper
/// threads take indices from a shared counter, so which thread runs an
/// index is unspecified: bodies must write disjoint state and must not
/// depend on the thread they run on. n <= 1 (or a single core) runs inline
/// on the caller, in index order. If a body throws, no further indices are
/// started, and once every thread has joined the exception of the lowest
/// failing index is rethrown.
template <typename Body>
void parallel_for(std::int64_t n, const Body& body) {
  const std::int64_t threads = std::min(n, hardware_threads());
  if (threads <= 1) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::int64_t> failed_at(static_cast<std::size_t>(threads), n);
  const auto run = [&](std::int64_t t) {
    std::int64_t i = 0;
    try {
      while (!failed && (i = next++) < n) {
        body(i);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
      failed_at[static_cast<std::size_t>(t)] = i;
      failed = true;
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(threads) - 1);
    for (std::int64_t t = 1; t < threads; ++t) helpers.emplace_back(run, t);
    run(0);
  }  // joins the helpers
  const auto first = std::min_element(failed_at.begin(), failed_at.end());
  const std::exception_ptr& error =
      errors[static_cast<std::size_t>(first - failed_at.begin())];
  if (error) std::rethrow_exception(error);
}

}  // namespace mggcn::util
