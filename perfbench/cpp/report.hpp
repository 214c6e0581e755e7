// Result sink and host-clock span recorder of the repository benchmark.
//
// Report collects named metrics (value + unit), timing summaries, the run
// manifest and output checks, and serializes them as one JSON object — the
// last line perfbench prints. Spans records (name, start, end, parent) on
// the host clock around every call the benchmark makes into a layer; it is
// only switched on in the traced run and written out as Chrome-trace JSON
// when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median plus the highest of p90/p99/p99.9 that still has >= 10 samples
/// beyond it (percentile 0 when no percentile qualifies).
struct Summary {
  double median = 0.0;
  std::int64_t count = 0;
  double percentile = 0.0;
  double percentile_value = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

/// Value at quantile q in [0, 1] (nearest-rank on a sorted copy).
[[nodiscard]] double quantile(std::vector<double> samples, double q);

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);
  /// Sets a manifest entry (a repeated key keeps its first position).
  void manifest(const std::string& key, const std::string& value);
  /// Sets each metric of `parts` to its mean over the parts.
  void merge_mean(const std::vector<Report>& parts);
  /// Records one output check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Counts operations (epochs, rounds, requests) attempted / failed.
  void operations(std::int64_t attempted, std::int64_t failed);

  [[nodiscard]] bool all_checks_passed() const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  struct Timing {
    Summary summary;
    std::vector<double> samples;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  std::map<std::string, Metric> metrics_;
  std::map<std::string, Timing> timings_;
  std::vector<std::pair<std::string, std::string>> manifest_;
  std::vector<Check> checks_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  /// Closes its span on destruction. Inert when the recorder is disabled.
  class Scope {
   public:
    Scope(Spans* spans, int id) : spans_(spans), id_(id) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_;
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span whose parent is the innermost open span.
  [[nodiscard]] Scope open(std::string name);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Chrome-trace ("catapult") JSON; returns false when the write failed.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = -1.0;
  };

  [[nodiscard]] double now() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
