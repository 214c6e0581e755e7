#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/trace.hpp"

namespace perfbench {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + mggcn::sim::json_escape(s) + "\"";
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  return samples[rank];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  for (const double p : {99.9, 99.0, 90.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
      s.percentile = p;
      s.percentile_value = quantile(samples, p / 100.0);
      break;
    }
  }
  return s;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::timing(const std::string& name,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  timings_[name] = {summarize(samples), samples, unit};
}

void Report::manifest(const std::string& key, const std::string& value) {
  for (auto& [k, v] : manifest_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  manifest_.emplace_back(key, value);
}

void Report::merge_mean(const std::vector<Report>& parts) {
  if (parts.empty()) return;
  for (const auto& [name, m] : parts.front().metrics_) {
    double sum = 0.0;
    for (const Report& part : parts) sum += part.metrics_.at(name).value;
    metric(name, sum / static_cast<double>(parts.size()), m.unit);
  }
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::operations(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::all_checks_passed() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Report::to_json() const {
  const std::int64_t failed_checks = std::count_if(
      checks_.begin(), checks_.end(), [](const Check& c) { return !c.ok; });
  std::ostringstream os;
  os << "{\"correct\": " << (all_checks_passed() ? "true" : "false")
     << ", \"attempted\": " << attempted_ + static_cast<std::int64_t>(
                                                checks_.size())
     << ", \"failed\": " << failed_ + failed_checks << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
       << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  os << "}, \"timings\": {";
  first = true;
  for (const auto& [name, t] : timings_) {
    os << (first ? "" : ", ") << quoted(name) << ": {\"median\": "
       << number(t.summary.median) << ", \"count\": " << t.summary.count
       << ", \"percentile\": " << number(t.summary.percentile)
       << ", \"percentile_value\": " << number(t.summary.percentile_value)
       << ", \"unit\": " << quoted(t.unit) << ", \"samples\": [";
    for (std::size_t i = 0; i < t.samples.size(); ++i) {
      os << (i == 0 ? "" : ", ") << number(t.samples[i]);
    }
    os << "]}";
    first = false;
  }
  os << "}, \"manifest\": {";
  first = true;
  for (const auto& [key, value] : manifest_) {
    os << (first ? "" : ", ") << quoted(key) << ": " << quoted(value);
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const Check& c : checks_) {
    os << (first ? "" : ", ") << "{\"name\": " << quoted(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << quoted(c.detail) << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr || id_ < 0) return;
  spans_->spans_[static_cast<std::size_t>(id_)].end = spans_->now();
  spans_->open_.pop_back();
}

Spans::Scope Spans::open(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::move(name), open_.empty() ? -1 : open_.back(), now(), -1.0});
  open_.push_back(id);
  return Scope(this, id);
}

double Spans::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",\n") << "  {\"name\": " << quoted(s.name)
       << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0"
       << ", \"ts\": " << number(s.start * 1e6)
       << ", \"dur\": " << number((std::max(s.end, s.start) - s.start) * 1e6)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]\n";
  return os.good();
}

}  // namespace perfbench
