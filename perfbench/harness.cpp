#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double log_sum = 0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double lower_quartile(std::vector<double> xs) {
  return percentile(std::move(xs), 0.25);
}

double paired_ratio(const std::vector<double>& a,
                    const std::vector<double>& b) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    ratios.push_back(a[i] / b[i]);
  }
  return median(ratios);
}

double predicted_ms(const OpCounts& n, const OpCosts& c) {
  return (n.alloc_free * c.alloc_free_ns + n.access * c.access_ns +
          n.cursor * c.cursor_ns + n.copy * c.copy_ns + n.clone * c.clone_ns) /
         1e6;
}

double residual_pct(double measured_ms, double predicted) {
  return measured_ms == 0 ? 0 : 100.0 * (measured_ms - predicted) / measured_ms;
}

double weighted_cost(const std::vector<double>& costs,
                     const std::vector<double>& weights) {
  double sum = 0, weight = 0;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    sum += costs[i] * weights[i];
    weight += weights[i];
  }
  if (weight > 0) return sum / weight;
  double plain = 0;
  for (const double c : costs) plain += c;
  return costs.empty() ? 0 : plain / static_cast<double>(costs.size());
}

std::vector<double> ladder_rates(double native_rps,
                                 const std::vector<double>& load_pcts) {
  std::vector<double> rates;
  for (const double pct : load_pcts) rates.push_back(native_rps * pct / 100.0);
  return rates;
}

double slo_load_pct(const std::vector<Rung>& rungs, double limit_us) {
  double met = 0;
  for (const Rung& r : rungs) {
    if (r.dropped == 0 && r.p99_us <= limit_us) met = std::max(met, r.load_pct);
  }
  return met;
}

polar::RuntimeConfig pinned_config(std::uint64_t seed) {
  polar::RuntimeConfig rc;
  rc.backend = polar::BackendConfig::stored();
  rc.trace_sample_interval = 0;
  rc.on_violation = polar::ErrorAction::kReport;
  rc.seed = seed;
  return rc;
}

std::uint64_t violations(const polar::RuntimeStats& s) {
  return s.uaf_detected + s.traps_triggered + s.metadata_faults +
         s.oom_refusals;
}

polar::RuntimeStats stats_delta(const polar::RuntimeStats& after,
                                const polar::RuntimeStats& before) {
  polar::RuntimeStats d = after;
  d.allocations -= before.allocations;
  d.frees -= before.frees;
  d.memcpys -= before.memcpys;
  d.clones -= before.clones;
  d.member_accesses -= before.member_accesses;
  d.cache_hits -= before.cache_hits;
  d.fastpath_hits -= before.fastpath_hits;
  d.stateless_accesses -= before.stateless_accesses;
  d.hybrid_accesses -= before.hybrid_accesses;
  d.layouts_created -= before.layouts_created;
  d.layouts_deduped -= before.layouts_deduped;
  d.layout_pool_refills -= before.layout_pool_refills;
  d.uaf_detected -= before.uaf_detected;
  d.traps_triggered -= before.traps_triggered;
  d.metadata_faults -= before.metadata_faults;
  d.oom_refusals -= before.oom_refusals;
  d.quarantined_objects -= before.quarantined_objects;
  d.bytes_requested -= before.bytes_requested;
  d.bytes_allocated -= before.bytes_allocated;
  return d;
}

bool same_op_counts(const polar::RuntimeStats& a,
                    const polar::RuntimeStats& b) {
  return a.allocations == b.allocations && a.frees == b.frees &&
         a.memcpys == b.memcpys && a.clones == b.clones &&
         a.member_accesses == b.member_accesses;
}

std::vector<int> pass_order(std::size_t pass, bool trace) {
  if (trace) return pass % 2 == 0 ? std::vector{0, 1, 2} : std::vector{0, 2, 1};
  return pass % 2 == 0 ? std::vector{0, 1} : std::vector{1, 0};
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::untracked(const std::string& name, double value,
                       const std::string& unit) {
  char line[160];
  std::snprintf(line, sizeof line, "%s %.6g %s (not tracked)", name.c_str(),
                value, unit.c_str());
  notes_.push_back(line);
}

void Report::fail(std::uint64_t n, bool incorrect, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  if (incorrect) correct_ = false;
  notes_.push_back("FAIL: " + why + " (" + std::to_string(n) + ")");
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  const char* sep = "";
  for (const auto& [name, v] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), v.first, v.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
