// Shared pieces of the POLaR benchmark: the clock, order statistics, the
// per-layer cost ledger, the relative-load ladder, and the report that
// ends every run as one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/runtime.h"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile: the smallest sample with at least a fraction q
/// of all samples at or below it (rank ceil(q * n), clamped to [1, n]).
/// Empty input yields 0.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
/// Middle value; the mean of the two middle values for an even count.
[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double geomean(const std::vector<double>& xs);
/// Lower quartile of a run's samples. The benchmark runs on machines shared
/// with other tenants, where stalls of a few milliseconds and slow phases
/// of seconds come and go; absolute times are taken from a run's quieter
/// quarter, which repeats across runs far better than its median does.
[[nodiscard]] double lower_quartile(std::vector<double> xs);
/// Factor that puts a run's hardened times at the reference machine's
/// speed: reference_native_ms over the run's own (quiet-quartile) native
/// time for the same work. The shared machine's speed for this memory-bound
/// code drifts by tens of percent over minutes with other tenants' load;
/// the native build, run back to back with the hardened one, drifts with
/// it, so scaled times repeat across runs while keeping their units.
[[nodiscard]] inline double at_reference_speed(double reference_native_ms,
                                               double native_ms) {
  return reference_native_ms / native_ms;
}
/// Median of the ratios a[i] / b[i]. Each pair ran back to back, so both
/// sides saw the machine in the same state.
[[nodiscard]] double paired_ratio(const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Operations of one hardened pass, by kind (counts per pass).
struct OpCounts {
  double alloc_free = 0;  ///< allocations, each paired with its free
  double access = 0;      ///< scalar member accesses
  double cursor = 0;      ///< FieldCursor snapshots
  double copy = 0;        ///< obj_copy
  double clone = 0;       ///< obj_clone
};

/// Extra nanoseconds per operation over the DirectSpace build.
struct OpCosts {
  double alloc_free_ns = 0;
  double access_ns = 0;
  double cursor_ns = 0;
  double copy_ns = 0;
  double clone_ns = 0;
};

/// The cost model the ledger checks: sum of count x extra cost, in ms.
[[nodiscard]] double predicted_ms(const OpCounts& n, const OpCosts& c);
/// (measured - predicted) / measured, in percent of the measured overhead.
[[nodiscard]] double residual_pct(double measured_ms, double predicted_ms);
/// Average of per-part costs weighted by how often each part performs the
/// operation; the plain mean when no part performs it at all.
[[nodiscard]] double weighted_cost(const std::vector<double>& costs,
                                   const std::vector<double>& weights);

/// One rung of the relative-load ladder: offered load as a percentage of
/// the native build's closed-loop capacity, and what the hardened build
/// delivered at it.
struct Rung {
  double load_pct = 0;
  double p99_us = 0;
  std::uint64_t dropped = 0;
};
/// Offered rates (requests/s) for each ladder percentage of `native_rps`.
[[nodiscard]] std::vector<double> ladder_rates(
    double native_rps, const std::vector<double>& load_pcts);
/// The highest load whose rung meets the limit: p99 within `limit_us` and
/// nothing dropped. 0 when no rung meets it.
[[nodiscard]] double slo_load_pct(const std::vector<Rung>& rungs,
                                  double limit_us);

/// Every hardened runtime the benchmark builds: the stored backend pinned
/// explicitly (so POLAR_BACKEND cannot change what is measured), tracing
/// off, violations reported instead of aborting so they are counted.
[[nodiscard]] polar::RuntimeConfig pinned_config(std::uint64_t seed);
/// Detections that make a run incorrect (UAF, trap, metadata, OOM).
[[nodiscard]] std::uint64_t violations(const polar::RuntimeStats& s);
/// after - before, field by field.
[[nodiscard]] polar::RuntimeStats stats_delta(
    const polar::RuntimeStats& after, const polar::RuntimeStats& before);
/// The runtime op counts a traced pass must reproduce exactly.
[[nodiscard]] bool same_op_counts(const polar::RuntimeStats& a,
                                  const polar::RuntimeStats& b);

/// The builds of one pass in run order: 0 native, 1 hardened, 2 traced.
/// Untraced passes alternate which build goes first; traced passes run
/// native first and alternate the other two, so both hardened variants
/// follow each neighbour equally often.
[[nodiscard]] std::vector<int> pass_order(std::size_t pass, bool trace);

/// splitmix64 step: derives independent per-thread / per-trial seeds.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// Accumulates one run's outcome and prints it.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the result.
  void note(const std::string& line);
  /// A figure printed as a note only: measured, but too much at the mercy
  /// of the shared machine's stalls to serve as a tracked metric.
  void untracked(const std::string& name, double value,
                 const std::string& unit);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// A failed operation; `incorrect` also marks the output wrong.
  void fail(std::uint64_t n, bool incorrect, const std::string& why);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Notes, then the result as the last line of standard output.
  void print() const;

 private:
  std::vector<std::string> notes_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Peak resident memory of this process, MiB.
[[nodiscard]] double peak_rss_mib();

void run_spec(const Options& o, Report& r);
void run_kv_open(const Options& o, Report& r);
void run_kv_threads(const Options& o, Report& r);

}  // namespace perfbench
