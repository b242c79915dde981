// spec_access / spec_churn: the Fig. 6 SPEC-mini programs, hardened
// (PolarSpace over a pinned stored-backend Runtime) against native
// (DirectSpace), interleaved pass by pass in one process.
#include <cstdio>
#include <memory>
#include <string>

#include "alloc/scalable_heap.h"
#include "core/space.h"
#include "harness.h"
#include "probe.h"
#include "workloads/spec_suite.h"

namespace perfbench {

namespace {

using polar::DirectSpace;
using polar::PolarSpace;
using polar::Runtime;
using polar::RuntimeStats;
using polar::TypeId;
using polar::spec::SpecEntry;

constexpr std::uint32_t kScale = 2;
constexpr int kSetups = 15;
constexpr int kMinPasses = 6;  ///< the first pass is warm-up, never timed
constexpr double kProbeShare = 0.15;
/// Native pass time of each workload on the reference machine (a quiet
/// 4-vCPU VM). Hardened times are reported at that machine's speed; see
/// at_reference_speed in harness.h.
constexpr double kAccessReferenceMs = 10;
constexpr double kChurnReferenceMs = 6;

using Factory = SpecEntry (*)(polar::TypeRegistry&);

/// Access-dominated minis: ~1.75M member accesses against ~75k allocations
/// per pass.
const std::vector<Factory> kAccess = {
    polar::spec::make_mcf, polar::spec::make_hmmer, polar::spec::make_gobmk,
    polar::spec::make_astar, polar::spec::make_omnetpp};
/// Allocation- and copy-dominated minis (the only object memcpy/clone
/// traffic). 401.bzip2 and 462.libquantum make almost no runtime calls.
const std::vector<Factory> kChurn = {
    polar::spec::make_perlbench, polar::spec::make_gcc,
    polar::spec::make_sjeng, polar::spec::make_h264ref,
    polar::spec::make_xalancbmk};

struct SpecSetup {
  polar::TypeRegistry reg;
  std::vector<SpecEntry> programs;
  std::vector<std::vector<TypeId>> types;  ///< each program's own types
  std::unique_ptr<Runtime> rt;
};

std::unique_ptr<SpecSetup> set_up(const std::vector<Factory>& factories,
                                  std::uint64_t seed) {
  auto s = std::make_unique<SpecSetup>();
  for (const Factory make : factories) {
    const std::size_t first = s->reg.size();
    s->programs.push_back(make(s->reg));
    std::vector<TypeId> own;
    for (std::size_t t = first; t < s->reg.size(); ++t) {
      own.push_back(TypeId{static_cast<std::uint32_t>(t)});
    }
    s->types.push_back(std::move(own));
  }
  s->rt = std::make_unique<Runtime>(s->reg, pinned_config(seed));
  return s;
}

OpCounts counts_of(const RuntimeStats& d) {
  OpCounts n;
  n.alloc_free = static_cast<double>(d.allocations);
  n.access = static_cast<double>(d.member_accesses);
  n.copy = static_cast<double>(d.memcpys - d.clones);
  n.clone = static_cast<double>(d.clones);
  return n;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void run_spec(const Options& o, Report& r) {
  const auto& factories = o.workload == "spec_access" ? kAccess : kChurn;

  std::vector<double> setup_s;
  std::unique_ptr<SpecSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const std::uint64_t t0 = now_ns();
    s = set_up(factories, o.seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  Runtime& rt = *s->rt;
  DirectSpace direct(s->reg);
  PolarSpace polar_space(rt);
  const std::size_t n = s->programs.size();

  // Interleaved passes: every pass runs each program natively and hardened
  // (plus a traced hardened run when tracing), rotating program order and
  // which build goes first.
  std::vector<std::vector<double>> native_ms(n), polar_ms(n), traced_ms(n);
  std::vector<RuntimeStats> pass_ops(n);
  const RuntimeStats rt_before = rt.stats();
  const polar::ScalableHeapStats heap_before =
      polar::ScalableHeap::process_heap().stats();
  const double pass_budget = o.seconds * (o.trace ? 1 - kProbeShare : 1.0);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(pass_budget * 1e9);
  std::uint64_t mismatches = 0;
  for (int pass = 0; pass < kMinPasses || now_ns() < deadline; ++pass) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(pass)) % n;
      const SpecEntry& p = s->programs[i];
      std::uint64_t native_sum = 0, polar_sum = 0, traced_sum = 0;
      double t_native = 0, t_polar = 0, t_traced = 0;
      const auto run_native = [&] {
        const std::uint64_t t0 = now_ns();
        native_sum = p.run_direct(direct, kScale, o.seed);
        t_native = static_cast<double>(now_ns() - t0) / 1e6;
      };
      const auto run_polar = [&] {
        const std::uint64_t t0 = now_ns();
        polar_sum = p.run_polar(polar_space, kScale, o.seed);
        t_polar = static_cast<double>(now_ns() - t0) / 1e6;
      };
      // The traced run differs only in reading Runtime::stats() around the
      // program: the spec minis are type-erased to PolarSpace&, so their
      // per-layer counts come from stats deltas, costs from the probe.
      const auto run_traced = [&] {
        const RuntimeStats before = rt.stats();
        const std::uint64_t t0 = now_ns();
        traced_sum = p.run_polar(polar_space, kScale, o.seed);
        t_traced = static_cast<double>(now_ns() - t0) / 1e6;
        pass_ops[i] = stats_delta(rt.stats(), before);
      };
      const std::size_t turn = k + static_cast<std::size_t>(pass);
      for (const int b : pass_order(turn, o.trace)) {
        switch (b) {
          case 0: run_native(); break;
          case 1: run_polar(); break;
          default: run_traced(); break;
        }
      }

      r.attempt(o.trace ? 2 : 1);
      mismatches += polar_sum != native_sum;
      if (o.trace) mismatches += traced_sum != native_sum;
      if (pass == 0) continue;
      native_ms[i].push_back(t_native);
      polar_ms[i].push_back(t_polar);
      if (o.trace) traced_ms[i].push_back(t_traced);
    }
  }
  const RuntimeStats total = stats_delta(rt.stats(), rt_before);
  const polar::ScalableHeapStats heap_after =
      polar::ScalableHeap::process_heap().stats();
  r.fail(mismatches, true, "hardened checksum differs from native");
  r.fail(violations(total), true, "runtime detections during a clean run");

  // Per program: the slowdown from back-to-back pairs and times from the
  // run's quieter quarter. Latency of one hardened program run: p50 is the
  // mean over programs of the median run time in passes whose native run
  // shows a machine no busier than usual; p99 scales it by the 99th
  // percentile of each pair's slowdown relative to its program's median
  // slowdown, pooled over programs so the percentile has enough samples
  // beyond it (a stall that hits both runs of a pair cancels out).
  std::vector<double> ratios, native_q(n), polar_q(n), excursion;
  double native_total = 0, polar_total = 0, p50_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    native_q[i] = lower_quartile(native_ms[i]);
    polar_q[i] = lower_quartile(polar_ms[i]);
    ratios.push_back(paired_ratio(polar_ms[i], native_ms[i]));
    native_total += native_q[i];
    polar_total += polar_q[i];
    const double usual = median(native_ms[i]);
    std::vector<double> quiet_us;
    for (std::size_t j = 0; j < polar_ms[i].size(); ++j) {
      if (native_ms[i][j] <= usual) quiet_us.push_back(polar_ms[i][j] * 1e3);
      excursion.push_back(polar_ms[i][j] / native_ms[i][j] / ratios[i]);
    }
    p50_sum += percentile(quiet_us, 0.50);
  }
  const double p50_us = p50_sum / static_cast<double>(n);
  r.note("passes timed: " + std::to_string(native_ms[0].size()));

  if (!o.trace) {
    r.metric("setup_s", median(setup_s), "s");
    r.metric("overhead_pct", (geomean(ratios) - 1) * 100, "%");
    const double scale = at_reference_speed(
        o.workload == "spec_access" ? kAccessReferenceMs : kChurnReferenceMs,
        native_total);
    r.metric("polar_ms", polar_total * scale, "ms");
    r.metric("p50_us", p50_us * scale, "us");
    r.untracked("p99_us", p50_us * percentile(excursion, 0.99) * scale, "us");
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return;
  }

  // --- traced run: per-layer metrics and the cost ledger -----------------
  const double probe_budget = o.seconds * kProbeShare / static_cast<double>(n);
  std::vector<TypeId> all_types;
  std::vector<double> access_ns, alloc_ns, copy_ns, clone_ns, cursor_ns;
  std::vector<double> access_w, alloc_w, copy_w, clone_w;
  OpCounts pass_counts;
  double predicted_total = 0, measured_total = 0;
  std::vector<double> traced_ratio;
  char line[256];
  for (std::size_t i = 0; i < n; ++i) {
    const OpCosts c =
        probe_costs(s->reg, s->types[i], false, o.seed, probe_budget);
    const OpCounts k = counts_of(pass_ops[i]);
    const double measured = polar_q[i] - native_q[i];
    const double predicted = predicted_ms(k, c);
    predicted_total += predicted;
    measured_total += measured;
    std::snprintf(line, sizeof line,
                  "ledger %-15s native %8.3f ms  polar %8.3f ms  overhead "
                  "%8.3f ms  predicted %8.3f ms  ledger.residual_pct %+7.1f",
                  s->programs[i].name.c_str(), native_q[i], polar_q[i],
                  measured, predicted, residual_pct(measured, predicted));
    r.note(line);
    access_ns.push_back(c.access_ns);
    cursor_ns.push_back(c.cursor_ns);
    alloc_ns.push_back(c.alloc_free_ns);
    copy_ns.push_back(c.copy_ns);
    clone_ns.push_back(c.clone_ns);
    access_w.push_back(k.access);
    alloc_w.push_back(k.alloc_free);
    copy_w.push_back(k.copy);
    clone_w.push_back(k.clone);
    pass_counts.alloc_free += k.alloc_free;
    pass_counts.access += k.access;
    pass_counts.copy += k.copy;
    pass_counts.clone += k.clone;
    traced_ratio.push_back(paired_ratio(traced_ms[i], polar_ms[i]));
    all_types.insert(all_types.end(), s->types[i].begin(), s->types[i].end());
  }

  RuntimeStats per_pass;
  for (const RuntimeStats& d : pass_ops) per_pass.add(d);
  r.metric("core.alloc.count", pass_counts.alloc_free, "count");
  r.metric("core.free.count", static_cast<double>(per_pass.frees), "count");
  r.metric("core.access.count", pass_counts.access, "count");
  r.metric("core.copy.count", pass_counts.copy + pass_counts.clone, "count");
  r.metric("core.fastpath_ratio",
           ratio(total.fastpath_hits, total.member_accesses), "ratio");
  r.metric("core.cache_hit_ratio",
           ratio(total.cache_hits, total.member_accesses), "ratio");
  r.metric("core.layout_dedup_ratio",
           ratio(total.layouts_deduped,
                 total.layouts_deduped + total.layouts_created),
           "ratio");
  r.metric("core.inflation", total.inflation(), "ratio");
  r.metric("core.violations", static_cast<double>(violations(total)), "count");
  r.metric("core.access.extra_ns", weighted_cost(access_ns, access_w), "ns");
  r.metric("core.cursor.extra_ns", weighted_cost(cursor_ns, access_w), "ns");
  r.metric("core.alloc_free.extra_ns", weighted_cost(alloc_ns, alloc_w), "ns");
  r.metric("core.copy.extra_ns", weighted_cost(copy_ns, copy_w), "ns");
  r.metric("core.clone.extra_ns", weighted_cost(clone_ns, clone_w), "ns");

  const auto sizes = layout_sizes(s->reg, all_types, o.seed);
  r.metric("alloc.pair_ns", probe_heap_pair_ns(sizes, 0.05), "ns");
  r.metric("alloc.reuse_ratio",
           ratio(heap_after.reuse_hits - heap_before.reuse_hits,
                 heap_after.allocations - heap_before.allocations),
           "ratio");
  r.metric("alloc.slab_carves",
           static_cast<double>(heap_after.slab_carves -
                               heap_before.slab_carves),
           "count");
  r.metric("alloc.live_chunks", static_cast<double>(heap_after.live_chunks),
           "count");
  r.metric("alloc.remote_frees",
           static_cast<double>(heap_after.remote_frees -
                               heap_before.remote_frees),
           "count");

  // The unit of service of a spec workload is one program run.
  std::vector<double> traced_us;
  for (const auto& v : traced_ms) {
    for (const double ms : v) traced_us.push_back(ms * 1e3);
  }
  r.metric("server.serve_us.p50", percentile(traced_us, 0.50), "us");
  r.metric("server.serve_us.p99", percentile(traced_us, 0.99), "us");
  r.metric("server.space_share", (polar_total - native_total) / polar_total,
           "ratio");
  r.metric("server.cache_hit_ratio", 0, "ratio");
  r.metric("server.evictions_per_req", 0, "ratio");
  r.metric("loadgen.late_p99_share", 0, "ratio");
  r.metric("loadgen.dropped", 0, "count");
  r.metric("workloads.native_ms", native_total, "ms");
  r.metric("ledger.predicted_ms", predicted_total, "ms");
  r.metric("ledger.residual_pct", residual_pct(measured_total, predicted_total),
           "%");
  r.metric("trace.overhead_pct", (geomean(traced_ratio) - 1) * 100, "%");
  r.metric("error_rate",
           static_cast<double>(r.failed()) / static_cast<double>(r.attempted()),
           "ratio");
}

}  // namespace perfbench
