// kv_open / kv_threads: the KV/HTTP server workload (Server<S>::serve),
// hardened (SessionSpace over a pinned stored-backend Runtime) against
// native (DirectSpace), interleaved in one process.
//
// kv_open runs one server closed loop for capacity and open loop (Poisson
// arrivals, latency from the scheduled arrival) at a fixed fraction of the
// native capacity measured in the same run. kv_threads runs one server per
// thread over one shared Runtime, closed loop, all threads at once.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

#include "alloc/scalable_heap.h"
#include "core/session.h"
#include "core/space.h"
#include "harness.h"
#include "probe.h"
#include "traced_space.h"
#include "workloads/server/loadgen.h"
#include "workloads/server/request_gen.h"
#include "workloads/server/server.h"
#include "workloads/server/types.h"

namespace perfbench {

namespace {

using polar::DirectSpace;
using polar::ObjectSpace;
using polar::Runtime;
using polar::RuntimeStats;
using polar::SessionSpace;
using polar::server::RequestWorkload;
using polar::server::Server;
using polar::server::ServerStats;
using polar::server::ServerTypes;

constexpr std::uint64_t kRequests = 20'000;  ///< per stream (and per pass)
constexpr int kSetups = 15;
constexpr int kMinPasses = 6;  ///< per build; the first pass is warm-up
/// Offered load of kv_open's latency figures, in percent of the native
/// closed-loop capacity on the trial's own requests (the hardened build
/// serves ~18% of native, so this keeps it about a fifth busy).
constexpr double kLoadPct = 4;
/// Open-loop queue bound, shorter than a trial: a stall longer than about
/// this many arrivals drops requests (loadgen.dropped) instead of only
/// adding latency.
constexpr std::uint32_t kQueueCapacity = 1024;
/// Requests per open-loop trial (p99 then has 20 samples beyond it), and
/// trials per closed-loop iteration. Before its timed window each trial's
/// server serves the window just before it, untimed, so the window sees a
/// full cache and session table.
constexpr std::uint64_t kTrialRequests = 2'000;
constexpr int kTrialsPerIteration = 4;
/// kv_open's p50_us is this percentile over the trials' medians. A trial
/// runs for tens of milliseconds, and the other tenants' load shifts the
/// hardened server's speed between trials more than the short native gauge
/// corrects; the quietest tenth (about 20 trials) repeats across runs best.
constexpr double kQuietTrials = 0.10;
/// The relative-load ladder and its p99 limit (printed with kv_open).
const std::vector<double> kLadderPcts = {4, 6, 8, 10, 12, 14, 16, 18, 20};
constexpr double kSloP99Us = 50;
constexpr std::uint64_t kLadderRequests = 10'000;
/// One request in kSampleEvery carries spans in a traced pass.
constexpr std::uint64_t kSampleEvery = 16;
constexpr double kProbeShare = 0.1;
/// Native time for one stream (one pass, or one round of all threads) on
/// the reference machine (a quiet 4-vCPU VM). Hardened times are reported
/// at that machine's speed; see at_reference_speed in harness.h.
constexpr double kOpenReferenceMs = 10;
constexpr double kThreadsReferenceMs = 20;
/// Share of an untraced kv_open run left for the ladder.
constexpr double kLadderShare = 0.1;

/// The builds of pass_order. kTimed is the hardened build with every
/// request timed; in a traced run it also carries TracedSpace's spans. Only
/// kNative and kPolar passes give the closed-loop times.
enum class Mode { kNative = 0, kPolar = 1, kTimed = 2 };

struct KvSetup {
  polar::TypeRegistry reg;
  ServerTypes types{};
  std::vector<RequestWorkload> streams;  ///< one per server
  std::unique_ptr<Runtime> rt;
};

std::unique_ptr<KvSetup> set_up(std::uint64_t seed, std::size_t n_streams) {
  auto s = std::make_unique<KvSetup>();
  s->types = polar::server::register_types(s->reg);
  for (std::size_t k = 0; k < n_streams; ++k) {
    polar::server::WorkloadConfig wc;  // default mix, skew and key space
    wc.seed = derive_seed(seed, k);
    wc.requests = kRequests;
    s->streams.push_back(polar::server::build_workload(wc));
  }
  s->rt = std::make_unique<Runtime>(s->reg, pinned_config(seed));
  return s;
}

std::unique_ptr<KvSetup> timed_set_up(std::uint64_t seed, std::size_t streams,
                                      std::vector<double>& setup_s) {
  std::unique_ptr<KvSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const std::uint64_t t0 = now_ns();
    s = set_up(seed, streams);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return s;
}

struct PassOut {
  double ms = 0;
  std::uint64_t hash = 0;
  ServerStats server{};
  RuntimeStats ops{};                ///< runtime stats delta (single thread)
  std::vector<double> service_us;    ///< per unsampled request, if timed
  std::uint64_t sampled_serve_ns = 0;
  std::uint64_t span_ns = 0;         ///< time inside ObjectSpace calls
  SpaceCalls calls{};
};

/// Serves the whole stream back to back on a fresh Server (closed loop).
/// The server's teardown frees its population after the timed window.
template <ObjectSpace S>
void closed_pass(S& space, const ServerTypes& t, const RequestWorkload& wl,
                 bool time_each, PassOut& p) {
  Server<S> server(space, t);
  std::vector<std::uint8_t> out;
  out.reserve(polar::server::kResponseBytes);
  const std::uint64_t n = wl.count();
  if (time_each) p.service_us.reserve(n);
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < n; ++i) {
    out.clear();
    if (!time_each) {
      server.serve(wl.request(i), out);
      continue;
    }
    bool sampled = false;
    if constexpr (requires { space.set_sampling(true); }) {
      sampled = i % kSampleEvery == 0;
      space.set_sampling(sampled);
    }
    const std::uint64_t a = now_ns();
    server.serve(wl.request(i), out);
    const std::uint64_t d = now_ns() - a;
    if (sampled) {
      p.sampled_serve_ns += d;
    } else {
      p.service_us.push_back(static_cast<double>(d) / 1e3);
    }
  }
  p.ms = static_cast<double>(now_ns() - t0) / 1e6;
  p.hash = server.response_hash();
  p.server = server.stats();
}

PassOut run_pass(Mode m, KvSetup& s, const RequestWorkload& wl, bool spans) {
  PassOut p;
  switch (m) {
    case Mode::kNative: {
      DirectSpace space(s.reg);
      closed_pass(space, s.types, wl, false, p);
      break;
    }
    case Mode::kPolar: {
      SessionSpace space(*s.rt);
      closed_pass(space, s.types, wl, false, p);
      break;
    }
    case Mode::kTimed: {
      SessionSpace inner(*s.rt);
      if (!spans) {
        closed_pass(inner, s.types, wl, true, p);
        break;
      }
      TracedSpace<SessionSpace> space(inner);
      closed_pass(space, s.types, wl, true, p);
      p.span_ns = space.span_ns();
      p.calls = space.calls();
      break;
    }
  }
  return p;
}

struct OpenOut {
  std::vector<double> latency_us;  ///< completion - scheduled arrival
  std::vector<double> late_us;     ///< admission - arrival, idle server
  std::uint64_t dropped = 0;
  std::uint64_t hash = 0;
};

/// Serves requests [first, first + n) of `wl` back to back, untimed.
template <ObjectSpace S>
void warm(Server<S>& server, const RequestWorkload& wl, std::uint64_t first,
          std::uint64_t n, std::vector<std::uint8_t>& out) {
  for (std::uint64_t i = first; i < first + n; ++i) {
    out.clear();
    server.serve(wl.request(i), out);
  }
}

/// Open loop over requests [first, first + n) of `wl`, on a server warmed
/// by the `warm_n` requests before them: Poisson arrivals at `rate_rps`
/// admitted into a bounded FIFO as the clock passes them (tail drop when
/// full), served in order. Latency runs from the scheduled arrival, so
/// queueing behind a slow request counts (coordinated-omission safe).
template <ObjectSpace S>
OpenOut open_pass(S& space, const ServerTypes& t, const RequestWorkload& wl,
                  std::uint64_t first, std::uint64_t n, std::uint64_t warm_n,
                  double rate_rps, std::uint64_t seed) {
  OpenOut o;
  const std::vector<std::uint64_t> sched =
      polar::server::build_arrival_schedule(seed, n, rate_rps, true);
  o.latency_us.reserve(n);
  o.late_us.reserve(n);
  Server<S> server(space, t);
  std::vector<std::uint8_t> out;
  out.reserve(polar::server::kResponseBytes);
  warm(server, wl, first - warm_n, warm_n, out);
  std::deque<std::uint64_t> queue;
  std::uint64_t next = 0;
  bool idle = false;  // the previous iteration found nothing to serve
  const std::uint64_t start = now_ns();
  while (next < n || !queue.empty()) {
    const std::uint64_t now = now_ns() - start;
    while (next < n && sched[next] <= now) {
      if (queue.size() >= kQueueCapacity) {
        ++o.dropped;
      } else {
        queue.push_back(next);
        // Lateness of the generator itself: only arrivals it admits from
        // an idle loop, not those that waited for a request in service.
        if (idle) {
          o.late_us.push_back(static_cast<double>(now - sched[next]) / 1e3);
        }
      }
      ++next;
    }
    idle = queue.empty();
    if (idle) continue;
    const std::uint64_t i = queue.front();
    queue.pop_front();
    out.clear();
    server.serve(wl.request(first + i), out);
    const std::uint64_t done = now_ns() - start;
    o.latency_us.push_back(
        static_cast<double>(done > sched[i] ? done - sched[i] : 0) / 1e3);
  }
  o.hash = server.response_hash();
  return o;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Hardened passes interleaved with native ones (and traced ones when
/// tracing), rotating which goes first, until `budget_s` has passed.
struct ClosedPhase {
  std::vector<double> native_ms, polar_ms, traced_ms;
  std::vector<double> service_us;  ///< traced, unsampled requests
  std::uint64_t sampled_serve_ns = 0, span_ns = 0;
  PassOut last_polar, last_traced;
  std::uint64_t native_hash = 0;
};

/// Layer metrics shared by both kv workloads' traced runs.
struct LayerInputs {
  const ClosedPhase* closed = nullptr;
  RuntimeStats total;      ///< runtime delta over the closed phase
  RuntimeStats pass_ops;   ///< one untraced hardened pass (all threads)
  polar::ScalableHeapStats heap_before, heap_after;
  double threads = 1;
  double late_p99_share = 0;
  std::uint64_t dropped = 0;
};

void layer_metrics(const Options& o, KvSetup& s, const LayerInputs& in,
                   Report& r) {
  const ClosedPhase& c = *in.closed;
  const double native_ms = lower_quartile(c.native_ms);
  const double polar_ms = lower_quartile(c.polar_ms);
  const RuntimeStats& d = in.pass_ops;
  const SpaceCalls& calls = c.last_traced.calls;

  std::vector<polar::TypeId> types = {s.types.connection, s.types.session,
                                      s.types.request,    s.types.header,
                                      s.types.cache_entry, s.types.response};
  const OpCosts costs =
      probe_costs(s.reg, types, true, o.seed, o.seconds * kProbeShare);
  OpCounts k;
  const double cursors = static_cast<double>(calls.cursor);
  k.alloc_free = static_cast<double>(d.allocations);
  k.cursor = cursors;
  k.access = static_cast<double>(d.member_accesses) - cursors;
  k.copy = static_cast<double>(d.memcpys - d.clones);
  k.clone = static_cast<double>(d.clones);
  // Servers run side by side, so a pass's wall time carries one thread's
  // share of the work.
  const double predicted = predicted_ms(k, costs) / in.threads;
  const double measured = polar_ms - native_ms;
  char line[256];
  std::snprintf(line, sizeof line,
                "ledger %-15s native %8.3f ms  polar %8.3f ms  overhead %8.3f "
                "ms  predicted %8.3f ms  ledger.residual_pct %+7.1f",
                o.workload.c_str(), native_ms, polar_ms, measured, predicted,
                residual_pct(measured, predicted));
  r.note(line);

  const RuntimeStats& t = in.total;
  r.metric("core.alloc.count", static_cast<double>(d.allocations), "count");
  r.metric("core.free.count", static_cast<double>(d.frees), "count");
  r.metric("core.access.count", static_cast<double>(d.member_accesses),
           "count");
  r.metric("core.copy.count", static_cast<double>(d.memcpys), "count");
  r.metric("core.fastpath_ratio", ratio(t.fastpath_hits, t.member_accesses),
           "ratio");
  r.metric("core.cache_hit_ratio", ratio(t.cache_hits, t.member_accesses),
           "ratio");
  r.metric("core.layout_dedup_ratio",
           ratio(t.layouts_deduped, t.layouts_deduped + t.layouts_created),
           "ratio");
  r.metric("core.inflation", t.inflation(), "ratio");
  r.metric("core.violations", static_cast<double>(violations(t)), "count");
  r.metric("core.access.extra_ns", costs.access_ns, "ns");
  r.metric("core.cursor.extra_ns", costs.cursor_ns, "ns");
  r.metric("core.alloc_free.extra_ns", costs.alloc_free_ns, "ns");
  r.metric("core.copy.extra_ns", costs.copy_ns, "ns");
  r.metric("core.clone.extra_ns", costs.clone_ns, "ns");

  const auto sizes = layout_sizes(s.reg, types, o.seed);
  const auto& hb = in.heap_before;
  const auto& ha = in.heap_after;
  r.metric("alloc.pair_ns", probe_heap_pair_ns(sizes, 0.05), "ns");
  r.metric("alloc.reuse_ratio",
           ratio(ha.reuse_hits - hb.reuse_hits,
                 ha.allocations - hb.allocations),
           "ratio");
  r.metric("alloc.slab_carves",
           static_cast<double>(ha.slab_carves - hb.slab_carves), "count");
  r.metric("alloc.live_chunks", static_cast<double>(ha.live_chunks), "count");
  r.metric("alloc.remote_frees",
           static_cast<double>(ha.remote_frees - hb.remote_frees), "count");

  const ServerStats& ss = c.last_polar.server;
  r.metric("server.serve_us.p50", percentile(c.service_us, 0.50), "us");
  r.metric("server.serve_us.p99", percentile(c.service_us, 0.99), "us");
  r.metric("server.space_share",
           ratio(c.span_ns, c.sampled_serve_ns), "ratio");
  r.metric("server.cache_hit_ratio",
           ratio(ss.cache_hits, ss.cache_hits + ss.cache_misses), "ratio");
  r.metric("server.evictions_per_req", ratio(ss.evictions, ss.requests),
           "ratio");
  r.metric("loadgen.late_p99_share", in.late_p99_share, "ratio");
  r.metric("loadgen.dropped", static_cast<double>(in.dropped), "count");
  r.metric("workloads.native_ms", native_ms, "ms");
  r.metric("ledger.predicted_ms", predicted, "ms");
  r.metric("ledger.residual_pct", residual_pct(measured, predicted), "%");
  r.metric("trace.overhead_pct",
           (paired_ratio(c.traced_ms, c.polar_ms) - 1) * 100, "%");
  r.metric("error_rate",
           static_cast<double>(r.failed()) / static_cast<double>(r.attempted()),
           "ratio");
}

}  // namespace

void run_kv_open(const Options& o, Report& r) {
  std::vector<double> setup_s;
  const std::unique_ptr<KvSetup> s = timed_set_up(o.seed, 1, setup_s);
  Runtime& rt = *s->rt;
  const RequestWorkload& wl = s->streams[0];
  const double n = static_cast<double>(wl.count());

  // Open-loop trials are short: each serves one window of kTrialRequests
  // of the stream on a fresh server warmed by the window before it,
  // cycling through the windows. A native closed-loop run of the same
  // window (warmed the same way) just before each trial sets its offered
  // load (kLoadPct% of that native capacity, so the hardened server's
  // utilization holds while the machine's speed drifts); with a second run
  // just after, the faster of the two gauges the machine's speed during the
  // trial. Their response hash is the trial's oracle.
  std::uint64_t trial_hash = 0;
  const auto native_window_ms = [&](std::uint64_t first) {
    DirectSpace space(s->reg);
    Server<DirectSpace> server(space, s->types);
    std::vector<std::uint8_t> out;
    warm(server, wl, first - kTrialRequests, kTrialRequests, out);
    const std::uint64_t t0 = now_ns();
    warm(server, wl, first, kTrialRequests, out);
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    trial_hash = server.response_hash();
    return ms;
  };
  const double trial_reference_ms = kOpenReferenceMs *
                                    static_cast<double>(kTrialRequests) / n;

  // Each iteration runs a native and a hardened closed-loop pass (and a
  // traced one when tracing), then kTrialsPerIteration open-loop trials.
  ClosedPhase c;
  const RuntimeStats rt_before = rt.stats();
  const auto heap_before = polar::ScalableHeap::process_heap().stats();
  const double share = o.trace ? 1 - kProbeShare : 1 - kLadderShare;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(o.seconds * share * 1e9);
  std::uint64_t mismatches = 0, dropped = 0;
  RuntimeStats polar_ops;
  std::vector<double> p50s, p99s, late_p99s, trial_rates;
  for (int it = 0; it < kMinPasses || now_ns() < end; ++it) {
    for (const int b : pass_order(static_cast<std::size_t>(it), o.trace)) {
      const auto m = static_cast<Mode>(b);
      const RuntimeStats before = rt.stats();
      PassOut p = run_pass(m, *s, wl, true);
      p.ops = stats_delta(rt.stats(), before);
      if (m == Mode::kNative) {
        if (it == 0) c.native_hash = p.hash;
        mismatches += p.hash != c.native_hash;
        if (it > 0) c.native_ms.push_back(p.ms);
        continue;
      }
      r.attempt(wl.count());
      mismatches += p.hash != c.native_hash;
      if (m == Mode::kPolar) {
        if (it > 0) c.polar_ms.push_back(p.ms);
        polar_ops = p.ops;
        c.last_polar = std::move(p);
      } else {
        if (it > 0) c.traced_ms.push_back(p.ms);
        c.service_us.insert(c.service_us.end(), p.service_us.begin(),
                            p.service_us.end());
        c.sampled_serve_ns += p.sampled_serve_ns;
        c.span_ns += p.span_ns;
        c.last_traced = std::move(p);
      }
    }
    if (o.trace && !same_op_counts(c.last_traced.ops, polar_ops)) {
      r.fail(1, true, "traced pass op counts differ from the untraced pass");
    }

    for (int k = 0; k < kTrialsPerIteration; ++k) {
      const auto trial =
          static_cast<std::uint64_t>(it * kTrialsPerIteration + k);
      // Windows 1.. of the stream; window 0 only ever warms.
      const std::uint64_t first =
          (1 + trial % (wl.count() / kTrialRequests - 1)) * kTrialRequests;
      const double before_ms = native_window_ms(first);
      const double rate = static_cast<double>(kTrialRequests) / before_ms *
                          1e3 * kLoadPct / 100;
      trial_rates.push_back(rate);
      SessionSpace space(rt);
      const OpenOut op =
          open_pass(space, s->types, wl, first, kTrialRequests,
                    kTrialRequests, rate, derive_seed(o.seed, 1000 + trial));
      const double speed_ms = std::min(before_ms, native_window_ms(first));
      r.attempt(kTrialRequests);
      dropped += op.dropped;
      // FIFO service with nothing dropped replays the native stream.
      if (op.dropped == 0) mismatches += op.hash != trial_hash;
      if (it == 0) continue;
      const double scale = at_reference_speed(trial_reference_ms, speed_ms);
      p50s.push_back(percentile(op.latency_us, 0.50) * scale);
      p99s.push_back(percentile(op.latency_us, 0.99) * scale);
      late_p99s.push_back(percentile(op.late_us, 0.99) * scale);
    }
  }
  const RuntimeStats total = stats_delta(rt.stats(), rt_before);
  const auto heap_after = polar::ScalableHeap::process_heap().stats();
  r.fail(mismatches, true, "hardened response hash differs from native");
  r.fail(dropped, false, "open-loop arrivals dropped at the full queue");
  r.fail(violations(total), true, "runtime detections during a clean run");
  const double polar_ms = lower_quartile(c.polar_ms);
  const double native_rps = n / lower_quartile(c.native_ms) * 1e3;
  char line[200];
  std::snprintf(line, sizeof line,
                "closed loop: native %.0f rps, hardened %.0f rps; open loop "
                "at %.0f%% of native (median %.0f rps, Poisson): %zu trials "
                "of %llu requests",
                native_rps, n / polar_ms * 1e3, kLoadPct, median(trial_rates),
                p99s.size(), static_cast<unsigned long long>(kTrialRequests));
  r.note(line);

  if (o.trace) {
    LayerInputs in;
    in.closed = &c;
    in.total = total;
    in.pass_ops = polar_ops;
    in.heap_before = heap_before;
    in.heap_after = heap_after;
    in.late_p99_share = median(late_p99s) / median(p99s);
    in.dropped = dropped;
    layer_metrics(o, *s, in, r);
    return;
  }

  // The relative-load ladder (reported, not tracked).
  std::vector<Rung> rungs;
  const auto rates = ladder_rates(native_rps, kLadderPcts);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    SessionSpace space(rt);
    const OpenOut op =
        open_pass(space, s->types, wl, kTrialRequests, kLadderRequests,
                  kTrialRequests, rates[i], derive_seed(o.seed, 2000 + i));
    rungs.push_back({kLadderPcts[i], percentile(op.latency_us, 0.99),
                     op.dropped});
    std::snprintf(line, sizeof line,
                  "ladder %5.1f%% of native (%9.0f rps): p99 %9.2f us, "
                  "dropped %llu",
                  kLadderPcts[i], rates[i], rungs.back().p99_us,
                  static_cast<unsigned long long>(op.dropped));
    r.note(line);
  }
  std::snprintf(line, sizeof line,
                "slo_load_pct %.0f (p99 <= %.0f us, nothing dropped)",
                slo_load_pct(rungs, kSloP99Us), kSloP99Us);
  r.note(line);

  const double scale =
      at_reference_speed(kOpenReferenceMs, lower_quartile(c.native_ms));
  r.metric("setup_s", median(setup_s), "s");
  r.metric("overhead_pct", (paired_ratio(c.polar_ms, c.native_ms) - 1) * 100,
           "%");
  r.metric("polar_ms", polar_ms * scale, "ms");
  r.metric("p50_us", percentile(p50s, kQuietTrials), "us");
  r.untracked("p99_us", median(p99s), "us");
  r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

void run_kv_threads(const Options& o, Report& r) {
  const std::size_t threads =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  std::vector<double> setup_s;
  const std::unique_ptr<KvSetup> s = timed_set_up(o.seed, threads, setup_s);
  Runtime& rt = *s->rt;

  // A fixed pool serves one stream per thread each round; the coordinator
  // times a round from the start barrier to the end barrier.
  Mode mode = Mode::kNative;
  bool stop = false;
  std::vector<PassOut> outs(threads);
  std::barrier start(static_cast<std::ptrdiff_t>(threads + 1));
  std::barrier done(static_cast<std::ptrdiff_t>(threads + 1));
  std::vector<std::jthread> pool;
  for (std::size_t k = 0; k < threads; ++k) {
    pool.emplace_back([&, k] {
      for (;;) {
        start.arrive_and_wait();
        if (stop) return;
        outs[k] = run_pass(mode, *s, s->streams[k], o.trace);
        done.arrive_and_wait();
      }
    });
  }
  const auto round = [&](Mode m) {
    mode = m;
    const std::uint64_t t0 = now_ns();
    start.arrive_and_wait();
    done.arrive_and_wait();
    return static_cast<double>(now_ns() - t0) / 1e6;
  };

  // Native hashes per stream, for the parity oracle.
  round(Mode::kNative);
  std::vector<std::uint64_t> native_hash;
  for (const PassOut& p : outs) native_hash.push_back(p.hash);

  ClosedPhase c;
  const RuntimeStats rt_before = rt.stats();
  const auto heap_before = polar::ScalableHeap::process_heap().stats();
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(
                                           o.seconds *
                                           (o.trace ? 1 - kProbeShare : 1.0) *
                                           1e9);
  std::uint64_t mismatches = 0;
  std::vector<double> p50s, p99s;
  RuntimeStats polar_ops, traced_ops;
  // Every pass has a timed round besides the native and hardened ones:
  // its per-request times give p50_us (and the spans, when tracing), while
  // the hardened rounds hold nothing but serve.
  for (int pass = 0; pass < kMinPasses || now_ns() < end; ++pass) {
    for (const int b : pass_order(static_cast<std::size_t>(pass), true)) {
      const auto m = static_cast<Mode>(b);
      const RuntimeStats before = rt.stats();
      const double ms = round(m);
      const RuntimeStats ops = stats_delta(rt.stats(), before);
      std::vector<double> service;
      for (std::size_t k = 0; k < threads; ++k) {
        mismatches += outs[k].hash != native_hash[k];
        service.insert(service.end(), outs[k].service_us.begin(),
                       outs[k].service_us.end());
      }
      if (m == Mode::kNative) {
        if (pass > 0) c.native_ms.push_back(ms);
        continue;
      }
      r.attempt(kRequests * threads);
      if (m == Mode::kPolar) {
        polar_ops = ops;
        c.last_polar = outs[0];
        if (pass > 0) c.polar_ms.push_back(ms);
      } else if (!o.trace) {
        if (pass > 0) {
          p50s.push_back(percentile(service, 0.50));
          p99s.push_back(percentile(service, 0.99));
        }
      } else {
        traced_ops = ops;
        c.last_traced = outs[0];
        c.last_traced.calls.cursor = 0;
        for (const PassOut& p : outs) {
          c.last_traced.calls.cursor += p.calls.cursor;
          c.sampled_serve_ns += p.sampled_serve_ns;
          c.span_ns += p.span_ns;
        }
        c.service_us.insert(c.service_us.end(), service.begin(),
                            service.end());
        if (pass > 0) c.traced_ms.push_back(ms);
      }
    }
    if (o.trace && !same_op_counts(traced_ops, polar_ops)) {
      r.fail(1, true, "traced round op counts differ from the untraced round");
    }
  }
  stop = true;
  start.arrive_and_wait();
  pool.clear();  // joins

  const RuntimeStats total = stats_delta(rt.stats(), rt_before);
  const auto heap_after = polar::ScalableHeap::process_heap().stats();
  r.fail(mismatches, true, "hardened response hash differs from native");
  r.fail(violations(total), true, "runtime detections during a clean run");
  const double native_ms = lower_quartile(c.native_ms);
  const double polar_ms = lower_quartile(c.polar_ms);
  r.note(std::to_string(threads) + " threads over one Runtime: native " +
         std::to_string(static_cast<double>(kRequests * threads) / native_ms *
                        1e3) +
         " rps, hardened " +
         std::to_string(static_cast<double>(kRequests * threads) / polar_ms *
                        1e3) +
         " rps over " + std::to_string(c.polar_ms.size()) + " rounds");

  if (o.trace) {
    LayerInputs in;
    in.closed = &c;
    in.total = total;
    in.pass_ops = polar_ops;
    in.heap_before = heap_before;
    in.heap_after = heap_after;
    in.threads = static_cast<double>(threads);
    layer_metrics(o, *s, in, r);
    return;
  }
  const double scale = at_reference_speed(kThreadsReferenceMs, native_ms);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("overhead_pct", (paired_ratio(c.polar_ms, c.native_ms) - 1) * 100,
           "%");
  r.metric("polar_ms", polar_ms * scale, "ms");
  r.metric("p50_us", lower_quartile(p50s) * scale, "us");
  r.untracked("p99_us", lower_quartile(p99s) * scale, "us");
  r.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
