#include "probe.h"

#include <random>

#include "alloc/scalable_heap.h"
#include "core/space.h"

namespace perfbench {

using polar::DirectSpace;
using polar::ObjRef;
using polar::Runtime;
using polar::TypeId;

namespace {

constexpr std::size_t kBatch = 1024;  ///< operations per timed batch
constexpr std::size_t kLive = 256;    ///< objects the access batches cycle

volatile std::uintptr_t g_sink = 0;

/// Per-op ns of one batch.
template <class F>
double timed(F&& batch) {
  const std::uint64_t t0 = now_ns();
  batch();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(kBatch);
}

struct Pair {
  std::vector<double> direct, polar;
  [[nodiscard]] double extra() const { return median(polar) - median(direct); }
};

class Probe {
 public:
  Probe(const polar::TypeRegistry& reg, const std::vector<TypeId>& types,
        bool checked, std::uint64_t seed)
      : rt_(reg, pinned_config(seed)), direct_(reg), checked_(checked) {
    for (const TypeId t : types) {
      if (reg.info(t).field_count() != 0) types_.push_back(t);
    }
    std::mt19937_64 gen(seed);
    std::vector<std::vector<std::size_t>> by_type(types_.size());
    for (std::size_t i = 0; i < kLive; ++i) {
      const TypeId t = types_[i % types_.size()];
      live_refs_.push_back(handle(rt_.obj_alloc(t).value()));
      live_bases_.push_back(direct_.alloc(t));
      live_types_.push_back(t);
      by_type[i % types_.size()].push_back(i);
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::size_t i = gen() % kLive;
      const TypeId t = live_types_[i];
      refs_.push_back(live_refs_[i]);
      bases_.push_back(live_bases_[i]);
      types_seq_.push_back(t);
      fields_.push_back(static_cast<std::uint32_t>(
          gen() % reg.info(t).field_count()));
      // Copy pairs: two distinct live objects of the same type.
      const auto& same = by_type[j % types_.size()];
      const std::size_t a = gen() % same.size();
      std::size_t b = gen() % same.size();
      if (b == a) b = (a + 1) % same.size();
      copy_dst_.push_back(same[a]);
      copy_src_.push_back(same[b]);
    }
    made_.resize(kBatch);
    dmade_.resize(kBatch);
  }

  ~Probe() {
    for (const ObjRef& r : live_refs_) (void)rt_.obj_free(r);
    for (std::size_t i = 0; i < kLive; ++i) {
      direct_.free_object(live_bases_[i], live_types_[i]);
    }
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// One round: every operation kind once on each build, in `polar_first`
  /// order.
  void round(bool polar_first) {
    const auto both = [polar_first](auto&& d, auto&& p) {
      if (polar_first) {
        p();
        d();
      } else {
        d();
        p();
      }
    };
    both([&] { access_.direct.push_back(timed([&] { direct_access(); })); },
         [&] { access_.polar.push_back(timed([&] { polar_access(); })); });
    both([&] { cursor_.direct.push_back(timed([&] { direct_cursor(); })); },
         [&] { cursor_.polar.push_back(timed([&] { polar_cursor(); })); });
    both([&] { alloc_free_.direct.push_back(direct_alloc_free()); },
         [&] { alloc_free_.polar.push_back(polar_alloc_free()); });
    both([&] { copy_.direct.push_back(timed([&] { direct_copy(); })); },
         [&] { copy_.polar.push_back(timed([&] { polar_copy(); })); });
    both([&] { clone_.direct.push_back(direct_clone()); },
         [&] { clone_.polar.push_back(polar_clone()); });
  }

  [[nodiscard]] OpCosts costs() const {
    return OpCosts{alloc_free_.extra(), access_.extra(), cursor_.extra(),
                   copy_.extra(), clone_.extra()};
  }

 private:
  [[nodiscard]] ObjRef handle(ObjRef r) const {
    return checked_ ? r : ObjRef{r.base, 0, r.type};
  }

  void direct_access() {
    std::uintptr_t acc = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      acc += reinterpret_cast<std::uintptr_t>(
          direct_.field_ptr(bases_[j], types_seq_[j], fields_[j]));
    }
    g_sink = acc;
  }
  void polar_access() {
    std::uintptr_t acc = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      acc += reinterpret_cast<std::uintptr_t>(
          rt_.obj_field(refs_[j], fields_[j]).value_or(nullptr));
    }
    g_sink = acc;
  }

  void direct_cursor() {
    std::uintptr_t acc = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      acc += reinterpret_cast<std::uintptr_t>(
          direct_.cursor(bases_[j], types_seq_[j]).field(0));
    }
    g_sink = acc;
  }
  void polar_cursor() {
    std::uintptr_t acc = 0;
    Runtime::CursorSnap snap;
    for (std::size_t j = 0; j < kBatch; ++j) {
      acc += rt_.cursor_snapshot(refs_[j], snap) ? snap.offsets[0] : 1;
    }
    g_sink = acc;
  }

  double direct_alloc_free() {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      dmade_[j] = direct_.alloc(types_seq_[j]);
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      direct_.free_object(dmade_[j], types_seq_[j]);
    }
    return static_cast<double>(now_ns() - t0) / kBatch;
  }
  double polar_alloc_free() {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      made_[j] = rt_.obj_alloc(types_seq_[j]).value_or(ObjRef{});
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      (void)rt_.obj_free(handle(made_[j]));
    }
    return static_cast<double>(now_ns() - t0) / kBatch;
  }

  void direct_copy() {
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::size_t d = copy_dst_[j];
      direct_.copy_object(live_bases_[d], live_bases_[copy_src_[j]],
                          live_types_[d]);
    }
  }
  void polar_copy() {
    std::uintptr_t acc = 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      acc += rt_.obj_copy(live_refs_[copy_dst_[j]], live_refs_[copy_src_[j]])
                 .ok();
    }
    g_sink = acc;
  }

  /// Clones are timed; releasing them is not.
  double direct_clone() {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      dmade_[j] = direct_.clone_object(bases_[j], types_seq_[j]);
    }
    const std::uint64_t t1 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      direct_.free_object(dmade_[j], types_seq_[j]);
    }
    return static_cast<double>(t1 - t0) / kBatch;
  }
  double polar_clone() {
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      made_[j] = rt_.obj_clone(refs_[j]).value_or(ObjRef{});
    }
    const std::uint64_t t1 = now_ns();
    for (std::size_t j = 0; j < kBatch; ++j) {
      (void)rt_.obj_free(handle(made_[j]));
    }
    return static_cast<double>(t1 - t0) / kBatch;
  }

  Runtime rt_;
  DirectSpace direct_;
  bool checked_;
  std::vector<TypeId> types_;
  // The live population.
  std::vector<ObjRef> live_refs_;
  std::vector<void*> live_bases_;
  std::vector<TypeId> live_types_;
  // One batch of prepared arguments.
  std::vector<ObjRef> refs_;
  std::vector<void*> bases_;
  std::vector<TypeId> types_seq_;
  std::vector<std::uint32_t> fields_;
  std::vector<std::size_t> copy_dst_, copy_src_;
  std::vector<ObjRef> made_;
  std::vector<void*> dmade_;

  Pair access_, cursor_, alloc_free_, copy_, clone_;
};

}  // namespace

OpCosts probe_costs(const polar::TypeRegistry& registry,
                    const std::vector<TypeId>& types, bool checked_refs,
                    std::uint64_t seed, double budget_s) {
  bool any_fields = false;
  for (const TypeId t : types) {
    any_fields |= registry.info(t).field_count() != 0;
  }
  if (!any_fields) return OpCosts{};
  Probe probe(registry, types, checked_refs, seed);
  probe.round(false);  // warm-up: fills layout pools and heap slabs
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (int r = 0; r < 5 || now_ns() < deadline; ++r) probe.round((r & 1) != 0);
  return probe.costs();
}

std::vector<std::size_t> layout_sizes(const polar::TypeRegistry& registry,
                                      const std::vector<TypeId>& types,
                                      std::uint64_t seed) {
  Runtime rt(registry, pinned_config(seed));
  std::vector<std::size_t> sizes;
  for (const TypeId t : types) {
    const ObjRef r = rt.obj_alloc(t).value();
    sizes.push_back(rt.describe(r).value().layout->size);
    (void)rt.obj_free(r);
  }
  return sizes;
}

double probe_heap_pair_ns(const std::vector<std::size_t>& sizes,
                          double budget_s) {
  polar::ScalableHeap& heap = polar::ScalableHeap::process_heap();
  std::vector<std::size_t> seq(kBatch);
  for (std::size_t j = 0; j < kBatch; ++j) seq[j] = sizes[j % sizes.size()];
  std::vector<void*> blocks(kBatch);
  const auto batch = [&] {
    return timed([&] {
      for (std::size_t j = 0; j < kBatch; ++j) {
        blocks[j] = heap.allocate(seq[j]);
      }
      for (std::size_t j = 0; j < kBatch; ++j) {
        heap.deallocate(blocks[j], seq[j]);
      }
    });
  };
  (void)batch();
  std::vector<double> ns;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (ns.size() < 5 || now_ns() < deadline) ns.push_back(batch());
  return median(ns);
}

}  // namespace perfbench
