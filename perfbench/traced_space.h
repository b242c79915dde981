// TracedSpace — a forwarding ObjectSpace adapter for the traced server runs.
//
// Every call goes straight to the wrapped space; while sampling is on, each
// call also adds its duration to a span total, so the benchmark can split a
// request's service time into time inside ObjectSpace calls (the runtime's
// share) and the rest (the application's). The adapter forwards cursor()
// and prefetch() as well, so make_cursor / space_prefetch take exactly the
// path they take on the wrapped space and the traced run performs the same
// runtime operations as the untraced one. Call counts are kept always.
#pragma once

#include <cstdint>

#include "core/space.h"
#include "harness.h"

namespace perfbench {

/// Calls seen by a TracedSpace, by kind.
struct SpaceCalls {
  std::uint64_t alloc = 0, free = 0, field_ptr = 0, load = 0, store = 0,
                copy = 0, clone = 0, object_bytes = 0, cursor = 0,
                prefetch = 0;
};

template <polar::ObjectSpace S>
class TracedSpace {
 public:
  explicit TracedSpace(S& inner) : inner_(&inner) {}

  static constexpr bool kRandomized = S::kRandomized;

  void* alloc(polar::TypeId t) {
    Span s(*this, calls_.alloc);
    return inner_->alloc(t);
  }
  void free_object(void* base, polar::TypeId t) {
    Span s(*this, calls_.free);
    inner_->free_object(base, t);
  }
  [[nodiscard]] void* field_ptr(void* base, polar::TypeId t, std::uint32_t f) {
    Span s(*this, calls_.field_ptr);
    return inner_->field_ptr(base, t, f);
  }
  template <class T>
  [[nodiscard]] T load(void* base, polar::TypeId t, std::uint32_t f) {
    Span s(*this, calls_.load);
    return inner_->template load<T>(base, t, f);
  }
  template <class T>
  void store(void* base, polar::TypeId t, std::uint32_t f, const T& v) {
    Span s(*this, calls_.store);
    inner_->store(base, t, f, v);
  }
  [[nodiscard]] std::size_t object_bytes(const void* base, polar::TypeId t) {
    Span s(*this, calls_.object_bytes);
    return inner_->object_bytes(base, t);
  }
  void copy_object(void* dst, const void* src, polar::TypeId t) {
    Span s(*this, calls_.copy);
    inner_->copy_object(dst, src, t);
  }
  void* clone_object(const void* src, polar::TypeId t) {
    Span s(*this, calls_.clone);
    return inner_->clone_object(src, t);
  }
  [[nodiscard]] const polar::TypeRegistry& registry() const {
    return inner_->registry();
  }

  auto cursor(void* base, polar::TypeId t)
    requires requires(S& s, void* p, polar::TypeId ty) { s.cursor(p, ty); }
  {
    Span s(*this, calls_.cursor);
    return inner_->cursor(base, t);
  }
  void prefetch(const void* base)
    requires requires(S& s, const void* p) { s.prefetch(p); }
  {
    Span s(*this, calls_.prefetch);
    inner_->prefetch(base);
  }

  /// Spans are recorded only while sampling is on (one sampled request
  /// in N keeps the clock reads off the rest).
  void set_sampling(bool on) noexcept { sampling_ = on; }
  [[nodiscard]] std::uint64_t span_ns() const noexcept { return span_ns_; }
  [[nodiscard]] const SpaceCalls& calls() const noexcept { return calls_; }

 private:
  class Span {
   public:
    Span(TracedSpace& owner, std::uint64_t& count)
        : owner_(owner), t0_(owner.sampling_ ? now_ns() : 0) {
      ++count;
    }
    ~Span() {
      if (owner_.sampling_) owner_.span_ns_ += now_ns() - t0_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TracedSpace& owner_;
    std::uint64_t t0_;
  };

  S* inner_;
  SpaceCalls calls_;
  bool sampling_ = false;
  std::uint64_t span_ns_ = 0;
};

}  // namespace perfbench
