// Per-operation cost probe for the cost ledger.
//
// Times Runtime::obj_alloc / obj_free / obj_field / cursor_snapshot /
// obj_copy / obj_clone on a workload's own registered types, against the
// same operations on DirectSpace, and ScalableHeap::allocate / deallocate
// on the workload's size mix. Every measurement is one clock pair around a
// batch of calls whose arguments were prepared beforehand, so the timed
// loop holds nothing but the operation: no registry lookups, no RNG, no
// allocation of the argument arrays. Direct and hardened batches alternate,
// and the reported cost is the difference of their medians.
#pragma once

#include <cstddef>
#include <vector>

#include "core/runtime.h"
#include "harness.h"

namespace perfbench {

/// Extra ns per operation of the hardened build over DirectSpace, on
/// objects of `types` (round-robin). `checked_refs` uses allocation-id
/// handles as SessionSpace does; otherwise id-0 handles as PolarSpace
/// does. Runs on a private Runtime over `registry` with the pinned
/// configuration, for about `budget_s` seconds (at least five rounds).
[[nodiscard]] OpCosts probe_costs(const polar::TypeRegistry& registry,
                                  const std::vector<polar::TypeId>& types,
                                  bool checked_refs, std::uint64_t seed,
                                  double budget_s);

/// Randomized allocation size of each type under the pinned configuration.
[[nodiscard]] std::vector<std::size_t> layout_sizes(
    const polar::TypeRegistry& registry,
    const std::vector<polar::TypeId>& types, std::uint64_t seed);

/// ns per ScalableHeap::allocate + deallocate pair on the process heap,
/// cycling through `sizes`; median over batches within `budget_s`.
[[nodiscard]] double probe_heap_pair_ns(const std::vector<std::size_t>& sizes,
                                        double budget_s);

}  // namespace perfbench
