// Data-parallel loop primitives over the persistent util::ThreadPool.
//
// The entry points bind the caller's functor through a plain function
// pointer + context pointer, so the hot path performs no std::function
// construction and no per-chunk allocation (one small shared control block
// per region is the only heap traffic). A type-erased callable such as a
// std::function binds to the same templates.
//
// Determinism contract (see docs/engine.md): parallel_for / parallel_for_chunks
// guarantee each index/chunk runs exactly once, with chunk *boundaries*
// dependent on the thread count; callers that fold floating-point state per
// chunk must fix their own chunk grid (as mc::montecarlo does with kChunks)
// or use parallel_reduce, whose chunk count is an explicit argument and whose
// partials are combined in ascending chunk order -- making the result
// bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace hynapse::util {

namespace detail {

/// Dispatches body(begin, end) over [0, n) split into n_chunks chunks on up
/// to `threads` participants (the calling thread plus shared-pool helpers).
inline void run_chunked(ChunkRun::Body body, void* ctx, std::size_t n,
                        std::size_t n_chunks, std::size_t threads) {
  if (n == 0) return;
  if (threads == 0) threads = default_thread_count();
  threads = std::min(threads, n);
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t helpers =
      threads <= 1 ? 0 : std::min(threads - 1, pool.worker_count());
  if (helpers == 0) {
    body(ctx, 0, n);
    return;
  }
  n_chunks = std::min(std::max<std::size_t>(n_chunks, 1), n);
  const auto run = std::make_shared<ChunkRun>(body, ctx, n, n_chunks);
  pool.submit(run, helpers);
  run->run();   // the caller participates, so the region cannot deadlock
  run->wait();  // rethrows the first body exception
}

}  // namespace detail

/// Runs fn(begin, end) over disjoint chunks of [0, n) on up to `threads`
/// participants (0 = default_thread_count()). Blocks until all chunks
/// finish. fn must be safe to invoke concurrently on disjoint ranges.
/// Exceptions thrown by fn propagate to the caller (first one wins).
template <typename Fn>
  requires std::is_invocable_v<Fn&, std::size_t, std::size_t>
void parallel_for_chunks(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  using F = std::remove_reference_t<Fn>;
  detail::run_chunked(
      [](void* ctx, std::size_t begin, std::size_t end) {
        (*static_cast<F*>(ctx))(begin, end);
      },
      const_cast<std::remove_const_t<F>*>(std::addressof(fn)), n,
      /*n_chunks=*/4 * default_thread_count(), threads);
}

/// Element-wise convenience wrapper: fn(i) for each i in [0, n).
template <typename Fn>
  requires std::is_invocable_v<Fn&, std::size_t>
void parallel_for(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  auto body = [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  };
  parallel_for_chunks(n, body, threads);
}

/// Deterministic parallel reduction: splits [0, n) into exactly `n_chunks`
/// chunks, computes partial_c = map(begin_c, end_c) for each, and folds
/// combine(acc, partial_c) in ascending chunk order. Because the chunk grid
/// and the fold order are independent of the thread count, the result is
/// bit-identical for any `threads` value (including 1). Empty trailing
/// chunks contribute `init`.
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t n, std::size_t n_chunks, T init,
                                MapFn map, CombineFn combine,
                                std::size_t threads = 0) {
  if (n == 0 || n_chunks == 0) return init;
  n_chunks = std::min(n_chunks, n);
  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  std::vector<T> partials(n_chunks, init);
  parallel_for(
      n_chunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        if (begin < end) partials[c] = map(begin, end);
      },
      threads);
  T acc = std::move(init);
  for (T& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace hynapse::util
