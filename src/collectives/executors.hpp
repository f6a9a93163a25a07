#pragma once
// SPMD executors of the collective operations on the HBSPlib-like runtime.
//
// There is one executor, detail::execute: it runs the calling processor's
// part of the schedule the collective's planner (planners.hpp) emits — each
// plan's compute charges, its transfers in schedule order, its barrier — and
// hands what arrives to a payload policy. Every collective therefore moves
// data with exactly the transfers, item counts and supersteps its planner
// schedules, and the virtual-time makespan of a run equals the cluster
// simulator's makespan for the planned schedule by construction. The
// policies: Route for the collectives that move slices of the global item
// sequence, Combine for the folding ones, and Synthetic, with which
// make_replay_program runs any schedule.
//
// All executors are collectives in the MPI sense: every processor of the
// machine must call the same executor with consistent arguments, and the
// data a processor contributes must match its planned share
// (`leaf_shares(machine, n, shares)`).

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/planners.hpp"
#include "core/workload.hpp"  // equal_partition, alltoall's block split
#include "obs/metrics.hpp"
#include "runtime/hbsplib.hpp"

namespace hbsp::coll {

namespace detail {

/// Runs the caller's part of `schedule`: for every plan whose sync scope
/// holds the caller, charges its compute, sends its transfers from the
/// caller (payload `policy.payload(transfer, index)`, `index` counting
/// transfers over the whole schedule), synchronises the scope and hands the
/// delivered messages to `policy.deliver`.
template <typename Policy>
void execute(rt::Hbsp& ctx, const CommSchedule& schedule, Policy& policy) {
  const int me = ctx.pid();
  std::size_t index = 0;
  for (const Phase& phase : schedule.phases) {
    for (const SuperstepPlan& plan : phase.plans) {
      const std::size_t base = index;
      index += plan.transfers.size();
      const auto [first, last] = ctx.machine().processor_range(plan.sync_scope);
      if (me < first || me >= last) continue;
      double ops = 0.0;
      for (const ComputeWork& work : plan.compute) {
        if (work.pid == me) ops += work.ops;
      }
      if (ops > 0.0) ctx.charge_compute(ops);
      for (std::size_t i = 0; i < plan.transfers.size(); ++i) {
        const Transfer& t = plan.transfers[i];
        if (t.src_pid != me || t.dst_pid == me || t.items == 0) continue;
        ctx.send(t.dst_pid, policy.payload(t, base + i), t.items);
      }
      ctx.sync_scope(plan.sync_scope);
      policy.deliver(ctx.recv_all());
    }
  }
}

/// Payload policy of the collectives that move items. A processor holds
/// segments of the global item sequence keyed by the offset of their first
/// item; transfer `index` carries the slice [firsts[index], +items) of its
/// sender's segments behind a header holding that offset. Gather, scatter
/// and alltoall move the slice; broadcast and allgather (`keep`) copy it,
/// and a receiver drops a copy whose first item it already holds (a
/// broadcast source takes part in its cluster's exchange).
template <typename T>
struct Route {
  explicit Route(bool copies = false) : keep(copies) {}

  bool keep;
  std::vector<std::size_t> firsts;  ///< filled by the planner
  std::map<std::size_t, std::span<const T>> held;
  std::vector<std::vector<T>> received;  ///< backs the received segments

  /// Holds `values` as the items from `first` on; they are read, not copied,
  /// and must outlive the run.
  void hold(std::size_t first, std::span<const T> values) {
    if (!values.empty()) held.emplace(first, values);
  }

  std::vector<std::byte> payload(const Transfer& transfer, std::size_t index) {
    const std::size_t first = firsts[index];
    rt::PackBuffer out;
    out.pack<std::uint64_t>(first);
    for (std::size_t at = first, end = first + transfer.items; at < end;) {
      const auto it = find(at);
      if (it == held.end()) {
        throw std::logic_error{"route: item " + std::to_string(at) +
                               " is not held by pid " +
                               std::to_string(transfer.src_pid)};
      }
      const auto [segment_first, segment] = *it;
      const std::size_t skip = at - segment_first;
      const std::size_t count = std::min(end - at, segment.size() - skip);
      out.pack_span<T>(segment.subspan(skip, count));
      if (!keep) {  // hold on to what lies either side of the slice
        held.erase(it);
        if (skip > 0) held.emplace(segment_first, segment.first(skip));
        if (skip + count < segment.size()) {
          held.emplace(at + count, segment.subspan(skip + count));
        }
      }
      at += count;
    }
    return out.take();
  }

  void deliver(std::vector<rt::Message>&& messages) {
    for (const rt::Message& message : messages) {
      rt::UnpackBuffer reader{message};
      const auto first = static_cast<std::size_t>(reader.unpack<std::uint64_t>());
      if (keep && find(first) != held.end()) continue;
      const auto& values =
          received.emplace_back(reader.unpack_span<T>(message.items));
      if (!held.emplace(first, std::span<const T>{values}).second) {
        throw std::logic_error{"route: duplicate segment at item " +
                               std::to_string(first)};
      }
    }
  }

  /// The held items in offset order; throws std::logic_error unless there
  /// are `expected` of them, when that is given.
  [[nodiscard]] std::vector<T> assemble(
      std::optional<std::size_t> expected = std::nullopt) {
    std::size_t total = 0;
    for (const auto& [first, segment] : held) total += segment.size();
    if (expected && total != *expected) {
      throw std::logic_error{"route: assembled " + std::to_string(total) +
                             " of " + std::to_string(*expected) + " items"};
    }
    // A scatter's receivers hold one received message: hand it over whole.
    if (held.size() == 1 && received.size() == 1 &&
        held.begin()->second.data() == received[0].data() &&
        total == received[0].size()) {
      return std::move(received[0]);
    }
    std::vector<T> items;
    items.reserve(total);
    for (const auto& [first, segment] : held) {
      items.insert(items.end(), segment.begin(), segment.end());
    }
    return items;
  }

  /// The held segment containing item `at`, or held.end().
  auto find(std::size_t at) {
    auto it = held.upper_bound(at);
    if (it == held.begin()) return held.end();
    --it;
    return it->first + it->second.size() > at ? it : held.end();
  }
};

/// Runs `schedule` with the payload policy of the folding collectives:
/// every transfer carries one T, `value(dst)` of its sender, and each
/// delivered value goes to `take(src, value)` in src pid order.
template <typename T, typename Value, typename Take>
void combine(rt::Hbsp& ctx, const CommSchedule& schedule, Value value,
             Take take) {
  struct Combine {
    Value& value;
    Take& take;
    std::vector<std::byte> payload(const Transfer& transfer, std::size_t) {
      rt::PackBuffer out;
      out.pack<T>(value(transfer.dst_pid));
      return out.take();
    }
    void deliver(std::vector<rt::Message>&& messages) {
      for (const rt::Message& message : messages) {
        take(message.src_pid, rt::UnpackBuffer{message}.unpack<T>());
      }
    }
  } policy{value, take};
  execute(ctx, schedule, policy);
}

/// The global offset of the caller's share; throws std::invalid_argument
/// unless `size` is that share's size.
inline std::size_t share_offset(const rt::Hbsp& ctx, std::size_t size,
                                std::size_t n, Shares shares, const char* who) {
  const auto offsets = share_offsets(ctx.machine(), n, shares);
  const auto pid = static_cast<std::size_t>(ctx.pid());
  if (size == offsets[pid + 1] - offsets[pid]) return offsets[pid];
  throw std::invalid_argument{std::string{who} +
                              ": local data does not match the plan"};
}

/// Payload policy of a replay: zero-filled payloads of 4 bytes per item from
/// a pool that recycles each superstep's delivered payloads as the send
/// buffers of the next.
struct Synthetic {
  rt::BufferPool pool;

  std::vector<std::byte> payload(const Transfer& transfer, std::size_t) {
    return pool.acquire(transfer.items * 4);
  }
  void deliver(std::vector<rt::Message>&& messages) {
    pool.recycle(std::move(messages));
  }
};

/// Holds the root's `input`, which must be all n items, in `route`.
template <typename T>
void hold_at_root(rt::Hbsp& ctx, int root_pid, std::span<const T> input,
                  std::size_t n, Route<T>& route, const char* who) {
  if (ctx.pid() != resolve_root(ctx.machine(), root_pid)) return;
  if (input.size() != n) {
    throw std::invalid_argument{std::string{who} +
                                ": root input must hold all n items"};
  }
  route.hold(0, input);
}

}  // namespace detail

/// Builds a Program where each processor performs its transfers (synthetic
/// payloads of 4 bytes per item) and compute charges from `schedule`, phase
/// by phase, synchronising each plan's scope — so the runtime's virtual time
/// can be checked against the cluster simulator for *any* schedule. The
/// schedule must be valid for `tree` (validate_schedule is called).
[[nodiscard]] inline rt::Program make_replay_program(
    const MachineTree& tree, const CommSchedule& schedule) {
  validate_schedule(tree, schedule);
  // The program captures the schedule by value so callers may discard theirs.
  return [schedule](rt::Hbsp& ctx) {
    // One pool per invocation: the runtime calls this lambda from every pid
    // thread, and BufferPool is deliberately not thread-safe.
    detail::Synthetic synthetic;
    detail::execute(ctx, schedule, synthetic);
    // Counters, not gauges: the per-pid totals are a pure function of the
    // schedule, so the summed values are deterministic at any thread count.
    auto& registry = obs::Registry::global();
    registry.counter("rt.pool.acquires").add(synthetic.pool.acquires());
    registry.counter("rt.pool.reuses").add(synthetic.pool.reuses());
  };
}

/// Gathers the distributed items (shares per `leaf_shares`) to the root
/// processor, bottom-up through the hierarchy (§4.2/4.3). Returns the items
/// in pid order at the root; nullopt elsewhere. `mine.size()` must equal the
/// caller's planned share.
template <typename T>
std::optional<std::vector<T>> gather(rt::Hbsp& ctx, std::span<const T> mine,
                                     std::size_t n,
                                     const RootedOptions& options = {}) {
  detail::Route<T> route;
  route.hold(detail::share_offset(ctx, mine.size(), n, options.shares, "gather"),
             mine);
  detail::execute(ctx,
                  detail::rooted_schedule(ctx.machine(), n, options, true,
                                          &route.firsts),
                  route);
  if (ctx.pid() != detail::resolve_root(ctx.machine(), options.root_pid)) {
    return std::nullopt;
  }
  return route.assemble(n);
}

/// Scatters `input` (held by the root, in pid order) so every processor ends
/// with its `leaf_shares` share, top-down. Only the root's `input` is read.
template <typename T>
std::vector<T> scatter(rt::Hbsp& ctx, std::span<const T> input, std::size_t n,
                       const RootedOptions& options = {}) {
  detail::Route<T> route;
  detail::hold_at_root(ctx, options.root_pid, input, n, route, "scatter");
  detail::execute(ctx,
                  detail::rooted_schedule(ctx.machine(), n, options, false,
                                          &route.firsts),
                  route);
  return route.assemble();
}

/// Broadcasts `input` (held by the root) to every processor (§4.4): one- or
/// two-phase at the top level, two-phase within every cluster below. Returns
/// the full n items on every processor.
template <typename T>
std::vector<T> broadcast(rt::Hbsp& ctx, std::span<const T> input, std::size_t n,
                         const BroadcastOptions& options = {}) {
  detail::Route<T> route{true};
  detail::hold_at_root(ctx, options.root_pid, input, n, route, "broadcast");
  detail::execute(
      ctx, detail::broadcast_schedule(ctx.machine(), n, options, &route.firsts),
      route);
  return route.assemble(n);
}

/// HBSP^1 all-gather: every processor contributes its share and ends with
/// the full n items in pid order.
template <typename T>
std::vector<T> allgather(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                         Shares shares = Shares::kBalanced) {
  detail::Route<T> route{true};
  route.hold(detail::share_offset(ctx, mine.size(), n, shares, "allgather"),
             mine);
  detail::execute(
      ctx, detail::allgather_schedule(ctx.machine(), n, shares, &route.firsts),
      route);
  return route.assemble(n);
}

/// HBSP^1 reduction with a binary operation; returns the result at the root,
/// nullopt elsewhere. The root folds the processors' partials in pid order,
/// starting from `identity`, which also seeds empty shares.
template <typename T, typename Op>
std::optional<T> reduce(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                        Op op, T identity, const RootedOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  (void)detail::share_offset(ctx, mine.size(), n, options.shares, "reduce");
  std::vector<T> partials(static_cast<std::size_t>(ctx.nprocs()), identity);
  T& partial = partials[static_cast<std::size_t>(ctx.pid())];
  partial = std::accumulate(mine.begin(), mine.end(), identity, op);
  detail::combine<T>(
      ctx, plan_reduce(tree, n, options), [&](int) { return partial; },
      [&](int src, T value) { partials[static_cast<std::size_t>(src)] = value; });
  if (ctx.pid() != detail::resolve_root(tree, options.root_pid)) {
    return std::nullopt;
  }
  return std::accumulate(partials.begin(), partials.end(), identity, op);
}

/// HBSP^k all-gather: gather to the machine's coordinator, then broadcast
/// back out — the two schedules plan_allgather_tree concatenates. Every
/// processor returns the full n items in pid order.
template <typename T>
std::vector<T> allgather_tree(rt::Hbsp& ctx, std::span<const T> mine,
                              std::size_t n, Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  if (tree.num_children(tree.root()) == 0) {
    throw std::invalid_argument{"allgather_tree: single-processor machine"};
  }
  const auto at_root = gather<T>(ctx, mine, n, {.root_pid = -1, .shares = shares});
  return broadcast<T>(
      ctx, at_root ? std::span<const T>{*at_root} : std::span<const T>{}, n,
      {.root_pid = -1, .top_phase = TopPhase::kTwoPhase,
       .shares = Shares::kEqual});
}

/// HBSP^k reduction with a binary operation: partials flow up the tree one
/// level per superstep, each cluster folding concurrently under its own
/// barrier; a target folds the partials it receives into its own in src pid
/// order. Returns the result at the root processor, nullopt elsewhere.
template <typename T, typename Op>
std::optional<T> reduce_tree(rt::Hbsp& ctx, std::span<const T> mine,
                             std::size_t n, Op op, T identity,
                             const RootedOptions& options = {}) {
  const MachineTree& tree = ctx.machine();
  (void)detail::share_offset(ctx, mine.size(), n, options.shares,
                             "reduce_tree");
  T partial = std::accumulate(mine.begin(), mine.end(), identity, op);
  detail::combine<T>(
      ctx, plan_reduce_tree(tree, n, options), [&](int) { return partial; },
      [&](int, T value) { partial = op(partial, value); });
  if (ctx.pid() != detail::resolve_root(tree, options.root_pid)) {
    return std::nullopt;
  }
  return partial;
}

/// HBSP^1 inclusive scan over the global pid-ordered sequence: returns this
/// processor's items replaced by their global running totals. The
/// coordinator hands each processor the exclusive prefix, from `identity`,
/// of the share totals over pid order.
template <typename T, typename Op>
std::vector<T> scan(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                    Op op, T identity, Shares shares = Shares::kBalanced) {
  const MachineTree& tree = ctx.machine();
  (void)detail::share_offset(ctx, mine.size(), n, shares, "scan");
  const bool root = ctx.pid() == tree.coordinator_pid(tree.root());
  std::vector<T> local(mine.begin(), mine.end());
  std::vector<T> totals(static_cast<std::size_t>(ctx.nprocs()), identity);
  T& running = totals[static_cast<std::size_t>(ctx.pid())];
  for (T& value : local) value = running = op(running, value);

  std::vector<T> offsets;  // the coordinator's, built when first needed
  const auto offset_of = [&](int pid) {
    for (T prefix = identity; offsets.size() < totals.size();) {
      offsets.push_back(prefix);
      prefix = op(prefix, totals[offsets.size() - 1]);
    }
    return offsets[static_cast<std::size_t>(pid)];
  };
  T offset = identity;
  detail::combine<T>(
      ctx, plan_scan(tree, n, shares),
      [&](int dst) { return root ? offset_of(dst) : running; },
      [&](int src, T value) {
        (root ? totals[static_cast<std::size_t>(src)] : offset) = value;
      });
  if (root) offset = offset_of(ctx.pid());
  for (T& value : local) value = op(offset, value);
  return local;
}

/// HBSP^1 all-to-all personalised exchange: each processor splits its share
/// into nprocs blocks (equal split, largest-first remainder) and sends block
/// i to processor i. Returns the received blocks concatenated in source pid
/// order (own block included).
template <typename T>
std::vector<T> alltoall(rt::Hbsp& ctx, std::span<const T> mine, std::size_t n,
                        Shares shares = Shares::kBalanced) {
  detail::Route<T> route;
  route.hold(detail::share_offset(ctx, mine.size(), n, shares, "alltoall"),
             mine);
  detail::execute(
      ctx, detail::alltoall_schedule(ctx.machine(), n, shares, &route.firsts),
      route);
  return route.assemble();
}

}  // namespace hbsp::coll
