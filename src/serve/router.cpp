#include "serve/router.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace deepcam::serve {

namespace {

constexpr std::size_t kVirtualNodes = 64;

/// splitmix64: the deterministic mixer behind ring points and backoff
/// jitter. No global RNG — replays stay bit-identical.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

Router::Router(RouterConfig cfg, ClockSource* clock)
    : cfg_(cfg), clock_(clock != nullptr ? clock : &ClockSource::steady()) {
  DEEPCAM_CHECK_MSG(cfg_.retry_backoff >= Clock::duration::zero() &&
                        cfg_.retry_backoff_max >= Clock::duration::zero(),
                    "retry backoff must be non-negative");
}

std::vector<std::size_t> Router::ring_order(std::size_t replicas,
                                            std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  if (ring_replicas_ != replicas) {
    ring_.clear();
    ring_.reserve(replicas * kVirtualNodes);
    // Double-mix the ring points: replica 0's vnode ids are the raw
    // integers 0..63, the same inputs small request ids feed to mix64 —
    // single-mixed, every key < kVirtualNodes would land exactly on its
    // twin vnode and the whole head of the id space would own to
    // replica 0. The extra round domain-separates points from keys.
    for (std::size_t r = 0; r < replicas; ++r)
      for (std::size_t v = 0; v < kVirtualNodes; ++v)
        ring_.push_back(
            {mix64(mix64((static_cast<std::uint64_t>(r) << 32) | v)), r});
    std::sort(ring_.begin(), ring_.end(),
              [](const RingPoint& a, const RingPoint& b) {
                if (a.hash != b.hash) return a.hash < b.hash;
                return a.replica < b.replica;
              });
    ring_replicas_ = replicas;
  }
  // Owner = first point at/after the key's hash (wrapping); successors
  // follow in ring order, deduplicated.
  std::vector<std::size_t> order;
  order.reserve(replicas);
  const std::uint64_t h = mix64(key);
  std::size_t start = 0;
  while (start < ring_.size() && ring_[start].hash < h) ++start;
  for (std::size_t i = 0; i < ring_.size() && order.size() < replicas; ++i) {
    const std::size_t r = ring_[(start + i) % ring_.size()].replica;
    if (std::find(order.begin(), order.end(), r) == order.end())
      order.push_back(r);
  }
  return order;
}

std::optional<std::size_t> Router::pick(ReplicaSet& set, std::uint64_t key,
                                        SloClass slo, std::size_t avoid) {
  const std::vector<std::size_t> order = ring_order(set.size(), key);
  // Canary preemption: a recovering replica takes one probe at a time so
  // it can earn readmission even while healthy replicas could serve.
  // Interactive traffic is never used as a probe (its deadline is tight).
  if (slo != SloClass::kInteractive) {
    for (const std::size_t r : order)
      if (r != avoid && set.replica(r).try_acquire_canary()) return r;
  }
  // Probation trickle: when the ring owner is degraded, a deterministic
  // 1-in-8 slice of its keys still routes to it. A degraded replica that
  // is skipped entirely stops producing samples, so its error EWMA can
  // never decay and it is benched forever; the trickle lets it earn the
  // promotion back to healthy (or confirm it still fails).
  // Interactive traffic is exempt, same as canary probes: its deadline
  // is too tight to spend on a replica under suspicion.
  if (slo != SloClass::kInteractive && !order.empty() &&
      order.front() != avoid &&
      set.replica(order.front()).health() == ReplicaHealth::kDegraded &&
      (mix64(key ^ 0x70726f626174696full) & 7) == 0)
    return order.front();
  for (const std::size_t r : order)
    if (r != avoid && set.replica(r).health() == ReplicaHealth::kHealthy)
      return r;
  for (const std::size_t r : order)
    if (r != avoid && set.replica(r).health() == ReplicaHealth::kDegraded)
      return r;
  // Nothing else left: relax the avoid constraint before giving up.
  for (const std::size_t r : order) {
    const ReplicaHealth h = set.replica(r).health();
    if (h == ReplicaHealth::kHealthy || h == ReplicaHealth::kDegraded)
      return r;
  }
  for (const std::size_t r : order)
    if (set.replica(r).try_acquire_canary()) return r;
  return std::nullopt;
}

Clock::duration Router::backoff(std::size_t attempt,
                                std::uint64_t key) const {
  if (cfg_.retry_backoff <= Clock::duration::zero())
    return Clock::duration::zero();
  const std::size_t exp = std::min<std::size_t>(attempt, 16);
  Clock::duration base = cfg_.retry_backoff * (1ull << exp);
  if (cfg_.retry_backoff_max > Clock::duration::zero())
    base = std::min(base, cfg_.retry_backoff_max);
  // Deterministic jitter in [0.5, 1.0] x base, keyed by (seed, key,
  // attempt) so concurrent retries of different batches decorrelate.
  const std::uint64_t j =
      mix64(cfg_.jitter_seed ^ mix64(key) ^ (attempt * 0x2545f4914f6cdd1dull));
  const double u = static_cast<double>(j >> 11) * 0x1.0p-53;
  return std::chrono::duration_cast<Clock::duration>(base * (0.5 + 0.5 * u));
}

Clock::duration Router::hedge_delay() const {
  if (cfg_.hedge_delay > Clock::duration::zero()) return cfg_.hedge_delay;
  double p99;
  {
    std::lock_guard<std::mutex> lk(mu_);
    p99 = latency_.percentile(99.0);
  }
  return std::max(cfg_.hedge_floor, from_seconds(p99));
}

void Router::observe_latency(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  latency_.add(seconds);
}

Router::Attempt Router::run(ReplicaSet& set, std::uint64_t key, SloClass slo,
                            std::vector<nn::Tensor>&& inputs,
                            std::size_t avoid,
                            Clock::time_point latest_deadline,
                            bool cancellable, std::uint64_t batch_id) {
  // One reusable template for this attempt's kRoute instants.
  obs::SpanRecord route_fields;
  route_fields.rid = key;
  route_fields.slo = static_cast<std::uint64_t>(slo);
  route_fields.batch = batch_id;

  Attempt a;
  const Clock::time_point t0 = clock_->now();
  set.refresh_health(t0);
  const auto choice = pick(set, key, slo, avoid);
  if (!choice.has_value()) {
    obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kRoute, "no_replica",
                 route_fields);
    a.error = std::make_exception_ptr(
        Error("serve: no replica available (all quarantined)"));
    return a;
  }
  const std::size_t primary = *choice;
  a.replica = primary;
  Replica& prep = set.replica(primary);
  route_fields.replica = primary;
  obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kRoute, "pick",
               route_fields);

  bool hedge_eligible = cfg_.hedge_interactive &&
                        slo == SloClass::kInteractive && set.size() > 1;
  std::vector<nn::Tensor> hedge_inputs;
  if (hedge_eligible) hedge_inputs = inputs;  // copy before the move below

  // The two sides of the attempt: [0] the primary, [1] the hedge (issued
  // at most once). A chaos-slow replica's result is not observable until
  // its fault delay lapses past the side's start.
  struct Side {
    core::BatchFuture future;
    std::size_t replica = kNoReplica;
    Clock::time_point start{};
    Clock::duration delay{};
    bool live = false;  // still waiting on this side

    bool observable(Clock::time_point now) const {
      return live && future.ready() && now >= start + delay;
    }
  };
  std::array<Side, 2> sides;
  Side& prim = sides[0];
  try {
    prim.future = prep.submit(std::move(inputs), key);
  } catch (...) {
    // Instant submission failure (crashed / poisoned replica).
    prep.record_failure(clock_->now());
    a.error = std::current_exception();
    return a;
  }
  prim.replica = primary;
  prim.start = t0;
  prim.delay = prep.fault_delay();
  prim.live = true;
  const Clock::duration hd = hedge_eligible ? hedge_delay()
                                            : Clock::duration::zero();
  std::exception_ptr first_error;

  for (;;) {
    const Clock::time_point now = clock_->now();

    // Whole-batch deadline: cancel whatever has not started executing.
    if (cancellable && now >= latest_deadline) {
      for (Side& s : sides)
        if (s.live && s.future.cancel()) s.live = false;
      if (!sides[0].live && !sides[1].live) {
        a.cancelled = true;
        return a;
      }
    }

    // Hedge issue point: the primary has been silent past the delay. A
    // chaos-slow primary may hold a ready result that is not observable
    // until its fault delay lapses — that counts as silent too, so the
    // hedge doubles as failover around slow replicas, not just dead ones.
    if (hedge_eligible && !a.hedged && prim.live && now >= t0 + hd &&
        !prim.observable(now)) {
      const auto h = pick(set, mix64(key), slo, primary);
      if (h.has_value() && *h != primary) {
        Replica& hrep = set.replica(*h);
        Side& hedge = sides[1];
        try {
          hedge.future = hrep.submit(std::move(hedge_inputs), key);
          hedge.replica = *h;
          hedge.start = now;
          hedge.delay = hrep.fault_delay();
          hedge.live = true;
          a.hedged = true;
          route_fields.replica = *h;
          obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kRoute,
                       "hedge_issue", route_fields);
        } catch (...) {
          hrep.record_failure(now);
          hedge_eligible = false;  // inputs consumed; no second try
        }
      } else {
        hedge_eligible = false;  // nobody to hedge onto
      }
    }

    // Settle the first observable side. The primary comes first, so it
    // wins ties (the answers are bitwise identical); first result wins.
    const auto settled = std::find_if(
        sides.begin(), sides.end(),
        [&](const Side& s) { return s.observable(now); });
    if (settled != sides.end()) {
      Side& won = *settled;
      Side& other = sides[settled == sides.begin() ? 1 : 0];
      won.live = false;
      Replica& rep = set.replica(won.replica);
      std::vector<nn::Tensor> outs;
      bool ok = true;
      try {
        outs = won.future.get();
      } catch (...) {
        ok = false;
        if (first_error == nullptr) first_error = std::current_exception();
      }
      const Clock::time_point done = clock_->now();
      if (!ok) {
        rep.record_failure(done);
        if (other.live) continue;  // the other side is now the only hope
        a.error = first_error;
        a.replica = primary;
        return a;
      }
      const double lat = seconds_between(won.start, done);
      rep.record_success(lat, done);
      observe_latency(lat);
      // The loser is cancelled if it never started; otherwise it is
      // drained and its outcome recorded on its replica (the "wasted"
      // half of a hedge).
      if (other.live && !other.future.cancel()) {
        Replica& lrep = set.replica(other.replica);
        try {
          other.future.get();
          const Clock::time_point t = clock_->now();
          lrep.record_success(seconds_between(other.start, t), t);
        } catch (...) {
          lrep.record_failure(clock_->now());
        }
        a.hedge_wasted = true;
      }
      a.ok = true;
      a.outputs = std::move(outs);
      a.replica = won.replica;
      if (&won == &sides[1]) {
        a.hedge_won = true;
        route_fields.replica = won.replica;
        obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kRoute,
                     "hedge_win", route_fields);
      }
      return a;
    }

    if (!sides[0].live && !sides[1].live) {
      // Both sides resolved without a result (e.g. one cancelled at the
      // deadline, the other failed).
      if (first_error != nullptr)
        a.error = first_error;
      else
        a.cancelled = true;
      return a;
    }

    // Nothing is observable yet. If a result exists but is held behind a
    // slow-fault delay, sleep toward its observation point through the
    // clock (a VirtualClock advances instead of parking).
    Clock::time_point next_observable = Clock::time_point::max();
    for (const Side& s : sides)
      if (s.live && s.future.ready())
        next_observable = std::min(next_observable, s.start + s.delay);
    if (next_observable != Clock::time_point::max()) {
      clock_->sleep_until(std::min(
          next_observable, now + std::chrono::microseconds(500)));
      continue;
    }
    // Otherwise park on a live future, the primary first. Only a pending
    // decision point — a cancellable deadline, an unissued hedge, or a
    // second live future — forces a bounded poll; with none of those this
    // is a plain blocking wait, which keeps the fault-free single-replica
    // path poll-free (and as fast as the pre-replica serving tier).
    const bool must_poll = cancellable ||
                           (hedge_eligible && !a.hedged && prim.live) ||
                           (sides[0].live && sides[1].live);
    core::BatchFuture& parked = prim.live ? prim.future : sides[1].future;
    if (!must_poll)
      parked.wait();
    else
      parked.wait_for(std::chrono::microseconds(500));
  }
}

}  // namespace deepcam::serve
