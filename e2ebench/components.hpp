// Component calls: one call into each layer's public API at the workload's
// n, network profile and adversary, each on a fresh Sim. A simulated call
// reports its host time, the last honest party's output tick in Δ and the
// slack against the layer's Timing deadline (negative: past it; in the
// asynchronous workload the deadline is the synchronous one, for
// reference). Every call checks its own outputs.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "e2ebench/tracer.hpp"
#include "e2ebench/workload.hpp"
#include "src/acs/acs.hpp"
#include "src/ba/ba.hpp"
#include "src/ba/coin.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/field/kernels.hpp"
#include "src/mpc/trip_sh.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/vss/vss.hpp"

namespace bobw::e2e {

struct ComponentRun {
  double call_ms = 0, finish_delta = 0, slack_delta = 0;
  std::string error;  // empty: outputs checked out
};

/// A fresh simulated network for one component call, configured the way
/// run_mpc configures a session.
struct World {
  const Workload& w;
  std::shared_ptr<Adversary> adv;
  std::unique_ptr<Sim> sim;
  std::unique_ptr<IdealCoin> coin;
  Ctx ctx;
  std::vector<std::optional<Tick>> out_at;  // per party: tick of its output

  World(const Workload& wl, std::uint64_t seed) : w(wl), adv(plain_adversary(wl)) {
    NetConfig net;
    net.mode = w.mode;
    net.delta = kDelta;
    net.clamp_sync_min();
    sim = std::make_unique<Sim>(w.n, net, seed, adv);
    sim->set_threads(w.threads);
    coin = std::make_unique<IdealCoin>(mix64(seed ^ 0xBEEF));
    ctx = Ctx::make(w.n, w.ts, w.ta, kDelta, coin.get());
    out_at.resize(static_cast<std::size_t>(w.n));
  }
  bool runs(int i) const { return sim->honest(i) || (adv && adv->participates(i)); }
  bool honest(int i) const { return sim->honest(i); }
  void mark(int i) {
    auto& t = out_at[static_cast<std::size_t>(i)];
    if (!t) t = sim->now();
  }

  /// Runs the network; fills the timing fields; flags an honest party
  /// without output.
  ComponentRun finish(Clock::time_point t0, Tick deadline) {
    sim->run();
    ComponentRun r;
    r.call_ms = seconds_since(t0) * 1e3;
    Tick last = 0;
    for (int i = 0; i < w.n; ++i) {
      if (!honest(i)) continue;
      const auto& t = out_at[static_cast<std::size_t>(i)];
      if (!t) {
        r.error = "honest P" + std::to_string(i) + " produced no output";
        continue;
      }
      last = std::max(last, *t);
    }
    if (sim->truncated()) r.error = "run truncated";
    r.finish_delta = static_cast<double>(last) / kDelta;
    r.slack_delta = (static_cast<double>(deadline) - static_cast<double>(last)) / kDelta;
    return r;
  }
};

/// L of each ΠTripSh the workload's preprocessing runs (src/mpc/preprocess.cpp).
inline int tripsh_batches(const Workload& w) {
  const int d = (w.n - w.ts - 1) / 2;
  const int per_ext = d + 1 - w.ts;
  const int c_m = w.circuit(w.n).mult_count();
  return (c_m + per_ext - 1) / per_ext;
}

inline ComponentRun call_tripsh(const Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  World world(w, seed);
  std::vector<std::unique_ptr<TripSh>> inst(static_cast<std::size_t>(w.n));
  for (int i = 0; i < w.n; ++i) {
    if (!world.runs(i)) continue;
    inst[static_cast<std::size_t>(i)] = std::make_unique<TripSh>(
        world.sim->party(i), "tsh", /*dealer=*/0, tripsh_batches(w), world.ctx, 0,
        [&world, i](const std::vector<TripleShare>&) { world.mark(i); });
  }
  world.sim->party(0).at(0, [&inst] { inst[0]->deal(); });
  return world.finish(t0, world.ctx.T.t_tripsh);
}

inline ComponentRun call_acs(const Workload& w, std::uint64_t seed) {
  const int L = 3;
  const auto t0 = Clock::now();
  World world(w, seed);
  std::vector<std::unique_ptr<Acs>> inst(static_cast<std::size_t>(w.n));
  std::vector<std::vector<int>> cs(static_cast<std::size_t>(w.n));
  Rng rng(mix64(seed ^ 0xAC5ULL));
  for (int i = 0; i < w.n; ++i) {
    if (!world.runs(i)) continue;
    auto& mine = cs[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Acs>(
        world.sim->party(i), "acs", L, world.ctx, 0, Acs::CsRule::kAllOnes,
        [&world, &mine, i](const Acs::Output& o) {
          mine = o.cs;
          world.mark(i);
        });
    std::vector<Poly> polys;
    for (int l = 0; l < L; ++l) polys.push_back(Poly::random(w.ts, rng));
    inst[static_cast<std::size_t>(i)]->set_input(polys);
  }
  ComponentRun r = world.finish(t0, world.ctx.T.t_acs);
  const std::vector<int>* first = nullptr;
  for (int i = 0; i < w.n && r.error.empty(); ++i) {
    if (!world.honest(i)) continue;
    const auto& mine = cs[static_cast<std::size_t>(i)];
    if (!first) first = &mine;
    if (mine != *first) r.error = "honest parties disagree on the core set";
    if (static_cast<int>(mine.size()) < w.n - w.ts) r.error = "|CS| < n - ts";
  }
  return r;
}

inline ComponentRun call_vss(const Workload& w, std::uint64_t seed) {
  const int L = 3 * (2 * w.ts + 1);
  const auto t0 = Clock::now();
  World world(w, seed);
  std::vector<std::unique_ptr<Vss>> inst(static_cast<std::size_t>(w.n));
  for (int i = 0; i < w.n; ++i) {
    if (!world.runs(i)) continue;
    inst[static_cast<std::size_t>(i)] = std::make_unique<Vss>(
        world.sim->party(i), "vss", /*dealer=*/0, L, world.ctx, 0,
        [&world, i](const std::vector<Fp>&) { world.mark(i); });
  }
  Rng rng(mix64(seed ^ 0x755ULL));
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(w.ts, rng));
  world.sim->party(0).at(0, [&inst, &qs] { inst[0]->deal(qs); });
  ComponentRun r = world.finish(t0, world.ctx.T.t_vss);
  for (int i = 0; i < w.n && r.error.empty(); ++i) {
    if (!world.honest(i) || !inst[static_cast<std::size_t>(i)]->has_output()) continue;
    const auto& sh = inst[static_cast<std::size_t>(i)]->shares();
    for (int l = 0; l < L; ++l)
      if (sh.size() != qs.size() ||
          sh[static_cast<std::size_t>(l)] != qs[static_cast<std::size_t>(l)].eval(alpha(i)))
        r.error = "honest P" + std::to_string(i) + " holds a wrong share";
  }
  return r;
}

inline ComponentRun call_ba(const Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  World world(w, seed);
  std::vector<std::unique_ptr<Ba>> inst(static_cast<std::size_t>(w.n));
  std::vector<std::optional<bool>> decided(static_cast<std::size_t>(w.n));
  for (int i = 0; i < w.n; ++i) {
    if (!world.runs(i)) continue;
    auto& mine = decided[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<Ba>(
        world.sim->party(i), "ba", world.ctx, 0, [&world, &mine, i](bool b) {
          mine = b;
          world.mark(i);
        });
    inst[static_cast<std::size_t>(i)]->set_input(i % 2 == 0);  // split inputs
  }
  ComponentRun r = world.finish(t0, world.ctx.T.t_ba);
  std::optional<bool> agreed;
  for (int i = 0; i < w.n && r.error.empty(); ++i) {
    if (!world.honest(i)) continue;
    if (agreed && *agreed != decided[static_cast<std::size_t>(i)])
      r.error = "honest parties decided differently";
    agreed = decided[static_cast<std::size_t>(i)];
  }
  return r;
}

/// One n²-slot BcBank: party i broadcasts slots i·n .. i·n + n − 1.
inline ComponentRun call_bc_grid(const Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  World world(w, seed);
  const int n = w.n;
  std::vector<int> senders;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) senders.push_back(i);
  int honest_slots = 0;
  for (int s : senders) honest_slots += world.honest(s) ? 1 : 0;
  auto value = [n](int slot) {
    return Bytes{static_cast<std::uint8_t>(slot / n), static_cast<std::uint8_t>(slot % n)};
  };
  std::vector<std::unique_ptr<BcBank>> inst(static_cast<std::size_t>(n));
  std::vector<std::vector<char>> got(static_cast<std::size_t>(n),
                                     std::vector<char>(senders.size(), 0));
  std::vector<int> correct(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    if (!world.runs(i)) continue;
    auto& mine = got[static_cast<std::size_t>(i)];
    auto& count = correct[static_cast<std::size_t>(i)];
    inst[static_cast<std::size_t>(i)] = std::make_unique<BcBank>(
        world.sim->party(i), "grid", senders, world.ctx, 0,
        [&, i](int slot, const std::optional<Bytes>& v, bool) {
          auto& seen = mine[static_cast<std::size_t>(slot)];
          if (seen || !world.honest(senders[static_cast<std::size_t>(slot)])) return;
          if (!v || *v != value(slot)) return;
          seen = 1;
          if (++count == honest_slots) world.mark(i);
        });
    for (int j = 0; j < n; ++j) inst[static_cast<std::size_t>(i)]->broadcast(i * n + j, value(i * n + j));
  }
  return world.finish(t0, world.ctx.T.t_bc);
}

/// Median over five batches of the microseconds one call of `fn` takes;
/// each batch runs at least 20 ms.
template <typename Fn>
double median_us_per_call(Fn&& fn) {
  std::vector<double> us;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    long calls = 0;
    do {
      fn();
      ++calls;
    } while (seconds_since(t0) < 0.02);
    us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(calls));
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

/// OecBank decode of one degree-ts lane from n points, the first ts wrong.
/// Sets `error` if a decode misses the secret.
inline double oec_err_us(const Workload& w, std::uint64_t seed, std::string& error) {
  Rng rng(mix64(seed ^ 0x0ECULL));
  const Poly q = Poly::random(w.ts, rng);
  std::vector<Fp> ys;
  for (int i = 0; i < w.n; ++i) ys.push_back(q.eval(alpha(i)) + Fp(i < w.ts ? 1 : 0));
  return median_us_per_call([&] {
    OecBank bank(w.ts, w.ts, 1);
    for (int i = 0; i < w.n && !bank.all_done(); ++i)
      bank.add_point(alpha(i), std::span<const Fp>(&ys[static_cast<std::size_t>(i)], 1));
    if (!bank.all_done() || bank.value(0) != q.constant_term())
      error = "OecBank missed the secret with ts wrong points";
  });
}

/// Interpolation through the n public evaluation points.
inline double interpolate_us(const Workload& w, std::uint64_t seed, std::string& error) {
  std::vector<Fp> xs, ys;
  Rng rng(mix64(seed ^ 0x1E7ULL));
  for (int i = 0; i < w.n; ++i) {
    xs.push_back(alpha(i));
    ys.push_back(Fp::random(rng));
  }
  const auto ps = pointset(xs);
  return median_us_per_call([&] {
    const Poly p = ps->interpolate(ys);
    if (p.eval(xs.back()) != ys.back()) error = "interpolant misses a point";
  });
}

}  // namespace bobw::e2e
