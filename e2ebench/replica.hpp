// A replica of run_mpc (src/core/runner.cpp) built on the public Sim and
// CirEval API, so the traced pass can time the two halves of a session —
// building the n session trees, then running the simulator — and read the
// Sim-only counters (routes, shared schedule planes, decode cache) that
// MpcResult does not carry. The benchmark compares the replica's result with
// run_mpc's on the same seed and refuses to report these counters if they
// differ: they would then describe a different program.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "e2ebench/tracer.hpp"
#include "src/ba/coin.hpp"
#include "src/core/runner.hpp"
#include "src/mpc/cir_eval.hpp"

namespace bobw::e2e {

struct ReplicaRun {
  MpcResult res;
  double build_s = 0, run_s = 0;
  std::size_t routes = 0;
  std::uint64_t sba_schedules = 0, acast_planes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

inline ReplicaRun run_mpc_replica(const Circuit& cir, const std::vector<Fp>& inputs,
                                  const MpcConfig& cfg, Tracer& tracer, std::uint32_t parent) {
  cfg.validate();
  std::shared_ptr<Adversary> adv = cfg.adversary;
  if (!adv && !cfg.corrupt.empty()) {
    adv = std::make_shared<CrashAdversary>();
    for (int c : cfg.corrupt) adv->corrupt(c);
  }
  NetConfig net;
  net.mode = cfg.mode;
  net.delta = cfg.delta;
  net.async_min = cfg.async_min;
  net.async_max = cfg.async_max;
  if (cfg.sync_min > 0) net.sync_min_delay = cfg.sync_min;
  net.clamp_sync_min();

  ReplicaRun out;
  MpcResult& res = out.res;
  const auto n = static_cast<std::size_t>(cfg.n);
  res.outputs.resize(n);
  res.output_vectors.resize(n);
  res.finish_time.assign(n, 0);

  std::unique_ptr<Sim> sim;
  std::unique_ptr<IdealCoin> coin;
  std::vector<std::shared_ptr<CirEval>> sessions(n);
  {
    auto build = tracer.span("sim.build", parent);
    sim = std::make_unique<Sim>(cfg.n, net, cfg.seed, adv);
    sim->set_threads(cfg.threads, cfg.min_batch);
    coin = std::make_unique<IdealCoin>(mix64(cfg.seed ^ 0xBEEF));
    const Ctx ctx = Ctx::make(cfg.n, cfg.ts, cfg.ta, cfg.delta, coin.get());
    Sim* s = sim.get();
    for (int i = 0; i < cfg.n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (!(s->honest(i) || (adv && adv->participates(i)))) continue;
      sessions[ui] = std::make_shared<CirEval>(
          s->party(i), "mpc", cir, inputs[ui], ctx, /*base=*/0,
          [&res, s, ui](const std::vector<Fp>& y) {
            res.outputs[ui] = y[0];
            res.output_vectors[ui] = y;
            res.finish_time[ui] = s->now();
          });
      s->party(i).own(sessions[ui]);
    }
    out.build_s = build.elapsed_s();
  }
  {
    auto run = tracer.span("sim.run", parent);
    res.events = sim->run(~Tick{0}, cfg.max_events);
    out.run_s = run.elapsed_s();
  }
  res.truncated = sim->truncated();
  res.end_time = sim->now();
  res.honest_bits = sim->metrics().honest_bits();
  res.honest_msgs = sim->metrics().honest_msgs();
  for (int i = 0; i < cfg.n; ++i) {
    const auto& s = sessions[static_cast<std::size_t>(i)];
    if (s && sim->honest(i) && s->input_cs()) {
      res.input_cs = *s->input_cs();
      break;
    }
  }

  out.routes = sim->routes().size();
  for (const auto& k : sim->shared_state_keys()) {
    if (k.rfind("sba|", 0) == 0) ++out.sba_schedules;
    if (k.rfind("acast|", 0) == 0) ++out.acast_planes;
  }
  out.cache_hits = sim->decode_cache_stats().hits.load();
  out.cache_misses = sim->decode_cache_stats().misses.load();
  return out;
}

/// Empty iff the replica ran the same program as run_mpc: same events,
/// honest traffic, termination ticks, outputs and input set.
inline std::string replica_mismatch(const MpcResult& a, const MpcResult& b) {
  if (a.events != b.events) return "events differ";
  if (a.honest_msgs != b.honest_msgs) return "honest_msgs differ";
  if (a.honest_bits != b.honest_bits) return "honest_bits differ";
  if (a.finish_time != b.finish_time || a.end_time != b.end_time) return "finish ticks differ";
  if (a.output_vectors != b.output_vectors || a.input_cs != b.input_cs) return "outputs differ";
  return "";
}

}  // namespace bobw::e2e
