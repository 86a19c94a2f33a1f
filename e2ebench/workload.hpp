// The benchmark's four workloads and the per-session correctness check.
//
// A session is one full ΠCirEval run (`run_mpc`) on its own seed and inputs,
// both derived from the workload seed and the session index, so a failing
// session can be replayed from the two numbers the failure line prints.
// README.md in this directory says why each workload was chosen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/sim/adversary_zoo.hpp"

namespace bobw::e2e {

inline constexpr Tick kDelta = 1000;

struct Workload {
  std::string name;
  int n = 0, ts = 0, ta = 0;
  NetMode mode = NetMode::kSynchronous;
  int threads = 1;
  std::function<Circuit(int)> circuit;
  std::map<int, zoo::PartyPlan> plans;  // the corrupt set is exactly the keys
  zoo::SchedPlan sched;

  bool corrupt(int i) const { return plans.count(i) != 0; }
  bool adversarial() const { return !plans.empty() || !sched.side_of.empty(); }
};

/// Executor threads for the one multi-threaded workload: 4, capped at nproc.
inline int executor_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

inline std::vector<Workload> workloads() {
  std::vector<Workload> ws;

  Workload honest;
  honest.name = "sync-honest-n10";
  honest.n = 10;
  honest.ts = 3;
  honest.circuit = circuits::pairwise_sums_product;
  ws.push_back(honest);

  Workload byz = honest;
  byz.name = "sync-byz-n10-t4";
  byz.threads = executor_threads();
  for (int p : {7, 8, 9}) byz.plans[p] = zoo::PartyPlan{zoo::Mal::kEquivocate, 0, 0};
  ws.push_back(byz);

  Workload heal;
  heal.name = "async-heal-n8";
  heal.n = 8;
  heal.ts = 2;
  heal.ta = 1;
  heal.mode = NetMode::kAsynchronous;
  heal.circuit = circuits::pairwise_sums_product;
  heal.plans[7] = zoo::PartyPlan{};  // silent
  heal.sched.side_of = {0, 0, 0, 0, 1, 1, 1, 1};
  heal.sched.heal_at = 4 * kDelta;
  ws.push_back(heal);

  Workload deep;
  deep.name = "sync-deep-n7";
  deep.n = 7;
  deep.ts = 2;
  deep.circuit = [](int n) { return circuits::mult_chain(n, 128); };
  ws.push_back(deep);

  return ws;
}

inline const Workload* find_workload(const std::vector<Workload>& ws, const std::string& name) {
  for (const auto& w : ws)
    if (w.name == name) return &w;
  return nullptr;
}

/// Seed of session `k` of a run with workload seed `seed`.
inline std::uint64_t session_seed(std::uint64_t seed, std::uint64_t k) {
  return mix64(mix64(seed) + k);
}

inline std::vector<Fp> session_inputs(const Workload& w, std::uint64_t sseed) {
  Rng rng(mix64(sseed ^ 0x1A9B7ULL));
  std::vector<Fp> xs;
  for (int i = 0; i < w.n; ++i) xs.push_back(Fp::random(rng));
  return xs;
}

/// The workload's adversary as an untraced run sees it (null when honest).
inline std::shared_ptr<Adversary> plain_adversary(const Workload& w) {
  if (!w.adversarial()) return nullptr;
  return std::make_shared<zoo::ZooAdversary>(w.plans, w.sched);
}

inline MpcConfig session_config(const Workload& w, std::uint64_t sseed,
                                std::shared_ptr<Adversary> adv) {
  MpcConfig cfg;
  cfg.n = w.n;
  cfg.ts = w.ts;
  cfg.ta = w.ta;
  cfg.mode = w.mode;
  cfg.delta = kDelta;
  cfg.seed = sseed;
  cfg.adversary = std::move(adv);
  cfg.threads = w.threads;
  return cfg;
}

/// Last honest termination tick (0 if no honest party terminated).
inline Tick last_honest_finish(const Workload& w, const MpcResult& r) {
  Tick last = 0;
  for (int i = 0; i < w.n; ++i)
    if (!w.corrupt(i)) last = std::max(last, r.finish_time[static_cast<std::size_t>(i)]);
  return last;
}

/// The session rules: empty when the session is correct, else the first
/// rule it broke.
inline std::string check_session(const Workload& w, const Circuit& cir,
                                 const std::vector<Fp>& inputs, const MpcResult& r) {
  if (r.truncated) return "run truncated";
  std::vector<Fp> eff(inputs.size(), Fp(0));
  for (int j : r.input_cs) eff[static_cast<std::size_t>(j)] = inputs[static_cast<std::size_t>(j)];
  const std::vector<Fp> want = cir.eval_outputs(eff);
  for (int i = 0; i < w.n; ++i) {
    if (w.corrupt(i)) continue;
    const auto& got = r.output_vectors[static_cast<std::size_t>(i)];
    if (!got) return "honest P" + std::to_string(i) + " did not terminate";
    if (*got != want)
      return "honest P" + std::to_string(i) + " output differs from f over the CS inputs";
  }
  if (static_cast<int>(r.input_cs.size()) < w.n - w.ts)
    return "|CS| = " + std::to_string(r.input_cs.size()) + " < n - ts";
  if (w.mode == NetMode::kSynchronous) {
    for (int i = 0; i < w.n; ++i)
      if (!w.corrupt(i) && std::find(r.input_cs.begin(), r.input_cs.end(), i) == r.input_cs.end())
        return "honest P" + std::to_string(i) + " missing from CS in a synchronous run";
  }
  return "";
}

}  // namespace bobw::e2e
