// mpc_e2e — the repository benchmark: full ΠCirEval runs (run_mpc) on the
// simulator, back to back in a closed loop (one client, one process).
//
//   mpc_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--setup-only]
//
// Set-up runs one untimed cold session (session 0), which also fills the
// process-wide caches. The untraced pass then runs warm sessions for S
// seconds (at least three) and gives the end-to-end metrics. With --trace 1
// a traced pass re-runs the same sessions under a traffic observer, runs a
// replica of run_mpc and one call into each layer, and gives the per-layer
// metrics instead; its spans go to FILE. Every session is checked; the last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// README.md in this directory lists the metrics and the workloads.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/components.hpp"
#include "e2ebench/replica.hpp"
#include "e2ebench/tracer.hpp"
#include "e2ebench/traffic.hpp"
#include "e2ebench/workload.hpp"

using namespace bobw;
using namespace bobw::e2e;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mpc_e2e: %s\nusage: mpc_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--setup-only]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = v;
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("bad number");
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One checked session.
struct Session {
  std::uint64_t index = 0, seed = 0;
  MpcResult res;
  double wall_s = 0, cpu_s = 0;
  std::string error;  // empty: correct
};

struct Bench {
  const Workload& w;
  const Circuit cir;
  const Args& args;
  int attempted = 0, failed = 0;

  Bench(const Workload& wl, const Args& a) : w(wl), cir(wl.circuit(wl.n)), args(a) {}

  /// Counts one checked operation; prints how to replay it when it failed.
  void account(const std::string& what, std::uint64_t index, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr,
                 "FAIL workload=%s seed=%llu %s %llu: %s\n"
                 "  rerun: python3 e2ebench/run.py --workload %s --seed %llu --seconds %g "
                 "--trace %d\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed), what.c_str(),
                 static_cast<unsigned long long>(index), error.c_str(), w.name.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  }

  Session run_session(std::uint64_t k, std::shared_ptr<Adversary> adv) {
    Session s;
    s.index = k;
    s.seed = session_seed(args.seed, k);
    const std::vector<Fp> inputs = session_inputs(w, s.seed);
    const MpcConfig cfg = session_config(w, s.seed, std::move(adv));
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    s.res = run_mpc(cir, inputs, cfg);
    s.cpu_s = cpu_seconds() - c0;
    s.wall_s = seconds_since(t0);
    s.error = check_session(w, cir, inputs, s.res);
    return s;
  }

  double finish_delta(const MpcResult& r) const {
    return static_cast<double>(last_honest_finish(w, r)) / kDelta;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + std::string(buf, r.ptr) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Human-readable line for one warm-session timing sample: the median, and
/// the highest percentile with at least ten samples beyond it.
void print_timing(const char* name, std::vector<double> v) {
  std::printf("%-12s per session:", name);
  for (double x : v) std::printf(" %.3f", x);
  std::printf("\n");
  std::sort(v.begin(), v.end());
  const std::size_t c = v.size();
  std::printf("%-12s median %.4f s over %zu warm sessions (min %.4f, max %.4f)", name, median(v),
              c, v.front(), v.back());
  if (c >= 20) {
    const std::size_t p = 100 - (1000 + c - 1) / c;  // ≥ 10 samples above p
    std::printf("; p%zu %.4f s\n", p, v[c * p / 100]);
  } else {
    std::printf("; no percentile above the median has 10 samples beyond it at %zu\n", c);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto t_start = Clock::now();
  const Args args = parse(argc, argv);
  const auto all = workloads();
  const Workload* wl = find_workload(all, args.workload);
  if (!wl) usage("unknown workload");
  try {
    Bench b(*wl, args);
    const Workload& w = *wl;

    // ---- set-up: one untimed cold session -------------------------------
    std::vector<Session> untraced;
    untraced.push_back(b.run_session(0, plain_adversary(w)));
    b.account("session", 0, untraced[0].error);
    const double setup_s = seconds_since(t_start);
    if (args.setup_only) {
      print_result(b.failed == 0, b.attempted, b.failed, {{"setup_s", setup_s, "s"}});
      return 0;
    }

    // ---- untraced pass: the end-to-end metrics ---------------------------
    const auto loop_t0 = Clock::now();
    do {
      untraced.push_back(b.run_session(untraced.size(), plain_adversary(w)));
      b.account("session", untraced.back().index, untraced.back().error);
    } while (untraced.size() < 4 || seconds_since(loop_t0) < args.seconds);
    std::vector<double> wall, cpu;
    for (std::size_t k = 1; k < untraced.size(); ++k) {
      wall.push_back(untraced[k].wall_s);
      cpu.push_back(untraced[k].cpu_s);
    }
    const MpcResult& r0 = untraced[0].res;
    std::printf("workload %s, seed %llu, %zu sessions (1 cold + %zu warm)\n", w.name.c_str(),
                static_cast<unsigned long long>(args.seed), untraced.size(), wall.size());
    print_timing("mpc_wall_s", wall);
    print_timing("mpc_cpu_s", cpu);

    if (!args.trace) {
      const int sessions = b.attempted;
      const std::vector<Metric> ms = {
          {"mpc_wall_s", median(wall), "s"},
          {"mpc_cpu_s", median(cpu), "s"},
          {"honest_msgs", static_cast<double>(r0.honest_msgs), "count"},
          {"honest_bits", static_cast<double>(r0.honest_bits), "bits"},
          {"sim_events", static_cast<double>(r0.events), "count"},
          {"finish_delta", b.finish_delta(r0), "delta"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"ok_frac", static_cast<double>(sessions - b.failed) / sessions, "ratio"},
      };
      std::printf("fail_frac    %d / %d sessions\n", b.failed, sessions);
      print_result(b.failed == 0, b.attempted, b.failed, ms);
      return 0;
    }

    // ---- traced pass: the per-layer metrics ------------------------------
    Tracer tracer(t_start);
    std::vector<double> traced_wall;
    std::shared_ptr<TrafficObserver> obs0;
    for (const Session& u : untraced) {
      auto span = tracer.span("session", 0, static_cast<std::int64_t>(u.index));
      auto obs = std::make_shared<TrafficObserver>(w.plans, w.sched);
      Session t;
      {
        auto call = tracer.span("run_mpc", span.id(), static_cast<std::int64_t>(u.index));
        t = b.run_session(u.index, obs);
      }
      std::string error = t.error;
      if (error.empty() &&
          (t.res.honest_msgs != u.res.honest_msgs || t.res.honest_bits != u.res.honest_bits ||
           t.res.events != u.res.events || t.res.finish_time != u.res.finish_time))
        error = "traced run differs from the untraced run (msgs, bits, events or finish)";
      if (error.empty()) error = obs->check_sums(t.res.honest_msgs, t.res.honest_bits);
      b.account("traced session", u.index, error);
      if (u.index == 0) obs0 = obs;
      else traced_wall.push_back(t.wall_s);
    }

    ReplicaRun rep;
    {
      auto span = tracer.span("replica");
      const std::uint64_t s0 = session_seed(args.seed, 0);
      rep = run_mpc_replica(b.cir, session_inputs(w, s0), session_config(w, s0, plain_adversary(w)),
                            tracer, span.id());
      b.account("replica of session", 0, replica_mismatch(rep.res, r0));
    }

    std::vector<std::pair<std::string, ComponentRun>> comps;
    std::string kernel_error;
    double oec_us = 0, interp_us = 0;
    {
      auto span = tracer.span("components");
      const auto call = [&](const char* name, auto fn) {
        auto s = tracer.span(name, span.id());
        comps.emplace_back(name, fn(w, session_seed(args.seed, 1000 + comps.size())));
        b.account(std::string("component ") + name, 0, comps.back().second.error);
      };
      call("mpc.tripsh", call_tripsh);
      call("acs", call_acs);
      call("vss", call_vss);
      call("ba", call_ba);
      call("bcast.grid", call_bc_grid);
      {
        auto s = tracer.span("rs.oec", span.id());
        oec_us = oec_err_us(w, args.seed, kernel_error);
      }
      {
        auto s = tracer.span("field.interpolate", span.id());
        interp_us = interpolate_us(w, args.seed, kernel_error);
      }
      b.account("component kernels", 0, kernel_error);
    }

    // ---- per-layer table ---------------------------------------------------
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
      return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
    };
    const auto row = [&](const char* name, const Tally& t) {
      std::printf("  %-12s %12llu %5.1f%%  %15llu %5.1f%%\n", name,
                  static_cast<unsigned long long>(t.msgs), share(t.msgs, r0.honest_msgs),
                  static_cast<unsigned long long>(t.bits), share(t.bits, r0.honest_bits));
    };
    const char* layer_names[] = {"bcast.acast", "bcast.sba", "ba.aba", "vss.p2p", "mpc.p2p"};
    const char* phase_names[] = {"mpc.prep", "mpc.input", "mpc.online"};
    std::printf("\nsession 0 honest traffic by layer and by phase (msgs, bits)\n");
    for (int l = 0; l < kLayerCount; ++l) row(layer_names[l], obs0->layer(static_cast<Layer>(l)));
    for (int p = 0; p < kPhaseCount; ++p) row(phase_names[p], obs0->phase(static_cast<Phase>(p)));
    std::printf("\nspans (count, total s, self s)\n");
    for (const auto& [name, sum] : tracer.summary())
      std::printf("  %-18s %4d %10.4f %10.4f\n", name.c_str(), sum.count, sum.total_s,
                  sum.self_s);

    const auto tally = [&](Layer l) { return obs0->layer(l); };
    const auto phase = [&](Phase p) { return obs0->phase(p); };
    const auto num = [](std::uint64_t v) { return static_cast<double>(v); };
    const double aba_inst = num(obs0->aba_instances());
    const double lookups = num(rep.cache_hits + rep.cache_misses);
    std::vector<Metric> ms = {
        {"bcast.acast.msgs", num(tally(kAcast).msgs), "count"},
        {"bcast.acast.bits", num(tally(kAcast).bits), "bits"},
        {"bcast.sba.msgs", num(tally(kSba).msgs), "count"},
        {"bcast.sba.bits", num(tally(kSba).bits), "bits"},
        {"ba.aba.msgs", num(tally(kAba).msgs), "count"},
        {"ba.aba.bits", num(tally(kAba).bits), "bits"},
        {"ba.aba_instances", aba_inst, "count"},
        {"ba.aba.msgs_per_instance", aba_inst > 0 ? num(tally(kAba).msgs) / aba_inst : 0, "count"},
        {"vss.p2p.msgs", num(tally(kVssP2p).msgs), "count"},
        {"vss.p2p.bits", num(tally(kVssP2p).bits), "bits"},
        {"vss.sharings", num(obs0->vss_sharings()), "count"},
        {"mpc.p2p.msgs", num(tally(kMpcP2p).msgs), "count"},
        {"mpc.p2p.bits", num(tally(kMpcP2p).bits), "bits"},
        {"mpc.prep.msgs", num(phase(kPrep).msgs), "count"},
        {"mpc.prep.bits", num(phase(kPrep).bits), "bits"},
        {"mpc.input.msgs", num(phase(kInput).msgs), "count"},
        {"mpc.input.bits", num(phase(kInput).bits), "bits"},
        {"mpc.online.msgs", num(phase(kOnline).msgs), "count"},
        {"mpc.online.bits", num(phase(kOnline).bits), "bits"},
        {"mpc.online_start_delta", num(obs0->online_start()) / kDelta, "delta"},
        {"sim.build_s", rep.build_s, "s"},
        {"sim.run_s", rep.run_s, "s"},
        {"sim.events_per_s", num(rep.res.events) / rep.run_s, "1/s"},
        {"sim.routes", num(rep.routes), "count"},
        {"bcast.sba_schedules", num(rep.sba_schedules), "count"},
        {"bcast.acast_planes", num(rep.acast_planes), "count"},
        {"bcast.decode_hit_rate", lookups > 0 ? num(rep.cache_hits) / lookups : 0, "ratio"},
    };
    for (const auto& [name, c] : comps) {
      ms.push_back({name + ".call_ms", c.call_ms, "ms"});
      ms.push_back({name + ".finish_delta", c.finish_delta, "delta"});
      ms.push_back({name + ".slack_delta", c.slack_delta, "delta"});
    }
    ms.push_back({"rs.oec_err_us", oec_us, "us"});
    ms.push_back({"field.interpolate_us", interp_us, "us"});
    ms.push_back({"trace.overhead_s", median(traced_wall) - median(wall), "s"});
    ms.push_back({"trace.sessions", num(untraced.size()), "count"});

    if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out)) {
      std::fprintf(stderr, "mpc_e2e: cannot write spans to %s\n", args.trace_out.c_str());
      return 1;
    }
    print_result(b.failed == 0, b.attempted, b.failed, ms);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpc_e2e: %s\n", e.what());
    return 1;
  }
}
