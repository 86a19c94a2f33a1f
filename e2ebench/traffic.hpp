// Traffic observer for the traced pass.
//
// A zoo::ZooAdversary whose delay_override first counts the message, then
// returns the base class's decision. Sim::post calls the hook once per
// message that survives the sender's filter, right after Metrics counted
// it, and always from one thread (the executor's merge phase). The
// observer draws no random numbers and changes no message, so a traced run
// is the run an untraced ZooAdversary with the same plans produces; the
// benchmark checks that against the untraced pass instead of assuming it.
//
// Each honest message is attributed by its route name with the ":idx"
// instance suffixes stripped: the leaf names the transport layer (acast,
// sba, aba, or the point-to-point sends of vss/wps and of the MPC layer),
// the second path element names the ΠCirEval phase (prep, in, online).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/sim/adversary_zoo.hpp"

namespace bobw::e2e {

enum Layer : std::uint8_t { kAcast, kSba, kAba, kVssP2p, kMpcP2p, kLayerCount };
enum Phase : std::uint8_t { kPrep, kInput, kOnline, kPhaseCount };

struct Tally {
  std::uint64_t msgs = 0, bits = 0;
};

class TrafficObserver : public zoo::ZooAdversary {
 public:
  using zoo::ZooAdversary::ZooAdversary;

  std::optional<Tick> delay_override(const Msg& m) override {
    RouteClass& c = classify(m);
    if (!is_corrupt(m.from)) {
      const std::uint64_t bits = m.bits();
      layer_[c.layer].msgs++;
      layer_[c.layer].bits += bits;
      phase_[c.phase].msgs++;
      phase_[c.phase].bits += bits;
      if (c.layer == kAba && !c.honest_seen) ++aba_instances_;
      c.honest_seen = true;
      if (c.phase == kOnline) online_start_ = std::min(online_start_, m.sent_at);
    }
    return zoo::ZooAdversary::delay_override(m);
  }

  const Tally& layer(Layer l) const { return layer_[l]; }
  const Tally& phase(Phase p) const { return phase_[p]; }
  /// ABA instances (distinct routes) that carried honest traffic.
  std::uint64_t aba_instances() const { return aba_instances_; }
  /// Distinct ΠVSS instances that carried any traffic.
  std::uint64_t vss_sharings() const { return vss_instances_.size(); }
  /// First send tick of the online phase (max Tick if it never started).
  Tick online_start() const { return online_start_; }

  /// Empty iff the layer and the phase tallies each sum to the run's totals.
  std::string check_sums(std::uint64_t honest_msgs, std::uint64_t honest_bits) const {
    Tally l, p;
    for (const auto& t : layer_) l.msgs += t.msgs, l.bits += t.bits;
    for (const auto& t : phase_) p.msgs += t.msgs, p.bits += t.bits;
    if (l.msgs != honest_msgs || l.bits != honest_bits)
      return "layer tallies sum to " + std::to_string(l.msgs) + " msgs / " +
             std::to_string(l.bits) + " bits, run counted " + std::to_string(honest_msgs) +
             " / " + std::to_string(honest_bits);
    if (p.msgs != honest_msgs || p.bits != honest_bits)
      return "phase tallies sum to " + std::to_string(p.msgs) + " msgs / " +
             std::to_string(p.bits) + " bits, run counted " + std::to_string(honest_msgs) +
             " / " + std::to_string(honest_bits);
    return "";
  }

 private:
  struct RouteClass {
    bool known = false;
    bool honest_seen = false;
    Layer layer = kMpcP2p;
    Phase phase = kOnline;
  };

  /// Classified once per route (RouteIds are dense), so the per-message
  /// cost is one vector index.
  RouteClass& classify(const Msg& m) {
    if (routes_.size() <= m.route) routes_.resize(m.route + 1);
    RouteClass& c = routes_[m.route];
    if (c.known) return c;
    c.known = true;
    const std::string& name = route_name(m);
    std::vector<std::string> path;
    std::size_t begin = 0;
    while (begin <= name.size()) {
      std::size_t end = name.find('/', begin);
      if (end == std::string::npos) end = name.size();
      const std::string raw = name.substr(begin, end - begin);
      path.push_back(raw.substr(0, raw.find(':')));
      if (path.back() == "vss") vss_instances_.insert(name.substr(0, end));
      begin = end + 1;
    }
    std::string leaf = path.back();
    while (!leaf.empty() && leaf.back() >= '0' && leaf.back() <= '9') leaf.pop_back();
    if (leaf == "acast") c.layer = kAcast;
    else if (leaf == "sba") c.layer = kSba;
    else if (leaf == "aba") c.layer = kAba;
    else if (leaf == "vss" || leaf == "wps") c.layer = kVssP2p;
    const std::string second = path.size() > 1 ? path[1] : "";
    if (second == "prep") c.phase = kPrep;
    else if (second == "in") c.phase = kInput;
    return c;
  }

  std::vector<RouteClass> routes_;
  std::array<Tally, kLayerCount> layer_{};
  std::array<Tally, kPhaseCount> phase_{};
  std::uint64_t aba_instances_ = 0;
  std::set<std::string> vss_instances_;
  Tick online_start_ = std::numeric_limits<Tick>::max();
};

}  // namespace bobw::e2e
