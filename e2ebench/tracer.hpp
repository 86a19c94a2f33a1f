// Span recorder for the traced pass. Spans are recorded from the
// benchmark's own code, around its calls into each layer's public API, and
// kept in memory; write_jsonl writes them once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bobw::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0, parent = 0;  // parent 0: a root span
    std::int64_t session = -1;         // spans of one session share it
    std::string name;
    double start_s = 0, end_s = 0;     // since the tracer's origin
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& t, std::uint32_t id) : t_(t), id_(id) {}
    ~Scope() { t_.spans_[id_ - 1].end_s = seconds_since(t_.origin_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }
    double elapsed_s() const { return seconds_since(t_.origin_) - t_.spans_[id_ - 1].start_s; }

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  Scope span(std::string name, std::uint32_t parent = 0, std::int64_t session = -1) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.session = session;
    s.name = std::move(name);
    s.start_s = seconds_since(origin_);
    spans_.push_back(std::move(s));
    return Scope(*this, spans_.back().id);
  }

  /// Per span name: {count, total seconds, self seconds}, where self time
  /// is a span's duration minus the part its child spans cover.
  struct Sum {
    int count = 0;
    double total_s = 0, self_s = 0;
  };
  std::map<std::string, Sum> summary() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const auto& s : spans_)
      if (s.parent != 0) child_s[s.parent - 1] += s.end_s - s.start_s;
    std::map<std::string, Sum> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& sum = out[spans_[i].name];
      const double d = spans_[i].end_s - spans_[i].start_s;
      sum.count++;
      sum.total_s += d;
      sum.self_s += d - child_s[i];
    }
    return out;
  }

  /// One JSON object per line. Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const auto& s : spans_)
      std::fprintf(f,
                   "{\"id\": %u, \"parent\": %u, \"session\": %lld, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                   s.id, s.parent, static_cast<long long>(s.session), s.name.c_str(), s.start_s,
                   s.end_s);
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace bobw::e2e
