#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::int64_t trial) {
  const std::uint32_t parent = open_.empty() ? 0 : open_.back();
  if (trial < 0 && parent != 0) trial = spans_[parent - 1].trial;
  spans_.push_back({name, parent, program_, trial, now_ns(), 0});
  const auto id = static_cast<std::uint32_t>(spans_.size());
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  open_.pop_back();  // Scope closes spans innermost first, so `id` is on top
}

void Tracer::count(const char* name, double value, std::int64_t trial) {
  if (!enabled_) return;
  if (trial < 0 && !open_.empty()) trial = spans_[open_.back() - 1].trial;
  counters_.push_back({name, program_, trial, value});
}

void Tracer::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                          &std::fclose);
  if (!f) throw std::runtime_error("trace: cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(), "S %zu %u %d %lld %s %lld %lld\n", i + 1, s.parent, s.program,
                 static_cast<long long>(s.trial), s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const Counter& c : counters_)
    std::fprintf(f.get(), "C %d %lld %s %.17g\n", c.program, static_cast<long long>(c.trial),
                 c.name, c.value);
  if (std::ferror(f.get())) throw std::runtime_error("trace: write failed for " + path);
}

}  // namespace perfbench
