// In-memory span and counter recorder for the traced benchmark run.
//
// A span is (id, parent, program, trial, name, start, end): the parent is the
// span open when it began, and every span of one trial carries that trial's
// index as the shared identifier.  Counters record a value at the same
// boundaries (instructions of a launch, a trial's outcome class, ...).
// Nothing is written until write() — the benchmark calls it once, at the end
// of the run — so recording costs two clock reads and a vector append.
//
// Single-threaded by design: the traced run records only from the thread
// that drives it.  A disabled tracer records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Program index stamped on every span and counter recorded from now on
  /// (-1 = not tied to one program).
  void set_program(int program) noexcept { program_ = program; }

  /// Open a span; `trial` < 0 inherits the enclosing span's trial.
  std::uint32_t begin(const char* name, std::int64_t trial = -1);
  void end(std::uint32_t id);

  /// Record a counter value against the innermost open span's trial (or
  /// `trial` when given).
  void count(const char* name, double value, std::int64_t trial = -1);

  /// Write every span and counter as whitespace-separated text lines:
  ///   S id parent program trial name start_ns end_ns
  ///   C program trial name value
  /// Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

  [[nodiscard]] std::size_t spans() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    int program;
    std::int64_t trial;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Counter {
    const char* name;
    int program;
    std::int64_t trial;
    double value;
  };

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  int program_ = -1;
  std::vector<Span> spans_;         ///< span id k is spans_[k - 1]
  std::vector<std::uint32_t> open_; ///< ids of the currently open spans
  std::vector<Counter> counters_;
};

/// RAII span scope.  A no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t trial = -1)
      : t_(t), id_(t.enabled() ? t.begin(name, trial) : 0) {}
  ~Scope() {
    if (id_ != 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace perfbench
