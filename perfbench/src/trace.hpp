// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around the calls it makes into each library layer;
// they are kept in memory and written out as Chrome trace-event JSON when
// the run ends. A null Tracer pointer means "not traced": Scope then does
// nothing, not even read the clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "plan.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Opens a span and returns its id (the index its record will have).
  std::int64_t open(std::string name, std::int64_t parent,
                    std::uint64_t request);
  void close(std::int64_t id);

  /// Nanoseconds since the tracer was created (the spans' time base).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Records an already closed span, for work whose parent is only known
  /// once it finished (a response parsed before its request is looked up).
  void add(SpanRecord record);

  /// Snapshot of every span recorded so far (closed or not).
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; args carry id, parent and request). Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `tracer` is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::int64_t parent = -1,
        std::uint64_t request = 0)
      : tracer_{tracer},
        id_{tracer != nullptr ? tracer->open(std::move(name), parent, request)
                              : -1} {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
