// Benchmark-side span recorder for the traced mode.
//
// Spans are opened by the benchmark around each call it makes into a
// layer's public function; nothing inside the library is instrumented.
// Each span records its name, start, end, the span that was open on the
// same thread when it started (its parent) and the thread. Spans stay in
// memory and are written once, at exit. With tracing off a Span is one
// branch on a bool: end-to-end runs record nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fa::perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: no enclosing span
  std::uint32_t thread = 0;
};

// Monotonic nanoseconds since the first call in this process.
std::uint64_t now_ns();

class Tracer {
 public:
  static Tracer& get();

  void enable() { on_ = true; }
  bool on() const { return on_; }

  std::uint32_t open(std::string name);
  void close(std::uint32_t id);

  // Completed spans, in the order they were opened.
  std::vector<SpanRecord> spans() const;

  // Self time of every span named `name` (duration minus the part of
  // its interval that its child spans cover), in nanoseconds.
  std::vector<double> self_ns(const std::string& name) const;
  double total_self_s(const std::string& name) const;

  // Chrome trace-event JSON ("X" events; args carry id and parent).
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
};

// RAII span. The name is only copied when tracing is on.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Tracer::get().on() ? Tracer::get().open(name) : 0) {}
  ~Span() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

}  // namespace fa::perfbench
