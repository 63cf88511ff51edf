// Spans for the traced run: one span (name, start, end, parent,
// interaction id) around each call the benchmark makes into a layer. Spans
// stay in memory, one log per thread, and are summarized and written out
// when the run ends. With tracing off every Scope is a no-op.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

/// The spans one thread recorded. Only its own thread touches it until the
/// run ends.
struct SpanLog {
  struct Span {
    const char* name;
    int32_t parent;  // index in this log; -1 for an interaction's root
    uint64_t interaction;
    int64_t start_ns;
    int64_t end_ns;
  };
  Tracer* tracer = nullptr;
  std::vector<Span> spans;
  std::vector<int32_t> open;
  uint64_t interaction = 0;
};

/// Records one span for its lifetime. A span opened with no other span
/// open on its thread starts a new interaction.
class Scope {
 public:
  Scope(SpanLog* log, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// A log for the calling thread, or nullptr when tracing is off.
  SpanLog* NewLog();
  uint64_t NextInteraction() { return next_interaction_.fetch_add(1) + 1; }

  /// Per span name, the self time of each span (its duration minus its
  /// children's), in ns. Call after every thread that logs has finished.
  std::map<std::string, std::vector<double>> Summarize() const;
  /// Writes every span as CSV (thread, index, parent, interaction, name,
  /// start_ns, end_ns). Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<uint64_t> next_interaction_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
