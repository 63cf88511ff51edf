#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  int32_t parent = log_->open.empty() ? -1 : log_->open.back();
  if (parent < 0) log_->interaction = log_->tracer->NextInteraction();
  log_->open.push_back(static_cast<int32_t>(log_->spans.size()));
  log_->spans.push_back({name, parent, log_->interaction, NowNs(), 0});
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(log_->open.back())].end_ns = NowNs();
  log_->open.pop_back();
}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>());
  logs_.back()->tracer = this;
  logs_.back()->spans.reserve(1 << 16);
  return logs_.back().get();
}

std::map<std::string, std::vector<double>> Tracer::Summarize() const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& log : logs_) {
    // A thread's spans are sequential, so a span's children never overlap
    // one another: its self time is its duration minus theirs.
    std::vector<double> child_ns(log->spans.size(), 0.0);
    for (const SpanLog::Span& s : log->spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += double(s.end_ns - s.start_ns);
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanLog::Span& s = log->spans[i];
      out[s.name].push_back(double(s.end_ns - s.start_ns) - child_ns[i]);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,interaction,name,start_ns,end_ns\n");
  for (size_t t = 0; t < logs_.size(); ++t) {
    const auto& spans = logs_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%lld,%lld\n", t, i, s.parent,
                   static_cast<unsigned long long>(s.interaction), s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
