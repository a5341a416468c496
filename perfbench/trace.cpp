#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/json.h"

namespace perfbench {

Tracer::Tracer() : t0_(std::chrono::steady_clock::now()) {}

u64 Tracer::now_ns() const {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0_)
                              .count());
}

u64 Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::add(const SpanRecord& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent never overlap (each job runs on one thread),
  // so a parent's covered time is the sum of its children's durations.
  std::unordered_map<u64, u64> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.parent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans_) {
    SpanTotals& t = out[s.name];
    double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    auto it = child_ns.find(s.id);
    double covered =
        it == child_ns.end() ? 0 : static_cast<double>(it->second) / 1e6;
    ++t.count;
    t.total_ms += dur;
    t.self_ms += std::max(0.0, dur - covered);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"job\":%u}}%s\n",
                 faros::json_escape(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.job,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  const bool write_ok = !std::ferror(f);
  return std::fclose(f) == 0 && write_ok;
}

Span::Span(Tracer& t, const char* name, u64 parent, u32 job, u32 thread)
    : tracer_(t) {
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = parent;
  rec_.job = job;
  rec_.thread = thread;
  rec_.start_ns = t.now_ns();
}

Span::~Span() {
  rec_.end_ns = tracer_.now_ns();
  tracer_.add(rec_);
}

}  // namespace perfbench
