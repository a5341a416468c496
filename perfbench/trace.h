// Span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer, kept in memory, and
// written out once at the end as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using faros::u32;
using faros::u64;

struct SpanRecord {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;  // 0 = root
  u32 job = 0;     // every span of one job shares this
  u32 thread = 0;
  u64 start_ns = 0;  // since the tracer was created
  u64 end_ns = 0;
};

struct SpanTotals {
  u64 count = 0;
  double total_ms = 0;
  double self_ms = 0;  // total minus the time its child spans cover
};

class Tracer {
 public:
  Tracer();

  u64 now_ns() const;
  u64 next_id();
  void add(const SpanRecord& s);

  /// Per span name: count, total and self time.
  std::map<std::string, SpanTotals> totals() const;
  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mu_;
  u64 next_id_ = 1;                // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: records [construction, destruction) under `parent`.
class Span {
 public:
  Span(Tracer& t, const char* name, u64 parent, u32 job, u32 thread);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  u64 id() const { return rec_.id; }
  /// Nanoseconds since the span opened.
  u64 elapsed_ns() const { return tracer_.now_ns() - rec_.start_ns; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
};

}  // namespace perfbench
