// Host facts stamped into every result record, and the process resource
// readings the end-to-end metrics take.
#pragma once

#include <string>

#include "common/types.h"

namespace perfbench {

struct HostStamp {
  faros::u32 nproc = 1;
  std::string cpu_model;
  std::string build_type;
};

HostStamp host_stamp();

/// Process user + system CPU time, all threads, in milliseconds.
double process_cpu_ms();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
