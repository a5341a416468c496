#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>

namespace perfbench {

HostStamp host_stamp() {
  HostStamp h;
  // What `nproc` prints: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.nproc = static_cast<faros::u32>(std::max(1, CPU_COUNT(&set)));
  }
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
    }
    break;
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
