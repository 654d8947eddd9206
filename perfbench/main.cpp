// perfbench — one workload of the host-speed benchmark (README.md).
//
//   perfbench --workload grid|serve|sweep --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Prints one JSON object on its last stdout line: the metrics with their
// units, the digest of every simulation of every pass (run.py compares
// them with reference.json), and the traced run's invariant failures.
// Human-readable context goes to stderr.  --seconds 0 runs one pass after a
// single set-up, which is how run.py records reference digests.
#include "perfbench.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload grid|serve|sweep --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const perfbench::Options& opt, const perfbench::Result& r) {
  std::string s = "{\"workload\": \"" + opt.workload +
                  "\", \"seed\": " + std::to_string(opt.seed) +
                  ", \"invariant_failures\": " +
                  std::to_string(r.invariant_failures) + ", \"digests\": [";
  for (std::size_t p = 0; p < r.digests.size(); ++p) {
    s += p ? ", [" : "[";
    for (std::size_t i = 0; i < r.digests[p].size(); ++i)
      s += (i ? ", \"" : "\"") + r.digests[p][i] + "\"";
    s += "]";
  }
  s += "], \"metrics\": [";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    s += (i ? ", " : "") + std::string("{\"name\": \"") + m.name +
         "\", \"value\": " + number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "]}";
  std::cout << s << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--spans") {
        opt.spans_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds >= 0 && opt.seconds <= 3600))
    return usage("--seconds must be within [0, 3600]");

  // glibc's dynamic mmap threshold lets freed large blocks linger in the
  // heap, so identical runs peaked at 110 or 220 MiB.  Pinning it at its
  // default start value makes peak_rss_mb track the memory actually live.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  try {
    const perfbench::Result r = perfbench::run_workload(opt);
    for (const std::string& note : r.notes)
      std::cerr << "perfbench: " << note << "\n";
    print_json(opt, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
