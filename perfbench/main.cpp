// perfbench — one run of one POLaR benchmark workload.
//
//   perfbench --workload spec_access|spec_churn|kv_open|kv_threads
//             --seed N --seconds S --trace 0|1
//
// Prints the run's configuration and notes, then one JSON result line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit 0 on a finished run (the result says whether it was correct), 2 on
// bad arguments or a sanitizer build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/runtime.h"
#include "harness.h"

namespace {

/// The sanitizer the compiler instrumented this build with, or "none".
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(memory_sanitizer)
  return "memory";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec_access|spec_churn|kv_open|"
               "kv_threads --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || o.seconds <= 0) return usage();
  const std::string san = sanitizer();
  if (san != "none") {
    std::fprintf(stderr, "perfbench: refusing to report from a sanitizer "
                         "build (sanitizer=%s)\n", san.c_str());
    return 2;
  }

  std::printf(
      "config: workload=%s seed=%llu seconds=%g trace=%d build_type=%s "
      "POLAR_TRACE=%s sanitizer=%s nproc=%u backend=stored "
      "trace_sample_interval=0 POLAR_BACKEND(env, ignored)=%s\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      polar::Runtime::trace_compiled_in() ? "ON" : "OFF", san.c_str(),
      std::thread::hardware_concurrency(),
      std::getenv("POLAR_BACKEND") != nullptr ? std::getenv("POLAR_BACKEND")
                                              : "unset");

  perfbench::Report report;
  if (o.workload == "spec_access" || o.workload == "spec_churn") {
    perfbench::run_spec(o, report);
  } else if (o.workload == "kv_open") {
    perfbench::run_kv_open(o, report);
  } else if (o.workload == "kv_threads") {
    perfbench::run_kv_threads(o, report);
  } else {
    return usage();
  }
  report.print();
  return 0;
}
