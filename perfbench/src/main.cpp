// Benchmark program: perfbench --workload <name> --seed <n> --seconds <s>
//                               --trace <0|1> --ebbiot-rate R --ebms-rate R
//                               [--smoke]
//
// Prints provenance and summary lines, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics traced
// (--trace 1); traced runs also write their spans under .bench_trace/ in
// the working directory.  Every run first self-tests its helpers, and
// verifies its outputs against references computed in the same run; a
// failed check is named on stderr and the exit code is 1.
#include <cpuid.h>
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "src/core/variant_registry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr const char* kTraceDir = ".bench_trace";

std::string cpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string out(brand);
  out.erase(0, out.find_first_not_of(' '));
  return out;
}

std::string isa() {
  std::string out;
#if defined(__x86_64__)
  out = "x86-64";
#endif
#if defined(__SSE4_2__)
  out += " sse4.2";
#endif
#if defined(__AVX2__)
  out += " avx2";
#endif
#if defined(__AVX512F__)
  out += " avx512f";
#endif
#if defined(__BMI2__)
  out += " bmi2";
#endif
  return out.empty() ? "unknown" : out;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{fleet_ebbiot|fleet_ebms|sweep_registry} --seed N "
               "--seconds S --trace {0|1} --ebbiot-rate R --ebms-rate R "
               "[--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process: every set-up after the first then
  // reuses warm pages instead of faulting fresh ones in, so setup_s and
  // the phases measure the program rather than the kernel's page
  // allocator (which varies with what else the host is doing).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RunOptions options;
  int traceFlag = -1;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  // Leave one core to the host: on a shared 4-vCPU VM, four spinning
  // threads drew 13-16 stalls of over 1 ms (up to 36 ms) per thread in
  // 5 s, three threads 0-5 (up to 3 ms).
  options.threads = std::clamp(hw - 1, 1, 4);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          usage(("missing value for " + arg).c_str());
        }
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        traceFlag = std::stoi(value());
      } else if (arg == "--ebbiot-rate") {
        options.ebbiotRateWps = std::stod(value());
      } else if (arg == "--ebms-rate") {
        options.ebmsRateWps = std::stod(value());
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    usage("malformed numeric argument");
  }

  try {
    selfTest();
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    return 1;
  }
  if (traceFlag != 0 && traceFlag != 1) {
    usage("--trace must be 0 or 1");
  }
  options.trace = traceFlag == 1;
  if (!(options.seconds > 0)) {
    usage("--seconds must be positive");
  }

  std::printf(
      "{\"provenance\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"flags\": \"%s\", \"isa\": \"%s\", \"nproc\": %d, "
      "\"cpu\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %s}}\n",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      jsonEscape(PERFBENCH_CXX_FLAGS).c_str(), isa().c_str(), hw,
      jsonEscape(cpuModel()).c_str(),
      static_cast<unsigned long long>(options.seed),
      jsonEscape(options.workload).c_str(), options.seconds, traceFlag,
      options.smoke ? "true" : "false");
  std::fflush(stdout);

  RunOutcome outcome;
  try {
    if (options.workload == "fleet_ebbiot" ||
        options.workload == "fleet_ebms") {
      outcome = runFleet(options);
    } else if (options.workload == "sweep_registry") {
      outcome = runSweep(options);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
        "\"metrics\": {}}\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (options.trace) {
    std::filesystem::create_directories(kTraceDir);
    const std::string path = std::string(kTraceDir) + "/" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".spans.tsv";
    std::vector<std::string> names;
    if (options.workload == "sweep_registry") {
      names = ebbiot::variantRegistry().keys();
    } else {
      names = {options.workload == "fleet_ebms" ? "EBMS" : "EBBIOT"};
    }
    const std::size_t n = trace::writeSpans(path, names);
    std::printf("# spans written: %zu to %s\n", n, path.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.metrics.toJson().c_str());
  return 0;
}
