// perfbench: the msn benchmark program.
//
//   perfbench --workload dp_nets|closure_design|serve_mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR --golden-dir DIR
//             [--commit SHA] [--source-digest HEX]
//   perfbench --write-golden dp_nets|closure_design --work-dir DIR
//
// Prints one detail line (environment stamp, every metric with its
// sample count and tail percentile, per-span self times when traced) and
// then, as the last line, the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A run whose own load generator fell behind is invalid: it
// exits 3 without a result line.  Debug and sanitizer builds are refused
// (exit 2).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "layers.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S"
               " --trace 0|1 --work-dir DIR --golden-dir DIR\n";
  std::exit(2);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string MetricJson(const Metric& m) {
  std::string out = "{\"value\":" + JsonNum(m.value) +
                    ",\"unit\":" + JsonStr(m.unit);
  if (m.samples > 0) {
    out += ",\"samples\":" + std::to_string(m.samples);
    if (m.raw != 0.0) out += ",\"raw\":" + JsonNum(m.raw);
    if (m.tail_pct > 0) {
      out += ",\"tail_pct\":" + std::to_string(m.tail_pct) +
             ",\"tail_value\":" + JsonNum(m.tail_value);
    }
  }
  return out + "}";
}

int Run(const Options& options, const std::string& commit,
        const std::string& digest) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (build_type == "Debug" || !sanitize.empty()) {
    std::cerr << "perfbench: refusing to measure a " << build_type
              << (sanitize.empty() ? "" : " sanitizer (" + sanitize + ")")
              << " build\n";
    return 2;
  }

  Spans spans(options.trace);
  Outcome out;
  if (options.workload == "dp_nets") {
    out = RunDpNets(options, spans);
  } else if (options.workload == "closure_design") {
    out = RunClosureDesign(options, spans);
  } else if (options.workload == "serve_mix") {
    out = RunServeMix(options, spans);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }
  out.metrics["peak_rss_mb"] = PlainMetric(PeakRssMb(), "MiB");
  out.metrics["peak_rss_mb"].samples = 1;

  std::string detail = "{\"perfbench\":\"msn\",\"workload\":" +
                       JsonStr(options.workload) +
                       ",\"seed\":" + std::to_string(options.seed) +
                       ",\"seconds\":" + JsonNum(options.seconds) +
                       ",\"trace\":" + (options.trace ? "1" : "0") +
                       ",\"env\":{\"build_type\":" + JsonStr(build_type) +
                       ",\"compiler\":" + JsonStr(PERFBENCH_COMPILER) +
                       ",\"nproc\":" +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ",\"cpu\":" + JsonStr(CpuModel()) +
                       ",\"commit\":" + JsonStr(commit) +
                       ",\"source_digest\":" + JsonStr(digest) + "}" +
                       ",\"attempted\":" + std::to_string(out.attempted) +
                       ",\"failed\":" + std::to_string(out.failed);
  if (!out.valid) {
    detail += ",\"invalid\":" + JsonStr(out.invalid_reason);
  }
  detail += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    detail += (first ? "" : ",") + JsonStr(name) + ":" + MetricJson(m);
    first = false;
  }
  detail += "}";
  for (const auto& [key, json] : out.detail) {
    detail += "," + JsonStr(key) + ":" + json;
  }
  if (options.trace) {
    const std::string path = options.work_dir + "/trace-" +
                             options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    detail += ",\"trace_file\":" +
              JsonStr(spans.WriteChromeTrace(path) ? path : "") +
              ",\"self_ms\":{";
    first = true;
    for (const auto& [name, ms] : spans.SelfMs()) {
      detail += (first ? "" : ",") + JsonStr(name) + ":" + JsonNum(ms);
      first = false;
    }
    detail += "}";
  }
  std::cout << detail << "}\n";

  if (!out.valid) {
    std::cerr << "perfbench: invalid run: " << out.invalid_reason << '\n';
    return 3;
  }
  const auto& wanted = options.trace ? LayerMetricList() : EndToEndList();
  std::string result = "{\"correct\":" +
                       std::string(out.failed == 0 ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(out.attempted) +
                       ",\"failed\":" + std::to_string(out.failed) +
                       ",\"metrics\":{";
  first = true;
  for (const auto& [name, unit] : wanted) {
    const auto it = out.metrics.find(name);
    const Metric m = it != out.metrics.end() ? it->second : PlainMetric(0, unit);
    if (m.unit != unit) {
      std::cerr << "perfbench: metric " << name << " has unit " << m.unit
                << ", expected " << unit << '\n';
      return 1;
    }
    result += (first ? "" : ",") + JsonStr(name) +
              ":{\"value\":" + JsonNum(m.value) + ",\"unit\":" +
              JsonStr(unit) + "}";
    first = false;
  }
  std::cout << result << "}}\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  perfbench::Options options;
  std::string commit = "none", digest = "none", golden;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("flag " + arg + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = value != "0";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--golden-dir") {
      options.golden_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--source-digest") {
      digest = value;
    } else if (arg == "--write-golden") {
      golden = value;
    } else {
      Usage("unknown flag " + arg);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for " + arg);
  }
  if (options.work_dir.empty()) Usage("--work-dir is required");
  std::filesystem::create_directories(options.work_dir);
  if (!golden.empty()) {
    if (golden == "serve_mix") Usage("serve_mix checks against RunMsri");
    if (golden == "dp_nets") {
      std::cout << perfbench::DpNetsGolden();
    } else if (golden == "closure_design") {
      std::cout << perfbench::ClosureGolden();
    } else {
      Usage("no golden for '" + golden + "'");
    }
    return 0;
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.seconds <= 0.0) Usage("--seconds must be positive");
  try {
    return perfbench::Run(options, commit, digest);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
