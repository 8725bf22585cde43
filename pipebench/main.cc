// pipebench: the OpenDMX benchmark. One binary runs one seeded workload
// against the real provider, checks its outputs, and prints every metric by
// name with its unit and sample count. The last line of standard output is
// the machine-readable result:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around the benchmark's calls into each layer and
// report the per-layer metrics. See README.md in this directory.
//
//   pipebench --workload predict_batch --seed 1 --seconds 10 --trace 0
//             --work-dir DIR [--commit SHA] [--scale F] [--corrupt flip|drop]

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "pipebench: " << why
            << "\nusage: pipebench --workload predict_batch|"
               "train_durable --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--commit SHA] [--scale F] [--corrupt flip|drop]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv, std::string* commit) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600) {
        Usage("bad --seconds " + value);
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      *commit = value;
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.scale > 0) ||
          options.scale > 1) {
        Usage("bad --scale " + value);
      }
    } else if (flag == "--corrupt") {
      if (value != "flip" && value != "drop") Usage("bad --corrupt " + value);
      options.corrupt = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  if (options.work_dir.empty()) Usage("--work-dir is required");
  return options;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  std::string commit = "unknown";
  Options options = ParseArgs(argc, argv, &commit);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "predict_batch") run = RunPredictBatch;
  if (options.workload == "train_durable") run = RunTrainDurable;
  if (run == nullptr) Usage("unknown workload " + options.workload);

  std::cout << "pipebench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << std::endl;

  Report report;
  Tracer::Get().Enable(options.trace);
  run(options, &report);

  // Every run reports one fixed metric set; a layer the workload does not
  // reach reads 0 (README.md lists which layers each workload reaches).
  const std::vector<MetricSpec>& specs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, Report::Metric> by_name;
  for (const Report::Metric& m : report.metrics()) by_name[m.name] = m;
  for (const MetricSpec& spec : specs) {
    auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      if (!options.trace) {
        report.Fail(std::string("end-to-end metric not measured: ") +
                    spec.name);
      }
      by_name[spec.name] = Report::Metric{spec.name, 0, spec.unit, 0};
    } else if (it->second.unit != spec.unit) {
      report.Fail(std::string("metric ") + spec.name + " measured in " +
                  it->second.unit + ", declared in " + spec.unit);
    }
  }

  // Every thread that recorded spans has been joined by now.
  if (options.trace) {
    const std::string trace_path = options.work_dir + "/trace-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".jsonl";
    if (Tracer::Get().WriteJsonLines(trace_path)) {
      std::cout << "trace " << trace_path << " ("
                << Tracer::Get().Spans().size() << " spans)\n";
    } else {
      report.Fail("cannot write trace file " + trace_path);
    }
  }

  for (const MetricSpec& spec : specs) {
    const Report::Metric& m = by_name[spec.name];
    std::cout << "metric " << m.name << " = " << Number(m.value) << " "
              << m.unit << " (samples " << m.samples << ")\n";
  }
  for (const std::string& note : report.notes()) {
    std::cout << "info " << note << "\n";
  }
  for (const std::string& failure : report.failures()) {
    std::cout << "oracle FAILED: " << failure << "\n";
  }

  std::cout << "context {\"commit\": \"" << JsonEscape(commit)
            << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"build_type\": \"" << PIPEBENCH_BUILD_TYPE
            << "\", \"alloc_stats\": "
            << (dmx::AllocStats::Enabled() ? "true" : "false")
            << ", \"compiler\": \"" << JsonEscape(Compiler())
            << "\", \"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << Number(options.seconds)
            << ", \"scale\": " << Number(options.scale)
            << ", \"store_fs\": \"" << FilesystemOf(options.work_dir)
            << "\"}\n";

  const bool correct = report.correct();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(1, report.attempted())
            << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Report::Metric& m = by_name[spec.name];
    std::cout << (first ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << Number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
