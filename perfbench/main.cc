// Benchmark binary: runs one workload and prints its raw
// measurements as one JSON line on stdout. perfbench/run.py builds it, runs
// it, checks the records and derives the reported metrics.
//
//   perfbench --workload census_scan --seed 1 --seconds 10 \
//             --trace 0 --work-dir DIR

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool census = options.workload == "census_scan" ||
                      options.workload == "census_bitmap" ||
                      options.workload == "census_sharded";
  if (!census && options.workload != "service_mixed") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --work-dir and --seconds > 0 needed\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(options.workload);
  json.Key("seed");
  json.Int(options.seed);
  json.Key("trace");
  json.Bool(options.trace);
  json.Key("facts");
  json.BeginObject();
  json.Key("nproc");
  json.Int(std::thread::hardware_concurrency());
  json.Key("compiler");
  json.String(PERFBENCH_COMPILER);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.EndObject();
  if (census) {
    RunCensus(options, &json);
  } else {
    RunService(options, &json);
  }
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
