// everybench: the EveryWare benchmark executable.
//
//   everybench --workload echo_small|sched_batch|sc98 --seed N --seconds S
//              --trace 0|1 [--span-out FILE] [--corrupt CHECK]
//
// Prints human-readable lines, then as its last line one JSON object:
//   {"correct":true,"attempted":N,"failed":N,"metrics":{name:{"value":v,"unit":u}}}
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// reports the per-layer metrics. Exit status is 0 only when every
// correctness check passed. --corrupt feeds one check a corrupted input
// (self-test only).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: everybench --workload echo_small|sched_batch|sc98 --seed N "
               "--seconds S --trace 0|1 [--span-out FILE] [--corrupt CHECK]\n");
  return 2;
}

void print_result(const eb::RunResult& r) {
  std::string s = "{\"correct\":";
  s += r.correct ? "true" : "false";
  s += ",\"attempted\":" + std::to_string(r.attempted);
  s += ",\"failed\":" + std::to_string(r.failed);
  s += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", m.value);
    if (!first) s += ",";
    first = false;
    s += "\"" + name + "\":{\"value\":" + num + ",\"unit\":\"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  eb::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--span-out") {
      args.span_out = v;
    } else if (flag == "--corrupt") {
      args.corrupt = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || !(args.seconds > 0)) return usage();

  eb::RunResult r;
  if (workload == "echo_small") {
    r = eb::run_echo_small(args);
  } else if (workload == "sched_batch") {
    r = eb::run_sched_batch(args);
  } else if (workload == "sc98") {
    r = eb::run_sc98(args);
  } else {
    return usage();
  }
  for (const std::string& p : r.problems) std::fprintf(stderr, "FAILED: %s\n", p.c_str());
  std::fflush(stderr);
  print_result(r);
  return r.correct ? 0 : 1;
}
