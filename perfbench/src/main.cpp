// perfbench — run one benchmark workload and print its result.
//
//   perfbench --workload paper_grid|serve_hot|serve_sweep --seed N
//             --seconds S --trace 0|1 --serve-bin PATH
//
// perfbench/run.py builds this binary and the stock dynasparse_serve and
// calls it; see perfbench/README.md. The last stdout line is the result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} —
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "util/strict_parse.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = dynasparse::strict_stoull(val);
      else if (key == "--seconds") opt.seconds = dynasparse::strict_stod(val);
      else if (key == "--trace") opt.trace = dynasparse::strict_stoi(val) != 0;
      else if (key == "--serve-bin") opt.serve_bin = val;
      else throw std::invalid_argument("unknown flag " + key);
    }
    if (argc % 2 != 1) throw std::invalid_argument("flags come in --key value pairs");
    if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");

    perfbench::Result result;
    if (opt.workload == "paper_grid") {
      result = perfbench::run_paper_grid(opt);
    } else if (opt.workload == "serve_hot" || opt.workload == "serve_sweep") {
      if (opt.serve_bin.empty()) throw std::invalid_argument("--serve-bin is required");
      result = perfbench::run_serving(opt);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
