// Ablation bench: how much do the two
// overlap mechanisms the paper builds — double buffering that hides the
// AHM's profiling/format/layout stream work (Section V-B3), and the
// pipelined runtime that hides K2P mapping behind the previous kernel
// (Section VI-B) — actually save? Runs GCN on every dataset with each
// mechanism toggled off.

#include <cstdio>

#include "bench_common.hpp"

using namespace dynasparse;
using namespace dynasparse::bench;

int main(int argc, char** argv) {
  BenchArgs args = parse_args(argc, argv);
  std::printf("=== Ablation: AHM double buffering and runtime overlap (GCN) ===\n");
  std::printf("%-4s %14s %14s %14s %12s %12s\n", "tag", "full (ms)", "no-AHM-hide",
              "no-K2P-hide", "AHM cost", "K2P cost");
  for (const std::string& tag : dataset_tags()) {
    Dataset ds = load_dataset(tag, args);
    GnnModel m = make_model(GnnModelKind::kGcn, ds, args.seed);
    CompiledProgram prog = compile(m, ds, u250_config());

    RuntimeOptions full;
    RuntimeOptions no_ahm;
    no_ahm.hide_ahm = false;
    RuntimeOptions no_overlap;
    no_overlap.hide_runtime = false;

    double t_full = run_compiled(prog, full).latency_ms;
    double t_no_ahm = run_compiled(prog, no_ahm).latency_ms;
    double t_no_overlap = run_compiled(prog, no_overlap).latency_ms;

    std::printf("%-4s %14.4g %14.4g %14.4g %11.1f%% %11.1f%%\n", tag.c_str(), t_full,
                t_no_ahm, t_no_overlap, (t_no_ahm / t_full - 1.0) * 100.0,
                (t_no_overlap / t_full - 1.0) * 100.0);
  }
  std::printf("# claim checked: both mechanisms individually matter; without double\n"
              "# buffering the AHM stream work would serialize with compute, and\n"
              "# without overlap the Analyzer's per-pair decisions extend latency.\n");
  return 0;
}
