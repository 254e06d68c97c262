// Ablation: Computation Core width psys.
// The paper implements psys = 16 and notes psys >= 8 is feasible on the
// U250 (Section VI-A). The SpDMM/SPMM crossover amax = 2/psys moves with
// the width, so the primitive mix and the dynamic strategy's advantage
// both shift. Runs GCN/CiteSeer across widths.

#include <cstdio>

#include "bench_common.hpp"

using namespace dynasparse;
using namespace dynasparse::bench;

int main(int argc, char** argv) {
  BenchArgs args = parse_args(argc, argv);
  Dataset ds = load_dataset("CI", args);
  GnnModel m = make_model(GnnModelKind::kGcn, ds, args.seed);

  std::printf("=== Ablation: ALU array width psys (paper: 16) ===\n");
  std::printf("%6s %14s %14s %10s %8s %8s %8s %8s\n", "psys", "Dynamic(ms)",
              "Static1(ms)", "SO-S1", "GEMM", "SpDMM", "SPMM", "skip");
  for (int psys : {8, 16, 32}) {
    SimConfig cfg = u250_config();
    cfg.psys = psys;
    CompiledProgram prog = compile(m, ds, cfg);
    RuntimeOptions dyn;
    InferenceReport rd = run_compiled(prog, dyn);
    RuntimeOptions s1;
    s1.strategy = MappingStrategy::kStatic1;
    InferenceReport rs = run_compiled(prog, s1);
    const AcceleratorStats& st = rd.execution.stats;
    std::printf("%6d %14.4f %14.4f %9.2fx %8lld %8lld %8lld %8lld\n", psys,
                rd.latency_ms, rs.latency_ms, rs.latency_ms / rd.latency_ms,
                static_cast<long long>(st.pairs_gemm),
                static_cast<long long>(st.pairs_spdmm),
                static_cast<long long>(st.pairs_spmm),
                static_cast<long long>(st.pairs_skipped));
  }
  std::printf("# claims checked: wider arrays shrink the SPMM region (amax >= 2/psys\n"
              "# admits more SpDMM) and raise GEMM peak, compressing the dynamic-\n"
              "# over-static gap on compute-bound kernels.\n");
  return 0;
}
