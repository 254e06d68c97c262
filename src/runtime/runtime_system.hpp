#pragma once
// The runtime system (paper Section VI): Analyzer + Scheduler driving the
// simulated accelerator over a compiled program.
//
// Per kernel (in IR order):
//   1. the Analyzer walks every task's tile pairs, fetches the profiled
//      densities, and maps each pair to a primitive (Algorithm 7) under
//      the configured strategy — charging soft-processor cycles;
//   2. the functional result of every task is computed (host thread pool).
//      The mapping picks which primitive runs a pair, never what the pair
//      computes: every primitive yields the same product bits, so the
//      result is identical whatever the strategy, and a batch computes
//      it once per distinct program, not once per member;
//   3. every task is priced by the ComputeCoreModel and the Scheduler's
//      greedy list schedule (Algorithm 8) yields the kernel makespan;
//   4. the output matrix is stored tile-by-tile, re-profiled by the
//      Sparsity Profiler — giving the runtime densities the *next*
//      kernel's mapping will use.
// The K2P work for kernel l+1 overlaps kernel l's execution (paper
// Section VI-B); only the non-overlappable portion extends latency.
//
// Re-entrancy contract: execute() never mutates the CompiledProgram or
// any other shared state — all accumulation happens in per-call locals
// (node outputs, SoftProcessor, stats), and the only mutation reachable
// through the const program is Tile's lazily materialized view cache,
// which is std::call_once-guarded. Any number of threads may therefore
// execute the *same* CompiledProgram concurrently (what the inference
// service relies on when many requests hit one cached program). Keep it
// that way: new state belongs in ExecutionResult or a local, never in
// CompiledProgram.

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "matrix/partitioned_matrix.hpp"
#include "runtime/k2p.hpp"
#include "runtime/scheduler.hpp"
#include "sim/accelerator.hpp"
#include "util/cancellation.hpp"

namespace dynasparse {

struct RuntimeOptions {
  MappingStrategy strategy = MappingStrategy::kDynamic;
  /// Double buffering hides AHM (profiler/FTM/LTU) streaming work
  /// (paper's configuration). false = ablation: AHM serializes.
  bool hide_ahm = true;
  /// Overlap the Analyzer's K2P mapping for kernel l+1 with kernel l's
  /// execution (paper Section VI-B). false = ablation: fully exposed.
  bool hide_runtime = true;
  /// Max host threads for the functional math and per-task pricing
  /// (0 = the work-stealing pool's default: all hardware threads, or
  /// DYNASPARSE_FORCE_THREADS). This is the per-request intra-op knob:
  /// the inference service combines it with ServiceOptions::
  /// intra_op_threads (tighter bound wins) before executing a request.
  /// Results are thread-count-invariant; only wall-clock changes.
  int host_threads = 0;
  /// Price every pair with the detailed dataflow models (systolic
  /// fill/drain, ISN bank conflicts, SCP imbalance; sim/acm_functional)
  /// instead of the Table IV closed forms. Slower to simulate; intended
  /// for fidelity studies (ablation_cycle_model_fidelity).
  bool detailed_timing = false;
  /// Record per-task schedule timelines (ExecutionResult::timeline) for
  /// Chrome-tracing export (io/trace_io.hpp).
  bool collect_timeline = false;
  /// Skip the functional math and only produce timing. Valid because
  /// timing consumes densities, not values; the density of each kernel
  /// *output* is then unavailable, so this is only allowed for programs
  /// whose mapping never needs runtime densities (not used by default).
  bool functional = true;
};

struct KernelExecutionReport {
  int node_id = 0;
  std::string name;                 // e.g. "Update L1"
  double makespan_cycles = 0.0;     // accelerator time for this kernel
  double compute_cycles = 0.0;      // summed over all tasks
  double memory_cycles = 0.0;
  double ahm_cycles = 0.0;
  double soft_cycles = 0.0;         // Analyzer + dispatch (soft clock)
  double k2p_soft_cycles = 0.0;     // Analyzer (K2P) portion only
  std::int64_t tasks = 0;
  std::int64_t pairs = 0;
  std::int64_t pairs_gemm = 0, pairs_spdmm = 0, pairs_spmm = 0, pairs_skipped = 0;
  double load_imbalance = 1.0;
  double output_density = 0.0;      // post-activation (Fig. 2 data)
};

struct ExecutionResult {
  std::vector<KernelExecutionReport> kernels;
  double exec_cycles = 0.0;        // sum of kernel makespans
  double exec_ms = 0.0;            // accelerator execution latency
  double soft_ms = 0.0;            // total runtime-system work
  double exposed_runtime_ms = 0.0; // portion not hidden by overlap
  double latency_ms = 0.0;         // exec_ms + exposed_runtime_ms
  /// Fig. 13 metric: runtime-system work / total execution time.
  double runtime_overhead_ratio = 0.0;
  AcceleratorStats stats;
  PartitionedMatrix output;        // final kernel's matrix (functional)
  std::vector<double> node_densities;  // per kernel, post-activation

  /// Kernel name + per-task intervals + cumulative start offset, filled
  /// when RuntimeOptions::collect_timeline is set (see io/trace_io.hpp).
  struct KernelTimeline {
    std::string name;
    std::vector<ScheduledInterval> intervals;
    double start_offset_cycles = 0.0;
  };
  std::vector<KernelTimeline> timeline;
};

/// Execute `prog`: the one-member case of execute_batch(), rethrowing
/// that member's error. `token` (optional; see util/cancellation.hpp) is
/// checked at every kernel boundary: a cancelled or deadline-expired
/// request aborts with the typed error between kernels, never mid-kernel
/// — so an execution that *completes* is bit-identical to an
/// uncancellable run. The token is deliberately NOT a RuntimeOptions
/// field: every RuntimeOptions field participates in the result-cache
/// signature (compiler/signature.hpp keep-in-sync discipline), and a
/// cancellation handle is identity, not content.
ExecutionResult execute(const CompiledProgram& prog, const RuntimeOptions& opt,
                        const CancellationToken& token = {});

/// One member of a fused cross-request batch. Members are grouped by the
/// service on equal plan_signature + dataset_signature, so their programs
/// share partition geometry and (when the tile pool is on) pointer-equal
/// adjacency operands — but each member keeps its own program pointer
/// (weights may differ; the strategies of one cached program share it),
/// options, and cancellation token.
struct BatchMember {
  const CompiledProgram* prog = nullptr;
  RuntimeOptions opt;
  CancellationToken token;
};

/// Per-member outcome of execute_batch: `error` null means `result` is a
/// completed execution bit-identical to what solo execute() would have
/// produced; `error` set means this member aborted or failed (the raw
/// exception — CancelledError / DeadlineExceededError /
/// FaultInjectedError / anything else — for the caller to classify).
struct BatchMemberResult {
  ExecutionResult result;
  std::exception_ptr error;
};

struct BatchExecution {
  std::vector<BatchMemberResult> members;  // one per input, same order
  /// Kernels whose functional math ran as ONE sweep over a shared
  /// (pointer-equal) X operand feeding two or more distinct live
  /// programs — the fused multi-feature path. Kernels with per-program X
  /// (Update kernels, or aggregates when the tile pool is off), or with
  /// one distinct program, still execute inside one flat cross-program
  /// parallel loop, they just don't share operand streams.
  std::int64_t fused_kernels = 0;
  std::int64_t total_kernels = 0;
};

/// Execute several plan-compatible programs as one fused batch.
///
/// Functional work runs once per distinct program per kernel: the first
/// live member (in member order) with opt.functional set does the math
/// for every live functional member holding the same `prog` pointer, and
/// each sibling gets a copy of that output before its own pricing. The
/// role is re-picked every kernel, so a member that is cancelled, expires
/// or is faulted hands it to a surviving sibling.
///
/// Determinism contract: every member's completed ExecutionResult is
/// BIT-IDENTICAL to solo execute() with the same (prog, opt) — fusion
/// only restructures scheduling (which tasks run concurrently, and which
/// member computes a shared program's output), never a member's
/// per-element FP operation sequence, its primitive dispatch, or its
/// pricing reduction shape. K2P analysis, pricing, the schedule and the
/// soft-processor accounting stay per member. Per-member isolation
/// mirrors solo semantics at every kernel boundary, in member order: the
/// member's token is checked and the runtime.kernel_fault chaos site is
/// drawn once per member, so a cancelled/expired/faulted member drops out
/// of the batch alone and its batchmates continue unperturbed. An exception
/// escaping the functional phase itself (e.g. allocation failure — not
/// attributable to one member) fails every still-live member.
///
/// Runs each member alone, one after another, when the programs are not
/// structurally batchable (different kernel sequences or partition
/// geometry) — callers may pass any group; compatible grouping only
/// affects speed, never correctness.
BatchExecution execute_batch(const std::vector<BatchMember>& members);

}  // namespace dynasparse
