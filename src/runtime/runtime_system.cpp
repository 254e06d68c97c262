#include "runtime/runtime_system.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "compiler/execution_scheme.hpp"
#include "model/activation.hpp"
#include "util/fault_injection.hpp"
#include "sim/acm_functional.hpp"
#include "sim/compute_core.hpp"
#include "sim/format_transform.hpp"
#include "sim/layout_transform.hpp"
#include "sim/soft_processor.hpp"

namespace dynasparse {

namespace {

/// Resolve the two operand matrices of a kernel.
struct KernelOperands {
  const PartitionedMatrix* x = nullptr;  // A for Aggregate, H for Update
  const PartitionedMatrix* y = nullptr;  // H for Aggregate, W for Update
};

KernelOperands resolve_operands(const CompiledProgram& prog, const KernelIR& ir,
                                const std::vector<PartitionedMatrix>& node_outputs) {
  const PartitionedMatrix& h =
      ir.spec.input == kFromFeatures
          ? *prog.h0
          : node_outputs[static_cast<std::size_t>(ir.spec.input)];
  KernelOperands ops;
  if (ir.spec.kind == KernelKind::kAggregate) {
    ops.x = &prog.adjacency_for(ir.spec);
    ops.y = &h;
  } else {
    ops.x = &h;
    ops.y = &prog.weights[static_cast<std::size_t>(ir.spec.weight_index)];
  }
  return ops;
}

/// AHM streaming work attached to one pair: format transforms when the
/// stored format differs from what the execution mode needs (Table III)
/// and the layout transform of GEMM's column-major second operand.
double pair_ahm_cycles(const PairDecision& d, const Tile& x, const Tile& y, int lanes) {
  double cycles = 0.0;
  if (d.prim == Primitive::kGemm) {
    // GEMM reads both operands dense; sparse-stored tiles pass S2D.
    if (x.format == TileFormat::kCoo) cycles += s2d_cycles(x.rows * x.cols, lanes);
    if (y.format == TileFormat::kCoo) cycles += s2d_cycles(y.rows * y.cols, lanes);
    // BufferP wants Y column-major; DDR keeps everything row-major.
    cycles += layout_transform_cycles(y.rows, y.cols, lanes);
  } else if (d.prim == Primitive::kSpdmm) {
    // BufferU operand must be sparse, BufferO operand dense.
    const Tile& u = d.x_in_buffer_u ? x : y;
    const Tile& o = d.x_in_buffer_u ? y : x;
    if (u.format == TileFormat::kDense) cycles += d2s_cycles(u.rows * u.cols, lanes);
    if (o.format == TileFormat::kCoo) cycles += s2d_cycles(o.rows * o.cols, lanes);
  } else if (d.prim == Primitive::kSpmm) {
    // Both operands sparse row-major.
    if (x.format == TileFormat::kDense) cycles += d2s_cycles(x.rows * x.cols, lanes);
    if (y.format == TileFormat::kDense) cycles += d2s_cycles(y.rows * y.cols, lanes);
  }
  return cycles;
}

/// Detailed-timing mode: execute the pair on the dataflow model of the
/// chosen mode and return its cycle count. SpDMM with the *right* operand
/// in BufferU runs the transposed product (Z^T = Y^T X^T) — identical MAC
/// count and bank-conflict structure with the roles swapped.
double detailed_pair_cycles(const PairDecision& d, const Tile& x, const Tile& y,
                            int psys) {
  switch (d.prim) {
    case Primitive::kSkip:
      return 0.0;
    case Primitive::kGemm: {
      // Cached tile views: the same X row strip / Y column strip tile is
      // priced by many tasks, so materialization happens once per tile,
      // not once per pair.
      DenseMatrix z(x.rows, y.cols);
      return GemmSystolicModel(psys).run(x.dense_view(), y.dense_view(), z).cycles;
    }
    case Primitive::kSpdmm: {
      SpdmmScatterGatherModel model(psys);
      if (d.x_in_buffer_u) {
        DenseMatrix z(x.rows, y.cols);
        return model.run(x.coo_view(), y.dense_view(), z).cycles;
      }
      CooMatrix yt = y.coo_view().transposed();
      DenseMatrix xt = x.dense_view().transposed();
      DenseMatrix z(y.cols, x.rows);
      return model.run(yt, xt, z).cycles;
    }
    case Primitive::kSpmm: {
      DenseMatrix z(x.rows, y.cols);
      return SpmmRowwiseModel(psys).run(x.coo_view(), y.coo_view(), z).cycles;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Per-kernel execution phases of run_kernels() below: the one kernel loop
// behind both execute() (a one-member batch) and execute_batch(), which is
// what keeps batched results bit-identical to solo.
// ---------------------------------------------------------------------------

/// Everything one kernel instance carries between phases.
struct KernelPass {
  const KernelIR* ir = nullptr;
  KernelOperands ops;
  std::vector<Task> tasks;
  PartitionedMatrix out;
};

KernelPass begin_kernel(const CompiledProgram& prog, std::size_t l,
                        const std::vector<PartitionedMatrix>& node_outputs) {
  const KernelIR& ir = prog.kernels[l];
  KernelPass kp;
  kp.ir = &ir;
  kp.ops = resolve_operands(prog, ir, node_outputs);
  kp.tasks = generate_tasks(ir);
  kp.out = PartitionedMatrix(ir.num_vertices, ir.spec.out_dim, prog.plan.n1,
                             prog.plan.n2);
  return kp;
}

/// One task's functional math. Each task owns its output tile, so any
/// number of tasks — of one kernel or of several batch members — may run
/// concurrently without aliasing.
void run_functional_task(KernelPass& kp, const Task& t, double thr) {
  const PartitionedMatrix& X = *kp.ops.x;
  const PartitionedMatrix& Y = *kp.ops.y;
  DenseMatrix acc(kp.out.tile_row_count(t.out_gi), kp.out.tile_col_count(t.out_gk),
                  Layout::kRowMajor);
  for (std::int64_t j = 0; j < t.inner_steps; ++j)
    accumulate_product(X.tile(t.out_gi, j), Y.tile(j, t.out_gk), acc, kp.ir->spec.op);
  kp.out.set_tile_from_dense(t.out_gi, t.out_gk, std::move(acc), thr);
}

/// Combine (GraphSAGE) then activation, both in the store pipeline.
void finish_functional(KernelPass& kp,
                       const std::vector<PartitionedMatrix>& node_outputs,
                       double thr) {
  if (kp.ir->spec.add_input >= 0)
    kp.out.add_inplace(node_outputs[static_cast<std::size_t>(kp.ir->spec.add_input)],
                       thr);
  if (kp.ir->spec.act != Activation::kNone)
    kp.out.apply_elementwise(activation_fn(kp.ir->spec.act), thr);
}

/// Analyzer + per-task pricing + greedy list schedule + soft-processor
/// accounting for one kernel; appends the kernel report and advances the
/// per-request accumulators. Deliberately NOT fused across batch members:
/// parallel_reduce's chunk-combine shape depends on the element count, so
/// fusing reductions of different members would change the combine order
/// and break bit-identity with solo runs.
void price_and_schedule(const CompiledProgram& prog, const RuntimeOptions& opt,
                        KernelPass& kp, ComputeCoreModel& core, SoftProcessor& soft,
                        ExecutionResult& result) {
  const SimConfig& cfg = prog.config;
  const KernelIR& ir = *kp.ir;
  const PartitionedMatrix& X = *kp.ops.x;
  const PartitionedMatrix& Y = *kp.ops.y;
  const std::vector<Task>& tasks = kp.tasks;
  PartitionedMatrix& out = kp.out;

  KernelExecutionReport rep;
  rep.node_id = ir.node_id;
  {
    std::ostringstream name;
    name << ir.spec.kind_name() << " L" << ir.spec.layer_id;
    rep.name = name.str();
  }
  rep.tasks = static_cast<std::int64_t>(tasks.size());
  MappedKernelKind mkind = ir.spec.kind == KernelKind::kAggregate
                               ? MappedKernelKind::kAggregate
                               : MappedKernelKind::kUpdate;

  // Operand-strip reuse under double buffering: the grid_i tasks of one
  // output column all consume the same Y column strip (one weight strip
  // for Update, one H column strip for Aggregate); when that strip fits
  // the on-chip buffer it is loaded once per core, not once per task.
  // Symmetrically for X row strips shared by the grid_k tasks of one
  // output row. Amortized share = cores / tasks-sharing-the-strip.
  const double cores = static_cast<double>(cfg.num_cores);
  double y_reuse = 1.0, x_reuse = 1.0;
  if (ir.scheme.grid_k > 0) {
    std::size_t y_strip =
        Y.ddr_bytes(cfg) / static_cast<std::size_t>(ir.scheme.grid_k);
    if (y_strip <= cfg.onchip_tile_bytes && ir.scheme.grid_i > cfg.num_cores)
      y_reuse = cores / static_cast<double>(ir.scheme.grid_i);
  }
  if (ir.scheme.grid_i > 0) {
    std::size_t x_strip =
        X.ddr_bytes(cfg) / static_cast<std::size_t>(ir.scheme.grid_i);
    if (x_strip <= cfg.onchip_tile_bytes && ir.scheme.grid_k > cfg.num_cores)
      x_reuse = cores / static_cast<double>(ir.scheme.grid_k);
  }
  std::vector<double> durations(tasks.size(), 0.0);
  // Price every task and reduce the per-task stats in one pass. The
  // reduction must precede the soft-processor accounting below (which
  // charges less for pairs the Analyzer short-circuits as empty);
  // parallel_reduce combines chunk partials in chunk order, so the
  // totals are deterministic whatever the host thread count.
  AcceleratorStats kernel_stats = parallel_reduce<AcceleratorStats>(
      static_cast<std::int64_t>(tasks.size()), AcceleratorStats{},
      [&](std::int64_t ti, AcceleratorStats& acc) {
        const Task& t = tasks[static_cast<std::size_t>(ti)];
        std::vector<PairWork> pairs;
        pairs.reserve(static_cast<std::size_t>(t.inner_steps));
        for (std::int64_t j = 0; j < t.inner_steps; ++j) {
          const Tile& x = X.tile(t.out_gi, j);
          const Tile& y = Y.tile(j, t.out_gk);
          // Profile each operand once per pair; the decision and the
          // shape both consume the same numbers.
          const double ax = x.density(), ay = y.density();
          PairDecision d = decide_pair(opt.strategy, mkind, ax, ay, cfg.psys);
          PairWork w;
          w.shape = PairShape{x.rows, x.cols, y.cols, ax, ay};
          w.prim = d.prim;
          w.alpha_spdmm = d.alpha_spdmm;
          if (d.prim != Primitive::kSkip)
            w.load_bytes = x_reuse * static_cast<double>(x.ddr_bytes(cfg)) +
                           y_reuse * static_cast<double>(y.ddr_bytes(cfg));
          w.ahm_cycles = d.prim == Primitive::kSkip
                             ? 0.0
                             : pair_ahm_cycles(d, x, y, cfg.psys);
          if (opt.detailed_timing && d.prim != Primitive::kSkip)
            w.compute_cycles_override = detailed_pair_cycles(d, x, y, cfg.psys);
          pairs.push_back(w);
        }
        const Tile& out_tile = out.tile(t.out_gi, t.out_gk);
        std::size_t wb_bytes = opt.functional
                                   ? out_tile.ddr_bytes(cfg)
                                   : static_cast<std::size_t>(out_tile.rows) *
                                         static_cast<std::size_t>(out_tile.cols) *
                                         cfg.dense_elem_bytes;
        int active_cores = static_cast<int>(
            std::min<std::int64_t>(cfg.num_cores,
                                   static_cast<std::int64_t>(tasks.size())));
        TaskTiming tt =
            core.time_task(pairs, wb_bytes, out_tile.rows * out_tile.cols,
                           opt.hide_ahm, active_cores);
        // Parallel-safe: each task owns its duration slot.
        durations[static_cast<std::size_t>(ti)] = tt.total_cycles;
        // Tally primitive usage for the report.
        AcceleratorStats local;
        local.tasks = 1;
        for (const PairWork& w : pairs) {
          ++local.pairs;
          switch (w.prim) {
            case Primitive::kGemm: ++local.pairs_gemm; break;
            case Primitive::kSpdmm: ++local.pairs_spdmm; break;
            case Primitive::kSpmm: ++local.pairs_spmm; break;
            case Primitive::kSkip: ++local.pairs_skipped; break;
          }
        }
        local.mode_switches = tt.mode_switches;
        local.compute_cycles = tt.compute_cycles;
        local.memory_cycles = tt.memory_cycles;
        local.ahm_cycles = tt.ahm_cycles;
        acc.merge(local);
      },
      [](AcceleratorStats& into, const AcceleratorStats& from) { into.merge(from); },
      opt.host_threads);

  rep.pairs = kernel_stats.pairs;
  rep.pairs_gemm = kernel_stats.pairs_gemm;
  rep.pairs_spdmm = kernel_stats.pairs_spdmm;
  rep.pairs_spmm = kernel_stats.pairs_spmm;
  rep.pairs_skipped = kernel_stats.pairs_skipped;
  rep.compute_cycles = kernel_stats.compute_cycles;
  rep.memory_cycles = kernel_stats.memory_cycles;
  rep.ahm_cycles = kernel_stats.ahm_cycles;
  result.stats.mode_switches += kernel_stats.mode_switches;

  // ---- Scheduler: greedy list schedule over the Computation Cores ----
  ScheduleResult sched = schedule_tasks(durations, cfg.num_cores);
  rep.makespan_cycles = sched.makespan_cycles;
  rep.load_imbalance = sched.load_imbalance();
  if (opt.collect_timeline)
    result.timeline.push_back(ExecutionResult::KernelTimeline{
        rep.name, schedule_timeline(durations, cfg.num_cores), result.exec_cycles});

  // ---- Soft processor accounting --------------------------------------
  double soft_before = soft.cycles();
  double k2p_cycles = 0.0;
  if (opt.strategy == MappingStrategy::kDynamic) {
    soft.charge_k2p(rep.pairs - rep.pairs_skipped);
    soft.charge_k2p_skips(rep.pairs_skipped);
    k2p_cycles = soft.cycles() - soft_before;
  }
  soft.charge_dispatch(static_cast<std::int64_t>(tasks.size()));
  rep.soft_cycles = soft.cycles() - soft_before;
  rep.k2p_soft_cycles = k2p_cycles;

  rep.output_density = out.density();
  result.node_densities.push_back(rep.output_density);
  result.exec_cycles += rep.makespan_cycles;
  result.kernels.push_back(rep);
}

/// Roll kernel reports up into the request-level result (stats totals,
/// latency model, final output matrix).
void finalize_result(const SimConfig& cfg, const RuntimeOptions& opt,
                     std::vector<PartitionedMatrix>& node_outputs,
                     ExecutionResult& result) {
  for (const KernelExecutionReport& k : result.kernels) {
    result.stats.tasks += k.tasks;
    result.stats.pairs += k.pairs;
    result.stats.pairs_gemm += k.pairs_gemm;
    result.stats.pairs_spdmm += k.pairs_spdmm;
    result.stats.pairs_spmm += k.pairs_spmm;
    result.stats.pairs_skipped += k.pairs_skipped;
    result.stats.compute_cycles += k.compute_cycles;
    result.stats.memory_cycles += k.memory_cycles;
    result.stats.ahm_cycles += k.ahm_cycles;
  }

  result.exec_ms = cfg.cycles_to_ms(result.exec_cycles);
  result.soft_ms = cfg.soft_cycles_to_ms(
      [&] {
        double total = 0.0;
        for (const KernelExecutionReport& k : result.kernels) total += k.soft_cycles;
        return total;
      }());

  // Overlap model. Two mechanisms hide the runtime system's work:
  //  - the Analyzer maps kernel l+1 while kernel l executes (paper
  //    Section VI-B); kernel 0's operand densities (A, W, H0) come from
  //    compile-time profiling, so its mapping overlaps the initial
  //    host->FPGA data upload;
  //  - within a kernel, decisions stream ahead of the interrupt-driven
  //    dispatcher, overlapping that kernel's own execution (the paper's
  //    "hidden by the task scheduling", Section VI-C).
  // The paper's latency metric treats the runtime system as fully hidden
  // (Section VIII-C) and reports its cost only as the Fig. 13 ratio; with
  // hide_runtime we follow that accounting, and the ablation
  // (hide_runtime = false) exposes the full soft-processor time instead.
  result.exposed_runtime_ms = opt.hide_runtime ? 0.0 : result.soft_ms;
  result.latency_ms = result.exec_ms + result.exposed_runtime_ms;
  result.runtime_overhead_ratio =
      result.exec_ms > 0.0 ? result.soft_ms / result.exec_ms : 0.0;

  if (!node_outputs.empty()) result.output = std::move(node_outputs.back());
}

/// Per-member running state of a batch: one request's execution locals,
/// boxed so members advance in lockstep.
struct MemberRun {
  const CompiledProgram* prog;
  const RuntimeOptions* opt;
  CancellationToken token;
  ComputeCoreModel core;
  SoftProcessor soft;
  double thr;
  ExecutionResult result;
  std::vector<PartitionedMatrix> node_outputs;
  std::exception_ptr error;

  explicit MemberRun(const BatchMember& m)
      : prog(m.prog),
        opt(&m.opt),
        token(m.token),
        core(m.prog->config),
        soft(m.prog->config),
        thr(m.prog->config.sparse_storage_threshold),
        node_outputs(m.prog->kernels.size()) {
    result.kernels.reserve(m.prog->kernels.size());
  }
  bool live() const { return !error; }
};

/// Structurally batchable: same kernel sequence shape and partition
/// geometry, so every member generates the identical task grid per
/// kernel. Guaranteed by equal plan_signature (the service's group key);
/// verified here so execute_batch stays safe for arbitrary callers.
bool batch_compatible(const std::vector<BatchMember>& members) {
  const CompiledProgram& p0 = *members[0].prog;
  for (const BatchMember& m : members) {
    const CompiledProgram& p = *m.prog;
    if (p.kernels.size() != p0.kernels.size()) return false;
    if (p.plan.n1 != p0.plan.n1 || p.plan.n2 != p0.plan.n2) return false;
    for (std::size_t l = 0; l < p.kernels.size(); ++l) {
      const KernelIR& a = p.kernels[l];
      const KernelIR& b = p0.kernels[l];
      if (a.spec.kind != b.spec.kind || a.spec.out_dim != b.spec.out_dim ||
          a.num_vertices != b.num_vertices)
        return false;
    }
  }
  return true;
}

/// Tighter of the members' host-thread caps (0 = uncapped) for the fused
/// loops. Results are thread-count-invariant, so this only affects
/// wall-clock, never bit-identity.
int fused_thread_cap(const MemberRun* runs,
                     const std::vector<std::size_t>& live) {
  int cap = 0;
  for (std::size_t m : live) {
    int ht = runs[m].opt->host_threads;
    if (ht > 0) cap = cap == 0 ? ht : std::min(cap, ht);
  }
  return cap;
}

/// Run `n` structurally batchable members through every kernel in
/// lockstep; returns how many kernels ran as a shared-X sweep.
std::int64_t run_kernels(MemberRun* runs, std::size_t n) {
  std::int64_t fused_kernels = 0;
  const std::size_t num_kernels = runs[0].prog->kernels.size();
  for (std::size_t l = 0; l < num_kernels; ++l) {
    // Kernel boundary, per member in index order: the cooperative abort
    // point (never mid-kernel, so a run that finishes is bit-identical to
    // an uncancellable one) and the chaos layer's transient-execution-
    // failure site. An abort or injected fault drops THAT member and its
    // batchmates continue; the fixed member order keeps chaos outcomes
    // seed-reproducible for a given batch composition.
    std::vector<KernelPass> passes(n);
    std::vector<std::size_t> live;
    for (std::size_t m = 0; m < n; ++m) {
      if (!runs[m].live()) continue;
      try {
        runs[m].token.check();
        if (fault_point(kFaultRuntimeKernelFault))
          throw FaultInjectedError(
              "injected kernel fault (node " +
              std::to_string(runs[m].prog->kernels[l].node_id) + ")");
        passes[m] = begin_kernel(*runs[m].prog, l, runs[m].node_outputs);
        live.push_back(m);
      } catch (...) {
        runs[m].error = std::current_exception();
      }
    }
    if (live.empty()) break;

    // ---- Functional execution (work-stealing host pool) ----------------
    // The mapping picks which primitive runs a pair, never what the pair
    // computes, so live members sharing a program produce the same output
    // bits. Only the first live functional member of each program (its
    // worker) does the math; `source` names the worker each member copies
    // from. Workers are re-picked every kernel, so a worker that drops out
    // hands the role to its next live sibling.
    std::vector<std::size_t> workers, source(n);
    for (std::size_t m : live) {
      if (!runs[m].opt->functional) continue;
      std::size_t w = 0;
      while (w < workers.size() && runs[workers[w]].prog != runs[m].prog) ++w;
      if (w == workers.size()) workers.push_back(m);
      source[m] = workers[w];
    }
    // Shared-sweep eligibility: every worker reads the SAME X operand
    // object (pointer equality — the tile pool's dataset-keyed sharing)
    // under the same accumulation op. Then one pass over X's tiles feeds
    // every worker's accumulator — the batched spmm/spdmm sweep.
    // Otherwise (Update kernels, pool off, one worker) the workers' tasks
    // run as one flat parallel loop over (worker, task); each task owns
    // its output tile, so parallel writes never alias.
    bool shared_x = true, same_op = true;
    for (std::size_t m : workers) {
      if (passes[m].ops.x != passes[workers[0]].ops.x) shared_x = false;
      if (passes[m].ir->spec.op != passes[workers[0]].ir->spec.op)
        same_op = false;
    }
    const bool fused_sweep = shared_x && same_op && workers.size() >= 2;
    const int threads = fused_thread_cap(runs, live);
    try {
      if (fused_sweep) {
        ++fused_kernels;
        const std::vector<Task>& tasks0 = passes[workers[0]].tasks;
        const PartitionedMatrix& X = *passes[workers[0]].ops.x;
        const AccumOp op = passes[workers[0]].ir->spec.op;
        parallel_for(
            static_cast<std::int64_t>(tasks0.size()),
            [&](std::int64_t ti) {
              const Task& t = tasks0[static_cast<std::size_t>(ti)];
              // One accumulator per worker; each worker's accumulation
              // order over j (and within each tile product) is exactly its
              // solo order — only the X tile streams are shared.
              std::vector<DenseMatrix> accs;
              accs.reserve(workers.size());
              for (std::size_t m : workers)
                accs.emplace_back(passes[m].out.tile_row_count(t.out_gi),
                                  passes[m].out.tile_col_count(t.out_gk),
                                  Layout::kRowMajor);
              std::vector<const Tile*> ys(workers.size());
              std::vector<DenseMatrix*> zs(workers.size());
              for (std::int64_t j = 0; j < t.inner_steps; ++j) {
                for (std::size_t i = 0; i < workers.size(); ++i) {
                  ys[i] = &passes[workers[i]].ops.y->tile(j, t.out_gk);
                  zs[i] = &accs[i];
                }
                accumulate_product_batched(X.tile(t.out_gi, j), ys, zs, op);
              }
              for (std::size_t i = 0; i < workers.size(); ++i)
                passes[workers[i]].out.set_tile_from_dense(
                    t.out_gi, t.out_gk, std::move(accs[i]),
                    runs[workers[i]].thr);
            },
            threads);
      } else {
        std::vector<std::pair<std::size_t, std::size_t>> flat;
        for (std::size_t m : workers)
          for (std::size_t ti = 0; ti < passes[m].tasks.size(); ++ti)
            flat.emplace_back(m, ti);
        parallel_for(
            static_cast<std::int64_t>(flat.size()),
            [&](std::int64_t i) {
              auto [m, ti] = flat[static_cast<std::size_t>(i)];
              run_functional_task(passes[m], passes[m].tasks[ti], runs[m].thr);
            },
            threads);
      }
      for (std::size_t m : workers)
        finish_functional(passes[m], runs[m].node_outputs, runs[m].thr);
      for (std::size_t m : live)
        if (runs[m].opt->functional && source[m] != m)
          passes[m].out = passes[source[m]].out;
    } catch (...) {
      // A failure inside the functional phase (allocation, library error)
      // has no single owner: fail every still-live member with it. Member-
      // attributable failures (tokens, chaos faults) only occur at the
      // kernel boundary above.
      std::exception_ptr err = std::current_exception();
      for (std::size_t m : live) runs[m].error = err;
      break;
    }

    // ---- Pricing / scheduling / soft-processor: strictly per member ----
    for (std::size_t m : live) {
      price_and_schedule(*runs[m].prog, *runs[m].opt, passes[m], runs[m].core,
                         runs[m].soft, runs[m].result);
      runs[m].node_outputs[static_cast<std::size_t>(passes[m].ir->node_id)] =
          std::move(passes[m].out);
    }
  }
  return fused_kernels;
}

}  // namespace

ExecutionResult execute(const CompiledProgram& prog, const RuntimeOptions& opt,
                        const CancellationToken& token) {
  BatchExecution bx = execute_batch({BatchMember{&prog, opt, token}});
  if (bx.members[0].error) std::rethrow_exception(bx.members[0].error);
  return std::move(bx.members[0].result);
}

BatchExecution execute_batch(const std::vector<BatchMember>& members) {
  BatchExecution bx;
  bx.members.resize(members.size());
  if (members.empty()) return bx;

  std::vector<MemberRun> runs;
  runs.reserve(members.size());
  for (const BatchMember& m : members) runs.emplace_back(m);
  if (batch_compatible(members)) {
    bx.total_kernels =
        static_cast<std::int64_t>(members[0].prog->kernels.size());
    bx.fused_kernels = run_kernels(runs.data(), runs.size());
  } else {
    // Non-batchable group (caller mixed plan shapes): each member alone.
    for (MemberRun& r : runs) run_kernels(&r, 1);
  }

  for (std::size_t m = 0; m < runs.size(); ++m) {
    if (runs[m].error) {
      bx.members[m].error = runs[m].error;
    } else {
      finalize_result(runs[m].prog->config, *runs[m].opt, runs[m].node_outputs,
                      runs[m].result);
      bx.members[m].result = std::move(runs[m].result);
    }
  }
  return bx;
}

}  // namespace dynasparse
