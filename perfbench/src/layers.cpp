// Statistics, the JSON result line, solo references, paper-fidelity
// metrics and the per-layer probes shared by every workload.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "net/wire.hpp"
#include "service/batch_scheduler.hpp"

using namespace dynasparse;

namespace perfbench {

// ---- result line ----------------------------------------------------------------

std::string Result::json() const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : -1.0) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- statistics -----------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double peak_rss_mb(int pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    double kb = 0.0;
    std::istringstream(line.substr(6)) >> kb;  // "VmHWM:   123456 kB"
    return kb / 1024.0;
  }
  return 0.0;
}

std::string Cell::name() const { return std::string(model_kind_name(kind)) + "/" + tag; }

double LayerTrace::mean_of(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : mean(it->second);
}

double LayerTrace::sum_of(const std::string& name) const {
  auto it = sums_.find(name);
  return it == sums_.end() ? 0.0 : it->second;
}

// ---- graph and model layers -------------------------------------------------------

std::shared_ptr<const Dataset> timed_generate(const std::string& tag, std::uint64_t seed,
                                              LayerTrace* trace) {
  const auto t0 = Clock::now();
  auto ds = std::make_shared<const Dataset>(generate_dataset(dataset_by_tag(tag), 0, seed));
  if (trace) trace->sample("graph.generate_ms", ms_since(t0));
  return ds;
}

GnnModel timed_build(GnnModelKind kind, const Dataset& ds, std::uint64_t rng_seed,
                     double prune, LayerTrace* trace) {
  const auto t0 = Clock::now();
  Rng rng(rng_seed);
  GnnModel m = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  if (prune > 0.0) prune_model(m, prune);
  if (trace) trace->sample("model.build_ms", ms_since(t0));
  return m;
}

// ---- solo references (+ compiler/matrix/runtime/core/sim probes) -----------------

namespace {

std::uint64_t finish_report(const CompiledProgram& prog, const RuntimeOptions& rt,
                            ExecutionResult exec, const Dataset& ds, LayerTrace* trace) {
  auto t0 = Clock::now();
  InferenceReport rep = assemble_compiled_report(prog, rt, std::move(exec));
  if (trace) trace->sample("core.report_ms", ms_since(t0));
  rep.dataset_tag = ds.spec.tag;  // the service labels reports the same way
  t0 = Clock::now();
  const std::uint64_t fp = rep.deterministic_fingerprint();
  if (trace) trace->sample("core.fingerprint_ms", ms_since(t0));
  return fp;
}

/// One probe's output against its solo reference.
void check(bool ok, LayerTrace& trace) {
  trace.add("check.probes", 1.0);
  if (!ok) trace.add("check.mismatches", 1.0);
}

/// The solo direct-call reference: compile -> run_compiled.
InferenceReport solo_report(const CompiledProgram& prog, const RuntimeOptions& rt,
                            const Dataset& ds) {
  InferenceReport rep = run_compiled(prog, rt);
  rep.dataset_tag = ds.spec.tag;  // the service labels reports the same way
  return rep;
}

ProgramRef solo_reference(const GnnModel& m, const Dataset& ds) {
  const CompiledProgram prog = compile(m, ds, u250_config());
  ProgramRef ref;
  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    RuntimeOptions rt;
    rt.strategy = kStrategies[s];
    const InferenceReport rep = solo_report(prog, rt, ds);
    ref.fingerprint[s] = rep.deterministic_fingerprint();
    ref.sim_ms[s] = rep.latency_ms;
  }
  return ref;
}

void record_sim_counts(const ExecutionResult& r, LayerTrace& trace) {
  trace.add("sim.pairs_gemm", static_cast<double>(r.stats.pairs_gemm));
  trace.add("sim.pairs_spdmm", static_cast<double>(r.stats.pairs_spdmm));
  trace.add("sim.pairs_spmm", static_cast<double>(r.stats.pairs_spmm));
  trace.add("sim.pairs_skipped", static_cast<double>(r.stats.pairs_skipped));
  trace.add("sim.compute_cycles", r.stats.compute_cycles);
  trace.add("sim.memory_cycles", r.stats.memory_cycles);
  for (const KernelExecutionReport& k : r.kernels) trace.add("sim.soft_cycles", k.soft_cycles);
}

/// One program through the module calls, each timed, and each strategy's
/// output checked against the solo reference.
CompiledProgram traced_program(const GnnModel& m, const Dataset& ds, TilePool& pool,
                               const ProgramRef& ref, LayerTrace& trace) {
  const SimConfig cfg = u250_config();
  auto t0 = Clock::now();
  (void)make_compile_key(m, ds, cfg);
  trace.sample("compiler.compile_key_ms", ms_since(t0));
  t0 = Clock::now();
  (void)make_batch_key(m, ds, cfg);
  trace.sample("service.batch_key_ms", ms_since(t0));

  // Operands through a pool, as the service compiles them, so the cell's
  // two programs share adjacency/H0 and execute_batch can fuse them.
  const OperandSource src{&pool, dataset_signature(ds)};
  t0 = Clock::now();
  CompiledProgram prog = compile(m, ds, cfg, {}, src);
  trace.sample("compiler.compile_ms", ms_since(t0));
  trace.sample("compiler.partition_ms", prog.stats.partition_ms);
  trace.sample("compiler.planning_ms", prog.stats.planning_ms);
  trace.sample("compiler.ir_ms", prog.stats.ir_ms);
  trace.sample("compiler.sparsity_ms", prog.stats.sparsity_ms);

  t0 = Clock::now();
  PartitionedMatrix h0 = PartitionedMatrix::from_coo(ds.features, prog.plan.n1,
                                                     prog.plan.n2,
                                                     cfg.sparse_storage_threshold);
  const double h0_ms = ms_since(t0);
  trace.sample("matrix.h0_from_coo_ms", h0_ms);
  trace.sample("matrix.h0_from_coo_ns_per_nnz",
               h0_ms * 1e6 / static_cast<double>(std::max<std::int64_t>(1, ds.features.nnz())));

  for (std::size_t s = 0; s < kStrategies.size(); ++s) {
    RuntimeOptions rt;
    rt.strategy = kStrategies[s];
    t0 = Clock::now();
    ExecutionResult exec = execute(prog, rt);
    const double exec_ms = ms_since(t0);
    trace.sample("runtime.execute_ms", exec_ms);
    trace.sample("runtime.host_ns_per_pair",
                 exec_ms * 1e6 /
                     static_cast<double>(std::max<std::int64_t>(1, exec.stats.pairs)));
    if (static_cast<int>(s) == kDynamicIdx) record_sim_counts(exec, trace);
    check(finish_report(prog, rt, std::move(exec), ds, &trace) == ref.fingerprint[s], trace);
  }
  return prog;
}

/// execute_batch over a cell's six (program, strategy) members, checked
/// member by member against the solo references.
void traced_fused(const std::array<const CompiledProgram*, 2>& progs,
                  const std::array<const ProgramRef*, 2>& refs, const Dataset& ds,
                  LayerTrace& trace) {
  std::vector<BatchMember> members;
  for (const CompiledProgram* p : progs) {
    for (MappingStrategy s : kStrategies) {
      BatchMember m;
      m.prog = p;
      m.opt.strategy = s;
      members.push_back(m);
    }
  }
  const auto t0 = Clock::now();
  BatchExecution batch = execute_batch(members);
  trace.sample("runtime.fused_execute_ms", ms_since(t0));
  trace.sample("runtime.fused_kernel_share",
               batch.total_kernels > 0 ? static_cast<double>(batch.fused_kernels) /
                                             static_cast<double>(batch.total_kernels)
                                       : 0.0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    BatchMemberResult& r = batch.members[i];
    const std::uint64_t want = refs[i / 3]->fingerprint[i % 3];
    check(!r.error && finish_report(*members[i].prog, members[i].opt, std::move(r.result),
                                    ds, nullptr) == want,
          trace);
  }
}

}  // namespace

std::vector<CellRef> reference_cells(const std::vector<Cell>& cells, LayerTrace* trace) {
  std::vector<CellRef> refs(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    CellRef& ref = refs[c];
    ref.dense = solo_reference(*cell.dense, *cell.ds);
    ref.pruned = solo_reference(*cell.pruned, *cell.ds);
    if (!trace) continue;
    TilePool pool(8);  // per cell: shares operands between its two programs only
    const CompiledProgram dense = traced_program(*cell.dense, *cell.ds, pool, ref.dense, *trace);
    const CompiledProgram pruned =
        traced_program(*cell.pruned, *cell.ds, pool, ref.pruned, *trace);
    traced_fused({&dense, &pruned}, {&ref.dense, &ref.pruned}, *cell.ds, *trace);
  }
  return refs;
}

std::uint64_t reference_fingerprint(const GnnModel& model, const Dataset& ds) {
  return solo_report(compile(model, ds, u250_config()), RuntimeOptions{}, ds)
      .deterministic_fingerprint();
}

void count_probes(const LayerTrace& trace, Result& out) {
  const auto probes = static_cast<std::int64_t>(trace.sum_of("check.probes"));
  const auto mismatches = static_cast<std::int64_t>(trace.sum_of("check.mismatches"));
  for (std::int64_t i = 0; i < probes; ++i) out.count(i >= mismatches);
  std::printf("phase layer probes: sent %lld, succeeded %lld, failed %lld\n",
              static_cast<long long>(probes), static_cast<long long>(probes - mismatches),
              static_cast<long long>(mismatches));
}

// ---- paper fidelity --------------------------------------------------------------

void fidelity_metrics(const std::vector<CellRef>& refs, Result& out) {
  // Paper Table VII (unpruned) and Table VIII (>90% weight sparsity)
  // geo-mean speedups of Dynamic over Static-1 / Static-2.
  constexpr double kPaperSoS1 = 2.13, kPaperSoS2 = 1.59;
  constexpr double kPaperSoS1P95 = 15.96, kPaperSoS2P95 = 5.03;
  std::vector<double> dyn, s1, s2, s1p, s2p;
  for (const CellRef& r : refs) {
    const auto& d = r.dense.sim_ms;
    const auto& p = r.pruned.sim_ms;
    dyn.push_back(d[kDynamicIdx]);
    s1.push_back(d[0] / d[kDynamicIdx]);
    s2.push_back(d[1] / d[kDynamicIdx]);
    s1p.push_back(p[0] / p[kDynamicIdx]);
    s2p.push_back(p[1] / p[kDynamicIdx]);
  }
  std::printf("fidelity over %zu cells: SO-S1 %.3fx (paper %.2fx), SO-S2 %.3fx (paper %.2fx), "
              "at %.0f%% sparsity SO-S1 %.3fx (paper %.2fx), SO-S2 %.3fx (paper %.2fx)\n",
              refs.size(), geomean(s1), kPaperSoS1, geomean(s2), kPaperSoS2,
              kPrunedSparsity * 100.0, geomean(s1p), kPaperSoS1P95, geomean(s2p),
              kPaperSoS2P95);
  out.set("sim_dyn_ms_geomean", geomean(dyn), "sim_ms");
  out.set("paper_err_so_s1", std::fabs(geomean(s1) / kPaperSoS1 - 1.0), "frac");
  out.set("paper_err_so_s2", std::fabs(geomean(s2) / kPaperSoS2 - 1.0), "frac");
  out.set("paper_err_so_s1_p95", std::fabs(geomean(s1p) / kPaperSoS1P95 - 1.0), "frac");
  out.set("paper_err_so_s2_p95", std::fabs(geomean(s2p) / kPaperSoS2P95 - 1.0), "frac");
}

// ---- wire codec ------------------------------------------------------------------

namespace {
volatile std::size_t g_sink = 0;
}  // namespace

void wire_probe(const std::vector<StreamRequestSpec>& specs, LayerTrace& trace) {
  constexpr int kReps = 2000;
  for (const StreamRequestSpec& spec : specs) {
    const std::vector<std::uint8_t> bytes = encode_submit(1, spec);
    WireFrame frame;
    std::size_t used = 0;
    if (!try_extract_frame(bytes.data(), bytes.size(), frame, used))
      throw std::runtime_error("wire probe: SUBMIT frame did not round-trip");
    std::size_t sink = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) sink += decode_submit(frame).dataset.size();
    trace.sample("net.decode_submit_us", ms_since(t0) * 1e3 / kReps);
    WireResult res;
    res.fingerprint = sink;
    t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) sink += encode_result(static_cast<std::uint64_t>(i), res).size();
    trace.sample("net.encode_result_us", ms_since(t0) * 1e3 / kReps);
    g_sink = sink;  // keeps the timed loops from being optimized away
  }
}

// ---- service and pool counters ------------------------------------------------------

void service_counters(const InferenceService& svc, LayerTrace& trace) {
  auto ratio = [](std::int64_t hits, std::int64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                             : 0.0;
  };
  const TilePoolStats tp = svc.tile_pool_stats();
  const CacheStats cc = svc.cache_stats();
  const ResultCacheStats rc = svc.result_cache_stats();
  trace.set("matrix.tile_pool_hit_ratio", ratio(tp.hits, tp.misses));
  trace.set("service.compile_cache_hit_ratio", ratio(cc.hits, cc.misses));
  trace.set("service.result_cache_hit_ratio", ratio(rc.hits, rc.misses));
  trace.set("service.batch_occupancy", svc.batch_stats().mean_occupancy());
  trace.set("service.budget_high_water_mb",
            static_cast<double>(svc.memory_budget_stats().high_water) / (1024.0 * 1024.0));
}

void pool_counters(const PoolStats& before, LayerTrace& trace) {
  const PoolStats now = parallel_pool_stats();
  trace.set("util.pool_chunks", static_cast<double>(now.chunks - before.chunks));
  trace.set("util.pool_chunks_stolen",
            static_cast<double>(now.chunks_stolen - before.chunks_stolen));
}

// ---- per-layer metric table ---------------------------------------------------------

void layer_metrics(const LayerTrace& trace, Result& out) {
  // Means over the recorded calls ...
  static const std::pair<const char*, const char*> kMeans[] = {
      {"graph.generate_ms", "ms"},
      {"model.build_ms", "ms"},
      {"compiler.compile_key_ms", "ms"},
      {"service.batch_key_ms", "ms"},
      {"compiler.compile_ms", "ms"},
      {"compiler.partition_ms", "ms"},
      {"compiler.planning_ms", "ms"},
      {"compiler.ir_ms", "ms"},
      {"compiler.sparsity_ms", "ms"},
      {"matrix.h0_from_coo_ms", "ms"},
      {"matrix.h0_from_coo_ns_per_nnz", "ns"},
      {"runtime.execute_ms", "ms"},
      {"runtime.fused_execute_ms", "ms"},
      {"runtime.fused_kernel_share", "frac"},
      {"runtime.host_ns_per_pair", "ns"},
      {"core.report_ms", "ms"},
      {"core.fingerprint_ms", "ms"},
      {"service.queue_ms", "ms"},
      {"service.exec_ms", "ms"},
      {"net.decode_submit_us", "us"},
      {"net.encode_result_us", "us"},
  };
  // ... and totals or values the workload set once.
  static const std::pair<const char*, const char*> kSums[] = {
      {"matrix.tile_pool_hit_ratio", "frac"},
      {"util.pool_chunks", "count"},
      {"util.pool_chunks_stolen", "count"},
      {"sim.pairs_gemm", "count"},
      {"sim.pairs_spdmm", "count"},
      {"sim.pairs_spmm", "count"},
      {"sim.pairs_skipped", "count"},
      {"sim.compute_cycles", "cycles"},
      {"sim.memory_cycles", "cycles"},
      {"sim.soft_cycles", "cycles"},
      {"service.compile_cache_hit_ratio", "frac"},
      {"service.result_cache_hit_ratio", "frac"},
      {"service.batch_occupancy", "count"},
      {"service.budget_high_water_mb", "MB"},
      {"net.server_ms_p50", "ms"},
      {"net.server_ms_p99", "ms"},
      {"net.overhead_ms_p50", "ms"},
      {"net.overhead_ms_p99", "ms"},
      {"loadgen.late_ms_p99", "ms"},
      {"loadgen.late_ms_max", "ms"},
      {"traced.p50_ms", "ms"},
      {"traced.p99_ms", "ms"},
      {"traced.capacity_rps", "1/s"},
  };
  for (const auto& [name, unit] : kMeans) out.set(name, trace.mean_of(name), unit);
  for (const auto& [name, unit] : kSums) out.set(name, trace.sum_of(name), unit);
}

}  // namespace perfbench
