// Integration-grade unit tests of the runtime system: functional
// correctness against the naive reference, timing structure, strategy
// behaviour, runtime-overhead accounting, and fused batches bit-identical
// to solo execution.

#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "compiler/signature.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "matrix/tile_pool.hpp"
#include "model/reference.hpp"
#include "runtime/runtime_system.hpp"

namespace dynasparse {
namespace {

struct TestSetup {
  Dataset ds;
  GnnModel model;
  CompiledProgram prog;
};

TestSetup make_setup(GnnModelKind kind, double h0_density = 0.3,
                     std::uint64_t seed = 11) {
  DatasetSpec spec;
  spec.name = "toy";
  spec.tag = "TOY";
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 40;
  spec.num_classes = 5;
  spec.h0_density = h0_density;
  spec.hidden_dim = 12;
  Dataset ds = generate_dataset(spec, 1, seed);
  Rng rng(seed + 1);
  GnnModel model =
      build_model(kind, spec.feature_dim, spec.hidden_dim, spec.num_classes, rng);
  CompiledProgram prog = compile(model, ds, u250_config());
  return TestSetup{std::move(ds), std::move(model), std::move(prog)};
}

class RuntimeFunctional : public ::testing::TestWithParam<GnnModelKind> {};

TEST_P(RuntimeFunctional, MatchesReferenceBitExactly) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  ExecutionResult r = execute(s.prog, opt);
  DenseMatrix expect = reference_output(s.model, s.ds.graph, s.ds.features);
  EXPECT_EQ(DenseMatrix::max_abs_diff(r.output.to_dense(), expect), 0.0f)
      << model_kind_name(GetParam());
}

TEST_P(RuntimeFunctional, AllStrategiesProduceIdenticalValues) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  DenseMatrix dyn = execute(s.prog, opt).output.to_dense();
  opt.strategy = MappingStrategy::kStatic1;
  DenseMatrix s1 = execute(s.prog, opt).output.to_dense();
  opt.strategy = MappingStrategy::kStatic2;
  DenseMatrix s2 = execute(s.prog, opt).output.to_dense();
  EXPECT_EQ(DenseMatrix::max_abs_diff(dyn, s1), 0.0f);
  EXPECT_EQ(DenseMatrix::max_abs_diff(dyn, s2), 0.0f);
}

TEST_P(RuntimeFunctional, SingleThreadMatchesParallel) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  opt.host_threads = 1;
  DenseMatrix serial = execute(s.prog, opt).output.to_dense();
  opt.host_threads = 8;
  DenseMatrix parallel = execute(s.prog, opt).output.to_dense();
  EXPECT_EQ(DenseMatrix::max_abs_diff(serial, parallel), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RuntimeFunctional,
                         ::testing::Values(GnnModelKind::kGcn, GnnModelKind::kSage,
                                           GnnModelKind::kGin, GnnModelKind::kSgc),
                         [](const auto& info) { return model_kind_name(info.param); });

TEST(RuntimeTimingTest, ReportStructure) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  ExecutionResult r = execute(s.prog, {});
  ASSERT_EQ(r.kernels.size(), s.model.kernels.size());
  double sum = 0.0;
  for (const KernelExecutionReport& k : r.kernels) {
    EXPECT_GT(k.makespan_cycles, 0.0) << k.name;
    EXPECT_GT(k.tasks, 0);
    EXPECT_EQ(k.pairs, k.pairs_gemm + k.pairs_spdmm + k.pairs_spmm + k.pairs_skipped);
    EXPECT_GE(k.load_imbalance, 1.0);
    sum += k.makespan_cycles;
  }
  EXPECT_DOUBLE_EQ(r.exec_cycles, sum);
  EXPECT_NEAR(r.exec_ms, u250_config().cycles_to_ms(sum), 1e-12);
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST(RuntimeTimingTest, DynamicComputeNeverExceedsStatic) {
  for (GnnModelKind kind : paper_models()) {
    TestSetup s = make_setup(kind);
    RuntimeOptions opt;
    opt.strategy = MappingStrategy::kDynamic;
    double dyn = execute(s.prog, opt).stats.compute_cycles;
    opt.strategy = MappingStrategy::kStatic1;
    double s1 = execute(s.prog, opt).stats.compute_cycles;
    opt.strategy = MappingStrategy::kStatic2;
    double s2 = execute(s.prog, opt).stats.compute_cycles;
    // Mode switches add up to one cycle per pair; allow that slack.
    double slack = static_cast<double>(execute(s.prog, opt).stats.pairs) + 1.0;
    EXPECT_LE(dyn, std::min(s1, s2) + slack) << model_kind_name(kind);
  }
}

TEST(RuntimeTimingTest, DynamicSkipsEmptyPairs) {
  // Features nearly empty and partitions forced small so whole H0
  // partitions are zero — Dynamic skips them outright (Algorithm 7
  // lines 6-7) and the statics cannot.
  DatasetSpec spec;
  spec.name = "toy";
  spec.tag = "TOY";
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 40;
  spec.num_classes = 5;
  spec.h0_density = 0.0005;
  spec.hidden_dim = 12;
  Dataset ds = generate_dataset(spec, 1, 11);
  Rng rng(12);
  GnnModel model = build_model(GnnModelKind::kGcn, 40, 12, 5, rng);
  SimConfig cfg = u250_config();
  cfg.min_partition = 16;
  cfg.onchip_tile_bytes = 16 * 16 * 4;  // Nmax = 16 -> many tiny tiles
  CompiledProgram prog = compile(model, ds, cfg);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  ExecutionResult r = execute(prog, opt);
  EXPECT_GT(r.stats.pairs_skipped, 0);
  opt.strategy = MappingStrategy::kStatic1;
  ExecutionResult rs = execute(prog, opt);
  EXPECT_EQ(rs.stats.pairs_skipped, 0);  // statics never skip
}

TEST(RuntimeTimingTest, Static1UsesOnlySpdmmAndGemm) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kStatic1;
  ExecutionResult r = execute(s.prog, opt);
  EXPECT_EQ(r.stats.pairs_spmm, 0);
  EXPECT_GT(r.stats.pairs_gemm, 0);
  EXPECT_GT(r.stats.pairs_spdmm, 0);
}

TEST(RuntimeTimingTest, Static2UsesOnlySpdmm) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kStatic2;
  ExecutionResult r = execute(s.prog, opt);
  EXPECT_EQ(r.stats.pairs_spmm, 0);
  EXPECT_EQ(r.stats.pairs_gemm, 0);
  EXPECT_EQ(r.stats.pairs_skipped, 0);
  EXPECT_EQ(r.stats.pairs_spdmm, r.stats.pairs);
}

TEST(RuntimeTimingTest, SoftOverheadOnlyForDynamicK2P) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  double dyn_soft = execute(s.prog, opt).soft_ms;
  opt.strategy = MappingStrategy::kStatic1;
  double s1_soft = execute(s.prog, opt).soft_ms;
  EXPECT_GT(dyn_soft, s1_soft);  // statics pay dispatch only
  EXPECT_GT(s1_soft, 0.0);
}

TEST(RuntimeTimingTest, RuntimeOverheadMostlyHidden) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  ExecutionResult r = execute(s.prog, opt);
  // Paper accounting: runtime system fully hidden by overlap.
  EXPECT_DOUBLE_EQ(r.exposed_runtime_ms, 0.0);
  EXPECT_GT(r.soft_ms, 0.0);  // ...but its cost is still measured (Fig. 13)
  RuntimeOptions exposed = opt;
  exposed.hide_runtime = false;
  ExecutionResult re = execute(s.prog, exposed);
  EXPECT_NEAR(re.exposed_runtime_ms, re.soft_ms, 1e-12);
  EXPECT_GT(re.latency_ms, r.latency_ms);
}

TEST(RuntimeTimingTest, AhmAblationIncreasesLatency) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions hidden;
  RuntimeOptions exposed;
  exposed.hide_ahm = false;
  double lat_hidden = execute(s.prog, hidden).exec_ms;
  double lat_exposed = execute(s.prog, exposed).exec_ms;
  EXPECT_GT(lat_exposed, lat_hidden);
}

TEST(RuntimeTimingTest, OutputDensitiesTracked) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  ExecutionResult r = execute(s.prog, {});
  ASSERT_EQ(r.node_densities.size(), s.model.kernels.size());
  for (double d : r.node_densities) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  // The kernel reports carry the same values.
  for (std::size_t i = 0; i < r.kernels.size(); ++i)
    EXPECT_DOUBLE_EQ(r.kernels[i].output_density, r.node_densities[i]);
}

TEST(RuntimeTimingTest, DeterministicAcrossRuns) {
  TestSetup s = make_setup(GnnModelKind::kSage);
  ExecutionResult a = execute(s.prog, {});
  ExecutionResult b = execute(s.prog, {});
  EXPECT_DOUBLE_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(DenseMatrix::max_abs_diff(a.output.to_dense(), b.output.to_dense()), 0.0f);
}

// ---------------------------------------------------------------------
// execute_batch: members that share a program run its functional math
// once, yet every completed member must match its solo execute().
// ---------------------------------------------------------------------

/// Two weight draws over one dataset, compiled through one TilePool so
/// their Aggregate kernels share the adjacency operand (shared-X sweep).
std::vector<CompiledProgram> pooled_programs(GnnModelKind kind,
                                             const Dataset& ds,
                                             TilePool& pool) {
  std::vector<CompiledProgram> progs;
  for (std::uint64_t draw = 0; draw < 2; ++draw) {
    Rng rng(100 + draw);
    GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                                 ds.spec.num_classes, rng);
    progs.push_back(compile(model, ds, u250_config(), {},
                            OperandSource{&pool, dataset_signature(ds)}));
  }
  return progs;
}

/// Each program under Static-1, Static-2 and Dynamic, program-major.
std::vector<BatchMember> strategy_members(
    const std::vector<CompiledProgram>& progs) {
  std::vector<BatchMember> members;
  for (const CompiledProgram& p : progs) {
    for (MappingStrategy s : {MappingStrategy::kStatic1,
                              MappingStrategy::kStatic2,
                              MappingStrategy::kDynamic}) {
      BatchMember m;
      m.prog = &p;
      m.opt.strategy = s;
      members.push_back(m);
    }
  }
  return members;
}

std::uint64_t fingerprint(const CompiledProgram& prog,
                          const RuntimeOptions& opt, ExecutionResult r) {
  return assemble_compiled_report(prog, opt, std::move(r))
      .deterministic_fingerprint();
}

/// Every member of `members` from index `first` on completed and matches
/// its solo run bit for bit.
void expect_completed_match_solo(const std::vector<BatchMember>& members,
                                 BatchExecution& bx, std::size_t first = 0) {
  ASSERT_EQ(bx.members.size(), members.size());
  for (std::size_t i = first; i < members.size(); ++i) {
    const BatchMember& m = members[i];
    ASSERT_FALSE(bx.members[i].error) << "member " << i;
    EXPECT_EQ(fingerprint(*m.prog, m.opt, std::move(bx.members[i].result)),
              fingerprint(*m.prog, m.opt, execute(*m.prog, m.opt)))
        << "member " << i;
  }
}

class SharedProgramBatch : public ::testing::TestWithParam<GnnModelKind> {};

TEST_P(SharedProgramBatch, EveryStrategyMemberMatchesSolo) {
  TestSetup s = make_setup(GetParam());
  TilePool pool(8);
  const std::vector<CompiledProgram> progs =
      pooled_programs(GetParam(), s.ds, pool);
  const std::vector<BatchMember> members = strategy_members(progs);
  BatchExecution bx = execute_batch(members);
  expect_completed_match_solo(members, bx);
  EXPECT_GT(bx.fused_kernels, 0) << "no kernel ran as a shared-X sweep";
}

TEST_P(SharedProgramBatch, CancelledFirstMemberHandsTheWorkToItsSiblings) {
  TestSetup s = make_setup(GetParam());
  TilePool pool(8);
  const std::vector<CompiledProgram> progs =
      pooled_programs(GetParam(), s.ds, pool);
  std::vector<BatchMember> members = strategy_members(progs);
  CancellationSource cancelled;
  cancelled.cancel();
  members[0].token = cancelled.token();
  BatchExecution bx = execute_batch(members);
  ASSERT_TRUE(bx.members[0].error);
  EXPECT_THROW(std::rethrow_exception(bx.members[0].error), CancelledError);
  expect_completed_match_solo(members, bx, 1);
}

TEST_P(SharedProgramBatch, NonFunctionalMemberLeavesSiblingsIntact) {
  TestSetup s = make_setup(GetParam());
  TilePool pool(8);
  const std::vector<CompiledProgram> progs =
      pooled_programs(GetParam(), s.ds, pool);
  std::vector<BatchMember> members = strategy_members(progs);
  members[0].opt.functional = false;  // the first member of a program group
  BatchExecution bx = execute_batch(members);
  expect_completed_match_solo(members, bx);
}

// GraphSAGE covers the add_input combine in finish_functional.
INSTANTIATE_TEST_SUITE_P(GcnAndSage, SharedProgramBatch,
                         ::testing::Values(GnnModelKind::kGcn,
                                           GnnModelKind::kSage));

}  // namespace
}  // namespace dynasparse
