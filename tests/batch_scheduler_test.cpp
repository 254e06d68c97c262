// Continuous cross-request batching: the BatchScheduler's collection
// policy (window/K cutoffs, per-key grouping, close-time flush) tested
// directly against a plain job type, and the end-to-end contract tested
// through the service — a request executed as a fused batch member
// produces an InferenceReport whose deterministic_fingerprint() is
// bit-identical to the same request executed solo, across models,
// datasets and batch sizes, with the fusion counters proving batching
// actually happened (these are not vacuous passthrough runs).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "service/batch_scheduler.hpp"
#include "service/inference_service.hpp"
#include "util/blocking_queue.hpp"
#include "util/random.hpp"

namespace dynasparse {
namespace {

// ---------------------------------------------------------------------
// Scheduler policy semantics, against a plain job type.
// ---------------------------------------------------------------------

struct FakeJob {
  int key = 0;
  int seq = 0;
};

BatchKey fake_key(const FakeJob& j) {
  return BatchKey{static_cast<std::uint64_t>(j.key), 42};
}

TEST(BatchSchedulerPolicy, DisabledPolicyIsPurePassthrough) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{}, fake_key);
  ASSERT_FALSE(BatchPolicy{}.enabled());
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{1, 1}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);  // one at a time, even with same-key jobs queued
  EXPECT_EQ(out[0].seq, 0);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 1);
  q.close();
  EXPECT_FALSE(sched.next_batch(out));
}

TEST(BatchSchedulerPolicy, KCutoffReleasesWithoutWaitingForWindow) {
  BlockingQueue<FakeJob> q(0);
  // A window long enough that a timing-based release would hang the test:
  // only the K cutoff can explain a prompt return.
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 3}, fake_key);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(q.push(FakeJob{7, i}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].seq, i);  // arrival order
}

TEST(BatchSchedulerPolicy, WindowExpiryReleasesAPartialGroup) {
  BlockingQueue<FakeJob> q(0);
  // K never reached (max 100): only the 5 ms window can release.
  BatchScheduler<FakeJob> sched(q, BatchPolicy{5'000, 100}, fake_key);
  ASSERT_TRUE(q.push(FakeJob{3, 0}));
  ASSERT_TRUE(q.push(FakeJob{3, 1}));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  // The release must have waited for the window (minus scheduling slop,
  // generous upper bound for loaded CI machines).
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(ms, 3.0);
  EXPECT_LT(ms, 4000.0);
}

TEST(BatchSchedulerPolicy, ZeroWindowBatchesOnlyWhatIsAlreadyQueued) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{0, 100}, fake_key);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(q.push(FakeJob{9, i}));
  std::vector<FakeJob> out;
  // Everything queued fuses; nothing waits for more.
  ASSERT_TRUE(sched.next_batch(out));
  EXPECT_EQ(out.size(), 4u);
  // A lone job released immediately as a singleton batch.
  ASSERT_TRUE(q.push(FakeJob{9, 4}));
  ASSERT_TRUE(sched.next_batch(out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(BatchSchedulerPolicy, GroupsByKeyNeverMixing) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 2}, fake_key);
  // Interleaved keys: A B A B. Key A reaches K=2 first.
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{2, 1}));
  ASSERT_TRUE(q.push(FakeJob{1, 2}));
  ASSERT_TRUE(q.push(FakeJob{2, 3}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1);
  EXPECT_EQ(out[1].key, 1);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 2);
  EXPECT_EQ(out[1].key, 2);
}

TEST(BatchSchedulerPolicy, CloseFlushesPendingGroupsOnePerCall) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 100}, fake_key);
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{2, 1}));
  ASSERT_TRUE(q.push(FakeJob{1, 2}));
  q.close();
  std::vector<FakeJob> out;
  // Oldest group (key 1) first, then key 2, then end-of-stream.
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 2);
  EXPECT_FALSE(sched.next_batch(out));
}

// ---------------------------------------------------------------------
// End-to-end: fused execution is bit-identical to solo execution.
// ---------------------------------------------------------------------

Dataset batch_dataset(std::uint64_t seed, const std::string& tag) {
  DatasetSpec spec;
  spec.name = "batch";
  spec.tag = tag;
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

/// A fusion-compatible roster: same dataset content and layer shapes
/// (equal BatchKey) but a different weight draw per member — different
/// CompileKeys, so this exercises genuine cross-request fusion, not
/// result memoization.
std::vector<ServiceRequest> compatible_requests(std::size_t n, GnnModelKind kind,
                                                std::uint64_t dataset_seed,
                                                const std::string& tag) {
  std::vector<ServiceRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    Dataset ds = batch_dataset(dataset_seed, tag);
    Rng rng(1000 + 31 * i);
    GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                                 ds.spec.num_classes, rng);
    model.name += "#" + std::to_string(i);
    reqs.push_back(ServiceRequest::own(std::move(model), std::move(ds)));
  }
  return reqs;
}

std::uint64_t solo_fingerprint(const ServiceRequest& req) {
  CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
  InferenceReport rep = run_compiled(prog, req.options.runtime);
  rep.dataset_tag = req.dataset->spec.tag;
  return rep.deterministic_fingerprint();
}

TEST(BatchServiceFusion, FusedReportsAreBitIdenticalToSoloAcrossSweep) {
  const GnnModelKind kinds[] = {GnnModelKind::kGcn, GnnModelKind::kSage};
  const std::size_t batch_sizes[] = {2, 3, 5};
  std::uint64_t dataset_seed = 77;
  for (GnnModelKind kind : kinds) {
    for (std::size_t k : batch_sizes) {
      ++dataset_seed;
      std::vector<ServiceRequest> reqs =
          compatible_requests(k, kind, dataset_seed, "BT");
      std::vector<std::uint64_t> expected;
      for (const ServiceRequest& r : reqs)
        expected.push_back(solo_fingerprint(r));

      ServiceOptions opts;
      opts.workers = 2;
      // K = the roster size releases the batch the moment the last
      // member arrives; the long window is only the backstop.
      opts.batch_window_us = 3'000'000;
      opts.max_batch_size = k;
      InferenceService svc(opts);
      std::vector<RequestId> ids;
      for (ServiceRequest& r : reqs) ids.push_back(svc.submit(std::move(r)));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        InferenceReport rep = svc.wait(ids[i]);
        EXPECT_EQ(rep.deterministic_fingerprint(), expected[i])
            << "kind=" << static_cast<int>(kind) << " k=" << k
            << " member=" << i;
      }
      const BatchStats bs = svc.batch_stats();
      EXPECT_EQ(bs.batched_requests, static_cast<std::int64_t>(k));
      EXPECT_EQ(bs.fused_requests, static_cast<std::int64_t>(k))
          << "expected the whole roster to execute as one fused batch";
      EXPECT_GT(bs.fused_kernels, 0)
          << "no kernel ran as a shared-operand sweep: fusion was vacuous";
      EXPECT_GT(bs.mean_occupancy(), 1.0);
      svc.shutdown();
    }
  }
}

TEST(BatchServiceFusion, StrategiesOfOneProgramFuseBitIdenticalToSolo) {
  // Strategy is not part of the CompileKey, so the three strategies of one
  // (model, dataset) share ONE cached program: the fused batch computes
  // its functional math once and hands the output to all three members.
  for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
    auto ds = std::make_shared<const Dataset>(batch_dataset(41, "ST"));
    Rng rng(7);
    auto model = std::make_shared<const GnnModel>(
        build_model(kind, ds->spec.feature_dim, ds->spec.hidden_dim,
                    ds->spec.num_classes, rng));
    std::vector<ServiceRequest> reqs;
    std::vector<std::uint64_t> expected;
    for (MappingStrategy s : {MappingStrategy::kStatic1,
                              MappingStrategy::kStatic2,
                              MappingStrategy::kDynamic}) {
      ServiceRequest r;
      r.model = model;
      r.dataset = ds;
      r.options.runtime.strategy = s;
      expected.push_back(solo_fingerprint(r));
      reqs.push_back(std::move(r));
    }

    ServiceOptions opts;
    opts.workers = 1;
    opts.batch_window_us = 3'000'000;
    opts.max_batch_size = reqs.size();
    InferenceService svc(opts);
    const std::vector<InferenceReport> reps = svc.run_batch(std::move(reqs));
    ASSERT_EQ(reps.size(), expected.size());
    for (std::size_t i = 0; i < reps.size(); ++i)
      EXPECT_EQ(reps[i].deterministic_fingerprint(), expected[i])
          << "kind=" << static_cast<int>(kind) << " member=" << i;
    const BatchStats bs = svc.batch_stats();
    EXPECT_EQ(bs.fused_requests, 3)
        << "expected the three strategies to execute as one fused batch";
    svc.shutdown();
  }
}

TEST(BatchServiceFusion, MixedDatasetsGroupSeparatelyAndStayCorrect) {
  // Two incompatible populations (different dataset content) interleaved:
  // the scheduler must group them apart; every report still matches its
  // solo reference exactly.
  std::vector<ServiceRequest> a = compatible_requests(2, GnnModelKind::kGcn, 5, "DA");
  std::vector<ServiceRequest> b = compatible_requests(2, GnnModelKind::kGcn, 6, "DB");
  std::vector<ServiceRequest> interleaved;
  interleaved.push_back(std::move(a[0]));
  interleaved.push_back(std::move(b[0]));
  interleaved.push_back(std::move(a[1]));
  interleaved.push_back(std::move(b[1]));
  std::vector<std::uint64_t> expected;
  for (const ServiceRequest& r : interleaved)
    expected.push_back(solo_fingerprint(r));

  ServiceOptions opts;
  opts.workers = 2;
  opts.batch_window_us = 3'000'000;
  opts.max_batch_size = 2;
  InferenceService svc(opts);
  std::vector<RequestId> ids;
  for (ServiceRequest& r : interleaved) ids.push_back(svc.submit(std::move(r)));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(svc.wait(ids[i]).deterministic_fingerprint(), expected[i])
        << "member=" << i;
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batched_requests, 4);
  EXPECT_EQ(bs.fused_batches, 2);  // one 2-batch per dataset, never mixed
  svc.shutdown();
}

TEST(BatchServiceFusion, SingleRequestDegeneratePathMatchesSolo) {
  std::vector<ServiceRequest> reqs =
      compatible_requests(1, GnnModelKind::kGcn, 11, "SG");
  const std::uint64_t expected = solo_fingerprint(reqs[0]);
  ServiceOptions opts;
  opts.workers = 1;
  opts.batch_window_us = 5'000;  // batching ON, but only one request ever
  InferenceService svc(opts);
  RequestId id = svc.submit(std::move(reqs[0]));
  EXPECT_EQ(svc.wait(id).deterministic_fingerprint(), expected);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batches_formed, 1);
  EXPECT_EQ(bs.batched_requests, 1);
  EXPECT_EQ(bs.fused_batches, 0);
  EXPECT_EQ(bs.fused_requests, 0);
  EXPECT_EQ(bs.fused_kernels, 0);
  svc.shutdown();
}

TEST(BatchServiceFusion, UnbatchedDefaultsKeepCountersZero) {
  std::vector<ServiceRequest> reqs =
      compatible_requests(3, GnnModelKind::kGcn, 21, "UB");
  std::vector<std::uint64_t> expected;
  for (const ServiceRequest& r : reqs) expected.push_back(solo_fingerprint(r));
  ServiceOptions opts;
  opts.workers = 2;  // defaults: batch_window_us = 0, max_batch_size = 0
  InferenceService svc(opts);
  std::vector<RequestId> ids;
  for (ServiceRequest& r : reqs) ids.push_back(svc.submit(std::move(r)));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(svc.wait(ids[i]).deterministic_fingerprint(), expected[i]);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batches_formed, 0);
  EXPECT_EQ(bs.batched_requests, 0);
  EXPECT_EQ(bs.fused_kernels, 0);
  svc.shutdown();
}

TEST(BatchServiceFusion, NegativeWindowIsRejected) {
  ServiceOptions opts;
  opts.batch_window_us = -1;
  EXPECT_THROW(InferenceService svc(opts), std::invalid_argument);
}

}  // namespace
}  // namespace dynasparse
