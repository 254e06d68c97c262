// paper_grid: the paper's Table VII grid plus one Table VIII point, run
// offline and closed-loop by one caller through an in-process
// InferenceService (one worker, opportunistic batching). Each cell — one
// (model, dataset) pair — is one batch of {Static-1, Static-2, Dynamic} x
// {unpruned, 95% weight sparsity}, submitted together and then awaited as
// run_batch does; the six requests share a batch key, so the service
// fuses them.

#include <algorithm>
#include <cstdio>
#include <random>

#include "bench.hpp"
#include "service/inference_service.hpp"

using namespace dynasparse;

namespace perfbench {

namespace {

constexpr int kSetups = 3;                // set-up repeats; setup_s is their median
// Grids per run, at least: a cell's latency then has two samples, so one
// slow copy of the cells near the median moves p50 less.
constexpr std::size_t kMinGrids = 2;
constexpr std::size_t kBatchMax = 8;      // >= the six requests of a cell
constexpr std::uint64_t kContentSeed = 2023;  // the reproduction benches' instance

std::vector<Cell> make_grid(LayerTrace* trace) {
  static const char* const kTags[] = {"CI", "CO", "PU", "FL", "NE", "RE"};
  std::vector<Cell> cells;
  for (const char* tag : kTags) {
    auto ds = timed_generate(tag, kContentSeed, trace);
    for (GnnModelKind kind : paper_models()) {
      // Model seeds follow bench/bench_common.hpp's make_model.
      const std::uint64_t rng_seed = kContentSeed + static_cast<std::uint64_t>(kind) * 131;
      Cell c;
      c.tag = tag;
      c.kind = kind;
      c.ds = ds;
      c.dense = std::make_shared<const GnnModel>(timed_build(kind, *ds, rng_seed, 0.0, trace));
      c.pruned = std::make_shared<const GnnModel>(
          timed_build(kind, *ds, rng_seed, kPrunedSparsity, trace));
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

/// One served request and where its reference lives.
struct Served {
  std::size_t cell = 0;
  int variant = 0;  // 0 = unpruned, 1 = pruned
  std::size_t strategy = 0;
  bool ok = false;
  std::uint64_t fingerprint = 0;
};

}  // namespace

Result run_paper_grid(const Options& opt) {
  Result out;
  LayerTrace trace;
  LayerTrace* tr = opt.trace ? &trace : nullptr;

  std::vector<double> setup_s;
  std::vector<Cell> cells;
  for (int i = 0; i < kSetups; ++i) {
    cells.clear();
    const auto t0 = Clock::now();
    cells = make_grid(i + 1 == kSetups ? tr : nullptr);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  // Cells run in paper order (which cell builds a dataset's pooled
  // operands, and which programs the LRU keeps, stay fixed); the seed picks
  // each batch's member order.
  std::mt19937_64 rng(opt.seed);
  std::vector<std::vector<int>> member_order(cells.size());
  for (std::vector<int>& order : member_order) {
    order = {0, 1, 2, 3, 4, 5};  // variant * 3 + strategy
    std::shuffle(order.begin(), order.end(), rng);
  }

  std::vector<Served> served;
  std::vector<double> latency_ms, grid_s, server_ms, overhead_ms;
  double rss_mb = 0.0;
  const PoolStats pool_before = parallel_pool_stats();
  const auto run_start = Clock::now();
  do {
    ServiceOptions so;
    so.workers = 1;
    so.max_batch_size = kBatchMax;
    InferenceService svc(so);  // fresh per grid: every grid starts cold
    double grid_ms = 0.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::vector<ServiceRequest> reqs;
      for (int m : member_order[c]) {
        ServiceRequest r;
        r.model = m / 3 ? cells[c].pruned : cells[c].dense;
        r.dataset = cells[c].ds;
        r.options.runtime.strategy = kStrategies[static_cast<std::size_t>(m % 3)];
        reqs.push_back(std::move(r));
      }
      // run_batch's own steps (submit all, then wait for each), spelled
      // out so a traced run can read each request's RequestTiming.
      const std::size_t n = reqs.size();
      std::vector<InferenceReport> reps(n);
      std::vector<bool> ok(n, true);
      std::vector<RequestId> ids;
      const auto t0 = Clock::now();
      for (ServiceRequest& r : reqs) ids.push_back(svc.submit(std::move(r)));
      for (std::size_t i = 0; i < n; ++i) {
        RequestTiming timing;
        try {
          reps[i] = svc.wait(ids[i], tr ? &timing : nullptr);
        } catch (const std::exception& e) {
          std::printf("cell %s request %zu failed: %s\n", cells[c].name().c_str(), i,
                      e.what());
          ok[i] = false;
        }
        if (!tr) continue;
        trace.sample("service.queue_ms", timing.queue_ms);
        trace.sample("service.exec_ms", timing.exec_ms);
        server_ms.push_back(timing.total_ms);
        overhead_ms.push_back(ms_since(t0) - timing.total_ms);
      }
      const double ms = ms_since(t0);
      grid_ms += ms;
      latency_ms.insert(latency_ms.end(), n, ms);
      for (std::size_t i = 0; i < reps.size(); ++i) {
        const int m = member_order[c][i];
        served.push_back(Served{c, m / 3, static_cast<std::size_t>(m % 3), ok[i],
                                ok[i] ? reps[i].deterministic_fingerprint() : 0});
      }
    }
    grid_s.push_back(grid_ms / 1e3);
    // After the first grid, so the figure does not depend on how many
    // grids fit in --seconds.
    if (grid_s.size() == 1) rss_mb = peak_rss_mb();
    if (tr) service_counters(svc, trace);
    std::printf("grid %zu: %.3f s for %zu cells\n", grid_s.size(), grid_s.back(),
                cells.size());
  } while (grid_s.size() < kMinGrids ||
           ms_since(run_start) / 1e3 + grid_s.back() <= opt.seconds);
  if (tr) pool_counters(pool_before, trace);

  const std::vector<CellRef> refs = reference_cells(cells, tr);
  for (const Served& s : served) {
    const ProgramRef& ref = s.variant ? refs[s.cell].pruned : refs[s.cell].dense;
    out.count(s.ok && s.fingerprint == ref.fingerprint[s.strategy]);
  }
  std::printf("phase grid: sent %lld, succeeded %lld, failed %lld\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.attempted - out.failed),
              static_cast<long long>(out.failed));

  const double requests_per_grid = static_cast<double>(cells.size() * 6);
  std::vector<double> rps;
  for (double g : grid_s) rps.push_back(requests_per_grid / g);
  std::printf("grid_s median %.3f s over %zu grid(s)\n", median(grid_s), grid_s.size());

  out.set("setup_s", median(setup_s), "s");
  out.set("ok_frac", 1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "frac");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.set("p50_ms", percentile(latency_ms, 50), "ms");
  out.set("p99_ms", percentile(latency_ms, 99), "ms");
  out.set("capacity_rps", median(rps), "1/s");
  out.set("fresh_p50_ms", percentile(latency_ms, 50), "ms");  // every request is cold
  fidelity_metrics(refs, out);

  if (tr) {
    std::vector<StreamRequestSpec> specs;
    for (const Cell& c : cells) {
      StreamRequestSpec spec;
      spec.dataset = c.tag;
      spec.model = c.kind;
      specs.push_back(spec);
    }
    wire_probe(specs, trace);
    trace.set("net.server_ms_p50", percentile(server_ms, 50));
    trace.set("net.server_ms_p99", percentile(server_ms, 99));
    trace.set("net.overhead_ms_p50", percentile(overhead_ms, 50));
    trace.set("net.overhead_ms_p99", percentile(overhead_ms, 99));
    trace.set("traced.p50_ms", out.metrics["p50_ms"].value);
    trace.set("traced.p99_ms", out.metrics["p99_ms"].value);
    trace.set("traced.capacity_rps", out.metrics["capacity_rps"].value);
    // loadgen.* stay 0: a closed loop has no schedule to fall behind.
    count_probes(trace, out);
    out.metrics.clear();
    layer_metrics(trace, out);
  }
  return out;
}

}  // namespace perfbench
