#pragma once
// perfbench — the repository benchmark's client. See perfbench/README.md
// for the workloads, the metrics and which layer moves which metric.
//
// Everything here is the benchmark's own code: the program is never
// instrumented. End-to-end numbers come from wall clocks around the
// calls a user makes (InferenceService submit and wait, the wire protocol);
// per-layer numbers come from timing direct calls into each module's
// public functions on the workload's own inputs.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/dataset.hpp"
#include "model/model.hpp"
#include "service/inference_service.hpp"
#include "service/request_stream.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // path of the stock dynasparse_serve binary
};

/// The run's result: the last stdout line is its JSON rendering.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // failed, refused or fingerprint mismatch
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count one request: ok means it succeeded AND its fingerprint matched
  /// the solo reference.
  void count(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  std::string json() const;
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }
double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);
/// VmHWM (peak resident set) of a process, in MiB; pid 0 = this process.
double peak_rss_mb(int pid = 0);

// ---- workload content ---------------------------------------------------------

inline constexpr double kPrunedSparsity = 0.95;  // the Table VIII point
inline constexpr std::array<dynasparse::MappingStrategy, 3> kStrategies = {
    dynasparse::MappingStrategy::kStatic1, dynasparse::MappingStrategy::kStatic2,
    dynasparse::MappingStrategy::kDynamic};
inline constexpr int kDynamicIdx = 2;

/// One (dataset, model) cell: the model unpruned and at kPrunedSparsity.
struct Cell {
  std::string tag;
  dynasparse::GnnModelKind kind = dynasparse::GnnModelKind::kGcn;
  std::shared_ptr<const dynasparse::Dataset> ds;
  std::shared_ptr<const dynasparse::GnnModel> dense, pruned;
  std::string name() const;
};

/// Solo direct-call reference of one program: compile -> run_compiled
/// under each strategy of kStrategies.
struct ProgramRef {
  std::array<std::uint64_t, 3> fingerprint{};
  std::array<double, 3> sim_ms{};
};
struct CellRef {
  ProgramRef dense, pruned;
};

/// Per-layer samples, gathered only by traced runs.
class LayerTrace {
 public:
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void add(const std::string& name, double v) { sums_[name] += v; }
  void set(const std::string& name, double v) { sums_[name] = v; }
  double mean_of(const std::string& name) const;
  double sum_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> sums_;
};

/// Compile each cell's two programs and run each under every strategy,
/// exactly as a direct caller would (compile -> run_compiled). With a
/// trace, the same work is then done again as probes split into their
/// module calls, each call timed: compile key, batch key, compile through
/// a TilePool and its stages, H0 from_coo, solo execute, report assembly,
/// fingerprint, and one fused execute_batch per cell over its six
/// (program, strategy) members. Every probe's output is checked against
/// the solo reference (see count_probes).
std::vector<CellRef> reference_cells(const std::vector<Cell>& cells, LayerTrace* trace);

/// Count the traced probes' checks into `out` and print them as a phase.
void count_probes(const LayerTrace& trace, Result& out);

/// Solo reference fingerprint of one Dynamic-strategy request.
std::uint64_t reference_fingerprint(const dynasparse::GnnModel& model,
                                    const dynasparse::Dataset& ds);

/// sim_dyn_ms_geomean and the four paper_err_* metrics over `refs`.
void fidelity_metrics(const std::vector<CellRef>& refs, Result& out);

/// Timed wrappers for the graph and model layers (the trace records them).
std::shared_ptr<const dynasparse::Dataset> timed_generate(const std::string& tag,
                                                          std::uint64_t seed,
                                                          LayerTrace* trace);
dynasparse::GnnModel timed_build(dynasparse::GnnModelKind kind,
                                 const dynasparse::Dataset& ds, std::uint64_t rng_seed,
                                 double prune, LayerTrace* trace);

/// Wire-codec probes: mean microseconds per decode_submit / encode_result
/// over `specs`.
void wire_probe(const std::vector<dynasparse::StreamRequestSpec>& specs,
                LayerTrace& trace);

/// Service-layer counters of `svc` into the trace: tile-pool,
/// compile-cache and result-cache hit ratios, batch occupancy and the
/// memory budget's high water.
void service_counters(const dynasparse::InferenceService& svc, LayerTrace& trace);
/// Work-stealing pool chunks (and stolen chunks) since `before`.
void pool_counters(const dynasparse::PoolStats& before, LayerTrace& trace);

/// Emit every per-layer metric from the trace (plus service/pool counters
/// the workload recorded into it) into `out`.
void layer_metrics(const LayerTrace& trace, Result& out);

// ---- workloads ----------------------------------------------------------------

Result run_paper_grid(const Options& opt);
Result run_serving(const Options& opt);

}  // namespace perfbench
