#pragma once
// Dataset registry reproducing the paper's six benchmark graphs.
//
// Table VI of the paper gives, per dataset: |V|, |E|, feature dimension,
// class count, density of the adjacency matrix A (implied by |V| and |E|)
// and density of the input feature matrix H0. We regenerate graphs and
// features synthetically to match those statistics. The substitution
// preserves the reported experiments because K2P decisions and the cycle
// model consume only shapes and per-tile densities, never the values.
//
// The two largest graphs (NELL, Reddit) carry a default `bench_scale`
// that divides |V| and |E| so functional simulation stays tractable;
// scale = 1 reproduces the paper's full sizes (timed-only workflows).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "matrix/coo_matrix.hpp"
#include "util/random.hpp"

namespace dynasparse {

struct DatasetSpec {
  std::string name;       // full name, e.g. "CiteSeer"
  std::string tag;        // paper's two-letter tag, e.g. "CI"
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::int64_t feature_dim = 0;
  std::int64_t num_classes = 0;
  double h0_density = 0.0;  // density of the input feature matrix
  std::int64_t hidden_dim = 16;  // paper: 16 for CI/CO/PU, 128 for FL/NE/RE
  double degree_skew = 0.6;      // heavy-tail parameter for the generator
  int bench_scale = 1;           // default down-scale used by the benches
};

/// A generated dataset: graph topology plus the (sparse) input features.
struct Dataset {
  DatasetSpec spec;   // spec *after* scaling (vertices/edges reflect scale)
  Graph graph;
  CooMatrix features;  // |V| x feature_dim, density ~= spec.h0_density
};

/// The six specs of Table VI, in paper order: CI, CO, PU, FL, NE, RE.
const std::vector<DatasetSpec>& paper_datasets();

/// Look up a spec by its tag ("CI", "CO", "PU", "FL", "NE", "RE").
DatasetSpec dataset_by_tag(const std::string& tag);

/// Generate a dataset from a spec. `scale` divides |V| by scale and |E| by
/// scale^2, preserving the adjacency density of Table VI; scale <= 0 means
/// "use spec.bench_scale". Deterministic in (spec, scale, seed).
Dataset generate_dataset(const DatasetSpec& spec, int scale, std::uint64_t seed);

/// Random sparse feature matrix: per-row binomial nonzero counts at the
/// target density, positive values in [0.5, 1.5) (bag-of-words-like).
CooMatrix generate_features(std::int64_t rows, std::int64_t cols, double density,
                            Rng& rng);

}  // namespace dynasparse
