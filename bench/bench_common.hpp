#pragma once
// Shared plumbing for the table/figure reproduction benches.
//
// Every bench prints the paper's rows as aligned text plus `# paper:`
// annotations with the published values, so the reproduced results are
// regenerated by simply running every binary (README, "Build, test,
// bench"). Datasets are generated at their default bench scale; pass
// `--scale N` to override (1 = paper-size graphs, slower), `--seed S` for
// a different synthetic instance.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "util/strict_parse.hpp"
#include "util/stopwatch.hpp"

namespace dynasparse::bench {

struct BenchArgs {
  int scale = 0;  // 0 = per-dataset default bench scale
  std::uint64_t seed = 2023;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
      args.scale = strict_stoi(argv[++i]);
    else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      args.seed = strict_stoull(argv[++i]);
  }
  return args;
}

inline const std::vector<std::string>& dataset_tags() {
  static const std::vector<std::string> tags = {"CI", "CO", "PU", "FL", "NE", "RE"};
  return tags;
}

inline Dataset load_dataset(const std::string& tag, const BenchArgs& args) {
  return generate_dataset(dataset_by_tag(tag), args.scale, args.seed);
}

inline GnnModel make_model(GnnModelKind kind, const Dataset& ds, std::uint64_t seed,
                           double weight_sparsity = 0.0) {
  Rng rng(seed + static_cast<std::uint64_t>(kind) * 131);
  GnnModel m = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  if (weight_sparsity > 0.0) prune_model(m, weight_sparsity);
  return m;
}

inline double strategy_latency_ms(const CompiledProgram& prog, MappingStrategy s) {
  RuntimeOptions opt;
  opt.strategy = s;
  return run_compiled(prog, opt).latency_ms;
}

// ---- machine-readable BENCH output ----------------------------------------
// Perf PRs record their numbers as BENCH_<pr>.json so every future
// optimization has a trajectory to beat (ISSUE 1 contract). The helpers
// below keep that output dependency-free.

/// Wall-clock `fn` `reps` times and return the best (minimum) time in ms —
/// the standard noise-robust microbench estimator.
inline double time_best_of_ms(int reps, const std::function<void()>& fn) {
  double best = -1.0;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    double ms = sw.elapsed_ms();
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

/// Minimal JSON emitter: enough for flat objects and arrays of flat
/// objects, which is all the BENCH files need.
class JsonWriter {
 public:
  JsonWriter& key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    return *this;
  }
  JsonWriter& value(double v) { return raw(num(v)); }
  JsonWriter& value(std::int64_t v) { return raw(std::to_string(v)); }
  JsonWriter& value(int v) { return raw(std::to_string(v)); }
  JsonWriter& value(bool v) { return raw(v ? "true" : "false"); }
  JsonWriter& value(const std::string& v) { return raw('"' + escape(v) + '"'); }
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  std::string str() const { return out_.str(); }

 private:
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }
  void sep() {
    if (need_comma_) out_ << ',';
    need_comma_ = false;
  }
  JsonWriter& raw(const std::string& s) {
    sep();
    out_ << s;
    need_comma_ = true;
    return *this;
  }
  JsonWriter& open(char c) {
    sep();
    out_ << c;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ << c;
    need_comma_ = true;
    return *this;
  }
  std::ostringstream out_;
  bool need_comma_ = false;
};

}  // namespace dynasparse::bench
