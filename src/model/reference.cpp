#include "model/reference.hpp"

#include <stdexcept>

#include "matrix/format_convert.hpp"
#include "matrix/matrix_ops.hpp"

namespace dynasparse {

std::vector<DenseMatrix> reference_inference(const GnnModel& model, const Graph& graph,
                                             const CooMatrix& features) {
  std::string err;
  if (!validate_model(model, &err)) throw std::invalid_argument("invalid model: " + err);
  if (features.rows() != graph.num_vertices() || features.cols() != model.in_dim)
    throw std::invalid_argument("feature matrix shape mismatch");

  DenseMatrix h0 = coo_to_dense(features);
  std::vector<DenseMatrix> outputs;
  outputs.reserve(model.kernels.size());

  for (const KernelSpec& k : model.kernels) {
    const DenseMatrix& in =
        k.input == kFromFeatures ? h0 : outputs[static_cast<std::size_t>(k.input)];
    DenseMatrix out;
    if (k.kind == KernelKind::kAggregate) {
      CsrMatrix op = build_adjacency_operator(graph, k.adj, k.epsilon);
      if (k.op == AccumOp::kSum) {
        out = csr_spdmm(op, in);
      } else {
        // Max/Min aggregation: reduce per output row over weighted
        // neighbor contributions; accumulator starts at 0 (features are
        // non-negative post-ReLU).
        out = DenseMatrix(op.rows(), in.cols(), Layout::kRowMajor);
        for (std::int64_t r = 0; r < op.rows(); ++r)
          for (std::int64_t e = op.row_begin(r); e < op.row_end(r); ++e) {
            std::size_t ei = static_cast<std::size_t>(e);
            float w = op.values()[ei];
            std::int64_t src = op.col_idx()[ei];
            for (std::int64_t j = 0; j < in.cols(); ++j) {
              float contrib = w * in.at(src, j);
              float& slot = out.at(r, j);
              if (k.op == AccumOp::kMax)
                slot = contrib > slot ? contrib : slot;
              else
                slot = contrib < slot ? contrib : slot;
            }
          }
      }
    } else {
      out = gemm(in, model.weights[static_cast<std::size_t>(k.weight_index)]);
    }
    if (k.add_input >= 0) {
      const DenseMatrix& extra = outputs[static_cast<std::size_t>(k.add_input)];
      for (std::int64_t r = 0; r < out.rows(); ++r)
        for (std::int64_t c = 0; c < out.cols(); ++c) out.at(r, c) += extra.at(r, c);
    }
    if (k.act != Activation::kNone)
      for (float& v : out.data()) v = apply_activation(k.act, v);
    outputs.push_back(std::move(out));
  }
  return outputs;
}

DenseMatrix reference_output(const GnnModel& model, const Graph& graph,
                             const CooMatrix& features) {
  return reference_inference(model, graph, features).back();
}

}  // namespace dynasparse
