#include "hetero/hetero_planner.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "baselines/platform_models.hpp"

namespace dynasparse {

const char* device_name(DeviceKind d) {
  switch (d) {
    case DeviceKind::kCpu: return "CPU";
    case DeviceKind::kGpu: return "GPU";
    case DeviceKind::kFpga: return "FPGA";
  }
  return "?";
}

std::string HeteroPlan::describe() const {
  std::ostringstream os;
  os << "hetero plan:";
  for (std::size_t i = 0; i < assignment.size(); ++i)
    os << ' ' << device_name(assignment[i]);
  os << " | total " << total_ms << " ms (transfers " << transfer_ms
     << " ms), FPGA-only " << fpga_only_ms << " ms, speedup "
     << speedup_vs_fpga_only() << "x";
  return os.str();
}

std::vector<std::array<double, kNumDevices>> hetero_latency_matrix(
    const CompiledProgram& prog, const ExecutionResult& fpga_run) {
  // CPU column uses the faster CPU framework model (DGL), GPU the faster
  // GPU one (PyG) — the planner should compete against each device's
  // best software stack.
  const PlatformSpec& cpu = framework_platforms()[1];  // DGL-CPU
  const PlatformSpec& gpu = framework_platforms()[2];  // PyG-GPU
  const std::int64_t v = prog.kernels.empty() ? 0 : prog.kernels.front().num_vertices;
  const std::int64_t adj_nnz =
      (prog.kernels.empty() ? 0 : prog.kernels.front().num_edges) + v;

  std::vector<std::array<double, kNumDevices>> lat;
  lat.reserve(prog.kernels.size());
  for (std::size_t i = 0; i < prog.kernels.size(); ++i) {
    const KernelSpec& k = prog.kernels[i].spec;
    std::array<double, kNumDevices> row{};
    row[static_cast<int>(DeviceKind::kCpu)] =
        platform_kernel_latency_s(cpu, k, v, adj_nnz) * 1e3;
    row[static_cast<int>(DeviceKind::kGpu)] =
        platform_kernel_latency_s(gpu, k, v, adj_nnz) * 1e3;
    row[static_cast<int>(DeviceKind::kFpga)] =
        prog.config.cycles_to_ms(fpga_run.kernels[i].makespan_cycles);
    lat.push_back(row);
  }
  return lat;
}

HeteroPlan plan_heterogeneous(const CompiledProgram& prog,
                              const ExecutionResult& fpga_run,
                              const HeteroOptions& options) {
  HeteroPlan plan;
  const std::size_t n = prog.kernels.size();
  if (n == 0 || fpga_run.kernels.size() != n) return plan;
  auto lat = hetero_latency_matrix(prog, fpga_run);

  // Transfer cost into kernel i: its input feature matrix crosses PCIe
  // when the producing kernel ran on a different device. Dense-equivalent
  // bytes scaled by the profiled density of the producing node.
  auto transfer_ms = [&](std::size_t i) {
    const KernelSpec& k = prog.kernels[i].spec;
    double density = k.input == kFromFeatures
                         ? prog.h0_profile.overall_density
                         : fpga_run.kernels[static_cast<std::size_t>(k.input)]
                               .output_density;
    double bytes = static_cast<double>(prog.kernels[i].num_vertices) *
                   static_cast<double>(k.in_dim) * 4.0 * std::max(density, 0.05);
    return (bytes / options.pcie_bytes_per_s + options.transfer_latency_s) * 1e3;
  };

  // DP over the chain: best[i][d] = min cost of kernels 0..i with kernel
  // i on device d. (Branch inputs — GraphSAGE's add_input — follow the
  // chain approximation: only the move from kernel i-1's device into
  // kernel i is charged, never a branch input's own transfer.)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::array<double, kNumDevices>> best(
      n, {kInf, kInf, kInf});
  std::vector<std::array<int, kNumDevices>> from(n, {-1, -1, -1});
  for (int d = 0; d < kNumDevices; ++d) best[0][static_cast<std::size_t>(d)] = lat[0][static_cast<std::size_t>(d)];
  for (std::size_t i = 1; i < n; ++i) {
    double move = transfer_ms(i);
    for (int d = 0; d < kNumDevices; ++d) {
      for (int p = 0; p < kNumDevices; ++p) {
        double cost = best[i - 1][static_cast<std::size_t>(p)] +
                      (p == d ? 0.0 : move) + lat[i][static_cast<std::size_t>(d)];
        if (cost < best[i][static_cast<std::size_t>(d)]) {
          best[i][static_cast<std::size_t>(d)] = cost;
          from[i][static_cast<std::size_t>(d)] = p;
        }
      }
    }
  }

  // Recover the argmin path.
  int d_end = 0;
  for (int d = 1; d < kNumDevices; ++d)
    if (best[n - 1][static_cast<std::size_t>(d)] < best[n - 1][static_cast<std::size_t>(d_end)]) d_end = d;
  plan.assignment.assign(n, DeviceKind::kFpga);
  plan.kernel_ms.assign(n, 0.0);
  int d = d_end;
  for (std::size_t i = n; i-- > 0;) {
    plan.assignment[i] = static_cast<DeviceKind>(d);
    plan.kernel_ms[i] = lat[i][static_cast<std::size_t>(d)];
    d = i > 0 ? from[i][static_cast<std::size_t>(d)] : d;
  }
  plan.total_ms = best[n - 1][static_cast<std::size_t>(d_end)];
  for (std::size_t i = 0; i < n; ++i) {
    plan.fpga_only_ms += lat[i][static_cast<int>(DeviceKind::kFpga)];
    if (i > 0 && plan.assignment[i] != plan.assignment[i - 1])
      plan.transfer_ms += transfer_ms(i);
  }
  return plan;
}

}  // namespace dynasparse
