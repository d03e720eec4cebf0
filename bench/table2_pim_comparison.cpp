// Table II reproduction: DeepCAM (VHL) vs previously published PIM engines
// on VGG11/CIFAR10 — energy per inference (uJ) and computation cycles per
// inference.
//
// Published values: NeuroSim RRAM 34.98 uJ / 5.74e5 cyc; Valavi SRAM
// 3.55 uJ / 2.56e5 cyc; DeepCAM 0.488 uJ / 2.652e5 cyc.
#include <cstdio>

#include "common/table.hpp"
#include "common/units.hpp"
#include "nn/topologies.hpp"
#include "pim/comparators.hpp"
#include "plan/cost_model.hpp"

using namespace deepcam;

namespace {

std::size_t vhl_bits_for_context(std::size_t context_len) {
  if (context_len <= 64) return 256;
  if (context_len <= 512) return 512;
  if (context_len <= 2048) return 768;
  return 1024;
}

/// DeepCAM with VHL levels, priced by plan::CostModel exactly as the engine
/// prices its layers. The report holds CAM layers only: its total_cycles()
/// leaves out the peripheral layers, as the published cycle counts do.
core::RunReport deepcam_vhl(const nn::Model& model, nn::Shape input,
                            std::size_t rows, core::Dataflow df) {
  const plan::CostModel cost(plan::extract_geometry(model, input));
  core::DeepCamConfig cfg;
  cfg.cam_rows = rows;
  cfg.dataflow = df;
  for (const auto& layer : cost.geometry().cam_layers)
    cfg.layer_hash_bits.push_back(vhl_bits_for_context(layer.context_len));
  core::RunReport out;
  out.layers = cost.estimate(cfg).layers;
  return out;
}

}  // namespace

int main() {
  std::printf("== Table II: comparison with previous PIM works "
              "(VGG11, CIFAR10-class input) ==\n\n");
  auto model = nn::make_vgg11(1, 10);
  const nn::Shape in{1, 3, 32, 32};

  const auto rram =
      pim::simulate_crossbar(*model, in, pim::neurosim_rram_config());
  const auto sram =
      pim::simulate_crossbar(*model, in, pim::valavi_sram_config());
  const auto dc = deepcam_vhl(*model, in, /*rows=*/64,
                              core::Dataflow::kActivationStationary);

  Table t({"work", "device", "dot-product", "energy/inf (uJ)",
           "cycles/inf (x1e5)", "paper energy", "paper cycles"});
  t.add_row({"NeuroSim [20]", "RRAM", "algebraic",
             Table::num(to_uJ(rram.total_energy()), 2),
             Table::num(rram.total_cycles() / 1e5, 2), "34.98", "5.74"});
  t.add_row({"Valavi et al. [24]", "SRAM", "algebraic",
             Table::num(to_uJ(sram.total_energy()), 2),
             Table::num(sram.total_cycles() / 1e5, 2), "3.55", "2.56"});
  t.add_row({"DeepCAM (VHL, ours)", "FeFET", "geometric",
             Table::num(to_uJ(dc.total_energy()), 3),
             Table::num(dc.total_cycles() / 1e5, 2), "0.488", "2.652"});
  t.print();

  std::printf("\nDerived ratios (paper: ~71.68x vs NeuroSim, ~7.27x vs "
              "Valavi in energy):\n");
  std::printf("  energy: DeepCAM is %.1fx below NeuroSim, %.1fx below "
              "Valavi\n", rram.total_energy() / dc.total_energy(),
              sram.total_energy() / dc.total_energy());
  std::printf("  cycles: DeepCAM is %.2fx below NeuroSim, %.2fx vs Valavi "
              "(paper: slightly more cycles than Valavi)\n",
              double(rram.total_cycles()) / double(dc.total_cycles()),
              double(sram.total_cycles()) / double(dc.total_cycles()));
  return 0;
}
