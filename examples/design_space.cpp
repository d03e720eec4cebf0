// Design-space exploration example: sweep CAM rows, hash length, and cell
// technology for one topology, reporting the cycles/energy/area trade-off
// surface — the kind of study an architect would run before committing to a
// DeepCAM configuration.
#include <cstdio>

#include "cam/energy_model.hpp"
#include "common/table.hpp"
#include "nn/topologies.hpp"
#include "plan/cost_model.hpp"

using namespace deepcam;

namespace {

struct Point {
  std::size_t cycles = 0;
  double energy = 0.0;
  double area = 0.0;
};

/// Cycles are the CAM layers' (pass drains and online context generation
/// included, peripheral layers not); energy is the CAM array's search +
/// write energy. Both come from plan::CostModel, which prices layers exactly
/// as the engine does.
Point evaluate(const plan::CostModel& cost, std::size_t rows,
               std::size_t hash_bits, cam::CellTech tech, core::Dataflow df) {
  core::DeepCamConfig cfg;
  cfg.cam_rows = rows;
  cfg.default_hash_bits = hash_bits;
  cfg.tech = tech;
  cfg.dataflow = df;
  Point pt;
  pt.area = cam::CamCostModel::area_um2(core::cam_config(cfg));
  for (const auto& layer : cost.estimate(cfg).layers) {
    pt.cycles += layer.cycles;
    pt.energy += layer.cam_energy;
  }
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const char* model_name = argc > 1 ? argv[1] : "vgg11";
  std::printf("== DeepCAM design-space exploration: %s ==\n", model_name);
  std::printf("(usage: design_space [lenet5|vgg11|vgg16|resnet18])\n\n");

  auto model = nn::make_model(model_name, 1);
  const nn::InputSpec spec = nn::input_spec_for(model_name);
  const nn::Shape in{1, spec.channels, spec.height, spec.width};
  const plan::CostModel cost(plan::extract_geometry(*model, in));

  for (const auto df : {core::Dataflow::kActivationStationary,
                        core::Dataflow::kWeightStationary}) {
    std::printf("dataflow: %s\n", core::dataflow_name(df));
    Table t({"rows", "hash k", "tech", "cycles", "CAM energy (uJ)",
             "area (um^2)", "energy*delay (uJ*Mcyc)"});
    for (std::size_t rows : {64u, 128u, 256u, 512u}) {
      for (std::size_t k : {256u, 1024u}) {
        for (const auto tech :
             {cam::CellTech::kFeFET, cam::CellTech::kCmos}) {
          const Point pt = evaluate(cost, rows, k, tech, df);
          t.add_row({std::to_string(rows), std::to_string(k),
                     tech == cam::CellTech::kFeFET ? "FeFET" : "CMOS",
                     Table::num(double(pt.cycles), 0),
                     Table::num(pt.energy * 1e6, 3),
                     Table::num(pt.area, 0),
                     Table::num(pt.energy * 1e6 * pt.cycles / 1e6, 3)});
        }
      }
    }
    t.print();
    std::printf("\n");
  }
  std::printf("Reading guide: more rows trade area for cycles; FeFET wins\n"
              "on both energy and area (paper II-A); energy*delay exposes\n"
              "the sweet spot the paper's 64-row configuration sits near.\n");
  return 0;
}
