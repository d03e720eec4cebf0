// Umbrella header: the whole DeepCAM public surface in one include.
//
//   #include "deepcam/deepcam.hpp"
//
//   deepcam::Spec spec = deepcam::SpecBuilder("demo")
//                            .workload("lenet5", 7)
//                            .hash_bits(256)
//                            .build();
//   deepcam::Outcome outcome = deepcam::Runner().run(spec);
//   std::puts(deepcam::outcome_text(outcome).c_str());
//
// The facade layer (api/) is the intended entry point — one declarative
// Spec in, one typed Outcome out, with JSON spec files (api/spec_io) and
// the `deepcam` CLI speaking the same format. The subsystem headers below
// are included for callers that drop beneath the facade (direct engine,
// comparison, or serving access); everything the facade does is expressible
// against them, bitwise-identically.
#pragma once

// Facade: declarative specs, the runner, outcome serialization.
#include "api/report_io.hpp"
#include "api/runner.hpp"
#include "api/spec.hpp"
#include "api/spec_io.hpp"

// Shared infrastructure.
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

// Core execution: accelerator, batched engine, VHL tuner, serializers.
#include "core/accelerator.hpp"
#include "core/engine.hpp"
#include "core/hash_tuner.hpp"
#include "core/report_io.hpp"

// SimHash math: the approximate dot product of two contexts (eq. 3-5).
#include "hash/cosine_approx.hpp"

// Workloads: the paper topologies plus the layer zoo for inline models.
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"
#include "nn/pooling.hpp"
#include "nn/topologies.hpp"

// Planning: analytical cost model, plan search, keyed plan cache.
#include "plan/cost_model.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "plan/report_io.hpp"

// Cross-platform comparison.
#include "sim/backends.hpp"
#include "sim/comparison.hpp"
#include "sim/estimator_check.hpp"
#include "sim/registry.hpp"
#include "sim/report_io.hpp"

// Online serving.
#include "serve/loadgen.hpp"
#include "serve/report_io.hpp"
#include "serve/server.hpp"
