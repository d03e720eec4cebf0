// Report serialization: CSV and human-readable summaries of RunReport.
//
// The accelerator's RunReport is the interface between simulation and
// analysis; these helpers export it for spreadsheets/plotting pipelines
// (CSV) and for log files (summary). Both are pure functions of the report.
#pragma once

#include <string>

#include "common/json.hpp"
#include "core/accelerator.hpp"
#include "core/hash_tuner.hpp"

namespace deepcam::core {

/// Per-layer CSV with header:
/// layer,patches,kernels,context_len,hash_bits,passes,searches,rows_written,
/// utilization,dot_products,cycles,cam_energy_j,postproc_energy_j,
/// ctxgen_energy_j
std::string report_to_csv(const RunReport& report);

/// Multi-line human-readable summary (totals + per-layer one-liners).
std::string report_summary(const RunReport& report);

/// Appends one JSON object for `report` (totals + per-layer array) to an
/// in-progress JsonWriter — the shared building block for every artifact
/// that embeds a run report (server summaries, serve_throughput --json).
void run_report_json(JsonWriter& json, const RunReport& report);

/// Appends one JSON object for a VHL TuneResult: mean hash bits, the chosen
/// per-layer lengths and each layer's sensitivity metrics — what the
/// compare/tune outcomes embed.
void tune_result_json(JsonWriter& json, const TuneResult& result);

/// Appends the BatchReport object (samples/threads/wall seconds, host +
/// simulated throughput, aggregate and optionally per-sample reports) to an
/// in-progress writer — embeddable into larger artifacts (the facade's
/// Outcome JSON).
void batch_report_json(JsonWriter& json, const BatchReport& report,
                       bool include_per_sample = false);

/// One self-contained JSON object for a BatchReport: samples/threads/wall
/// seconds, host + simulated throughput, the aggregate run report and
/// (optionally) the per-sample reports. Locale-proof, byte-stable.
std::string batch_report_to_json(const BatchReport& report,
                                 bool include_per_sample = false);

}  // namespace deepcam::core
