// Trace export: canonical ordering + Chrome trace-event JSON (loads in
// Perfetto / chrome://tracing), a compact CSV, and the per-stage profile
// aggregation behind `deepcam run --profile`.
//
// Canonical form: spans are sorted by a total order over their fields
// (begin time, category, name, ids) and assigned *logical* track ids
// derived from the span data alone — never OS thread ids — so the same
// set of spans always serializes to the same bytes regardless of which
// thread recorded what. A VirtualClock serve run is therefore
// byte-identical across replays and golden-pinnable.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace deepcam::obs {

/// Sorts spans into the canonical export order (stable across runs for
/// identical span sets).
void canonicalize(std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]},
/// complete ("X") events in microseconds plus thread-name metadata for the
/// logical tracks. Spans are canonicalized internally.
std::string chrome_trace_json(std::vector<SpanRecord> spans);

/// Compact CSV, one span per row, integer nanosecond timestamps; id
/// fields are empty when not applicable. Canonicalized internally.
std::string trace_csv(std::vector<SpanRecord> spans);

/// Writes `spans` to `path`: CSV when the extension is .csv, Chrome JSON
/// otherwise. Throws Error on I/O failure.
void write_trace_file(const std::string& path,
                      std::vector<SpanRecord> spans);

/// Stage name of the profile row holding engine-sample time outside kernel
/// spans (non-CAM layers, output copies, report building).
inline constexpr const char* kOtherStage = "engine/other";

/// One row of the per-stage breakdown table (aggregated over spans with
/// the same category + name).
struct StageStat {
  std::string stage;  // "<cat>/<name>", or kOtherStage
  std::uint64_t count = 0;
  double total_ms = 0.0;  // self time: duration minus direct children
  double mean_us = 0.0;
  double share = 0.0;  // of the summed self time across all stages
};

/// Aggregates spans into per-stage self-time totals, ordered by descending
/// total time (ties by stage name). Engine and kernel spans sharing (rid,
/// batch) nest by time containment, and each span counts only the time its
/// direct children do not cover, so no interval is counted twice and the
/// shares sum to 1. An engine `sample` span's self time is reported as the
/// kOtherStage row.
std::vector<StageStat> aggregate_stages(
    const std::vector<SpanRecord>& spans);

}  // namespace deepcam::obs
