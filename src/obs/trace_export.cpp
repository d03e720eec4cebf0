#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/json.hpp"

namespace deepcam::obs {

namespace {

// Logical track layout: one lane block per category, sub-lanes spreading
// concurrent spans so Perfetto renders them side by side instead of
// overlapping. Lanes derive from span fields only (request / batch ids),
// never from OS thread ids, so the layout is replay-stable.
constexpr std::uint64_t kQueueLanes = 8;
constexpr std::uint64_t kDispatchLanes = 4;
constexpr std::uint64_t kEngineLanes = 8;

std::uint64_t lane_of(const SpanRecord& r) {
  const std::uint64_t rid = r.rid == kNoId ? 0 : r.rid;
  const std::uint64_t batch = r.batch == kNoId ? 0 : r.batch;
  switch (r.cat) {
    case SpanCat::kQueue: return rid % kQueueLanes;
    case SpanCat::kDispatch:
    case SpanCat::kRoute: return batch % kDispatchLanes;
    case SpanCat::kEngine:
    case SpanCat::kKernel: return batch % kEngineLanes;
    default: return 0;
  }
}

std::uint64_t tid_of(const SpanRecord& r) {
  return (static_cast<std::uint64_t>(r.cat) + 1) * 10 + lane_of(r);
}

std::string track_name(SpanCat cat, std::uint64_t lane,
                       bool multi_lane) {
  std::string name = to_string(cat);
  if (multi_lane) name += "." + std::to_string(lane);
  return name;
}

struct SpanOrder {
  bool operator()(const SpanRecord& a, const SpanRecord& b) const {
    if (a.t_begin_ns != b.t_begin_ns) return a.t_begin_ns < b.t_begin_ns;
    if (a.cat != b.cat) return a.cat < b.cat;
    const int name_cmp = std::strcmp(a.name, b.name);
    if (name_cmp != 0) return name_cmp < 0;
    if (a.rid != b.rid) return a.rid < b.rid;
    if (a.batch != b.batch) return a.batch < b.batch;
    if (a.session != b.session) return a.session < b.session;
    if (a.slo != b.slo) return a.slo < b.slo;
    if (a.replica != b.replica) return a.replica < b.replica;
    if (a.value != b.value) return a.value < b.value;
    return a.t_end_ns < b.t_end_ns;
  }
};

void append_id_args(JsonWriter& w, const SpanRecord& r) {
  if (r.rid != kNoId) w.kv("rid", r.rid);
  if (r.session != kNoId) w.kv("session", r.session);
  if (r.slo != kNoId) w.kv("slo", r.slo);
  if (r.replica != kNoId) w.kv("replica", r.replica);
  if (r.batch != kNoId) w.kv("batch", r.batch);
  if (r.value != kNoId) w.kv("value", r.value);
}

void append_id_cell(std::string& out, std::uint64_t v) {
  out += ',';
  if (v != kNoId) out += std::to_string(v);
}

}  // namespace

void canonicalize(std::vector<SpanRecord>& spans) {
  std::sort(spans.begin(), spans.end(), SpanOrder{});
}

std::string chrome_trace_json(std::vector<SpanRecord> spans) {
  canonicalize(spans);

  // Emit thread-name metadata only for tracks that actually have spans,
  // in tid order; remember per category whether it spreads over lanes.
  std::set<std::uint64_t> tids;
  std::set<SpanCat> multi_lane_cats;
  std::map<std::uint64_t, std::pair<SpanCat, std::uint64_t>> tid_info;
  for (const auto& r : spans) {
    const std::uint64_t tid = tid_of(r);
    tids.insert(tid);
    tid_info.emplace(tid, std::make_pair(r.cat, lane_of(r)));
    if (lane_of(r) != 0) multi_lane_cats.insert(r.cat);
  }

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  w.begin_object()
      .kv("name", "process_name")
      .kv("ph", "M")
      .kv("pid", 1)
      .kv("tid", std::uint64_t{0})
      .key("args")
      .begin_object()
      .kv("name", "deepcam")
      .end_object()
      .end_object();
  for (const std::uint64_t tid : tids) {
    const auto [cat, lane] = tid_info.at(tid);
    w.begin_object()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("name", track_name(cat, lane, multi_lane_cats.count(cat) > 0))
        .end_object()
        .end_object();
    w.begin_object()
        .kv("name", "thread_sort_index")
        .kv("ph", "M")
        .kv("pid", 1)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("sort_index", tid)
        .end_object()
        .end_object();
  }

  for (const auto& r : spans) {
    w.begin_object()
        .kv("name", r.name)
        .kv("cat", to_string(r.cat))
        .kv("ph", "X")
        .kv("ts", static_cast<double>(r.t_begin_ns) / 1000.0)
        .kv("dur",
            static_cast<double>(r.t_end_ns - r.t_begin_ns) / 1000.0)
        .kv("pid", 1)
        .kv("tid", tid_of(r));
    w.key("args").begin_object();
    append_id_args(w, r);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.end_object();
  return w.str();
}

std::string trace_csv(std::vector<SpanRecord> spans) {
  canonicalize(spans);
  std::string out =
      "t_begin_ns,t_end_ns,dur_ns,cat,name,rid,session,slo,replica,batch,"
      "value\n";
  for (const auto& r : spans) {
    out += std::to_string(r.t_begin_ns);
    out += ',';
    out += std::to_string(r.t_end_ns);
    out += ',';
    out += std::to_string(r.t_end_ns - r.t_begin_ns);
    out += ',';
    out += to_string(r.cat);
    out += ',';
    out += r.name;
    append_id_cell(out, r.rid);
    append_id_cell(out, r.session);
    append_id_cell(out, r.slo);
    append_id_cell(out, r.replica);
    append_id_cell(out, r.batch);
    append_id_cell(out, r.value);
    out += '\n';
  }
  return out;
}

void write_trace_file(const std::string& path,
                      std::vector<SpanRecord> spans) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string doc =
      csv ? trace_csv(std::move(spans)) : chrome_trace_json(std::move(spans));
  std::ofstream out(path, std::ios::binary);
  out << doc;
  if (!csv) out << "\n";
  if (!out.good()) throw Error("failed to write trace file: " + path);
}

namespace {

/// Self (exclusive) time of each span: its duration minus the part of its
/// interval covered by its direct children. Engine and kernel spans of one
/// engine sample share (rid, batch) and nest by time containment — the
/// `sample` span is the root and the kernel stages its children; every
/// other span has no children. A child is the innermost enclosing span's; a
/// child running past its parent's end is clipped to it; of two spans with
/// the same interval the engine span is the parent.
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::size_t>>
      samples;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    self[i] = r.t_end_ns - r.t_begin_ns;
    if (r.cat == SpanCat::kEngine || r.cat == SpanCat::kKernel)
      samples[{r.rid, r.batch}].push_back(i);
  }
  for (auto& [key, members] : samples) {
    std::sort(members.begin(), members.end(),
              [&spans](std::size_t a, std::size_t b) {
                const SpanRecord& x = spans[a];
                const SpanRecord& y = spans[b];
                if (x.t_begin_ns != y.t_begin_ns)
                  return x.t_begin_ns < y.t_begin_ns;
                if (x.t_end_ns != y.t_end_ns) return x.t_end_ns > y.t_end_ns;
                if (x.cat != y.cat) return x.cat < y.cat;  // engine first
                return a < b;
              });
    std::vector<std::size_t> open;  // enclosing spans, innermost last
    for (std::size_t i : members) {
      const SpanRecord& r = spans[i];
      while (!open.empty() && spans[open.back()].t_end_ns <= r.t_begin_ns)
        open.pop_back();
      if (!open.empty()) {
        const std::size_t parent = open.back();
        const std::uint64_t covered =
            std::min(r.t_end_ns, spans[parent].t_end_ns) - r.t_begin_ns;
        self[parent] -= std::min(covered, self[parent]);
      }
      open.push_back(i);
    }
  }
  return self;
}

}  // namespace

std::vector<StageStat> aggregate_stages(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> acc;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    const bool sample =
        r.cat == SpanCat::kEngine && std::strcmp(r.name, "sample") == 0;
    const std::string key =
        sample ? std::string(kOtherStage)
               : std::string(to_string(r.cat)) + "/" + r.name;
    auto& [count, total_ns] = acc[key];
    count += 1;
    total_ns += self[i];
  }
  std::uint64_t grand_total_ns = 0;
  for (const auto& [key, ct] : acc) grand_total_ns += ct.second;

  std::vector<StageStat> out;
  out.reserve(acc.size());
  for (const auto& [key, ct] : acc) {
    StageStat s;
    s.stage = key;
    s.count = ct.first;
    s.total_ms = static_cast<double>(ct.second) / 1e6;
    s.mean_us =
        ct.first == 0
            ? 0.0
            : static_cast<double>(ct.second) /
                  (1000.0 * static_cast<double>(ct.first));
    s.share = grand_total_ns == 0
                  ? 0.0
                  : static_cast<double>(ct.second) /
                        static_cast<double>(grand_total_ns);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const StageStat& a, const StageStat& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.stage < b.stage;
            });
  return out;
}

}  // namespace deepcam::obs
