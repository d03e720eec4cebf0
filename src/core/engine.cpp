#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "codelet/codelet.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"

namespace deepcam::core {

namespace {

/// A group's samples share one hash call per CAM layer until the call holds
/// this many contexts, so a layer with at least this many contexts per
/// sample hashes each sample alone. Such a call already reuses every panel
/// of C across many vectors (the codelets pack panels for kPackMinCount
/// vectors or more); a longer one would only multiply the im2col matrix and
/// the context arena by the group length.
constexpr std::size_t kHashCallContexts = 2 * codelet::kPackMinCount;

/// kFull tracing of one group. Its samples interleave layer by layer, so
/// each stretch of wall time is charged to the samples it served (a
/// group-wide stretch split by weights), and finish() lays the samples out
/// back to back from the group's start: each `sample` span holds its kernel
/// spans, packed from its start, then its other time. The sample spans thus
/// sum to the group's wall time, and each kernel span is what its sample
/// cost in that stage.
class GroupTrace {
 public:
  explicit GroupTrace(std::size_t samples)
      : rec_(obs::TraceRecorder::instance()),
        on_(rec_.enabled(obs::TraceLevel::kFull)) {
    if (!on_) return;
    samples_.resize(samples);
    t0_ = last_ = rec_.now_ns();
  }

  bool on() const { return on_; }

  /// Charges the time since the last checkpoint to sample `s`'s other time.
  void charge(std::size_t s) {
    if (on_) samples_[s].total_ns += lap();
  }

  /// Splits the time since the last checkpoint across samples s0, s0 + 1,
  /// ..., sample s0 + j weighing first[j + 1] - first[j], as kernel stage
  /// `name` of CAM layer `cam_idx` (nullptr: other time).
  void split(std::size_t s0, std::span<const std::size_t> first,
             const char* name, std::size_t cam_idx) {
    if (!on_) return;
    const std::uint64_t ns = lap();
    const std::size_t n = first.size() - 1;
    const std::uint64_t total = first[n] - first[0];
    std::uint64_t given = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t share =
          total == 0 ? (j + 1 == n ? ns : 0)
                     : ns * (first[j + 1] - first[0]) / total - given;
      given += share;
      add(s0 + j, share, name, cam_idx);
    }
  }

  /// Charges the time since the last checkpoint to sample `s`: its CAM
  /// stages of layer `cam_idx` as kernel spans, the rest as other time.
  void charge_stages(std::size_t s, std::size_t cam_idx,
                     const std::uint64_t (&stage_ns)[3]) {
    if (!on_) return;
    static constexpr const char* kStages[3] = {"cam_write", "cam_search",
                                               "postproc"};
    const std::uint64_t ns = lap();
    std::uint64_t staged = 0;
    for (int i = 0; i < 3; ++i) {
      add(s, stage_ns[i], kStages[i], cam_idx);
      staged += stage_ns[i];
    }
    add(s, ns - std::min(ns, staged), nullptr, cam_idx);
  }

  /// Splits the remaining time equally, then records every sample's spans
  /// under `tag` (sample s is batch tag.sample + s).
  void finish(const obs::TraceTag& tag) {
    if (!on_) return;
    std::vector<std::size_t> even(samples_.size() + 1);
    std::iota(even.begin(), even.end(), std::size_t{0});
    split(0, even, nullptr, 0);
    std::uint64_t cursor = t0_;
    for (std::size_t s = 0; s < samples_.size(); ++s) {
      const std::uint64_t batch =
          tag.sample == obs::kNoId ? obs::kNoId : tag.sample + s;
      auto record = [&](const char* name, obs::SpanCat cat,
                        std::uint64_t begin, std::uint64_t ns,
                        std::uint64_t value) {
        obs::SpanRecord r;
        r.t_begin_ns = begin;
        r.t_end_ns = begin + ns;
        r.name = name;
        r.cat = cat;
        r.rid = tag.tag;
        r.batch = batch;
        r.value = value;
        rec_.record(r);
      };
      record("sample", obs::SpanCat::kEngine, cursor, samples_[s].total_ns,
             obs::kNoId);
      std::uint64_t k = cursor;
      for (const Segment& seg : samples_[s].kernels) {
        record(seg.name, obs::SpanCat::kKernel, k, seg.ns, seg.cam_idx);
        k += seg.ns;
      }
      cursor += samples_[s].total_ns;
    }
  }

 private:
  struct Segment {
    const char* name;
    std::uint64_t cam_idx;
    std::uint64_t ns;
  };
  struct Sample {
    std::uint64_t total_ns = 0;
    std::vector<Segment> kernels;
  };

  std::uint64_t lap() {
    const std::uint64_t t = rec_.now_ns();
    const std::uint64_t ns = t - last_;
    last_ = t;
    return ns;
  }

  void add(std::size_t s, std::uint64_t ns, const char* name,
           std::size_t cam_idx) {
    samples_[s].total_ns += ns;
    if (name != nullptr) samples_[s].kernels.push_back({name, cam_idx, ns});
  }

  obs::TraceRecorder& rec_;
  const bool on_;
  std::vector<Sample> samples_;
  std::uint64_t t0_ = 0;
  std::uint64_t last_ = 0;
};

}  // namespace

Worker::Worker(const CompiledModel& compiled)
    : compiled_(&compiled),
      cam_(cam_config(compiled.config()), compiled.config().sense) {
  const nn::Model& model = compiled.model();
  last_use_.assign(model.node_count(), SIZE_MAX);
  for (std::size_t i = 0; i < model.node_count(); ++i)
    for (const int idx : model.inputs_of(i))
      if (idx != nn::kModelInput) last_use_[static_cast<std::size_t>(idx)] = i;
}

LayerReport Worker::simulate_cam_layer(std::size_t cam_idx,
                                       const ContextSlice& act_ctx,
                                       bool online_ctxgen, bool tracing,
                                       StageTimes& times) {
  const DeepCamConfig& cfg = compiled_->config();
  const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
  const ContextSlice w_ctx = cl.hashed->weights.slice(
      0, cl.hashed->weights.size(), cfg.postproc.minifloat_norms);
  const std::size_t P = act_ctx.size();
  const std::size_t K = w_ctx.size();
  const std::size_t k_bits = cl.hash_bits;
  const std::size_t R = cfg.cam_rows;

  const bool ws = cfg.dataflow == Dataflow::kWeightStationary;
  const ContextSlice& stationary = ws ? w_ctx : act_ctx;
  const ContextSlice& streamed = ws ? act_ctx : w_ctx;
  const std::size_t S = streamed.size();
  const double* w_norm = w_ctx.norms;
  const double* a_norm = act_ctx.norms;
  const auto finish_dots = codelet::kernels().finish_dots;

  cam_.set_hash_length(k_bits);
  // Resize-only scratch: every [kernel][patch] cell is written by the pass
  // loop below, so a zero-fill would be pure overhead. The HD block holds
  // one pass's distances, [search][row] under activation-stationary and
  // transposed to [row][search] under weight-stationary, so that both
  // dataflows finish one kernel's outputs over contiguous patches per call.
  if (flat_.size() < K * P) flat_.resize(K * P);
  const std::size_t max_rows = std::min(R, stationary.size());
  if (hd_block_.size() < S * max_rows) hd_block_.resize(S * max_rows);
  if (ws && hd_row_.size() < max_rows) hd_row_.resize(max_rows);

  // kFull stage profiling: accumulate per-stage wall time over the passes
  // (three checkpoints per pass: write, search, finish). `tracing` is
  // hoisted so the disabled path reads no clock.
  const auto& trec = obs::TraceRecorder::instance();
  std::uint64_t t_stage = tracing ? trec.now_ns() : 0;
  auto checkpoint = [&](std::uint64_t& bucket) {
    const std::uint64_t t = trec.now_ns();
    bucket += t - t_stage;
    t_stage = t;
  };

  // The integer events of the passes below, priced once at the end.
  MappingPlan counts;
  double util_sum = 0.0;
  std::size_t base = 0;
  while (base < stationary.size()) {
    const std::size_t count = std::min(R, stationary.size() - base);
    ++counts.passes;
    counts.rows_written += count;
    counts.searches += S;
    counts.dot_products += count * S;
    util_sum += static_cast<double>(count) / static_cast<double>(R);
    cam_.clear();
    for (std::size_t r = 0; r < count; ++r)
      cam_.write_row(r, stationary.sig_span(base + r));
    if (tracing) checkpoint(times.write_ns);
    std::uint16_t* hd = hd_block_.data();
    for (std::size_t sidx = 0; sidx < S; ++sidx) {
      if (ws) {
        cam_.search_flat(streamed.sig_span(sidx), hd_row_.data());
        for (std::size_t r = 0; r < count; ++r) hd[r * S + sidx] = hd_row_[r];
      } else {
        cam_.search_flat(streamed.sig_span(sidx), hd + sidx * count);
      }
    }
    if (tracing) checkpoint(times.search_ns);
    if (ws) {
      // Row r holds kernel base + r against every patch.
      for (std::size_t r = 0; r < count; ++r) {
        const std::size_t kernel = base + r;
        finish_dots(hd + r * S, cl.cos_table.data(), w_norm[kernel], a_norm,
                    static_cast<double>(cl.hashed->bias[kernel]), P,
                    flat_.data() + kernel * P);
      }
    } else {
      // Search `kernel` holds that kernel against patches base .. base+count.
      for (std::size_t kernel = 0; kernel < K; ++kernel)
        finish_dots(hd + kernel * count, cl.cos_table.data(), w_norm[kernel],
                    a_norm + base, static_cast<double>(cl.hashed->bias[kernel]),
                    count, flat_.data() + kernel * P + base);
    }
    if (tracing) checkpoint(times.post_ns);
    base += count;
  }

  counts.utilization =
      counts.passes == 0 ? 0.0
                         : util_sum / static_cast<double>(counts.passes);
  return price_cam_layer(
      compiled_->model().layer(cl.hashed->node_index).name(), P, K,
      cl.hashed->ctxgen.input_dim(), k_bits, counts, online_ctxgen, cfg);
}

void Worker::run_group(std::span<const nn::Tensor> inputs,
                       std::span<nn::Tensor> outputs,
                       std::span<RunReport> reports) {
  const std::size_t g = inputs.size();
  DEEPCAM_CHECK(outputs.size() == g && reports.size() == g);
  for (const nn::Tensor& in : inputs)
    DEEPCAM_CHECK_MSG(in.shape().n == 1, "accelerator simulates batch size 1");
  for (RunReport& rep : reports) {
    rep = {};
    rep.cam_area_um2 = cam_.area_um2();
  }
  if (g == 0) return;

  const nn::Model& model = compiled_->model();
  const DeepCamConfig& cfg = compiled_->config();
  GroupTrace trace(g);
  outs_.clear();
  outs_.resize(model.node_count() * g);
  auto fetch = [&](int idx, std::size_t s) -> const nn::Tensor& {
    return idx == nn::kModelInput
               ? inputs[s]
               : outs_[static_cast<std::size_t>(idx) * g + s];
  };
  // Frees sample s's outputs of the nodes whose last consumer is node i.
  auto release = [&](std::size_t i, std::size_t s) {
    for (const int idx : model.inputs_of(i))
      if (idx != nn::kModelInput &&
          last_use_[static_cast<std::size_t>(idx)] == i)
        outs_[static_cast<std::size_t>(idx) * g + s] = nn::Tensor();
  };
  std::size_t cam_idx = 0;

  // Runs node i for samples sb .. se - 1 (cam_idx: its CAM layer, if any).
  auto run_node = [&](std::size_t i, std::size_t sb, std::size_t se) {
    const nn::Layer& layer = model.layer(i);
    const auto& in_nodes = model.inputs_of(i);
    nn::Tensor* out = outs_.data() + i * g;

    const auto* conv = layer.kind() == nn::LayerKind::kConv2D
                           ? static_cast<const nn::Conv2D*>(&layer)
                           : nullptr;
    if (conv != nullptr || layer.kind() == nn::LayerKind::kLinear) {
      const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
      const ContextGenerator& gen = cl.hashed->ctxgen;
      DEEPCAM_CHECK(cl.hashed->node_index == i);
      // Samples s0 .. s1 - 1 share one hash call (kHashCallContexts).
      for (std::size_t s0 = sb, s1 = sb; s0 < se; s0 = s1) {
        group_in_.clear();
        out_hw_.clear();
        first_ctx_.assign(1, 0);
        for (; s1 < se && first_ctx_.back() < kHashCallContexts; ++s1) {
          const nn::Tensor& in = fetch(in_nodes[0], s1);
          const nn::Shape& is = in.shape();
          const std::size_t oh = conv ? conv->spec().out_h(is.h) : 1;
          const std::size_t ow = conv ? conv->spec().out_w(is.w) : 1;
          group_in_.push_back(&in);
          out_hw_.push_back({oh, ow});
          first_ctx_.push_back(first_ctx_.back() + oh * ow);
        }
        // One call straight to this layer's resolved length: prefix-of-iid-
        // columns makes the k-bit signature bitwise identical to the first
        // k bits of the full hash, at k/1024 of the GEMM cost.
        if (conv != nullptr)
          gen.activation_contexts_into(group_in_, conv->spec(), act_ctx_,
                                       cl.hash_bits);
        else
          gen.activation_context_flat_into(group_in_, act_ctx_,
                                           cl.hash_bits);
        trace.split(s0, first_ctx_, "hash", cam_idx);
        for (std::size_t s = s0; s < s1; ++s) {
          release(i, s);  // hashed: the CAM passes read only contexts
          const std::size_t c0 = first_ctx_[s - s0];
          StageTimes st;
          reports[s].layers.push_back(simulate_cam_layer(
              cam_idx,
              act_ctx_.slice(c0, first_ctx_[s - s0 + 1] - c0,
                             cfg.postproc.minifloat_norms),
              cam_idx > 0, trace.on(), st));
          // flat_ holds [K][P]: a conv's output maps, a linear layer's
          // features.
          const auto [oh, ow] = out_hw_[s - s0];
          nn::Tensor t({1, cl.hashed->weights.size(), oh, ow});
          for (std::size_t j = 0; j < t.numel(); ++j)
            t[j] = static_cast<float>(flat_[j]);
          out[s] = std::move(t);
          trace.charge_stages(s, cam_idx,
                              {st.write_ns, st.search_ns, st.post_ns});
        }
      }
      ++cam_idx;
    } else if (in_nodes.size() == 2) {
      const auto* add = dynamic_cast<const nn::Add*>(&layer);
      DEEPCAM_CHECK(add != nullptr);
      // Residual adds are charged no cycles (plan::extract_geometry leaves
      // them out of the peripheral layers too).
      for (std::size_t s = sb; s < se; ++s) {
        out[s] = add->forward2(fetch(in_nodes[0], s), fetch(in_nodes[1], s));
        release(i, s);
        trace.charge(s);
      }
    } else {
      for (std::size_t s = sb; s < se; ++s) {
        out[s] = layer.infer(fetch(in_nodes[0], s));
        release(i, s);
        reports[s].peripheral_cycles +=
            peripheral_cycles(out[s].numel(), cfg.preset);
        trace.charge(s);
      }
    }
  };
  // True if node i is a CAM layer that sample 0 streams fewer than
  // kHashCallContexts contexts through (a linear layer streams one).
  auto narrow_cam = [&](std::size_t i) {
    const nn::Layer& layer = model.layer(i);
    if (layer.kind() == nn::LayerKind::kLinear) return true;
    if (layer.kind() != nn::LayerKind::kConv2D) return false;
    const nn::ConvSpec& spec = static_cast<const nn::Conv2D&>(layer).spec();
    const nn::Shape& is = fetch(model.inputs_of(i)[0], 0).shape();
    return spec.out_h(is.h) * spec.out_w(is.w) < kHashCallContexts;
  };

  // The leading nodes run sample by sample, up to the first narrow CAM
  // layer. Before it every sample hashes alone anyway, so running them
  // layer by layer would only hold the whole group's activations, the
  // largest ones, at once.
  std::size_t cut = model.node_count();
  for (std::size_t s = 0; s < g; ++s) {
    cam_idx = 0;
    for (std::size_t i = 0; i < cut; ++i) {
      if (s == 0 && narrow_cam(i)) {
        cut = i;
        break;
      }
      run_node(i, s, s + 1);
    }
  }
  for (std::size_t i = cut; i < model.node_count(); ++i) run_node(i, 0, g);
  for (std::size_t s = 0; s < g; ++s)
    outputs[s] = std::move(outs_[(model.node_count() - 1) * g + s]);
  outs_.clear();
  trace.finish(obs::current_trace_tag());
}

nn::Tensor Worker::run(const nn::Tensor& input, RunReport* report) {
  RunReport local_report;
  nn::Tensor out;
  run_group({&input, 1}, {&out, 1},
            {report != nullptr ? report : &local_report, 1});
  return out;
}

namespace {

/// Sample-order merge of per-sample reports into batch totals. Geometry
/// fields (name, context_len, hash_bits, kernels, cam_area_um2) stay
/// constants; work/cost fields (patches, plan counters, cycles, energies)
/// accumulate. The caller seeds `agg` with the first sample's report.
void merge_report(RunReport& agg, const RunReport& r) {
  DEEPCAM_CHECK_MSG(agg.layers.size() == r.layers.size(),
                    "cannot merge reports of different layer structure");
  agg.peripheral_cycles += r.peripheral_cycles;
  for (std::size_t l = 0; l < agg.layers.size(); ++l) {
    LayerReport& a = agg.layers[l];
    const LayerReport& b = r.layers[l];
    DEEPCAM_CHECK_MSG(a.name == b.name && a.hash_bits == b.hash_bits,
                      "cannot merge reports of different layers");
    a.patches += b.patches;
    a.cycles += b.cycles;
    a.cam_energy += b.cam_energy;
    a.postproc_energy += b.postproc_energy;
    a.ctxgen_energy += b.ctxgen_energy;
    // Passes-weighted utilization keeps RunReport::mean_utilization()
    // meaningful on the aggregate.
    const double wa = static_cast<double>(a.plan.passes);
    const double wb = static_cast<double>(b.plan.passes);
    if (wa + wb > 0.0)
      a.plan.utilization =
          (a.plan.utilization * wa + b.plan.utilization * wb) / (wa + wb);
    a.plan.passes += b.plan.passes;
    a.plan.searches += b.plan.searches;
    a.plan.rows_written += b.plan.rows_written;
    a.plan.dot_products += b.plan.dot_products;
  }
}

}  // namespace

double BatchReport::simulated_throughput() const {
  const double total_s = aggregate.time_seconds();
  if (total_s <= 0.0 || threads == 0) return 0.0;
  // Independent CAM pipelines drain the batch in parallel, but no more of
  // them can be busy than there are samples.
  const double pipelines =
      static_cast<double>(std::min(threads, std::max<std::size_t>(samples, 1)));
  return static_cast<double>(samples) * pipelines / total_s;
}

bool BatchFuture::ready() const {
  DEEPCAM_CHECK_MSG(valid(), "BatchFuture already consumed (or empty)");
  std::lock_guard<std::mutex> lk(engine_->mu_);
  return state_->done;
}

void BatchFuture::wait() const {
  DEEPCAM_CHECK_MSG(valid(), "BatchFuture already consumed (or empty)");
  std::unique_lock<std::mutex> lk(engine_->mu_);
  engine_->done_cv_.wait(lk, [this] { return state_->done; });
}

bool BatchFuture::wait_for(std::chrono::nanoseconds timeout) const {
  DEEPCAM_CHECK_MSG(valid(), "BatchFuture already consumed (or empty)");
  std::unique_lock<std::mutex> lk(engine_->mu_);
  return engine_->done_cv_.wait_for(lk, timeout,
                                    [this] { return state_->done; });
}

bool BatchFuture::cancel() {
  DEEPCAM_CHECK_MSG(valid(), "BatchFuture already consumed (or empty)");
  std::unique_lock<std::mutex> lk(engine_->mu_);
  if (state_->done || state_->next_sample > 0) return false;
  // Undispatched: still sitting whole in the FIFO. Pull it out and complete
  // it with a cancellation error so get() rethrows instead of hanging.
  for (auto it = engine_->queue_.begin(); it != engine_->queue_.end(); ++it) {
    if (it->get() == state_.get()) {
      engine_->queue_.erase(it);
      break;
    }
  }
  state_->error = std::make_exception_ptr(Error("batch cancelled"));
  state_->error_sample = 0;
  state_->pending = 0;
  state_->done = true;
  state_->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    state_->t_submit)
          .count();
  --engine_->in_flight_;
  lk.unlock();
  engine_->done_cv_.notify_all();
  return true;
}

std::vector<nn::Tensor> BatchFuture::get(BatchReport* report) {
  DEEPCAM_CHECK_MSG(valid(), "BatchFuture already consumed (or empty)");
  InferenceEngine* engine = engine_;
  std::shared_ptr<detail::BatchState> state = std::move(state_);
  engine_ = nullptr;
  return engine->collect(*state, report);
}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const CompiledModel> compiled, std::size_t num_threads)
    : compiled_(std::move(compiled)) {
  DEEPCAM_CHECK_MSG(compiled_ != nullptr, "engine needs a compiled model");
  std::size_t n = num_threads;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>(*compiled_));
  threads_.reserve(n);
  try {
    for (std::size_t i = 0; i < n; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  } catch (...) {
    // Spawn failed partway: shut down the threads that did start before the
    // vector of joinable threads is destroyed (which would std::terminate).
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
    throw;
  }
}

InferenceEngine::~InferenceEngine() {
  // shutdown_ means "no new submissions; exit once the FIFO is drained" —
  // workers finish every already-submitted batch so outstanding futures
  // complete instead of hanging.
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void InferenceEngine::worker_loop(std::size_t worker_idx) {
  Worker& worker = *workers_[worker_idx];
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    // FIFO dispatch: drain the front batch's samples first; a later batch
    // only starts once every sample of the earlier ones is dispatched (its
    // execution still overlaps the earlier batches' in-flight tails). A
    // worker claims a group of consecutive samples, but no more than an
    // even share of what is left, so the pool still splits a small batch.
    std::shared_ptr<detail::BatchState> state = queue_.front();
    const std::size_t first = state->next_sample;
    const std::size_t left = state->inputs->size() - first;
    const std::size_t threads = workers_.size();
    const std::size_t g =
        std::min(kGroupSamples, (left + threads - 1) / threads);
    state->next_sample += g;
    if (state->next_sample >= state->inputs->size()) queue_.pop_front();
    lk.unlock();
    // Inherit the submitting request's identity for the engine and kernel
    // spans; trace_tag is immutable after enqueue, safe to read unlocked.
    auto run = [&](std::size_t s0, std::size_t n) {
      obs::ScopedTraceTag tag_scope({state->trace_tag, s0});
      worker.run_group(
          std::span<const nn::Tensor>(*state->inputs).subspan(s0, n),
          std::span<nn::Tensor>(state->outputs).subspan(s0, n),
          std::span<RunReport>(state->reports).subspan(s0, n));
    };
    std::exception_ptr error;
    std::size_t error_sample = 0;
    try {
      run(first, g);
    } catch (...) {
      error = std::current_exception();
      error_sample = first;
    }
    // A failed group reruns sample by sample, so the error recorded is the
    // lowest-index failing sample's, exactly as if each ran alone.
    if (error != nullptr && g > 1) {
      error = nullptr;
      for (std::size_t s = first; s < first + g && error == nullptr; ++s) {
        try {
          run(s, 1);
        } catch (...) {
          error = std::current_exception();
          error_sample = s;
        }
      }
    }
    lk.lock();
    if (error != nullptr &&
        (state->error == nullptr || error_sample < state->error_sample)) {
      state->error = error;
      state->error_sample = error_sample;
    }
    state->pending -= g;
    if (state->pending == 0) {
      state->done = true;
      state->wall_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                state->t_submit)
                                .count();
      --in_flight_;
      done_cv_.notify_all();
    }
  }
}

void InferenceEngine::enqueue(
    const std::shared_ptr<detail::BatchState>& state) {
  const std::size_t n = state->inputs->size();
  {
    obs::SpanRecord r;
    r.rid = state->trace_tag;
    r.value = n;
    obs::instant(obs::TraceLevel::kServe, obs::SpanCat::kEngine, "submit", r);
  }
  state->outputs.resize(n);
  state->reports.resize(n);
  state->pending = n;
  state->t_submit = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    DEEPCAM_CHECK_MSG(!shutdown_, "submit on a shutting-down engine");
    ++in_flight_;
    if (n == 0) {
      // Nothing to dispatch: complete inline so get() does not hang.
      state->done = true;
      --in_flight_;
      return;
    }
    queue_.push_back(state);
  }
  if (n == 1)
    work_cv_.notify_one();
  else
    work_cv_.notify_all();
}

BatchFuture InferenceEngine::submit(std::vector<nn::Tensor> inputs,
                                    std::uint64_t trace_tag) {
  auto state = std::make_shared<detail::BatchState>();
  state->owned_inputs = std::move(inputs);
  state->inputs = &state->owned_inputs;
  state->trace_tag = trace_tag;
  enqueue(state);
  return BatchFuture(this, std::move(state));
}

std::size_t InferenceEngine::in_flight_batches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_;
}

std::vector<nn::Tensor> InferenceEngine::collect(detail::BatchState& state,
                                                 BatchReport* report) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&state] { return state.done; });
  }
  // Past this point the workers are finished with `state`; its fields are
  // plain data owned by this thread (the unlock/lock pair above published
  // them).
  if (state.error != nullptr) std::rethrow_exception(state.error);
  if (report != nullptr) {
    *report = {};
    report->samples = state.reports.size();
    report->threads = thread_count();
    report->wall_seconds = state.wall_seconds;
    for (std::size_t i = 0; i < state.reports.size(); ++i) {
      if (i == 0)
        report->aggregate = state.reports[i];
      else
        merge_report(report->aggregate, state.reports[i]);
    }
    report->per_sample = std::move(state.reports);
  }
  return std::move(state.outputs);
}

std::vector<nn::Tensor> InferenceEngine::run_batch(
    const std::vector<nn::Tensor>& inputs, BatchReport* report) {
  // Thin wrapper over the submit/collect path; borrows the caller's inputs
  // (they outlive the wait below) instead of copying them.
  auto state = std::make_shared<detail::BatchState>();
  state->inputs = &inputs;
  enqueue(state);
  return collect(*state, report);
}

std::vector<nn::Tensor> InferenceEngine::run_batch(const nn::Tensor& batched,
                                                   BatchReport* report) {
  std::vector<nn::Tensor> inputs;
  inputs.reserve(batched.shape().n);
  for (std::size_t n = 0; n < batched.shape().n; ++n)
    inputs.push_back(batched.slice_sample(n));
  return run_batch(inputs, report);
}

}  // namespace deepcam::core
