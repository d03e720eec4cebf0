#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "codelet/codelet.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pointwise.hpp"

namespace deepcam::core {

Worker::Worker(const CompiledModel& compiled)
    : compiled_(&compiled),
      cam_(cam_config(compiled.config()), compiled.config().sense) {}

namespace {

/// kFull kernel-stage span carrying the inherited request identity plus the
/// CAM layer index in `value`. Inactive (free) below kFull.
obs::Span kernel_span(const char* name, std::size_t cam_idx) {
  obs::Span sp(obs::TraceLevel::kFull, obs::SpanCat::kKernel, name);
  const obs::TraceTag tag = obs::current_trace_tag();
  sp.rid(tag.tag).batch(tag.sample).value(cam_idx);
  return sp;
}

}  // namespace

LayerReport Worker::simulate_cam_layer(std::size_t cam_idx,
                                       const ContextBatch& act_ctx,
                                       bool online_ctxgen) {
  const DeepCamConfig& cfg = compiled_->config();
  const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
  const ContextBatch& w_ctx = cl.hashed->weights;
  const std::size_t P = act_ctx.size();
  const std::size_t K = w_ctx.size();
  const std::size_t k_bits = cl.hash_bits;
  const std::size_t R = cfg.cam_rows;

  const bool ws = cfg.dataflow == Dataflow::kWeightStationary;
  const ContextBatch& stationary = ws ? w_ctx : act_ctx;
  const ContextBatch& streamed = ws ? act_ctx : w_ctx;
  const std::size_t S = streamed.size();
  const double* w_norm = w_ctx.norms(cfg.postproc.minifloat_norms);
  const double* a_norm = act_ctx.norms(cfg.postproc.minifloat_norms);
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
  // (three checkpoints per pass: write, search, finish), then emit the three
  // stages as back-to-back packed spans from the loop's start time.
  // `tracing` is hoisted so the disabled path pays one atomic load, not one
  // per pass.
  auto& trec = obs::TraceRecorder::instance();
  const bool tracing = trec.enabled(obs::TraceLevel::kFull);
  std::uint64_t write_ns = 0, search_ns = 0, post_ns = 0;
  std::uint64_t t_stage = tracing ? trec.now_ns() : 0;
  const std::uint64_t t_pass0 = t_stage;
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
    if (tracing) checkpoint(write_ns);
    std::uint16_t* hd = hd_block_.data();
    for (std::size_t sidx = 0; sidx < S; ++sidx) {
      if (ws) {
        cam_.search_flat(streamed.sig_span(sidx), hd_row_.data());
        for (std::size_t r = 0; r < count; ++r) hd[r * S + sidx] = hd_row_[r];
      } else {
        cam_.search_flat(streamed.sig_span(sidx), hd + sidx * count);
      }
    }
    if (tracing) checkpoint(search_ns);
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
    if (tracing) checkpoint(post_ns);
    base += count;
  }

  if (tracing) {
    const obs::TraceTag tag = obs::current_trace_tag();
    std::uint64_t cursor = t_pass0;
    auto emit_stage = [&](const char* name, std::uint64_t dur) {
      obs::SpanRecord r;
      r.t_begin_ns = cursor;
      r.t_end_ns = cursor + dur;
      r.name = name;
      r.cat = obs::SpanCat::kKernel;
      r.rid = tag.tag;
      r.batch = tag.sample;
      r.value = cam_idx;
      trec.record(r);
      cursor += dur;
    };
    emit_stage("cam_write", write_ns);
    emit_stage("cam_search", search_ns);
    emit_stage("postproc", post_ns);
  }

  counts.utilization =
      counts.passes == 0 ? 0.0
                         : util_sum / static_cast<double>(counts.passes);
  return price_cam_layer(
      compiled_->model().layer(cl.hashed->node_index).name(), P, K,
      cl.hashed->ctxgen.input_dim(), k_bits, counts, online_ctxgen, cfg);
}

nn::Tensor Worker::run(const nn::Tensor& input, RunReport* report) {
  DEEPCAM_CHECK_MSG(input.shape().n == 1,
                    "accelerator simulates batch size 1");
  RunReport local_report;
  RunReport& rep = report != nullptr ? *report : local_report;
  rep = {};
  rep.cam_area_um2 = cam_.area_um2();

  const nn::Model& model = compiled_->model();
  const DeepCamConfig& cfg = compiled_->config();
  outs_.clear();
  outs_.reserve(model.node_count());
  std::size_t cam_idx = 0;
  bool first_cam_layer = true;

  for (std::size_t i = 0; i < model.node_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const auto& inputs = model.inputs_of(i);
    auto fetch = [&](int idx) -> const nn::Tensor& {
      return idx == nn::kModelInput ? input
                                    : outs_[static_cast<std::size_t>(idx)];
    };
    const nn::Tensor& in = fetch(inputs[0]);

    const auto* conv = layer.kind() == nn::LayerKind::kConv2D
                           ? static_cast<const nn::Conv2D*>(&layer)
                           : nullptr;
    if (conv != nullptr || layer.kind() == nn::LayerKind::kLinear) {
      const CompiledModel::CamLayer& cl = compiled_->cam_layer(cam_idx);
      const ContextGenerator& gen = cl.hashed->ctxgen;
      DEEPCAM_CHECK(cl.hashed->node_index == i);
      // Hash straight to this layer's resolved length: prefix-of-iid-columns
      // makes the k-bit signature bitwise identical to the first k bits of
      // the full hash, at k/1024 of the GEMM cost.
      {
        obs::Span hash_sp = kernel_span("hash", cam_idx);
        if (conv != nullptr)
          gen.activation_contexts_into(in, conv->spec(), act_ctx_, 0,
                                       cl.hash_bits);
        else
          gen.activation_context_flat_into(in, act_ctx_, 0, cl.hash_bits);
      }
      rep.layers.push_back(
          simulate_cam_layer(cam_idx, act_ctx_, !first_cam_layer));
      // flat_ holds [K][P]: a conv's output maps, a linear layer's features.
      nn::Tensor out({1, cl.hashed->weights.size(),
                      conv ? conv->spec().out_h(in.shape().h) : 1,
                      conv ? conv->spec().out_w(in.shape().w) : 1});
      for (std::size_t j = 0; j < out.numel(); ++j)
        out[j] = static_cast<float>(flat_[j]);
      outs_.push_back(std::move(out));
      first_cam_layer = false;
      ++cam_idx;
    } else if (inputs.size() == 2) {
      const auto* add = dynamic_cast<const nn::Add*>(&layer);
      DEEPCAM_CHECK(add != nullptr);
      // Residual adds are charged no cycles (plan::extract_geometry leaves
      // them out of the peripheral layers too).
      outs_.push_back(add->forward2(fetch(inputs[0]), fetch(inputs[1])));
    } else {
      nn::Tensor out = layer.infer(in);
      rep.peripheral_cycles += peripheral_cycles(out.numel(), cfg.preset);
      outs_.push_back(std::move(out));
    }
  }
  nn::Tensor result = std::move(outs_.back());
  outs_.clear();
  return result;
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
    // execution still overlaps the earlier batches' in-flight tails).
    std::shared_ptr<detail::BatchState> state = queue_.front();
    const std::size_t s = state->next_sample++;
    if (state->next_sample >= state->inputs->size()) queue_.pop_front();
    lk.unlock();
    std::exception_ptr error;
    try {
      // Inherit the submitting request's identity for kernel-stage spans;
      // trace_tag is immutable after enqueue, safe to read unlocked.
      obs::ScopedTraceTag tag_scope({state->trace_tag, s});
      obs::Span sample_sp(obs::TraceLevel::kFull, obs::SpanCat::kEngine,
                          "sample");
      sample_sp.rid(state->trace_tag).batch(s);
      state->outputs[s] = worker.run((*state->inputs)[s], &state->reports[s]);
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error != nullptr &&
        (state->error == nullptr || s < state->error_sample)) {
      state->error = error;
      state->error_sample = s;
    }
    if (--state->pending == 0) {
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
