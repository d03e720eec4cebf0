// Batched multi-threaded DeepCAM inference engine.
//
// Worker owns the per-run mutable half of the simulator state — a DynamicCam
// instance and reusable search/scratch buffers — and executes groups of
// samples against a shared-immutable CompiledModel (see
// core/compiled_model.hpp for the architecture overview). A group runs
// layer by layer from the first CAM layer where a sample has few contexts:
// each such layer hashes the group's activation contexts in shared
// batches, so its projection matrix C streams from memory once per group,
// not once per sample (the hardware keeps C stationary in the crossbar and
// streams activations through it). The wide layers before it, where each
// sample fills a hash call alone, run sample by sample, so the group never
// holds all its samples' largest activations at once. The CAM pass loop,
// post-processing and pricing stay per sample. A node's outputs are freed
// once their last consumer has read them.
//
// InferenceEngine owns a std::thread pool with one Worker per thread and a
// FIFO of in-flight batches. submit() enqueues a batch without blocking and
// returns a BatchFuture; each batch carries its own completion state, so any
// number of batches can be in flight concurrently and their samples drain
// through the same pool in submission order (the online serving layer in
// src/serve pipelines micro-batches through exactly this path). A worker
// claims min(kGroupSamples, ceil(undispatched / threads)) consecutive
// samples of the front batch at a time, so several threads still share a
// small batch. run_batch() is a thin submit()+get() wrapper.
//
// Determinism contract: a sample's logits and its RunReport depend only on
// (CompiledModel, input) — each CAM layer is priced from the events of its
// own pass loop (core::price_cam_layer), all randomness is seeded at compile
// time, hashing a group is bitwise hashing its samples one by one, and the
// per-sample reports are merged into the BatchReport in sample order — so
// run_batch() is bitwise-reproducible for any thread count, group size and
// number of concurrently in-flight batches, and identical to running the
// samples sequentially through DeepCamAccelerator::run.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cam/dynamic_cam.hpp"
#include "core/compiled_model.hpp"
#include "obs/trace.hpp"

namespace deepcam::core {

/// Per-run mutable execution state: one CAM array and the scratch buffers a
/// group of in-flight samples needs. NOT thread-safe
/// itself — the engine gives each thread its own Worker; sharing is done at
/// the CompiledModel level.
class Worker {
 public:
  /// `compiled` must outlive the worker.
  explicit Worker(const CompiledModel& compiled);

  const CompiledModel& compiled() const { return *compiled_; }

  /// Runs a group of inputs (each of batch size 1): sample by sample up to
  /// the first CAM layer where a sample has fewer contexts than one hash
  /// call holds, then layer by layer, each CAM layer hashing the group's
  /// contexts together before it runs each sample's CAM passes. Writes
  /// sample s's logits to outputs[s] and its
  /// report to reports[s] (all three spans the same length). Deterministic:
  /// each sample's result and report depend only on (CompiledModel, its
  /// input), never on the rest of the group or on what this worker executed
  /// before. At TraceLevel::kFull each sample gets one `sample` span with
  /// its kernel spans inside; the group's samples interleave, so their spans
  /// are packed back to back from the group's start (a group-wide hash is
  /// split across samples by their share of contexts).
  void run_group(std::span<const nn::Tensor> inputs,
                 std::span<nn::Tensor> outputs, std::span<RunReport> reports);

  /// Runs one input (batch size must be 1): the group of one. Returns the
  /// hardware-functional output logits; fills `report` if non-null.
  nn::Tensor run(const nn::Tensor& input, RunReport* report = nullptr);

 private:
  /// Wall time of the three CAM stages of one layer; zero unless traced.
  struct StageTimes {
    std::uint64_t write_ns = 0;
    std::uint64_t search_ns = 0;
    std::uint64_t post_ns = 0;
  };

  /// Simulates one CAM layer over one sample's activation contexts; writes
  /// dot-products into `flat_` laid out as [kernel][patch]. Returns the layer
  /// report; fills `times` when `tracing`.
  LayerReport simulate_cam_layer(std::size_t cam_idx, const ContextSlice& act,
                                 bool online_ctxgen, bool tracing,
                                 StageTimes& times);

  const CompiledModel* compiled_;
  cam::DynamicCam cam_;
  // Per graph node: the index of its last consumer (none: SIZE_MAX), which
  // frees each sample's output of that node once it has read it.
  std::vector<std::size_t> last_use_;
  // Reusable scratch (per-run buffers; avoid per-search/per-layer heap
  // allocation on the hot path). act_ctx_ is the SoA arena the online
  // context generator fills hash call after hash call; group_in_ holds the
  // inputs of the samples in one call, out_hw_ their output maps' height
  // and width, first_ctx_ each one's first context in act_ctx_. flat_ and
  // hd_block_ (one pass's HDs, streamed × rows) grow monotonically and are
  // fully overwritten before they are read, so they are never zero-filled.
  // hd_row_ holds one weight-stationary search before its transpose into
  // hd_block_. outs_ holds node i's output of sample s at i·group + s.
  ContextBatch act_ctx_;
  std::vector<const nn::Tensor*> group_in_;
  std::vector<std::pair<std::size_t, std::size_t>> out_hw_;
  std::vector<std::size_t> first_ctx_;
  std::vector<std::uint16_t> hd_block_;
  std::vector<std::uint16_t> hd_row_;
  std::vector<double> flat_;
  std::vector<nn::Tensor> outs_;
};

/// Aggregated result of one run_batch() / BatchFuture::get() call.
struct BatchReport {
  /// Per-sample reports, in input order.
  std::vector<RunReport> per_sample;
  /// Deterministic sample-order merge of `per_sample`: layer reports carry
  /// summed cycles/energy/plan totals across the batch and peripheral
  /// cycles accumulate; cam_area_um2 stays the (shared) array's area, not
  /// a sum.
  RunReport aggregate;
  std::size_t samples = 0;
  std::size_t threads = 0;      // pool size used
  double wall_seconds = 0.0;    // host wall-clock, submit to completion

  /// Host throughput in samples per second.
  double throughput() const {
    return wall_seconds > 0.0
               ? static_cast<double>(samples) / wall_seconds
               : 0.0;
  }
  /// Simulated-hardware throughput assuming one CAM pipeline per thread.
  double simulated_throughput() const;
};

namespace detail {

/// Completion state of one in-flight batch. Owned jointly by the engine's
/// FIFO (until all samples are dispatched) and the BatchFuture; every field
/// is guarded by the engine's mutex.
struct BatchState {
  // Either the batch owns its inputs (submit) or borrows the caller's
  // vector, which must stay alive until completion (run_batch wrapper).
  std::vector<nn::Tensor> owned_inputs;
  const std::vector<nn::Tensor>* inputs = nullptr;
  std::vector<nn::Tensor> outputs;
  std::vector<RunReport> reports;
  std::size_t next_sample = 0;    // first undispatched sample
  std::size_t pending = 0;        // dispatched or undispatched samples left
  // Error of the lowest-index failing sample, so which exception get()
  // rethrows does not depend on thread-completion order.
  std::exception_ptr error;
  std::size_t error_sample = 0;
  bool done = false;
  std::chrono::steady_clock::time_point t_submit;
  double wall_seconds = 0.0;
  // Trace identity the submitting scope attached (obs::kNoId = untraced);
  // worker threads re-install it via ScopedTraceTag per group.
  std::uint64_t trace_tag = obs::kNoId;
};

}  // namespace detail

class InferenceEngine;

/// Handle to one submitted batch. get() blocks until every sample of the
/// batch completed, rethrows the lowest-index failing sample's error, and
/// returns the logits in input order (one-shot: the future is empty
/// afterwards). Futures must be consumed before the engine is destroyed.
class BatchFuture {
 public:
  BatchFuture() = default;

  /// True while a result (or error) can still be collected.
  bool valid() const { return state_ != nullptr; }
  /// True once every sample of the batch completed (never blocks).
  bool ready() const;
  /// Blocks until the batch completed (does not consume the result).
  void wait() const;
  /// Bounded wait: true once the batch completed, false on timeout. The
  /// serving layer's request-timeout loop polls this instead of wait() so
  /// it can cancel() a batch whose deadlines lapsed while queued.
  bool wait_for(std::chrono::nanoseconds timeout) const;
  /// Cancels the batch iff no sample of it has been dispatched yet:
  /// removes it from the engine FIFO and completes it with an Error
  /// ("batch cancelled"), which get() will rethrow. Returns false — and
  /// does nothing — once execution started (or finished): partial results
  /// are never torn down. The future stays valid either way.
  bool cancel();
  /// Blocks, then returns the logits in input order; fills `report` if
  /// non-null. Rethrows the lowest-index failing sample's exception.
  std::vector<nn::Tensor> get(BatchReport* report = nullptr);

 private:
  friend class InferenceEngine;
  BatchFuture(InferenceEngine* engine,
              std::shared_ptr<detail::BatchState> state)
      : engine_(engine), state_(std::move(state)) {}

  InferenceEngine* engine_ = nullptr;
  std::shared_ptr<detail::BatchState> state_;
};

/// Thread-pooled batch runner over one shared CompiledModel.
class InferenceEngine {
 public:
  /// Samples a worker claims at most at a time: one group, whose narrow
  /// CAM layers read their C once per group. 4, 8 and 16 measured alike
  /// within their spread on the three benchmark workloads (EXPERIMENTS.md,
  /// "Groups of samples"); a longer group keeps more activations live.
  static constexpr std::size_t kGroupSamples = 8;

  /// `compiled` is shared (kept alive) by the engine. `num_threads` = 0
  /// selects std::thread::hardware_concurrency().
  explicit InferenceEngine(std::shared_ptr<const CompiledModel> compiled,
                           std::size_t num_threads = 0);
  /// Drains every still-in-flight batch, then joins the pool. Outstanding
  /// BatchFutures keep their shared state alive but must not be touched
  /// after the engine is gone.
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  std::size_t thread_count() const { return threads_.size(); }
  const CompiledModel& compiled() const { return *compiled_; }

  /// Enqueues `inputs` (each a batch-1 tensor) as one batch and returns
  /// immediately. Batches dispatch FIFO, but samples of later batches start
  /// as soon as workers free up — multiple batches overlap in flight.
  /// `trace_tag` labels the batch's engine/kernel spans with the caller's
  /// request identity (obs::kNoId = untraced).
  BatchFuture submit(std::vector<nn::Tensor> inputs,
                     std::uint64_t trace_tag = obs::kNoId);

  /// Batches currently submitted but not yet completed.
  std::size_t in_flight_batches() const;

  /// Runs every input (each a batch-1 tensor) through the worker pool and
  /// waits. Returns the logits in input order; fills `report` if non-null.
  /// Equivalent to submit(inputs).get(report) minus the input copy; safe to
  /// call from any number of threads concurrently.
  std::vector<nn::Tensor> run_batch(const std::vector<nn::Tensor>& inputs,
                                    BatchReport* report = nullptr);

  /// Convenience overload: splits a batched {N,C,H,W} tensor into N samples.
  std::vector<nn::Tensor> run_batch(const nn::Tensor& batched,
                                    BatchReport* report = nullptr);

 private:
  friend class BatchFuture;

  void worker_loop(std::size_t worker_idx);
  /// Enqueues a prepared BatchState (lock taken inside).
  void enqueue(const std::shared_ptr<detail::BatchState>& state);
  /// Blocks until `state->done`, then rethrows its recorded error (if any)
  /// and fills `report`/returns outputs exactly like the old run_batch.
  std::vector<nn::Tensor> collect(detail::BatchState& state,
                                  BatchReport* report);

  std::shared_ptr<const CompiledModel> compiled_;
  std::vector<std::unique_ptr<Worker>> workers_;  // one per thread
  std::vector<std::thread> threads_;

  // Batch FIFO + completion state, guarded by mu_. queue_ holds batches
  // with undispatched samples; in_flight_ counts submitted-but-not-done
  // batches (so it can exceed queue_.size() while tails are executing).
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for queued samples
  std::condition_variable done_cv_;   // futures wait for their batch
  std::deque<std::shared_ptr<detail::BatchState>> queue_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace deepcam::core
