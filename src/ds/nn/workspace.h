// A per-thread pool of tensors for allocation-free inference.
//
// Workspace hands out Tensor slots in acquisition order and keeps their
// buffers alive across Reset(), so a steady-state inference batch — one
// Reset() + a fixed sequence of Acquire() calls, each resized via
// Tensor::ResizeInPlace — touches the heap only while the workspace is
// still warming up to the largest batch it has seen.
//
// Ownership rules (see DESIGN.md "Kernel layer"):
//   * The workspace owns every slot. Pointers returned by Acquire() stay
//     valid until the next Reset() logically releases them; the buffers
//     themselves live as long as the workspace.
//   * Acquire order must be deterministic per code path, so a repeated call
//     reuses the same (already sized) slots. All ds::nn inference paths
//     satisfy this: they acquire a fixed number of slots per call.
//   * A Workspace is NOT thread-safe; use one per thread (the serving layer
//     and DeepSketch::EstimateMany keep a thread_local one).
//   * Results returned out of a workspace-backed call (e.g. Mlp::InferInto)
//     point into the workspace; copy them out before Reset() if they must
//     outlive the batch.

#ifndef DS_NN_WORKSPACE_H_
#define DS_NN_WORKSPACE_H_

#include <cstddef>
#include <deque>

#include "ds/nn/tensor.h"

namespace ds::nn {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Next tensor slot. Shape/contents are whatever the previous user left;
  /// callers size it with ResizeInPlace and overwrite.
  Tensor* Acquire() {
    if (next_tensor_ == tensors_.size()) tensors_.emplace_back();
    return &tensors_[next_tensor_++];
  }

  /// Logically releases every slot (buffers are retained for reuse).
  void Reset() { next_tensor_ = 0; }

  /// Total bytes of backing storage currently reserved across all slots.
  /// A stable value across batches means the workspace has stopped
  /// allocating.
  size_t capacity_bytes() const {
    size_t bytes = 0;
    for (const Tensor& t : tensors_) bytes += t.capacity_bytes();
    return bytes;
  }

 private:
  // A deque keeps slot addresses stable while the pool grows.
  std::deque<Tensor> tensors_;
  size_t next_tensor_ = 0;
};

}  // namespace ds::nn

#endif  // DS_NN_WORKSPACE_H_
