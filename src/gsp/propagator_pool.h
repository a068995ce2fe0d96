#ifndef CROWDRTSE_GSP_PROPAGATOR_POOL_H_
#define CROWDRTSE_GSP_PROPAGATOR_POOL_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "gsp/propagation.h"
#include "rtf/rtf_model.h"

namespace crowdrtse::gsp {

/// A fixed set of SpeedPropagator instances handed out one-at-a-time.
///
/// Propagators are reentrant (propagation.h), so the pool does not guard
/// them; its job is to bound how many GSP phases run at once. Acquire()
/// blocks until an instance is free, so the pool size is the concurrency
/// limit on the GSP phase. All methods are thread-safe.
class PropagatorPool {
 public:
  /// Move-only RAII handle to a leased propagator; returns the instance to
  /// the pool on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), propagator_(other.propagator_) {
      other.pool_ = nullptr;
      other.propagator_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    const SpeedPropagator& operator*() const { return *propagator_; }
    const SpeedPropagator* operator->() const { return propagator_; }

   private:
    friend class PropagatorPool;
    Lease(PropagatorPool* pool, const SpeedPropagator* propagator)
        : pool_(pool), propagator_(propagator) {}

    PropagatorPool* pool_;
    const SpeedPropagator* propagator_;
  };

  /// Builds `size` propagators over `model` with identical `options`. The
  /// model must outlive the pool. `size` is clamped to >= 1.
  PropagatorPool(const rtf::RtfModel& model, GspOptions options, int size);

  PropagatorPool(const PropagatorPool&) = delete;
  PropagatorPool& operator=(const PropagatorPool&) = delete;

  /// Blocks until a propagator is free and leases it.
  Lease Acquire();

  int size() const { return static_cast<int>(instances_.size()); }

  /// Instances currently free (for tests and introspection; the value is
  /// stale the moment it returns under concurrency).
  int available() const;

 private:
  void Return(const SpeedPropagator* propagator);

  std::vector<std::unique_ptr<SpeedPropagator>> instances_;
  mutable std::mutex mutex_;
  std::condition_variable freed_;
  std::vector<const SpeedPropagator*> free_;
};

}  // namespace crowdrtse::gsp

#endif  // CROWDRTSE_GSP_PROPAGATOR_POOL_H_
