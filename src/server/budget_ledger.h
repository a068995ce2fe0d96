#ifndef CROWDRTSE_SERVER_BUDGET_LEDGER_H_
#define CROWDRTSE_SERVER_BUDGET_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/status.h"

namespace crowdrtse::server {

/// Campaign-level payment accounting. The paper budgets each query with K
/// answer-units; a deployment also has to bound the total spend across
/// queries. The ledger hands each query the smaller of the per-query cap
/// and whatever remains of the campaign budget, then records the actual
/// spend (unspent reservations flow back).
///
/// Grants are real reservations: Reserve() earmarks the granted units, so
/// the headroom seen by the next caller already excludes every in-flight
/// query — concurrent queries cannot jointly overspend the campaign.
/// Each reservation must be closed exactly once, via Settle() (actual
/// spend, possibly zero) or Release() (nothing was paid). All methods are
/// thread-safe.
///
/// The ledger keeps counters only — spent, settled, released, outstanding —
/// so its memory stays flat however many queries a long run serves (the
/// only per-query state is an in-flight reservation, erased at close).
/// Conservation is checkable from them: total_spent() equals the sum of
/// every settled payment.
class BudgetLedger {
 public:
  /// `campaign_budget` < 0 means unlimited.
  BudgetLedger(int64_t campaign_budget, int per_query_cap);

  /// Budget available to the next query — per-query cap bounded by what
  /// the campaign has neither spent nor currently reserved (0 when dry).
  int NextQueryBudget() const;

  /// Reserves the next query's budget for `query_id` and returns the
  /// granted amount; 0 when the campaign is dry (nothing is reserved).
  int Reserve(int64_t query_id);

  /// Records that query `query_id` was granted `reserved` and actually
  /// paid `spent` (must be <= reserved). Closes the matching reservation
  /// if one is outstanding; the unspent remainder flows back.
  util::Status Settle(int64_t query_id, int reserved, int spent);

  /// Closes the reservation of a query that paid nothing (e.g. rejected
  /// before its crowdsourcing round). Like settling zero spend, but counted
  /// as released, not settled.
  util::Status Release(int64_t query_id, int reserved);

  /// The configured per-query grant ceiling (e.g. so a sharded engine can
  /// give its per-shard ledgers the same cap as the global one).
  int per_query_cap() const { return per_query_cap_; }

  int64_t total_spent() const;
  int64_t remaining() const;
  /// Units currently earmarked by in-flight reservations.
  int64_t reserved_outstanding() const;
  bool exhausted() const { return NextQueryBudget() <= 0; }
  /// Successful Settle() calls so far (one per query whose books closed
  /// with a payment, possibly zero).
  int64_t settled_count() const;
  /// Successful Release() calls so far.
  int64_t released_count() const;

  /// Human-readable account summary.
  std::string Report() const;

 private:
  int NextQueryBudgetLocked() const;
  /// Drops `query_id`'s outstanding reservation, if any.
  void CloseReservationLocked(int64_t query_id);

  mutable std::mutex mutex_;
  int64_t campaign_budget_;
  int per_query_cap_;
  int64_t total_spent_ = 0;
  int64_t reserved_outstanding_ = 0;
  int64_t settled_count_ = 0;
  int64_t released_count_ = 0;
  std::unordered_map<int64_t, int> active_reservations_;
};

}  // namespace crowdrtse::server

#endif  // CROWDRTSE_SERVER_BUDGET_LEDGER_H_
