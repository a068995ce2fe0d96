#include "server/budget_ledger.h"

#include <algorithm>

#include "obs/flight_recorder.h"

namespace crowdrtse::server {

BudgetLedger::BudgetLedger(int64_t campaign_budget, int per_query_cap)
    : campaign_budget_(campaign_budget),
      per_query_cap_(std::max(0, per_query_cap)) {}

int BudgetLedger::NextQueryBudgetLocked() const {
  if (campaign_budget_ < 0) return per_query_cap_;
  const int64_t left =
      campaign_budget_ - total_spent_ - reserved_outstanding_;
  return static_cast<int>(
      std::max<int64_t>(0, std::min<int64_t>(per_query_cap_, left)));
}

int BudgetLedger::NextQueryBudget() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return NextQueryBudgetLocked();
}

int BudgetLedger::Reserve(int64_t query_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int granted = NextQueryBudgetLocked();
  obs::RecordEvent(obs::EventKind::kBudgetReserve, query_id, granted);
  if (granted <= 0) return 0;
  active_reservations_[query_id] = granted;
  reserved_outstanding_ += granted;
  return granted;
}

int64_t BudgetLedger::total_spent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_spent_;
}

int64_t BudgetLedger::remaining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (campaign_budget_ < 0) return -1;
  return campaign_budget_ - total_spent_;
}

int64_t BudgetLedger::reserved_outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reserved_outstanding_;
}

int64_t BudgetLedger::settled_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return settled_count_;
}

int64_t BudgetLedger::released_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_count_;
}

void BudgetLedger::CloseReservationLocked(int64_t query_id) {
  const auto it = active_reservations_.find(query_id);
  if (it == active_reservations_.end()) return;
  reserved_outstanding_ -= it->second;
  active_reservations_.erase(it);
}

util::Status BudgetLedger::Settle(int64_t query_id, int reserved,
                                  int spent) {
  if (spent < 0 || reserved < 0) {
    return util::Status::InvalidArgument("negative amounts");
  }
  if (spent > reserved) {
    return util::Status::InvalidArgument(
        "query spent more than its reservation (" + std::to_string(spent) +
        " > " + std::to_string(reserved) + ")");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CloseReservationLocked(query_id);
  total_spent_ += spent;
  ++settled_count_;
  obs::RecordEvent(obs::EventKind::kBudgetSettle, query_id, reserved, spent);
  return util::Status::Ok();
}

util::Status BudgetLedger::Release(int64_t query_id, int reserved) {
  if (reserved < 0) {
    return util::Status::InvalidArgument("negative amounts");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  CloseReservationLocked(query_id);
  ++released_count_;
  return util::Status::Ok();
}

std::string BudgetLedger::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "BudgetLedger: " + std::to_string(settled_count_) +
                    " queries, spent " + std::to_string(total_spent_);
  if (campaign_budget_ >= 0) {
    out += " of " + std::to_string(campaign_budget_) + " (remaining " +
           std::to_string(campaign_budget_ - total_spent_) + ")";
  } else {
    out += " (unlimited campaign)";
  }
  if (reserved_outstanding_ > 0) {
    out += ", " + std::to_string(reserved_outstanding_) +
           " reserved in flight";
  }
  return out;
}

}  // namespace crowdrtse::server
