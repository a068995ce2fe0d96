#include "server/budget_ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace crowdrtse::server {
namespace {

TEST(BudgetLedgerTest, GrantsPerQueryCap) {
  BudgetLedger ledger(1000, 50);
  EXPECT_EQ(ledger.NextQueryBudget(), 50);
  EXPECT_FALSE(ledger.exhausted());
}

TEST(BudgetLedgerTest, GrantsRemainderWhenCampaignLow) {
  BudgetLedger ledger(60, 50);
  ASSERT_TRUE(ledger.Settle(1, 50, 45).ok());
  EXPECT_EQ(ledger.NextQueryBudget(), 15);  // 60 - 45
  ASSERT_TRUE(ledger.Settle(2, 15, 15).ok());
  EXPECT_EQ(ledger.NextQueryBudget(), 0);
  EXPECT_TRUE(ledger.exhausted());
}

TEST(BudgetLedgerTest, UnspentReservationFlowsBack) {
  BudgetLedger ledger(100, 60);
  ASSERT_TRUE(ledger.Settle(1, 60, 10).ok());
  EXPECT_EQ(ledger.total_spent(), 10);
  EXPECT_EQ(ledger.remaining(), 90);
  EXPECT_EQ(ledger.NextQueryBudget(), 60);
}

TEST(BudgetLedgerTest, UnlimitedCampaign) {
  BudgetLedger ledger(-1, 40);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ledger.NextQueryBudget(), 40);
    ASSERT_TRUE(ledger.Settle(i, 40, 40).ok());
  }
  EXPECT_EQ(ledger.remaining(), -1);
  EXPECT_FALSE(ledger.exhausted());
}

TEST(BudgetLedgerTest, RejectsOverspend) {
  BudgetLedger ledger(100, 50);
  EXPECT_FALSE(ledger.Settle(1, 50, 51).ok());
  EXPECT_FALSE(ledger.Settle(1, -1, 0).ok());
  EXPECT_FALSE(ledger.Settle(1, 10, -1).ok());
  EXPECT_EQ(ledger.total_spent(), 0);
}

TEST(BudgetLedgerTest, SettleIsCounted) {
  BudgetLedger ledger(100, 50);
  EXPECT_EQ(ledger.Reserve(7), 50);
  ASSERT_TRUE(ledger.Settle(7, 50, 33).ok());
  EXPECT_EQ(ledger.settled_count(), 1);
  EXPECT_EQ(ledger.released_count(), 0);
  EXPECT_EQ(ledger.total_spent(), 33);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  // A rejected settle moves no counter.
  EXPECT_FALSE(ledger.Settle(8, 10, 11).ok());
  EXPECT_EQ(ledger.settled_count(), 1);
  EXPECT_EQ(ledger.total_spent(), 33);
}

TEST(BudgetLedgerTest, ReportMentionsTotals) {
  BudgetLedger ledger(100, 50);
  ASSERT_TRUE(ledger.Settle(1, 50, 20).ok());
  const std::string report = ledger.Report();
  EXPECT_NE(report.find("spent 20"), std::string::npos);
  EXPECT_NE(report.find("remaining 80"), std::string::npos);
}

TEST(BudgetLedgerTest, ReservationsEarmarkHeadroom) {
  BudgetLedger ledger(100, 60);
  EXPECT_EQ(ledger.Reserve(1), 60);
  // The second in-flight query only sees what the first left unreserved.
  EXPECT_EQ(ledger.NextQueryBudget(), 40);
  EXPECT_EQ(ledger.Reserve(2), 40);
  EXPECT_EQ(ledger.reserved_outstanding(), 100);
  EXPECT_TRUE(ledger.exhausted());
  EXPECT_EQ(ledger.Reserve(3), 0);
  // Settling releases the unspent remainder back to the campaign.
  ASSERT_TRUE(ledger.Settle(1, 60, 10).ok());
  EXPECT_EQ(ledger.reserved_outstanding(), 40);
  EXPECT_EQ(ledger.NextQueryBudget(), 50);  // 100 - 10 spent - 40 reserved
}

TEST(BudgetLedgerTest, ReleaseReturnsReservationWithoutASettle) {
  BudgetLedger ledger(100, 60);
  const int granted = ledger.Reserve(7);
  EXPECT_EQ(granted, 60);
  ASSERT_TRUE(ledger.Release(7, granted).ok());
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  EXPECT_EQ(ledger.NextQueryBudget(), 60);
  EXPECT_EQ(ledger.total_spent(), 0);
  EXPECT_EQ(ledger.settled_count(), 0);
  EXPECT_EQ(ledger.released_count(), 1);
}

TEST(BudgetLedgerTest, UnlimitedCampaignReservesFreely) {
  BudgetLedger ledger(-1, 40);
  EXPECT_EQ(ledger.Reserve(1), 40);
  EXPECT_EQ(ledger.Reserve(2), 40);
  EXPECT_EQ(ledger.NextQueryBudget(), 40);
  ASSERT_TRUE(ledger.Settle(1, 40, 40).ok());
  ASSERT_TRUE(ledger.Settle(2, 40, 40).ok());
  EXPECT_FALSE(ledger.exhausted());
}

TEST(BudgetLedgerTest, ReportMentionsInFlightReservations) {
  BudgetLedger ledger(100, 30);
  (void)ledger.Reserve(1);
  EXPECT_NE(ledger.Report().find("30 reserved in flight"),
            std::string::npos);
}

// The bug the reservation cycle fixes: two "in-flight" queries that both
// read the remainder before either settles must not jointly overspend.
TEST(BudgetLedgerTest, ConcurrentReserveSettleNeverOverspends) {
  constexpr int64_t kCampaign = 500;
  BudgetLedger ledger(kCampaign, 13);
  constexpr int kThreads = 8;
  std::atomic<int64_t> next_id{1};
  std::atomic<int64_t> granted_total{0};
  std::atomic<int64_t> paid_total{0};
  std::atomic<int64_t> settles{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const int64_t id = next_id.fetch_add(1);
        const int granted = ledger.Reserve(id);
        if (granted == 0) continue;
        granted_total.fetch_add(granted);
        // Spend most of the grant, like a real crowd round would.
        const int spent = std::max(0, granted - (i % 3));
        ASSERT_TRUE(ledger.Settle(id, granted, spent).ok());
        paid_total.fetch_add(spent);
        settles.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(ledger.total_spent(), kCampaign);
  EXPECT_EQ(ledger.reserved_outstanding(), 0);
  // Conservation: the spend equals the sum of settled payments.
  EXPECT_EQ(ledger.total_spent(), paid_total.load());
  EXPECT_EQ(ledger.settled_count(), settles.load());
}

}  // namespace
}  // namespace crowdrtse::server
