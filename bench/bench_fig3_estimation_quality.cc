// Reproduces paper Fig. 3, columns (a)-(c): MAPE (row 1), FER (row 2) and
// DAPE at K = 30 (row 3) of GSP vs LASSO vs GRMC vs Per, for budgets
// 30..150, with crowdsourced roads selected by Hybrid-Greedy (a),
// Objective-Greedy (b) and Randomisation (c). Semi-synthetic 607-road
// network, |R^q| = 51, theta = 0.92, costs C1.
//
// Expected shape (paper §VII-C): GSP has the best MAPE/FER in most cells,
// with the clearest margin at K = 30; LASSO approaches GSP's MAPE at large
// K but keeps a FER gap; Per is flat in K; GSP's DAPE mass concentrates
// near zero.
//
// Accuracy gate: --seeds=N runs the Hybrid column on world seeds 42..42+N-1
// and writes MAPE, FER and the estimate count per method, budget and seed
// to --json_out (default BENCH_accuracy.json), which
// `bench_trend --kind=accuracy` compares against the committed baseline.
// Without --seeds the bench prints all three columns for world seed 42.
//
// Flags: --seeds=N --json_out=PATH
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "quality_harness.h"

namespace crowdrtse::bench {
namespace {

const std::vector<int> kBudgets{30, 60, 90, 120, 150};
const std::vector<std::string> kEstimators{"GSP", "LASSO", "GRMC", "Per"};

constexpr uint64_t kFirstWorldSeed = 42;

struct Flags {
  int seeds = 0;  // 0 = the three-column paper figure on one world
  std::string json_out = "BENCH_accuracy.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      flags.seeds = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--json_out=", 0) == 0) {
      flags.json_out = arg.substr(11);
    } else {
      std::printf("unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (flags.seeds < 0) {
    std::printf("--seeds must be >= 0\n");
    std::exit(2);
  }
  return flags;
}

using Column = std::map<int, CellResult>;

Column RunColumn(QualityHarness& harness, Selector selector) {
  Column cells;
  for (int budget : kBudgets) {
    cells.emplace(budget, harness.Run(selector, budget));
  }
  return cells;
}

void PrintQualityTables(const Column& cells) {
  eval::TablePrinter mape(
      {"MAPE", "K=30", "K=60", "K=90", "K=120", "K=150"});
  eval::TablePrinter fer({"FER", "K=30", "K=60", "K=90", "K=120", "K=150"});
  for (const std::string& name : kEstimators) {
    std::vector<double> mape_row;
    std::vector<double> fer_row;
    for (int budget : kBudgets) {
      const auto& apes = cells.at(budget).apes.at(name);
      mape_row.push_back(QualityHarness::Mape(apes));
      fer_row.push_back(QualityHarness::Fer(apes));
    }
    mape.AddNumericRow(name, mape_row, 4);
    fer.AddNumericRow(name, fer_row, 4);
  }
  mape.Print();
  std::printf("\n");
  fer.Print();
}

void PrintColumn(QualityHarness& harness, Selector selector) {
  const Column cells = RunColumn(harness, selector);
  std::printf("\n--- selection: %s ---\n", SelectorName(selector));
  PrintQualityTables(cells);

  // DAPE at the smallest budget (paper row 3).
  std::printf("\nDAPE at K=30 (fraction of cases per APE bin)\n");
  eval::TablePrinter dape({"estimator", "<=.05", "<=.10", "<=.15", "<=.20",
                           "<=.25", "<=.30", "<=.35", "<=.40", "<=.45",
                           "<=.50", ">.50"});
  for (const std::string& name : kEstimators) {
    const auto& apes = cells.at(30).apes.at(name);
    std::vector<double> bins(11, 0.0);
    for (double a : apes) {
      size_t bin = 10;
      for (size_t i = 0; i < 10; ++i) {
        if (a <= 0.05 * static_cast<double>(i + 1)) {
          bin = i;
          break;
        }
      }
      bins[bin] += 1.0;
    }
    if (!apes.empty()) {
      for (double& b : bins) b /= static_cast<double>(apes.size());
    }
    dape.AddNumericRow(name, bins, 3);
  }
  dape.Print();
}

HarnessOptions Fig3Options() {
  HarnessOptions options;
  options.grmc.max_iterations = 15;
  options.grmc.history_columns = 15;
  options.lasso.fit.max_iterations = 200;
  options.lasso.fit.tolerance = 1e-4;
  return options;
}

void RunPaperFigure() {
  const SemiSyntheticWorld world = BuildWorld();
  QualityHarness harness(world, Fig3Options());
  PrintColumn(harness, Selector::kHybrid);
  PrintColumn(harness, Selector::kObjective);
  PrintColumn(harness, Selector::kRandom);
}

/// The Hybrid column on `flags.seeds` worlds, persisted as one JSON cell
/// per (seed, budget, method).
void RunAccuracyGate(const Flags& flags) {
  const HarnessOptions options = Fig3Options();
  std::string cells_json;
  for (int i = 0; i < flags.seeds; ++i) {
    WorldOptions world_options;
    world_options.seed = kFirstWorldSeed + static_cast<uint64_t>(i);
    const SemiSyntheticWorld world = BuildWorld(world_options);
    QualityHarness harness(world, options);
    const Column cells = RunColumn(harness, Selector::kHybrid);
    std::printf("\n--- world seed %llu, selection: Hybrid ---\n",
                static_cast<unsigned long long>(world_options.seed));
    PrintQualityTables(cells);
    for (int budget : kBudgets) {
      for (const std::string& name : kEstimators) {
        const auto& apes = cells.at(budget).apes.at(name);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "    {\"seed\": %llu, \"budget\": %d, \"method\": "
                      "\"%s\", \"mape\": %.9g, \"fer\": %.9g, "
                      "\"estimates\": %zu}",
                      static_cast<unsigned long long>(world_options.seed),
                      budget, name.c_str(), QualityHarness::Mape(apes),
                      QualityHarness::Fer(apes), apes.size());
        if (!cells_json.empty()) cells_json += ",\n";
        cells_json += row;
      }
    }
  }
  std::FILE* file = std::fopen(flags.json_out.c_str(), "wb");
  if (file == nullptr) {
    std::printf("could not write %s\n", flags.json_out.c_str());
    std::exit(1);
  }
  std::fprintf(file,
               "{\n  \"bench\": \"accuracy\",\n  \"selection\": "
               "\"Hybrid\",\n  \"roads\": %d,\n  \"query_size\": %d,"
               "\n  \"theta\": %.2f,\n  \"seeds\": %d,\n  \"cells\": "
               "[\n%s\n  ]\n}\n",
               WorldOptions{}.num_roads, options.query_size, options.theta,
               flags.seeds,
               cells_json.c_str());
  std::fclose(file);
  std::printf("\nwrote %s\n", flags.json_out.c_str());
}

}  // namespace
}  // namespace crowdrtse::bench

int main(int argc, char** argv) {
  const crowdrtse::bench::Flags flags =
      crowdrtse::bench::ParseFlags(argc, argv);
  std::printf(
      "=== Fig. 3 (a-c) — estimation quality vs budget, per selector ===\n");
  std::printf("607 roads, |R^q| = 51, theta = 0.92, costs C1 = 1..10\n");
  if (flags.seeds > 0) {
    crowdrtse::bench::RunAccuracyGate(flags);
  } else {
    crowdrtse::bench::RunPaperFigure();
  }
  return 0;
}
