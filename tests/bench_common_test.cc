// The shared bench helpers. WriteBenchJson feeds the CI perf artifact,
// whose merge step parses every file with Python's json.load: the output
// must be strict JSON even when a metric is not a finite number.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace pereach {
namespace {

TEST(WriteBenchJsonTest, NonFiniteValuesAreWrittenAsNull) {
  const std::string path = testing::TempDir() + "bench_common_test.json";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("finite", 1.5);
  metrics.emplace_back("nan", std::nan(""));
  metrics.emplace_back("inf", kInf);
  metrics.emplace_back("neg_inf", -kInf);
  bench::WriteBenchJson(path, "probe", metrics);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(text.str(),
            "{\"bench\": \"probe\", \"metrics\": {\"finite\": 1.5, "
            "\"nan\": null, \"inf\": null, \"neg_inf\": null}}\n");
}

}  // namespace
}  // namespace pereach
