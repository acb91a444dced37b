#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/viewupdate/template_index.h"

namespace xvu {
namespace {

using Slots = std::vector<std::optional<Value>>;

/// Oracle: the rows an all-pairs scan would accept for slot[col] == v —
/// concrete match or free slot.
std::vector<size_t> BruteForce(
    const std::vector<std::pair<std::string, Slots>>& rows,
    const std::string& table, size_t col, const Value& v) {
  std::vector<size_t> out;
  for (size_t id = 0; id < rows.size(); ++id) {
    if (rows[id].first != table) continue;
    const Slots& s = rows[id].second;
    if (col >= s.size()) continue;
    if (!s[col].has_value() || *s[col] == v) out.push_back(id);
  }
  return out;
}

TEST(TemplateSlotIndex, MatchesConcreteFreeAndMixedSlots) {
  TemplateSlotIndex idx;
  idx.Add("t", 0, {Value::Int(1), std::nullopt});
  idx.Add("t", 1, {Value::Int(2), Value::Str("x")});
  idx.Add("t", 2, {std::nullopt, Value::Str("x")});
  idx.Add("u", 3, {Value::Int(1)});

  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.All("t"), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(idx.All("u"), (std::vector<size_t>{3}));
  EXPECT_TRUE(idx.All("missing").empty());

  // Column 0 of t: concrete 1 matches row 0; free slot row 2 always can.
  EXPECT_EQ(idx.Candidates("t", 0, Value::Int(1)),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(idx.Candidates("t", 0, Value::Int(2)),
            (std::vector<size_t>{1, 2}));
  EXPECT_EQ(idx.Candidates("t", 0, Value::Int(7)),
            (std::vector<size_t>{2}));
  // Column 1: row 0 is free, rows 1 and 2 concrete "x".
  EXPECT_EQ(idx.Candidates("t", 1, Value::Str("x")),
            (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(idx.Candidates("t", 1, Value::Str("y")),
            (std::vector<size_t>{0}));
  // Unknown table / out-of-range column: no candidates.
  EXPECT_TRUE(idx.Candidates("missing", 0, Value::Int(1)).empty());
  EXPECT_TRUE(idx.Candidates("u", 5, Value::Int(1)).empty());
}

/// Randomized oracle comparison: for every (table, col, probe value) the
/// index's candidate list must equal the all-pairs filter, in id order.
TEST(TemplateSlotIndex, RandomizedCandidatesEqualAllPairsOracle) {
  const char* kTables[] = {"a", "b", "c"};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31);
    TemplateSlotIndex idx;
    std::vector<std::pair<std::string, Slots>> rows;
    size_t n = 20 + rng.Below(60);
    for (size_t id = 0; id < n; ++id) {
      std::string table = kTables[rng.Below(3)];
      Slots slots;
      size_t arity = 1 + rng.Below(4);
      for (size_t c = 0; c < arity; ++c) {
        if (rng.Chance(0.3)) {
          slots.push_back(std::nullopt);  // free (symbolic) slot
        } else {
          // In-place construction: moving a temporary optional<Value>
          // into the vector trips gcc 12's -Wmaybe-uninitialized on
          // std::variant's string member in Release builds.
          slots.emplace_back(std::in_place,
                             Value::Int(static_cast<int64_t>(rng.Below(5))));
        }
      }
      idx.Add(table, id, slots);
      rows.emplace_back(std::move(table), std::move(slots));
    }
    for (const char* table : kTables) {
      for (size_t col = 0; col < 4; ++col) {
        for (int64_t v = -1; v <= 5; ++v) {
          EXPECT_EQ(idx.Candidates(table, col, Value::Int(v)),
                    BruteForce(rows, table, col, Value::Int(v)))
              << "seed " << seed << " table " << table << " col " << col
              << " v " << v;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xvu
