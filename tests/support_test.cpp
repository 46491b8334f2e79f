#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/align.hpp"
#include "support/flat_map.hpp"
#include "support/function_ref.hpp"
#include "support/json.hpp"
#include "support/mapped_region.hpp"
#include "support/rng.hpp"

namespace elision::support {
namespace {

// ---------------------------------------------------------------------------
// Xoshiro256
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  const std::uint64_t bounds[] = {1,    2,          3,
                                  10,   1000,       std::uint64_t{1} << 33,
                                  UINT64_MAX / 2};
  for (const std::uint64_t bound : bounds) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Xoshiro256 rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.next_bool(0.1)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.1, 0.01);
}

TEST(Rng, BernoulliZeroAndOne) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, ReseedRestartsSequence) {
  Xoshiro256 rng(123);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next());
  rng.reseed(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next(), first[i]);
}

// ---------------------------------------------------------------------------
// WordMap
// ---------------------------------------------------------------------------

TEST(MappedRegion, RoundsUpToPagesAndStartsZeroed) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  for (const auto guard : {MappedRegion::Guard::kNone,
                           MappedRegion::Guard::kBelow}) {
    MappedRegion r(page + 1, guard);
    ASSERT_NE(r.data(), nullptr);
    EXPECT_EQ(r.size(), 2 * page);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.data()) % page, 0u);
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r.data()[i], std::byte{0}) << "at byte " << i;
    }
    r.data()[0] = std::byte{1};
    r.data()[r.size() - 1] = std::byte{2};
  }
  MappedRegion empty;
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(WordMap, PutFindRoundtrip) {
  WordMap m;
  m.put(0x1000, 7);
  m.put(0x2000, 9);
  ASSERT_NE(m.find(0x1000), nullptr);
  EXPECT_EQ(*m.find(0x1000), 7u);
  ASSERT_NE(m.find(0x2000), nullptr);
  EXPECT_EQ(*m.find(0x2000), 9u);
  EXPECT_EQ(m.find(0x3000), nullptr);
}

TEST(WordMap, OverwriteKeepsSize) {
  WordMap m;
  m.put(0x40, 1);
  m.put(0x40, 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(0x40), 2u);
}

TEST(WordMap, GrowsBeyondInitialCapacity) {
  WordMap m(/*initial_pow2=*/2);  // 4 slots
  for (std::uintptr_t k = 1; k <= 1000; ++k) m.put(k * 8, k);
  EXPECT_EQ(m.size(), 1000u);
  for (std::uintptr_t k = 1; k <= 1000; ++k) {
    ASSERT_NE(m.find(k * 8), nullptr) << k;
    EXPECT_EQ(*m.find(k * 8), k);
  }
}

TEST(WordMap, ClearEmptiesAndIsReusable) {
  WordMap m;
  for (std::uintptr_t k = 1; k <= 100; ++k) m.put(k * 16, k);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(16), nullptr);
  m.put(16, 5);
  EXPECT_EQ(*m.find(16), 5u);
}

TEST(WordMap, ForEachVisitsAll) {
  WordMap m;
  std::uint64_t want = 0;
  for (std::uintptr_t k = 1; k <= 64; ++k) {
    m.put(k * 8, k);
    want += k;
  }
  std::uint64_t got = 0;
  std::size_t count = 0;
  m.for_each([&](std::uintptr_t, std::uint64_t v) {
    got += v;
    ++count;
  });
  EXPECT_EQ(got, want);
  EXPECT_EQ(count, 64u);
}

TEST(WordMap, CollidingKeysProbe) {
  WordMap m(/*initial_pow2=*/3);
  // Many keys, tiny table: every slot conflicts during growth.
  for (std::uintptr_t k = 0; k < 40; ++k) m.put(0x10000 + k * 0x800, k);
  for (std::uintptr_t k = 0; k < 40; ++k) {
    ASSERT_NE(m.find(0x10000 + k * 0x800), nullptr);
    EXPECT_EQ(*m.find(0x10000 + k * 0x800), k);
  }
}

// ---------------------------------------------------------------------------
// FunctionRef
// ---------------------------------------------------------------------------

TEST(FunctionRef, CallsLambdaWithCapture) {
  int calls = 0;
  // FunctionRef is non-owning: the callee must outlive the reference.
  auto callee = [&calls](int x) {
    ++calls;
    return x * 2;
  };
  FunctionRef<int(int)> f = callee;
  EXPECT_EQ(f(21), 42);
  EXPECT_EQ(calls, 1);
}

int free_function(int x) { return x + 1; }

TEST(FunctionRef, CallsFreeFunction) {
  FunctionRef<int(int)> f = free_function;
  EXPECT_EQ(f(41), 42);
}

TEST(FunctionRef, VoidReturn) {
  int state = 0;
  auto callee = [&state] { state = 99; };
  FunctionRef<void()> f = callee;
  f();
  EXPECT_EQ(state, 99);
}

// ---------------------------------------------------------------------------
// Cache-line math
// ---------------------------------------------------------------------------

TEST(Align, LineOfGroupsWithin64Bytes) {
  alignas(64) char buf[128];
  EXPECT_EQ(line_of(&buf[0]), line_of(&buf[63]));
  EXPECT_NE(line_of(&buf[0]), line_of(&buf[64]));
  EXPECT_EQ(line_of(&buf[64]), line_of(&buf[127]));
}

TEST(Align, CacheAlignedHasFullLine) {
  static_assert(sizeof(CacheAligned<int>) == kCacheLineBytes);
  static_assert(alignof(CacheAligned<int>) == kCacheLineBytes);
  CacheAligned<int> a[2];
  EXPECT_NE(line_of(&a[0].value), line_of(&a[1].value));
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, ParsesNestedDocumentPreservingOrder) {
  const auto doc = json::parse(
      "{\"b\": 1, \"a\": [true, null, -2.5e2, \"s\"], \"c\": {\"x\": 7}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].key, "b");  // insertion order, not sorted
  EXPECT_EQ(doc->members()[1].key, "a");
  const json::Value* arr = doc->find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items().size(), 4u);
  EXPECT_TRUE(arr->items()[0].as_bool());
  EXPECT_TRUE(arr->items()[1].is_null());
  EXPECT_DOUBLE_EQ(arr->items()[2].as_double(), -250.0);
  EXPECT_EQ(arr->items()[3].as_string(), "s");
  EXPECT_EQ(doc->find("c")->find("x")->as_u64(), 7u);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, ParsesStringEscapes) {
  const auto doc = json::parse(R"({"s": "a\"b\\c\n\tAé"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->as_string(), "a\"b\\c\n\tA\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("truex").has_value());
  EXPECT_FALSE(json::parse("1.2.3").has_value());
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  std::string text = "\"";
  text += json::escape(nasty);
  text += '"';
  const auto doc = json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), nasty);
}

}  // namespace
}  // namespace elision::support
