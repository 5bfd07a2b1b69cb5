// Unit tests for the support module: strings, rng, graph, diagnostics, ids,
// checksum.
#include <gtest/gtest.h>

#include <string>

#include "support/checksum.hpp"
#include "support/diagnostics.hpp"
#include "support/graph.hpp"
#include "support/ids.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace umlsoc::support {
namespace {

TEST(Ids, DefaultIsInvalid) {
  Id id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, GeneratorIsMonotonic) {
  IdGenerator generator;
  Id a = generator.next();
  Id b = generator.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
}

TEST(Ids, ReserveSkipsPastExternalIds) {
  IdGenerator generator;
  generator.reserve(Id{100});
  EXPECT_EQ(generator.next().value(), 101u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, SplitAndJoin) {
  std::vector<std::string> parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(Strings, SplitEmpty) {
  std::vector<std::string> parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("statechart", "state"));
  EXPECT_FALSE(starts_with("st", "state"));
  EXPECT_TRUE(ends_with("top.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(Strings, Indent) {
  EXPECT_EQ(indent("a\nb", 1), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 1), "  a\n\n  b");  // Blank lines stay blank.
}

TEST(Strings, SnakeCase) {
  EXPECT_EQ(to_snake_case("FrameBuffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("frame buffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("frame-buffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("UART"), "uart");
  EXPECT_EQ(to_snake_case("AxiLiteBus"), "axi_lite_bus");
}

TEST(Strings, UpperCamelCase) {
  EXPECT_EQ(to_upper_camel_case("frame_buffer"), "FrameBuffer");
  EXPECT_EQ(to_upper_camel_case("uart rx"), "UartRx");
  EXPECT_EQ(to_upper_camel_case("9lives"), "X9lives");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc_1"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Strings, CountNonemptyLines) {
  EXPECT_EQ(count_nonempty_lines("a\n\n b\n  \nc"), 3u);
  EXPECT_EQ(count_nonempty_lines(""), 0u);
}

TEST(Checksum, MatchesTheSpecificationVectors) {
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
  // python-xxhash's documented example; 39 bytes take the stripe path.
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"), 0xFBCEA83C8A378BF1ULL);
}

TEST(Checksum, EveryTailPathIsPinned) {
  const auto bytes = [](std::size_t size) {
    std::string out(size, '\0');
    for (std::size_t i = 0; i < size; ++i) out[i] = static_cast<char>((i * 131 + 7) & 0xff);
    return out;
  };
  EXPECT_EQ(xxh64(bytes(7)), 0x2744460DD675D2C0ULL);     // 4-byte word, 3 bytes.
  EXPECT_EQ(xxh64(bytes(31)), 0x6711D55E306B5D8FULL);    // No stripe; 8-, 4-, 1-byte tails.
  EXPECT_EQ(xxh64(bytes(32)), 0x07F7B8E3BC5D6E25ULL);    // One stripe, no tail.
  EXPECT_EQ(xxh64(bytes(33)), 0x09F85EEB4E1CBE9FULL);    // One stripe, one byte.
  EXPECT_EQ(xxh64(bytes(1000)), 0x0BF0BDBCC82EB373ULL);  // 31 stripes, one 8-byte word.
  EXPECT_EQ(xxh64(bytes(100), 0x1234567890ABCDEFULL), 0x18FE7F970EFDCB2CULL);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Graph, TopologicalOrderOfDag) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[3]);
  EXPECT_LT(position[2], position[3]);
}

TEST(Graph, CycleDetected) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Graph, Reachability) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  std::vector<bool> from0 = g.reachable_from(0);
  EXPECT_TRUE(from0[0]);
  EXPECT_TRUE(from0[2]);
  EXPECT_FALSE(from0[3]);
  std::vector<bool> to2 = g.reaching(2);
  EXPECT_TRUE(to2[0]);
  EXPECT_FALSE(to2[4]);
}

TEST(Graph, LongestPathWeights) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto finish = g.longest_path_to({1.0, 2.0, 5.0, 1.0});
  ASSERT_TRUE(finish.has_value());
  EXPECT_DOUBLE_EQ((*finish)[3], 1.0 + 5.0 + 1.0);  // Via the heavier branch.
}

TEST(Graph, LongestPathRejectsCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_FALSE(g.longest_path_to({1.0, 1.0}).has_value());
}

TEST(Diagnostics, CountsAndFormat) {
  DiagnosticSink sink;
  sink.note("x", "info");
  sink.warning("y", "watch out");
  sink.error("z", "broken");
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_EQ(sink.diagnostics().size(), 3u);
  EXPECT_NE(sink.str().find("error: z: broken"), std::string::npos);
  sink.clear();
  EXPECT_FALSE(sink.has_errors());
  EXPECT_TRUE(sink.empty());
}

}  // namespace
}  // namespace umlsoc::support
