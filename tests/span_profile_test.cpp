// Flame-profile folding (src/obs/span_profile.hpp): self-time arithmetic,
// collapsed-stack export, and the speedscope document. SpanRecord vectors are
// built with fixed timestamps, so every test is deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span_profile.hpp"
#include "obs/trace_span.hpp"

namespace cbde::obs {
namespace {

SpanRecord span(SpanId id, SpanId parent, std::string name, std::uint64_t start,
                std::uint64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = std::move(name);
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SpanProfileTest, EmptyProfile) {
  SpanProfile p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.traces(), 0u);
  EXPECT_EQ(p.total_us(), 0u);
  EXPECT_EQ(p.stack_count(), 0u);
  EXPECT_EQ(p.collapsed(), "");
  const std::string doc = p.speedscope_json("empty");
  EXPECT_NE(doc.find("\"$schema\""), std::string::npos);
  EXPECT_NE(doc.find("\"endValue\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"samples\":[]"), std::string::npos);
}

TEST(SpanProfileTest, SelfTimeIsDurationMinusClosedChildren) {
  // serve [0,100] with encode [10,40] and compress [40,90]:
  // self(serve) = 100 - (30 + 50) = 20.
  SpanProfile p;
  p.add({span(1, 0, "serve", 0, 100), span(2, 1, "encode", 10, 40),
         span(3, 1, "compress", 40, 90)});
  EXPECT_EQ(p.traces(), 1u);
  EXPECT_EQ(p.total_us(), 100u);
  EXPECT_EQ(p.stack_count(), 3u);
  EXPECT_EQ(p.collapsed(),
            "serve 20\n"
            "serve;compress 50\n"
            "serve;encode 30\n");
}

TEST(SpanProfileTest, SelfTimeClampsAtZero) {
  // Clock jitter can make a child read longer than its parent; self time
  // clamps at zero and the zero-weight stack is kept in the export.
  SpanProfile p;
  p.add({span(1, 0, "serve", 0, 50), span(2, 1, "encode", 0, 80)});
  EXPECT_EQ(p.collapsed(),
            "serve 0\n"
            "serve;encode 80\n");
  EXPECT_EQ(p.total_us(), 80u);
}

TEST(SpanProfileTest, OpenSpansAnchorChildrenButContributeNoSelfTime) {
  // serve never closed (end_us == 0): it gets no stack entry of its own, but
  // its closed child still folds under the serve path.
  SpanProfile p;
  p.add({span(1, 0, "serve", 0, 0), span(2, 1, "encode", 5, 15)});
  EXPECT_EQ(p.collapsed(), "serve;encode 10\n");
  EXPECT_EQ(p.total_us(), 10u);
  EXPECT_EQ(p.stack_count(), 1u);
}

TEST(SpanProfileTest, RepeatedTracesAccumulate) {
  const std::vector<SpanRecord> trace = {span(1, 0, "serve", 0, 100),
                                         span(2, 1, "encode", 0, 60)};
  SpanProfile p;
  p.add(trace);
  p.add(trace);
  EXPECT_EQ(p.traces(), 2u);
  EXPECT_EQ(p.total_us(), 200u);
  EXPECT_EQ(p.collapsed(),
            "serve 80\n"
            "serve;encode 120\n");
}

TEST(SpanProfileTest, DeepNestingFoldsFullPaths) {
  SpanProfile p;
  p.add({span(1, 0, "serve", 0, 100), span(2, 1, "group", 0, 90),
         span(3, 2, "encode", 10, 70), span(4, 3, "compress", 20, 50)});
  EXPECT_EQ(p.collapsed(),
            "serve 10\n"
            "serve;group 30\n"
            "serve;group;encode 30\n"
            "serve;group;encode;compress 30\n");
  EXPECT_EQ(p.total_us(), 100u);
}

TEST(SpanProfileTest, SpeedscopeSingleProfileDocument) {
  SpanProfile p;
  p.add({span(1, 0, "serve", 0, 100), span(2, 1, "encode", 10, 40),
         span(3, 1, "compress", 40, 90)});
  const std::string doc = p.speedscope_json("workers_1");
  // Frame table interns each distinct component once, first-seen in
  // stack-sorted order: serve, compress, encode.
  EXPECT_NE(
      doc.find("\"frames\":[{\"name\":\"serve\"},{\"name\":\"compress\"},"
               "{\"name\":\"encode\"}]"),
      std::string::npos);
  // Samples reference frame indices root-first; weights align 1:1 and sum to
  // endValue.
  EXPECT_NE(doc.find("\"samples\":[[0],[0,1],[0,2]]"), std::string::npos);
  EXPECT_NE(doc.find("\"weights\":[20,50,30]"), std::string::npos);
  EXPECT_NE(doc.find("\"endValue\":100"), std::string::npos);
  EXPECT_NE(doc.find("\"startValue\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"unit\":\"microseconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"workers_1\""), std::string::npos);
  EXPECT_NE(doc.find("\"exporter\":\"cbde\""), std::string::npos);
  EXPECT_NE(doc.find("\"activeProfileIndex\":0"), std::string::npos);
}

TEST(SpanProfileTest, SpeedscopeDocumentSharesFrameTableAcrossProfiles) {
  SpanProfile one;
  one.add({span(1, 0, "serve", 0, 100), span(2, 1, "encode", 0, 60)});
  SpanProfile two;
  two.add({span(1, 0, "serve", 0, 200), span(2, 1, "compress", 0, 50)});
  const std::string doc =
      SpanProfile::speedscope_document({{"workers_1", &one}, {"workers_2", &two}});
  // "serve" appears in both profiles but is interned exactly once.
  std::size_t serve_frames = 0;
  for (std::size_t at = doc.find("{\"name\":\"serve\"}");
       at != std::string::npos; at = doc.find("{\"name\":\"serve\"}", at + 1)) {
    ++serve_frames;
  }
  EXPECT_EQ(serve_frames, 1u);
  EXPECT_NE(doc.find("\"name\":\"workers_1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"workers_2\""), std::string::npos);
  EXPECT_NE(doc.find("\"endValue\":100"), std::string::npos);
  EXPECT_NE(doc.find("\"endValue\":200"), std::string::npos);
  // Both profiles' samples resolve against the shared table: profile two's
  // "compress" frame index is past profile one's frames.
  EXPECT_NE(doc.find("{\"name\":\"compress\"}"), std::string::npos);
}

TEST(SpanProfileTest, MalformedParentIdsDoNotCrash) {
  // A parent id past the recorded spans (defensive path): the span folds as
  // its own root.
  SpanProfile p;
  p.add({span(1, 9, "orphan", 0, 10)});
  EXPECT_EQ(p.collapsed(), "orphan 10\n");
}

}  // namespace
}  // namespace cbde::obs
