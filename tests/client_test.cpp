#include <gtest/gtest.h>

#include "client/agent.hpp"
#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"
#include "util/rng.hpp"

namespace cbde::client {
namespace {

using util::Bytes;
using util::as_view;

struct Fixture {
  trace::DocumentTemplate tmpl{11, trace::TemplateConfig{}};
  Bytes base = tmpl.generate(1, 5, 0);
  Bytes doc = tmpl.generate(1, 5, 30 * util::kSecond);
};

TEST(ClientAgent, StoresAndReportsBaseVersions) {
  ClientAgent agent;
  EXPECT_FALSE(agent.base_version(7).has_value());
  agent.store_base(BaseRef{7, 3}, util::to_bytes("base"));
  EXPECT_EQ(agent.base_version(7), 3u);
  agent.store_base(BaseRef{7, 4}, util::to_bytes("base2"));
  EXPECT_EQ(agent.base_version(7), 4u);
  EXPECT_EQ(agent.stored_bases(), 1u);
  EXPECT_EQ(agent.stats().bases_stored, 2u);
}

TEST(ClientAgent, ReconstructsFromUncompressedDelta) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  const Bytes out = agent.reconstruct(BaseRef{1, 1}, as_view(delta), false);
  EXPECT_EQ(out, f.doc);
  EXPECT_EQ(agent.stats().deltas_applied, 1u);
  EXPECT_EQ(agent.stats().bytes_reconstructed, f.doc.size());
}

TEST(ClientAgent, ReconstructsFromCompressedDelta) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  const Bytes wire = compress::compress(as_view(delta));
  EXPECT_LT(wire.size(), delta.size() + 32);
  EXPECT_EQ(agent.reconstruct(BaseRef{1, 1}, as_view(wire), true), f.doc);
}

TEST(ClientAgent, MissingBaseThrows) {
  Fixture f;
  ClientAgent agent;
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               std::invalid_argument);
  EXPECT_EQ(agent.stats().reconstruction_failures, 1u);
}

TEST(ClientAgent, VersionMismatchThrows) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 2}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               std::invalid_argument);
}

TEST(ClientAgent, StaleBaseContentDetected) {
  // Client holds the right version number but wrong bytes (corruption);
  // the delta's base checksum must catch it.
  Fixture f;
  ClientAgent agent;
  Bytes stale = f.base;
  stale[100] ^= 0xFF;
  agent.store_base(BaseRef{1, 1}, stale);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               delta::CorruptDelta);
  EXPECT_EQ(agent.stats().reconstruction_failures, 1u);
}

TEST(ClientAgent, CorruptCompressedWireDetected) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  Bytes wire = compress::compress(as_view(delta));
  wire[wire.size() / 2] ^= 0x40;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(wire), true),
               compress::CorruptInput);
}

TEST(ClientAgent, TracksStoredBytesAcrossClasses) {
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, Bytes(100, 'a'));
  agent.store_base(BaseRef{2, 1}, Bytes(250, 'b'));
  EXPECT_EQ(agent.stored_bases(), 2u);
  EXPECT_EQ(agent.stored_bytes(), 350u);
}

TEST(ClientAgent, ReconstructInPlaceMatchesTwoBufferPathAndConsumesBase) {
  Fixture f;
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;

  ClientAgent two_buffer;
  two_buffer.store_base(BaseRef{1, 1}, f.base);
  const Bytes expected = two_buffer.reconstruct(BaseRef{1, 1}, as_view(delta), false);

  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const Bytes out = agent.reconstruct_in_place(BaseRef{1, 1}, as_view(delta), false);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(out, f.doc);
  EXPECT_EQ(agent.stats().deltas_applied, 1u);
  EXPECT_EQ(agent.stats().inplace_reconstructions, 1u);
  EXPECT_EQ(agent.stats().bytes_reconstructed, f.doc.size());
  // The base buffer was consumed by the rewrite.
  EXPECT_EQ(agent.stored_bases(), 0u);
  EXPECT_FALSE(agent.base_version(1).has_value());
}

TEST(ClientAgent, ReconstructInPlaceHandlesCompressedAndRollingWires) {
  Fixture f;
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  const Bytes wire = compress::compress(as_view(delta));
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  EXPECT_EQ(agent.reconstruct_in_place(BaseRef{1, 1}, as_view(wire), true), f.doc);
  EXPECT_EQ(agent.stats().inplace_reconstructions, 1u);
}

TEST(ClientAgent, ReconstructInPlaceFailureRetainsBase) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  // A delta encoded against a *different* base: crc validation refuses it
  // before any byte of the stored base is touched.
  const Bytes other = f.tmpl.generate(2, 9, 0);
  const auto delta = delta::encode(as_view(other), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct_in_place(BaseRef{1, 1}, as_view(delta), false),
               delta::CorruptDelta);
  EXPECT_EQ(agent.stats().reconstruction_failures, 1u);
  EXPECT_EQ(agent.stored_bases(), 1u);

  // The retained base still serves the matching delta afterwards.
  const auto good = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_EQ(agent.reconstruct_in_place(BaseRef{1, 1}, as_view(good), false), f.doc);
}

TEST(ClientAgent, ReconstructInPlaceTransformsUnsafeDeltas) {
  // Swapped-halves target: the canonical CRWI conflict cycle, never safe as
  // ordered, so the agent must route it through the transformer.
  const Bytes base = [] {
    util::Rng rng(2026);
    Bytes b(4096);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(256));
    return b;
  }();
  Bytes target(base.begin() + 2048, base.end());
  target.insert(target.end(), base.begin(), base.begin() + 2048);

  ClientAgent agent;
  agent.store_base(BaseRef{3, 1}, base);
  const auto delta = delta::encode(as_view(base), as_view(target)).delta;
  EXPECT_EQ(agent.reconstruct_in_place(BaseRef{3, 1}, as_view(delta), false), target);
  EXPECT_EQ(agent.stats().inplace_transforms, 1u);
  EXPECT_GT(agent.stats().inplace_scratch_bytes, 0u);
}

}  // namespace
}  // namespace cbde::client
