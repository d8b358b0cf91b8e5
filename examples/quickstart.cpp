// Quickstart: the delta-encoding round trip at the heart of the paper.
//
// Two snapshots of a dynamic page are generated; the first acts as the
// base-file. We compute the delta (CBD1, delta::encode), gzip it with the bundled
// compressor, ship it, and reconstruct the second snapshot on the "client"
// from base + delta — exactly the Fig. 1 flow.
//
//   $ ./quickstart
#include <cstdio>

#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"

int main() {
  using namespace cbde;

  // A dynamic document template: shared skeleton + per-document content +
  // volatile sections + per-user personalization.
  const trace::DocumentTemplate page(/*seed=*/1, trace::TemplateConfig{});

  // The snapshot stored by both ends (the base-file) ...
  const util::Bytes base = page.generate(/*doc=*/0, /*user=*/7, /*now=*/0);
  // ... and the current snapshot of the same document, two minutes later.
  const util::Bytes current = page.generate(0, 7, 120 * util::kSecond);

  // Server side: delta = diff(base -> current), then compress it.
  const delta::EncodeResult encoded = delta::encode(util::as_view(base),
                                                    util::as_view(current));
  const util::Bytes wire = compress::compress(util::as_view(encoded.delta));

  // Client side: decompress and combine with the stored base-file.
  const util::Bytes raw = compress::decompress(util::as_view(wire));
  const util::Bytes rebuilt = delta::apply(util::as_view(base), util::as_view(raw));

  std::printf("document size       : %zu bytes\n", current.size());
  std::printf("delta (raw)         : %zu bytes (%.1f%% of the document)\n",
              encoded.delta.size(),
              100.0 * static_cast<double>(encoded.delta.size()) /
                  static_cast<double>(current.size()));
  std::printf("delta (compressed)  : %zu bytes -> reduction factor %.0fx\n", wire.size(),
              static_cast<double>(current.size()) / static_cast<double>(wire.size()));
  std::printf("reconstruction      : %s\n",
              rebuilt == current ? "exact (checksums verified)" : "MISMATCH");
  return rebuilt == current ? 0 : 1;
}
