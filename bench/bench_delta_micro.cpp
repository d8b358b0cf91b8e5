// Micro-benchmarks for the delta and compression substrates
// (google-benchmark).
//
// Context for §VI-C: the paper measures 6-8 ms per delta for a 50-60 KB
// base-file on a PIII-866 with Vdelta, calling the CPU overhead
// "reasonable". These benchmarks measure our encoder's cost across document
// sizes, plus apply/compress/light-estimate costs, so the capacity model's
// constants can be sanity-checked on any host.
#include <benchmark/benchmark.h>

#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"

namespace {

using namespace cbde;

trace::TemplateConfig sized_template(std::size_t page_bytes) {
  trace::TemplateConfig config;
  config.skeleton_bytes = page_bytes * 86 / 100;
  config.doc_unique_bytes = page_bytes * 6 / 100;
  config.volatile_bytes = page_bytes * 25 / 1000;
  config.personal_bytes = page_bytes / 100;
  return config;
}

struct Corpus {
  util::Bytes base;
  util::Bytes temporal;  // same document, later snapshot
  util::Bytes cross;     // sibling document, other user

  explicit Corpus(std::size_t page_bytes) {
    const trace::DocumentTemplate tmpl(7, sized_template(page_bytes));
    base = tmpl.generate(0, 1, 0);
    temporal = tmpl.generate(0, 1, 120 * util::kSecond);
    cross = tmpl.generate(3, 9, 120 * util::kSecond);
  }
};

void BM_DeltaEncode_Temporal(benchmark::State& state) {
  const Corpus corpus(static_cast<std::size_t>(state.range(0)));
  std::size_t delta_size = 0;
  for (auto _ : state) {
    auto result = delta::encode(util::as_view(corpus.base), util::as_view(corpus.temporal));
    delta_size = result.delta.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["delta_B"] = static_cast<double>(delta_size);
  state.counters["doc_B"] = static_cast<double>(corpus.temporal.size());
}
BENCHMARK(BM_DeltaEncode_Temporal)->Arg(10 << 10)->Arg(30 << 10)->Arg(55 << 10);

void BM_DeltaEncode_CrossDoc(benchmark::State& state) {
  const Corpus corpus(static_cast<std::size_t>(state.range(0)));
  std::size_t delta_size = 0;
  for (auto _ : state) {
    auto result = delta::encode(util::as_view(corpus.base), util::as_view(corpus.cross));
    delta_size = result.delta.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["delta_B"] = static_cast<double>(delta_size);
}
BENCHMARK(BM_DeltaEncode_CrossDoc)->Arg(10 << 10)->Arg(30 << 10)->Arg(55 << 10);

void BM_DeltaEstimateLight(benchmark::State& state) {
  const Corpus corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta::estimate_delta_size(util::as_view(corpus.base), util::as_view(corpus.cross)));
  }
}
BENCHMARK(BM_DeltaEstimateLight)->Arg(10 << 10)->Arg(30 << 10)->Arg(55 << 10);

void BM_DeltaApply(benchmark::State& state) {
  const Corpus corpus(static_cast<std::size_t>(state.range(0)));
  const auto delta =
      delta::encode(util::as_view(corpus.base), util::as_view(corpus.cross)).delta;
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta::apply(util::as_view(corpus.base), util::as_view(delta)));
  }
}
BENCHMARK(BM_DeltaApply)->Arg(10 << 10)->Arg(30 << 10)->Arg(55 << 10);

void BM_CompressDelta(benchmark::State& state) {
  const Corpus corpus(55 << 10);
  const auto delta =
      delta::encode(util::as_view(corpus.base), util::as_view(corpus.cross)).delta;
  std::size_t wire = 0;
  for (auto _ : state) {
    auto packed = compress::compress(util::as_view(delta));
    wire = packed.size();
    benchmark::DoNotOptimize(packed);
  }
  state.counters["raw_B"] = static_cast<double>(delta.size());
  state.counters["wire_B"] = static_cast<double>(wire);
}
BENCHMARK(BM_CompressDelta);

void BM_CompressDocument(benchmark::State& state) {
  const Corpus corpus(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::compress(util::as_view(corpus.cross)));
  }
}
BENCHMARK(BM_CompressDocument)->Arg(30 << 10);

void BM_DecompressDocument(benchmark::State& state) {
  const Corpus corpus(30 << 10);
  const auto packed = compress::compress(util::as_view(corpus.cross));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::decompress(util::as_view(packed)));
  }
}
BENCHMARK(BM_DecompressDocument);

void BM_DocumentGeneration(benchmark::State& state) {
  const trace::DocumentTemplate tmpl(7, sized_template(45 << 10));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmpl.generate(i % 16, i % 100, static_cast<long>(i)));
    ++i;
  }
}
BENCHMARK(BM_DocumentGeneration);

}  // namespace

BENCHMARK_MAIN();
