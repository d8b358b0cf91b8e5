// cbde_tool — command-line front door to the delta and compression codecs,
// so the library is usable on real files without writing any code.
//
//   cbde_tool delta   <base> <target> <out.delta>     CBD1 encode
//   cbde_tool patch   <base> <in.delta> <out>         CBD1 apply
//   cbde_tool pack    <in> <out.cbz>                  compress
//   cbde_tool unpack  <in.cbz> <out>                  decompress
//   cbde_tool info    <delta-or-cbz>                  inspect a container
#include <cstdio>
#include <fstream>
#include <string>

#include "compress/compressor.hpp"
#include "delta/delta.hpp"

namespace {

using cbde::util::Bytes;
using cbde::util::as_view;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.close();  // flushes: a full device fails here, not at the write
  if (!out) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cbde_tool delta   <base> <target> <out.delta>\n"
               "  cbde_tool patch   <base> <in.delta> <out>\n"
               "  cbde_tool pack    <in> <out.cbz>\n"
               "  cbde_tool unpack  <in.cbz> <out>\n"
               "  cbde_tool info    <container>\n");
  return 2;
}

void info(const Bytes& blob) {
  if (blob.size() >= 4) {
    const std::string magic(blob.begin(), blob.begin() + 4);
    if (magic == "CBD1") {
      const auto i = cbde::delta::inspect(as_view(blob));
      std::printf("CBD1 delta: base %zu B (crc %08x) -> target %zu B (crc %08x), "
                  "container %zu B\n",
                  i.base_size, i.base_crc, i.target_size, i.target_crc, blob.size());
      return;
    }
    if (magic == "CBZ1") {
      const Bytes out = cbde::compress::decompress(as_view(blob));
      std::printf("CBZ1 block: %zu B compressed -> %zu B (%.2fx)\n", blob.size(),
                  out.size(),
                  static_cast<double>(out.size()) / static_cast<double>(blob.size()));
      return;
    }
  }
  std::printf("unknown container (%zu bytes)\n", blob.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "delta" && argc == 5) {
      const Bytes base = read_file(argv[2]);
      const Bytes target = read_file(argv[3]);
      const auto result = cbde::delta::encode(as_view(base), as_view(target));
      write_file(argv[4], result.delta);
      std::printf("%zu -> %zu bytes (%.1f%% of target)\n", target.size(),
                  result.delta.size(),
                  100.0 * static_cast<double>(result.delta.size()) /
                      static_cast<double>(std::max<std::size_t>(target.size(), 1)));
    } else if (cmd == "patch" && argc == 5) {
      write_file(argv[4],
                 cbde::delta::apply(as_view(read_file(argv[2])), as_view(read_file(argv[3]))));
    } else if (cmd == "pack" && argc == 4) {
      const Bytes in = read_file(argv[2]);
      const Bytes out = cbde::compress::compress(as_view(in));
      write_file(argv[3], out);
      std::printf("%zu -> %zu bytes (%.2fx)\n", in.size(), out.size(),
                  static_cast<double>(in.size()) /
                      static_cast<double>(std::max<std::size_t>(out.size(), 1)));
    } else if (cmd == "unpack" && argc == 4) {
      write_file(argv[3], cbde::compress::decompress(as_view(read_file(argv[2]))));
    } else if (cmd == "info" && argc == 3) {
      info(read_file(argv[2]));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
