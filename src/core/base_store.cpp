#include "core/base_store.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::core {

// ---------------------------------------------------------------- memory

void MemoryBaseStore::put(std::uint64_t class_id, std::uint32_t version,
                          util::BytesView base) {
  // Version 0 means "never published" throughout the pipeline; storing under
  // it would make the base unreachable via fetch_base().
  CBDE_EXPECT(version > 0);
  // Materialize the copy before taking mu_: the O(size) byte copy happens
  // unlocked and only the map splice runs inside the critical section.
  util::Bytes copy(base.begin(), base.end());
  const LockGuard lock(mu_);
  erase_locked(class_id, version);
  bytes_ += base.size();
  store_.emplace(std::make_pair(class_id, version), std::move(copy));
  CBDE_ASSERT_INVARIANT(store_.contains({class_id, version}));
}

std::optional<util::Bytes> MemoryBaseStore::get(std::uint64_t class_id,
                                                std::uint32_t version) const {
  const LockGuard lock(mu_);
  const auto it = store_.find({class_id, version});
  if (it == store_.end()) return std::nullopt;
  return it->second;
}

void MemoryBaseStore::erase(std::uint64_t class_id, std::uint32_t version) {
  const LockGuard lock(mu_);
  erase_locked(class_id, version);
}

void MemoryBaseStore::erase_locked(std::uint64_t class_id, std::uint32_t version) {
  const auto it = store_.find({class_id, version});
  if (it == store_.end()) return;
  bytes_ -= it->second.size();
  store_.erase(it);
}

bool MemoryBaseStore::contains(std::uint64_t class_id, std::uint32_t version) const {
  const LockGuard lock(mu_);
  return store_.contains({class_id, version});
}

// ---------------------------------------------------------------- disk

namespace {

// File layout: "CBBF" | uvarint payload_size | crc32(payload) LE | payload.
constexpr std::string_view kMagic = "CBBF";

util::Bytes frame(util::BytesView payload) {
  util::Bytes out;
  out.reserve(payload.size() + 16);
  util::append(out, kMagic);
  util::put_uvarint(out, payload.size());
  const std::uint32_t crc = util::crc32(payload);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  util::append(out, payload);
  return out;
}

std::optional<util::Bytes> unframe(const util::Bytes& file) {
  std::size_t pos = 0;
  if (file.size() < 9 || util::as_string_view(util::as_view(file)).substr(0, 4) != kMagic) {
    return std::nullopt;
  }
  pos = 4;
  const auto size = util::get_uvarint(util::as_view(file), pos);
  if (!size) return std::nullopt;
  if (pos + 4 > file.size()) return std::nullopt;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(file[pos++]) << (8 * i);
  if (*size != file.size() - pos) return std::nullopt;  // subtraction form: no wrap
  util::Bytes payload(file.begin() + static_cast<std::ptrdiff_t>(pos), file.end());
  if (util::crc32(util::as_view(payload)) != crc) return std::nullopt;
  return payload;
}

std::optional<util::Bytes> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return util::Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

}  // namespace

DiskBaseStore::DiskBaseStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("base store: cannot use directory " + dir_.string());
  }
  // Restart recovery: index whatever valid base files survive.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".base") continue;
    const std::string stem = entry.path().stem().string();
    const auto sep = stem.find('_');
    if (sep == std::string::npos) continue;
    std::uint64_t class_id = 0;
    std::uint32_t version = 0;
    const auto [p1, e1] =
        std::from_chars(stem.data(), stem.data() + sep, class_id);
    const auto [p2, e2] = std::from_chars(stem.data() + sep + 1,
                                          stem.data() + stem.size(), version);
    if (e1 != std::errc{} || e2 != std::errc{}) continue;
    const auto file = read_file(entry.path());
    if (!file) continue;
    const auto payload = unframe(*file);
    // Construction is single-threaded; the analysis exempts constructors,
    // so the recovery scan writes the guarded fields directly.
    if (!payload) {
      ++corrupt_reads_;
      continue;
    }
    index_[{class_id, version}] = payload->size();
    bytes_ += payload->size();
  }
}

std::filesystem::path DiskBaseStore::path_for(std::uint64_t class_id,
                                              std::uint32_t version) const {
  return dir_ / (std::to_string(class_id) + "_" + std::to_string(version) + ".base");
}

void DiskBaseStore::put(std::uint64_t class_id, std::uint32_t version,
                        util::BytesView base) {
  CBDE_EXPECT(version > 0);
  // The write itself is serialized too: concurrent put()s to the same
  // (class, version) would otherwise race on the shared .tmp name.
  const LockGuard lock(mu_);
  const auto path = path_for(class_id, version);
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("base store: cannot write " + tmp);
    const util::Bytes framed = frame(base);
    out.write(reinterpret_cast<const char*>(framed.data()),
              static_cast<std::streamsize>(framed.size()));
    if (!out) throw std::runtime_error("base store: short write to " + tmp);
  }
  std::filesystem::rename(tmp, path);

  const auto key = std::make_pair(class_id, version);
  if (const auto it = index_.find(key); it != index_.end()) bytes_ -= it->second;
  index_[key] = base.size();
  bytes_ += base.size();
  CBDE_ASSERT_INVARIANT(index_.contains(key));
}

std::optional<util::Bytes> DiskBaseStore::get(std::uint64_t class_id,
                                              std::uint32_t version) const {
  const LockGuard lock(mu_);
  if (!index_.contains({class_id, version})) return std::nullopt;
  const auto file = read_file(path_for(class_id, version));
  if (!file) {
    ++corrupt_reads_;
    return std::nullopt;
  }
  auto payload = unframe(*file);
  if (!payload) ++corrupt_reads_;
  return payload;
}

void DiskBaseStore::erase(std::uint64_t class_id, std::uint32_t version) {
  const LockGuard lock(mu_);
  const auto key = std::make_pair(class_id, version);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second;
  index_.erase(it);
  std::error_code ec;
  std::filesystem::remove(path_for(class_id, version), ec);
}

bool DiskBaseStore::contains(std::uint64_t class_id, std::uint32_t version) const {
  const LockGuard lock(mu_);
  return index_.contains({class_id, version});
}

}  // namespace cbde::core
