#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/base_store.hpp"
#include "core/delta_server.hpp"
#include "trace/site.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

// Typed tests: both backends must satisfy the same contract.
template <typename T>
std::unique_ptr<BaseStore> make_store(const std::filesystem::path& dir);

template <>
std::unique_ptr<BaseStore> make_store<MemoryBaseStore>(const std::filesystem::path&) {
  return std::make_unique<MemoryBaseStore>();
}

template <>
std::unique_ptr<BaseStore> make_store<DiskBaseStore>(const std::filesystem::path& dir) {
  return std::make_unique<DiskBaseStore>(dir);
}

template <typename T>
class BaseStoreContract : public ::testing::Test {
 protected:
  BaseStoreContract() {
    dir_ = std::filesystem::temp_directory_path() /
           ("cbde_store_test_" + std::string(typeid(T).name()));
    std::filesystem::remove_all(dir_);
    store_ = make_store<T>(dir_);
  }
  ~BaseStoreContract() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<BaseStore> store_;
};

using Backends = ::testing::Types<MemoryBaseStore, DiskBaseStore>;
TYPED_TEST_SUITE(BaseStoreContract, Backends);

TYPED_TEST(BaseStoreContract, PutGetRoundTrip) {
  const Bytes base = to_bytes("the base-file payload bytes");
  this->store_->put(7, 3, as_view(base));
  EXPECT_TRUE(this->store_->contains(7, 3));
  const auto got = this->store_->get(7, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, base);
  EXPECT_EQ(this->store_->bytes_stored(), base.size());
  EXPECT_EQ(this->store_->entries(), 1u);
}

TYPED_TEST(BaseStoreContract, MissingEntriesReturnNullopt) {
  EXPECT_FALSE(this->store_->get(1, 1).has_value());
  EXPECT_FALSE(this->store_->contains(1, 1));
}

TYPED_TEST(BaseStoreContract, ReplaceUpdatesAccounting) {
  this->store_->put(1, 1, as_view(to_bytes(std::string(100, 'a'))));
  this->store_->put(1, 1, as_view(to_bytes(std::string(40, 'b'))));
  EXPECT_EQ(this->store_->bytes_stored(), 40u);
  EXPECT_EQ(this->store_->entries(), 1u);
}

TYPED_TEST(BaseStoreContract, EraseRemovesAndIsIdempotent) {
  this->store_->put(1, 1, as_view(to_bytes("abc")));
  this->store_->erase(1, 1);
  EXPECT_FALSE(this->store_->contains(1, 1));
  EXPECT_EQ(this->store_->bytes_stored(), 0u);
  this->store_->erase(1, 1);  // no-op
}

TYPED_TEST(BaseStoreContract, VersionsAreIndependent) {
  this->store_->put(1, 1, as_view(to_bytes("v1")));
  this->store_->put(1, 2, as_view(to_bytes("v2-x")));
  this->store_->put(2, 1, as_view(to_bytes("other-class")));
  EXPECT_EQ(this->store_->entries(), 3u);
  EXPECT_EQ(util::as_string_view(as_view(*this->store_->get(1, 2))), "v2-x");
  this->store_->erase(1, 1);
  EXPECT_TRUE(this->store_->contains(1, 2));
  EXPECT_TRUE(this->store_->contains(2, 1));
}

// ---------------------------------------------------------------- disk-only

struct DiskDir {
  std::filesystem::path dir;
  explicit DiskDir(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
  }
  ~DiskDir() { std::filesystem::remove_all(dir); }
};

TEST(DiskBaseStore, SurvivesRestart) {
  DiskDir d("cbde_store_restart");
  const Bytes base = to_bytes(std::string(5000, 'q') + "tail");
  {
    DiskBaseStore store(d.dir);
    store.put(11, 4, as_view(base));
  }
  DiskBaseStore reopened(d.dir);
  EXPECT_EQ(reopened.entries(), 1u);
  const auto got = reopened.get(11, 4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, base);
}

TEST(DiskBaseStore, DetectsCorruptFiles) {
  DiskDir d("cbde_store_corrupt");
  {
    DiskBaseStore store(d.dir);
    store.put(5, 1, as_view(to_bytes(std::string(2000, 'z'))));
  }
  // Flip a payload byte on disk.
  const auto path = d.dir / "5_1.base";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('X');
  }
  DiskBaseStore reopened(d.dir);
  // Either rejected at index time or at read time — never returned corrupt.
  const auto got = reopened.get(5, 1);
  EXPECT_FALSE(got.has_value());
  EXPECT_GT(reopened.corrupt_reads(), 0u);
}

TEST(DiskBaseStore, IgnoresForeignFiles) {
  DiskDir d("cbde_store_foreign");
  std::filesystem::create_directories(d.dir);
  std::ofstream(d.dir / "README.txt") << "not a base file";
  std::ofstream(d.dir / "garbage.base") << "no underscore stem";
  DiskBaseStore store(d.dir);
  EXPECT_EQ(store.entries(), 0u);
}

// ---------------------------------------------------------------- integration

TEST(DiskBaseStore, DeltaServerServesBasesFromDisk) {
  DiskDir d("cbde_store_server");
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 6;
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(sconfig.host, site.partition_rule());

  DeltaServerConfig config;
  config.anonymize = false;
  config.store_factory = [&d](std::size_t) -> std::unique_ptr<BaseStore> {
    return std::make_unique<DiskBaseStore>(d.dir);
  };
  DeltaServer server(config, std::move(rules));

  util::SimTime now = 0;
  ServedResponse last;
  for (std::uint64_t user = 1; user <= 4; ++user) {
    const trace::DocRef ref{0, user % 6};
    const auto doc = site.generate(ref, user, now += util::kSecond);
    last = server.serve(user, site.url_for(ref), as_view(doc), now);
  }
  ASSERT_GT(last.base_version, 0u);
  // The retained version is on disk and fetchable.
  EXPECT_GT(server.base_store().entries(), 0u);
  const auto fetched = server.fetch_base(last.class_id, last.base_version);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_FALSE(fetched->empty());
  // And files physically exist.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(d.dir)) {
    files += entry.path().extension() == ".base";
  }
  EXPECT_GT(files, 0u);
}

}  // namespace
}  // namespace cbde::core
