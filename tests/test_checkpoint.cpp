// On-disk checkpoint format tests (hauberk/checkpoint.hpp): field round-trip
// through CheckpointWriter/CheckpointReader, and — the part crash recovery
// lives or dies on — rejection of every corrupt-file shape a kill can leave:
// wrong magic, wrong version, truncation, flipped payload bits, and stale
// temp files from a save that never finished.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "hauberk/checkpoint.hpp"
#include "swifi/service.hpp"

using namespace hauberk;
using core::CheckpointError;
using core::CheckpointReader;
using core::CheckpointWriter;

namespace {

constexpr std::uint32_t kMagic = 0x54534554u;  // "TEST"
constexpr std::uint32_t kVersion = 3;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "hauberk_ckpt_" + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A fully loaded writer exercising every field type.
CheckpointWriter sample_writer() {
  CheckpointWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5e-6);
  w.str("watermark");
  w.str("");  // empty strings must round-trip too
  const std::array<std::uint8_t, 5> blob{1, 2, 3, 4, 5};
  w.bytes(blob);
  w.u64(0);
  return w;
}

}  // namespace

TEST(CheckpointFormat, RoundTripsEveryFieldType) {
  const auto path = tmp_path("roundtrip.ckpt");
  sample_writer().save_atomic(path, kMagic, kVersion);

  auto r = CheckpointReader::load(path, kMagic, kVersion);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.5e-6);
  EXPECT_EQ(r.str(), "watermark");
  EXPECT_EQ(r.str(), "");
  std::array<std::uint8_t, 5> blob{};
  r.bytes(blob);
  EXPECT_EQ(blob, (std::array<std::uint8_t, 5>{1, 2, 3, 4, 5}));
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointFormat, ExhaustedReaderThrowsInsteadOfFabricatingData) {
  const auto path = tmp_path("exhausted.ckpt");
  CheckpointWriter w;
  w.u32(7);
  w.save_atomic(path, kMagic, kVersion);

  auto r = CheckpointReader::load(path, kMagic, kVersion);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW((void)r.u8(), CheckpointError);
  EXPECT_THROW((void)r.u64(), CheckpointError);
  EXPECT_THROW((void)r.str(), CheckpointError);
}

TEST(CheckpointFormat, RejectsWrongMagicAndVersion) {
  const auto path = tmp_path("magic.ckpt");
  sample_writer().save_atomic(path, kMagic, kVersion);

  EXPECT_NO_THROW((void)CheckpointReader::load(path, kMagic, kVersion));
  EXPECT_THROW((void)CheckpointReader::load(path, kMagic + 1, kVersion), CheckpointError);
  EXPECT_THROW((void)CheckpointReader::load(path, kMagic, kVersion + 1), CheckpointError);
  EXPECT_THROW((void)CheckpointReader::load(path, kMagic, kVersion - 1), CheckpointError);
}

TEST(CheckpointFormat, RejectsMissingFile) {
  EXPECT_THROW((void)CheckpointReader::load(tmp_path("nonexistent.ckpt"), kMagic, kVersion),
               CheckpointError);
}

TEST(CheckpointFormat, RejectsTruncationAtEveryBoundary) {
  const auto path = tmp_path("trunc.ckpt");
  sample_writer().save_atomic(path, kMagic, kVersion);
  const auto good = slurp(path);
  ASSERT_GT(good.size(), 20u);

  // Chop inside the header, at the header/payload seam, and inside the
  // payload: every prefix must be rejected, none may crash.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                                 std::size_t{16}, std::size_t{20}, good.size() - 1}) {
    const auto cut = tmp_path("trunc_cut.ckpt");
    spit(cut, std::vector<char>(good.begin(), good.begin() + static_cast<long>(keep)));
    EXPECT_THROW((void)CheckpointReader::load(cut, kMagic, kVersion), CheckpointError)
        << "prefix of " << keep << " bytes must not parse";
  }
}

TEST(CheckpointFormat, CrcCatchesEverySingleFlippedPayloadBit) {
  const auto path = tmp_path("flip.ckpt");
  CheckpointWriter w;
  w.u64(0xfeedfacecafebeefull);
  w.save_atomic(path, kMagic, kVersion);
  const auto good = slurp(path);
  constexpr std::size_t kHeader = 20;
  ASSERT_EQ(good.size(), kHeader + 8);

  const auto flipped = tmp_path("flip_bit.ckpt");
  for (std::size_t byte = kHeader; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spit(flipped, bad);
      EXPECT_THROW((void)CheckpointReader::load(flipped, kMagic, kVersion), CheckpointError)
          << "flip at byte " << byte << " bit " << bit << " must fail the CRC";
    }
  }
}

TEST(CheckpointFormat, RejectsCrcFieldCorruption) {
  const auto path = tmp_path("crcfield.ckpt");
  sample_writer().save_atomic(path, kMagic, kVersion);
  auto bad = slurp(path);
  bad[17] = static_cast<char>(bad[17] ^ 0x40);  // inside the stored CRC itself
  spit(path, bad);
  EXPECT_THROW((void)CheckpointReader::load(path, kMagic, kVersion), CheckpointError);
}

TEST(CheckpointFormat, LyingPayloadSizeIsRejectedWithoutHugeAllocation) {
  const auto path = tmp_path("liar.ckpt");
  sample_writer().save_atomic(path, kMagic, kVersion);
  auto bad = slurp(path);
  // Claim a multi-exabyte payload; the loader must fail cleanly (bounded by
  // the actual file size) instead of trying to allocate it.
  for (int i = 0; i < 8; ++i) bad[8 + i] = static_cast<char>(0xee);
  spit(path, bad);
  EXPECT_THROW((void)CheckpointReader::load(path, kMagic, kVersion), CheckpointError);
}

TEST(CheckpointFormat, SaveIsAtomicUnderStaleTempFile) {
  const auto path = tmp_path("atomic.ckpt");
  // A previous killed save left garbage at path + ".tmp" — save_atomic must
  // clobber it and land a valid file.
  spit(path + ".tmp", {'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  sample_writer().save_atomic(path, kMagic, kVersion);
  EXPECT_NO_THROW((void)CheckpointReader::load(path, kMagic, kVersion));

  // And a stale temp file NEXT TO a good checkpoint must never be consulted
  // by the loader.
  spit(path + ".tmp", {'m', 'o', 'r', 'e', ' ', 'j', 'u', 'n', 'k'});
  auto r = CheckpointReader::load(path, kMagic, kVersion);
  EXPECT_EQ(r.u8(), 0xab);
}

TEST(CheckpointFormat, SaveOverLongerStaleTempFileLeavesNoTail) {
  // The temp file is overwritten in place, so a stale one longer than the
  // new image must be cut to it: the saved file is exactly header + payload.
  const auto path = tmp_path("tail.ckpt");
  spit(path + ".tmp", std::vector<char>(4096, 'x'));
  const CheckpointWriter w = sample_writer();
  w.save_atomic(path, kMagic, kVersion);
  EXPECT_EQ(slurp(path).size(), 20 + w.payload().size());
  w.save_atomic(path, kMagic, kVersion);  // and again over the swapped-out file
  EXPECT_EQ(slurp(path).size(), 20 + w.payload().size());
  auto r = CheckpointReader::load(path, kMagic, kVersion);
  EXPECT_EQ(r.u8(), 0xab);
}

TEST(CheckpointFormat, OverwriteReplacesPreviousContents) {
  const auto path = tmp_path("overwrite.ckpt");
  CheckpointWriter first;
  first.str("first generation");
  first.u64(1);
  first.save_atomic(path, kMagic, kVersion);

  CheckpointWriter second;
  second.str("second generation");
  second.u64(2);
  second.save_atomic(path, kMagic, kVersion);

  auto r = CheckpointReader::load(path, kMagic, kVersion);
  EXPECT_EQ(r.str(), "second generation");
  EXPECT_EQ(r.u64(), 2u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(CheckpointFormat, Crc32MatchesKnownVectorAndResumes) {
  // The classic check value: CRC-32("123456789") == 0xcbf43926.
  const char* s = "123456789";
  EXPECT_EQ(common::crc32(s, 9), 0xcbf43926u);
  // Resumable: feeding a prefix's CRC as the seed of the suffix must equal
  // the one-shot CRC (the service relies on this for the result-log stream).
  const auto head = common::crc32(s, 4);
  EXPECT_EQ(common::crc32(s + 4, 5, head), 0xcbf43926u);
  EXPECT_EQ(common::crc32(s, 0), 0u);
}

TEST(CampaignCheckpointFile, RoundTripsAllAggregateState) {
  swifi::CampaignCheckpoint ck;
  ck.config_digest = 0x1122334455667788ull;
  ck.shards = 4;
  ck.shard_index = 3;
  ck.trials_total = 1000;
  ck.watermark = 250;
  ck.counts.failure = 1;
  ck.counts.masked = 2;
  ck.counts.detected_masked = 3;
  ck.counts.detected = 4;
  ck.counts.undetected = 5;
  ck.counts.not_activated = 6;
  ck.counts.race_detected = 7;
  ck.counts.barrier_divergence = 8;
  ck.counts.ecc_corrected = 9;
  ck.counts.ecc_uncorrectable = 10;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 1023ull, 1024ull, ~0ull}) ck.site_hist.add(v);
  ck.sdc_site_hist.add(42);
  ck.remark_digest = 0x99aabbccddeeff00ull;
  ck.log_payload_bytes = 2000;
  ck.log_payload_crc = 0x12345678u;
  ck.checkpoints_written = 17;

  const auto path = tmp_path("campaign.ckpt");
  ck.save(path);
  const auto back = swifi::CampaignCheckpoint::load(path);
  EXPECT_EQ(back.config_digest, ck.config_digest);
  EXPECT_EQ(back.shards, ck.shards);
  EXPECT_EQ(back.shard_index, ck.shard_index);
  EXPECT_EQ(back.trials_total, ck.trials_total);
  EXPECT_EQ(back.watermark, ck.watermark);
  EXPECT_EQ(back.counts.failure, ck.counts.failure);
  EXPECT_EQ(back.counts.masked, ck.counts.masked);
  EXPECT_EQ(back.counts.detected_masked, ck.counts.detected_masked);
  EXPECT_EQ(back.counts.detected, ck.counts.detected);
  EXPECT_EQ(back.counts.undetected, ck.counts.undetected);
  EXPECT_EQ(back.counts.not_activated, ck.counts.not_activated);
  EXPECT_EQ(back.counts.race_detected, ck.counts.race_detected);
  EXPECT_EQ(back.counts.barrier_divergence, ck.counts.barrier_divergence);
  EXPECT_EQ(back.counts.ecc_corrected, ck.counts.ecc_corrected);
  EXPECT_EQ(back.counts.ecc_uncorrectable, ck.counts.ecc_uncorrectable);
  EXPECT_TRUE(back.site_hist == ck.site_hist);
  EXPECT_TRUE(back.sdc_site_hist == ck.sdc_site_hist);
  EXPECT_EQ(back.remark_digest, ck.remark_digest);
  EXPECT_EQ(back.log_payload_bytes, ck.log_payload_bytes);
  EXPECT_EQ(back.log_payload_crc, ck.log_payload_crc);
  EXPECT_EQ(back.checkpoints_written, ck.checkpoints_written);
}

TEST(CampaignCheckpointFile, RejectsTrailingPayloadBytes) {
  // A file whose payload is longer than the format (e.g. from a future
  // writer that forgot to bump the version) must not half-parse.
  swifi::CampaignCheckpoint ck;
  const auto path = tmp_path("campaign_trailing.ckpt");
  ck.save(path);
  // Rebuild with one extra payload byte and a fixed-up header via the
  // writer API (hand-editing size+CRC is the reader's own job to catch).
  core::CheckpointWriter w2;
  {
    auto r = core::CheckpointReader::load(path, swifi::kCampaignCheckpointMagic,
                                          swifi::kCampaignCheckpointVersion);
    std::vector<std::uint8_t> payload;
    while (r.remaining() > 0) payload.push_back(r.u8());
    payload.push_back(0x5a);
    w2.bytes(payload);
  }
  w2.save_atomic(path, swifi::kCampaignCheckpointMagic, swifi::kCampaignCheckpointVersion);
  EXPECT_THROW((void)swifi::CampaignCheckpoint::load(path), core::CheckpointError);
}

TEST(CampaignCheckpointFile, RejectsPreEccVersionOne) {
  // Version 1 predates the ECC outcome counters; its payload is two u64s
  // short, so silently accepting it would zero-fill (or worse, shift) the
  // aggregate state.  The reader must reject it outright on the version
  // field, before it ever looks at the payload.
  swifi::CampaignCheckpoint ck;
  ck.counts.masked = 7;
  const auto path = tmp_path("campaign_v1.ckpt");
  ck.save(path);
  core::CheckpointWriter w1;
  {
    auto r = core::CheckpointReader::load(path, swifi::kCampaignCheckpointMagic,
                                          swifi::kCampaignCheckpointVersion);
    // Drop the two trailing-format u64 ECC counters the v2 writer appended
    // after barrier_divergence to fake a faithful v1 payload, not just a
    // v2 payload with a v1 header.
    std::vector<std::uint8_t> payload;
    while (r.remaining() > 0) payload.push_back(r.u8());
    // Fixed-width prefix before the counters: digest(8) + shards(4) +
    // shard_index(4) + trials_total(8) + watermark(8) = 32 bytes, then
    // eight pre-ECC u64 counters; the ECC pair sits at bytes [96, 112).
    payload.erase(payload.begin() + 96, payload.begin() + 112);
    w1.bytes(payload);
  }
  w1.save_atomic(path, swifi::kCampaignCheckpointMagic, /*version=*/1);
  EXPECT_THROW((void)swifi::CampaignCheckpoint::load(path), core::CheckpointError);
}
