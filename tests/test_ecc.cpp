// ECC/EDC protected-memory backend tests (gpusim/ecc.hpp + DeviceMemory
// protected mode).
//
// The codeword sweeps are exhaustive, not sampled: every one of the 72
// single-bit flips must correct back to the original pair, and every one of
// the 72*71/2 double-bit flips must be flagged uncorrectable, for BOTH
// schemes — that is the SEC-DED contract the campaign outcome taxonomy
// (EccCorrected / EccDetectedUncorrectable) is built on.  Golden check bytes
// are pinned as literals so an H-matrix change can never slip through as
// "still self-consistent": the stored codeword format is part of trial
// staging (TrialStage snapshots check_image()) and must stay stable.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/ecc.hpp"
#include "gpusim/memory.hpp"
#include "swifi/campaign.hpp"
#include "workloads/workload.hpp"

namespace ecc = hauberk::gpusim::ecc;
using hauberk::gpusim::DeviceMemory;
using hauberk::gpusim::MemoryModel;

namespace {

constexpr ecc::Scheme kSchemes[] = {ecc::Scheme::Hamming, ecc::Scheme::Hsiao};

// Data patterns the sweeps run under: zero, single bits at both ends, all
// ones, half masks, alternating masks, and irregular fills.
constexpr std::uint64_t kPatterns[] = {
    0x0ull,
    0x1ull,
    0x8000000000000000ull,
    0xFFFFFFFFFFFFFFFFull,
    0x00000000FFFFFFFFull,
    0xAAAAAAAAAAAAAAAAull,
    0x5555555555555555ull,
    0xDEADBEEFCAFEBABEull,
    0x0123456789ABCDEFull,
    0x00000001000000FEull,
};

/// Flip code bit `pos` (0..71) of a (data, check) pair.
void flip(std::uint64_t& data, std::uint8_t& check, int pos) {
  if (pos < ecc::kDataBits)
    data ^= 1ull << pos;
  else
    check ^= static_cast<std::uint8_t>(1u << (pos - ecc::kDataBits));
}

}  // namespace

// ---------------------------------------------------------------------------
// Codeword algebra
// ---------------------------------------------------------------------------

TEST(EccCode, GoldenCheckBytesHamming) {
  // Pinned against the systematic extended-Hamming construction; any change
  // to the H matrix breaks every stored checkpoint/stage image.
  const ecc::Code& c = ecc::code(ecc::Scheme::Hamming);
  const std::uint8_t golden[] = {0x00, 0x83, 0xC7, 0xFF, 0x18,
                                 0xAA, 0x55, 0x3A, 0x9C, 0x27};
  for (std::size_t i = 0; i < std::size(kPatterns); ++i)
    EXPECT_EQ(ecc::encode(c, kPatterns[i]), golden[i]) << "pattern " << i;
}

TEST(EccCode, GoldenCheckBytesHsiao) {
  const ecc::Code& c = ecc::code(ecc::Scheme::Hsiao);
  const std::uint8_t golden[] = {0x00, 0x07, 0x57, 0xD8, 0x03,
                                 0xD7, 0x0F, 0xD2, 0x42, 0x65};
  for (std::size_t i = 0; i < std::size(kPatterns); ++i)
    EXPECT_EQ(ecc::encode(c, kPatterns[i]), golden[i]) << "pattern " << i;
}

TEST(EccCode, ByteSlicedEncodeMatchesRowParities) {
  // encode() XORs eight byte-table entries; its definition is one parity per
  // H-matrix row.  The two must agree on every single-bit word (each data
  // column) and on random words, for both schemes.
  const auto parities = [](const ecc::Code& c, std::uint64_t data) {
    std::uint8_t check = 0;
    for (int j = 0; j < ecc::kCheckBits; ++j)
      check |= static_cast<std::uint8_t>((std::popcount(data & c.row[j]) & 1) << j);
    return check;
  };
  for (const auto scheme : kSchemes) {
    const ecc::Code& c = ecc::code(scheme);
    for (int k = 0; k < ecc::kDataBits; ++k) {
      EXPECT_EQ(ecc::encode(c, 1ull << k), parities(c, 1ull << k))
          << ecc::scheme_name(scheme) << " bit " << k;
      EXPECT_EQ(ecc::encode(c, 1ull << k), c.column[k])
          << ecc::scheme_name(scheme) << " bit " << k;
    }
    hauberk::common::Rng rng(0xecc0 + static_cast<std::uint64_t>(scheme));
    for (int i = 0; i < 4096; ++i) {
      const std::uint64_t data = rng.next_u64();
      ASSERT_EQ(ecc::encode(c, data), parities(c, data))
          << ecc::scheme_name(scheme) << " data " << data;
    }
  }
}

TEST(EccCode, ColumnsAreDistinctAndOddWeight) {
  // Odd-weight, distinct columns are the whole SEC-DED argument: singles hit
  // a column (correctable), doubles XOR to even weight (never a column).
  for (const auto scheme : kSchemes) {
    const ecc::Code& c = ecc::code(scheme);
    std::set<std::uint8_t> seen;
    for (int k = 0; k < ecc::kCodeBits; ++k) {
      EXPECT_EQ(std::popcount(c.column[k]) % 2, 1)
          << ecc::scheme_name(scheme) << " column " << k;
      EXPECT_TRUE(seen.insert(c.column[k]).second)
          << ecc::scheme_name(scheme) << " duplicate column " << k;
      EXPECT_EQ(c.locate[c.column[k]], k)
          << ecc::scheme_name(scheme) << " locate mismatch at " << k;
    }
  }
}

TEST(EccCode, CleanPairsDecodeAsNoError) {
  for (const auto scheme : kSchemes) {
    const ecc::Code& c = ecc::code(scheme);
    for (const std::uint64_t p : kPatterns) {
      const auto d = ecc::decode(c, p, ecc::encode(c, p));
      EXPECT_EQ(d.bit, ecc::kNoError);
      EXPECT_EQ(d.data, p);
    }
  }
}

TEST(EccCode, EverySingleBitFlipIsCorrected) {
  // Exhaustive: all 72 code-bit positions, every pattern, both schemes.
  for (const auto scheme : kSchemes) {
    const ecc::Code& c = ecc::code(scheme);
    for (const std::uint64_t p : kPatterns) {
      const std::uint8_t check = ecc::encode(c, p);
      for (int pos = 0; pos < ecc::kCodeBits; ++pos) {
        std::uint64_t data = p;
        std::uint8_t chk = check;
        flip(data, chk, pos);
        const auto d = ecc::decode(c, data, chk);
        ASSERT_EQ(d.bit, pos) << ecc::scheme_name(scheme) << " flip at " << pos;
        ASSERT_EQ(d.data, p) << ecc::scheme_name(scheme) << " flip at " << pos;
        ASSERT_EQ(d.check, check) << ecc::scheme_name(scheme) << " flip at " << pos;
      }
    }
  }
}

TEST(EccCode, EveryDoubleBitFlipIsUncorrectable) {
  // Exhaustive: all 72*71/2 = 2556 unordered position pairs, both schemes.
  // A double-bit error must never be "corrected" into wrong data.
  for (const auto scheme : kSchemes) {
    const ecc::Code& c = ecc::code(scheme);
    int pairs = 0;
    for (const std::uint64_t p : {0x0ull, 0xDEADBEEFCAFEBABEull}) {
      const std::uint8_t check = ecc::encode(c, p);
      pairs = 0;
      for (int i = 0; i < ecc::kCodeBits; ++i) {
        for (int j = i + 1; j < ecc::kCodeBits; ++j) {
          std::uint64_t data = p;
          std::uint8_t chk = check;
          flip(data, chk, i);
          flip(data, chk, j);
          const auto d = ecc::decode(c, data, chk);
          ASSERT_EQ(d.bit, ecc::kUncorrectable)
              << ecc::scheme_name(scheme) << " flips at " << i << "," << j;
          ++pairs;
        }
      }
    }
    EXPECT_EQ(pairs, 72 * 71 / 2);
  }
}

TEST(EccCode, SchemeNamesRoundTrip) {
  for (const auto scheme : {ecc::Scheme::None, ecc::Scheme::Hamming, ecc::Scheme::Hsiao}) {
    ecc::Scheme parsed{};
    ASSERT_TRUE(ecc::parse_scheme(ecc::scheme_name(scheme), parsed));
    EXPECT_EQ(parsed, scheme);
  }
  ecc::Scheme out{};
  EXPECT_FALSE(ecc::parse_scheme("secded", out));
  EXPECT_FALSE(ecc::parse_scheme("", out));
}

// ---------------------------------------------------------------------------
// DeviceMemory protected mode
// ---------------------------------------------------------------------------

namespace {

struct ProtectedMem : ::testing::TestWithParam<ecc::Scheme> {};

}  // namespace

TEST_P(ProtectedMem, SingleBitDataFaultCorrectedAndScrubbed) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(8);
  const std::uint32_t vals[] = {0x11111111u, 0x22222222u, 0x33333333u, 0x44444444u};
  mem.copy_in(base, vals);

  mem.corrupt_word(base + 1, 0x40u);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base + 1, out));
  EXPECT_EQ(out, 0x22222222u);
  EXPECT_EQ(mem.ecc_corrected(), 1u);
  // The scrub wrote the corrected pair back: the next access takes the clean
  // fast path and the counter must not move again.
  ASSERT_TRUE(mem.load(base + 1, out));
  EXPECT_EQ(out, 0x22222222u);
  EXPECT_EQ(mem.ecc_corrected(), 1u);
}

TEST_P(ProtectedMem, SingleBitCheckFaultCorrected) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0xCAFEBABEu, 0xDEADBEEFu};
  mem.copy_in(base, vals);

  mem.corrupt_check(base, 0x10u);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base, out));
  EXPECT_EQ(out, 0xCAFEBABEu);
  EXPECT_EQ(mem.ecc_corrected(), 1u);
  EXPECT_EQ(mem.ecc_uncorrectable(), 0u);
}

TEST_P(ProtectedMem, DoubleBitDataFaultUncorrectable) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0x01020304u, 0x05060708u};
  mem.copy_in(base, vals);

  mem.corrupt_word(base, 0x3u);  // two bits in one word -> one pair
  std::uint32_t out = 0;
  EXPECT_FALSE(mem.load(base, out));
  EXPECT_TRUE(DeviceMemory::last_fault_uncorrectable());
  EXPECT_EQ(mem.ecc_uncorrectable(), 1u);
  EXPECT_EQ(mem.ecc_corrected(), 0u);
}

TEST_P(ProtectedMem, DataPlusCheckDoubleFaultUncorrectable) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0xA5A5A5A5u, 0x5A5A5A5Au};
  mem.copy_in(base, vals);

  mem.corrupt_word(base, 0x1u);
  mem.corrupt_check(base, 0x1u);
  std::uint32_t out = 0;
  EXPECT_FALSE(mem.load(base, out));
  EXPECT_TRUE(DeviceMemory::last_fault_uncorrectable());
  EXPECT_EQ(mem.ecc_uncorrectable(), 1u);
}

TEST_P(ProtectedMem, StoreCorrectsLatentSiblingFault) {
  // A 32-bit store is an RMW of the 64-bit codeword: a latent single-bit
  // error in the sibling word must be corrected (and counted), never
  // laundered into the freshly encoded pair.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0x10203040u, 0x50607080u};
  mem.copy_in(base, vals);

  mem.corrupt_word(base, 0x80000000u);
  ASSERT_TRUE(mem.store(base + 1, 0x99999999u));
  EXPECT_EQ(mem.ecc_corrected(), 1u);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base, out));
  EXPECT_EQ(out, 0x10203040u);
  ASSERT_TRUE(mem.load(base + 1, out));
  EXPECT_EQ(out, 0x99999999u);
  EXPECT_EQ(mem.ecc_corrected(), 1u);
}

TEST_P(ProtectedMem, StoreToUncorrectablePairFails) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0x1u, 0x2u};
  mem.copy_in(base, vals);

  mem.corrupt_word(base, 0x6u);
  EXPECT_FALSE(mem.store(base + 1, 0x7u));
  EXPECT_TRUE(DeviceMemory::last_fault_uncorrectable());
  EXPECT_EQ(mem.ecc_uncorrectable(), 1u);
}

TEST_P(ProtectedMem, DatapathFaultThroughStoreIsInvisible) {
  // ECC re-encodes on store: a wrong value arriving through the datapath is
  // a valid codeword and reads back clean — the gap Hauberk exists to fill.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(2);
  ASSERT_TRUE(mem.store(base, 0xBAD0BAD0u));
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base, out));
  EXPECT_EQ(out, 0xBAD0BAD0u);
  EXPECT_EQ(mem.ecc_corrected(), 0u);
  EXPECT_EQ(mem.ecc_uncorrectable(), 0u);
}

TEST_P(ProtectedMem, OutOfBoundsIsNotAnEccFault) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  std::uint32_t out = 0;
  EXPECT_FALSE(mem.load(1u << 20, out));
  EXPECT_FALSE(DeviceMemory::last_fault_uncorrectable());
}

TEST_P(ProtectedMem, FlatArenaFastPathIsDisabled) {
  // Protected mode must route the threaded engine's flat-arena accesses
  // through load()/store(), or reads would skip the EDC check entirely.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  EXPECT_TRUE(mem.flat_arena().empty());
  DeviceMemory plain(MemoryModel::FlatGpu, 1u << 12, ecc::Scheme::None);
  EXPECT_FALSE(plain.flat_arena().empty());
}

TEST_P(ProtectedMem, RmwChecksAndReencodes) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(2);
  ASSERT_TRUE(mem.store(base, 40u));
  mem.corrupt_word(base, 0x2u);  // 40 ^ 2 = 42's neighbour; single bit
  ASSERT_TRUE(mem.rmw(base, [](std::uint32_t v) { return v + 2; }));
  EXPECT_EQ(mem.ecc_corrected(), 1u);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base, out));
  EXPECT_EQ(out, 42u);
}

TEST_P(ProtectedMem, PagedCpuProtectionWorksOnStorageIndices) {
  // corrupt_word takes physical (image) indices; under PagedCpu those are
  // storage offsets, not virtual addresses.  The campaign memory-fault path
  // relies on this correspondence.
  DeviceMemory mem(MemoryModel::PagedCpu, 1u << 12, GetParam());
  const auto a = mem.alloc(4);
  const std::uint32_t vals[] = {7u, 8u, 9u, 10u};
  mem.copy_in(a, vals);
  mem.corrupt_word(0, 0x4u);  // physical word 0 backs the first allocation
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(a, out));
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(mem.ecc_corrected(), 1u);
}

TEST_P(ProtectedMem, RestoreTrialRestoresCheckArenaBitwise) {
  // Satellite regression: a re-staged trial must start from bitwise-identical
  // check bits, not merely re-encoded-equivalent ones.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(8);
  const std::uint32_t vals[] = {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};
  mem.copy_in(base, vals);
  const auto img = mem.image();
  const auto chk = mem.check_image();

  // A "trial": plant a raw fault, scribble some stores, trigger a scrub.
  mem.corrupt_word(base + 2, 0x8u);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base + 2, out));
  ASSERT_TRUE(mem.store(base + 5, 0xFEEDFACEu));

  mem.restore_trial(img, chk);
  EXPECT_EQ(mem.image(), img);
  EXPECT_EQ(mem.check_image(), chk);

  // And the restored state matches a fresh identically-staged device.
  DeviceMemory fresh(MemoryModel::FlatGpu, 1u << 12, GetParam());
  (void)fresh.alloc(8);
  fresh.copy_in(base, vals);
  EXPECT_EQ(mem.image(), fresh.image());
  EXPECT_EQ(mem.check_image(), fresh.check_image());
}

TEST_P(ProtectedMem, RestoreTrialWithoutCheckImageReencodes) {
  // Callers that predate protection pass no check image; the fallback
  // re-encode must still leave a clean, consistent codeword arena.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(4);
  const std::uint32_t vals[] = {0xAAu, 0xBBu, 0xCCu, 0xDDu};
  mem.copy_in(base, vals);
  const auto img = mem.image();
  const auto chk = mem.check_image();

  mem.corrupt_check(base, 0x2u);
  mem.restore_trial(img);
  EXPECT_EQ(mem.check_image(), chk);
  std::uint32_t out = 0;
  ASSERT_TRUE(mem.load(base, out));
  EXPECT_EQ(out, 0xAAu);
  EXPECT_EQ(mem.ecc_corrected(), 0u);
}

TEST_P(ProtectedMem, CopyOutCorrectsLatentPairsInsideTheRangeOnly) {
  // copy_out corrects every pair with a word inside the range (straddling
  // pairs included) as a per-word read would, and leaves the others latent.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(16);
  std::vector<std::uint32_t> vals(16);
  for (std::uint32_t i = 0; i < 16; ++i) vals[i] = 0x1000u * (i + 1) + i;
  mem.copy_in(base, vals);
  const auto chk = mem.check_image();
  mem.corrupt_word(base + 1, 0x10u);   // pair 0: straddles the range start
  mem.corrupt_check(base + 4, 0x8u);   // pair 2: inside
  mem.corrupt_word(base + 8, 0x1u);    // pair 4: straddles the range end
  mem.corrupt_word(base + 12, 0x4u);   // pair 6: outside
  std::vector<std::uint32_t> out(8);
  mem.copy_out(base + 1, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>(vals.begin() + 1, vals.begin() + 9));
  EXPECT_EQ(mem.ecc_corrected(), 3u);
  ASSERT_EQ(mem.latent_pairs().size(), 1u);
  EXPECT_EQ(mem.latent_pairs()[0], (base + 12) / 2);
  EXPECT_EQ(mem.image()[base + 12], vals[12] ^ 0x4u);  // still upset
  std::vector<std::uint32_t> all(16);
  mem.copy_out(base, all);
  EXPECT_EQ(all, vals);
  EXPECT_EQ(mem.ecc_corrected(), 4u);
  EXPECT_EQ(mem.check_image(), chk);
}

TEST_P(ProtectedMem, CopyOutThrowsAtTheFirstUncorrectablePair) {
  // Pairs are corrected in address order up to the first uncorrectable one,
  // which throws with the uncorrectable flag raised; later pairs stay latent.
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  const auto base = mem.alloc(8);
  const std::uint32_t vals[] = {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};
  mem.copy_in(base, vals);
  mem.corrupt_word(base + 6, 0x1u);  // correctable, above the bad pair
  mem.corrupt_word(base + 2, 0x6u);  // uncorrectable
  mem.corrupt_word(base, 0x100u);    // correctable, below it
  std::vector<std::uint32_t> out(8);
  EXPECT_THROW(mem.copy_out(base, out), std::out_of_range);
  EXPECT_TRUE(DeviceMemory::last_fault_uncorrectable());
  EXPECT_EQ(mem.ecc_corrected(), 1u);
  EXPECT_EQ(mem.ecc_uncorrectable(), 1u);
  std::vector<std::uint32_t> below(2);
  mem.copy_out(base, below);
  EXPECT_EQ(below, std::vector<std::uint32_t>({1u, 2u}));
  EXPECT_EQ(mem.ecc_corrected(), 1u);  // corrected by the throwing copy already
  std::vector<std::uint32_t> above(2);
  mem.copy_out(base + 6, above);
  EXPECT_EQ(above, std::vector<std::uint32_t>({7u, 8u}));
  EXPECT_EQ(mem.ecc_corrected(), 2u);
}

TEST_P(ProtectedMem, CopyOutOfRangeThrowsAsAnAddressFault) {
  DeviceMemory mem(MemoryModel::FlatGpu, 1u << 12, GetParam());
  (void)mem.alloc(8);
  std::vector<std::uint32_t> out(4);
  EXPECT_THROW(mem.copy_out((1u << 12) - 2, out), std::out_of_range);
  EXPECT_FALSE(DeviceMemory::last_fault_uncorrectable());
  EXPECT_THROW(mem.copy_out(~std::uint32_t{0}, out), std::out_of_range);
  EXPECT_NO_THROW(mem.copy_out((1u << 12) - 4, out));
  EXPECT_NO_THROW(mem.copy_out(~std::uint32_t{0}, std::span<std::uint32_t>{}));
}

INSTANTIATE_TEST_SUITE_P(Schemes, ProtectedMem,
                         ::testing::Values(ecc::Scheme::Hamming, ecc::Scheme::Hsiao),
                         [](const auto& info) {
                           return std::string(ecc::scheme_name(info.param));
                         });

// ---------------------------------------------------------------------------
// TrialStage integration: staged check bits across real trials
// ---------------------------------------------------------------------------

TEST(EccTrialStage, RestagedTrialHasBitwiseIdenticalCheckBits) {
  auto suite = hauberk::workloads::hpc_suite();
  auto& w = suite[0];
  const auto ds = w->make_dataset(1, hauberk::workloads::Scale::Tiny);
  auto job = w->make_job(ds);

  hauberk::gpusim::DeviceProps props;
  props.protection = ecc::Scheme::Hsiao;
  hauberk::gpusim::Device dev(props);
  hauberk::swifi::TrialStage stage(dev, *job);

  (void)stage.stage();
  const auto img = dev.mem().image();
  const auto chk = dev.mem().check_image();
  ASSERT_FALSE(chk.empty());

  // Dirty the arena the way a faulty trial would, then re-stage.
  dev.mem().corrupt_word(0, 0x1u);
  dev.mem().corrupt_check(2, 0x4u);
  (void)stage.stage();
  EXPECT_EQ(dev.mem().image(), img);
  EXPECT_EQ(dev.mem().check_image(), chk);

  // Bitwise identical to a never-corrupted device staged the same way.
  hauberk::gpusim::Device fresh(props);
  auto fjob = w->make_job(ds);
  (void)fjob->setup(fresh);
  EXPECT_EQ(dev.mem().image(), fresh.mem().image());
  EXPECT_EQ(dev.mem().check_image(), fresh.mem().check_image());
}
