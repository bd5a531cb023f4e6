// Checkpoint support (Section VI(i)): the paper optionally links CheCUDA
// [25] so the guardian can restore the latest checkpoint instead of
// restarting the whole program when a GPU kernel fails.
//
// Two layers live here:
//
//  * Checkpoint — the original in-memory device snapshot: captures device
//    memory (the kernel's input state) right before a launch; restore()
//    writes the image back over the same allocation layout, which is much
//    cheaper than re-staging the inputs from the host.
//
//  * CheckpointWriter / CheckpointReader — the on-disk generalization the
//    campaign service builds on: a versioned binary file whose payload is
//    CRC-32-guarded and whose write is atomic (temp file + name swap), so a
//    process killed mid-write can never leave a checkpoint that parses as a
//    newer-but-torn state.  Readers reject wrong magic, wrong version,
//    truncation and bit flips with a CheckpointError instead of resuming
//    from garbage.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "kir/value.hpp"

namespace hauberk::core {

/// Any failure loading or saving an on-disk checkpoint: I/O error, wrong
/// magic, version mismatch, truncated payload, CRC mismatch, exhausted
/// reader.  The message names the file and the specific defect.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Builds the payload of one checkpoint file field by field, then writes it
/// atomically.  File layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic (caller-chosen, identifies the checkpoint kind)
///   4       4     version (caller-chosen; readers reject mismatches)
///   8       8     payload size in bytes
///   16      4     CRC-32 of the payload bytes
///   20      n     payload
///
/// save_atomic() writes the file image to `path + ".tmp"` and then swaps
/// the two names (rename(2) where a swap is not available), so the previous
/// checkpoint survives a process killed during the write and a stale temp
/// file left by a killed run is simply overwritten next time.  After a swap
/// the temp file holds the checkpoint before the new one; loaders never
/// read it.  Neither file is fsync'ed: a save is atomic, not durable.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { payload_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed string.
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept { return payload_; }

  /// Atomically write magic + version + guarded payload to `path`.
  /// Throws CheckpointError on any I/O failure.
  void save_atomic(const std::string& path, std::uint32_t magic, std::uint32_t version) const;

 private:
  std::vector<std::uint8_t> payload_;
};

/// Loads and validates a checkpoint file, then hands the payload back field
/// by field in write order.  Every getter throws CheckpointError when the
/// payload is exhausted (a short read can only come from a file that lied
/// about its size and still matched the CRC — treat it as corruption).
class CheckpointReader {
 public:
  /// Read `path`, validating magic, version and payload CRC.
  [[nodiscard]] static CheckpointReader load(const std::string& path, std::uint32_t magic,
                                             std::uint32_t version);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  void bytes(std::span<std::uint8_t> out);
  [[nodiscard]] std::string str();

  [[nodiscard]] std::size_t remaining() const noexcept { return payload_.size() - pos_; }

 private:
  CheckpointReader(std::string path, std::vector<std::uint8_t> payload)
      : path_(std::move(path)), payload_(std::move(payload)) {}

  void need(std::size_t n) const;

  std::string path_;
  std::vector<std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

class Checkpoint {
 public:
  /// Snapshot device memory and the kernel arguments.  Call after job
  /// setup, before the launch.
  void capture(const gpusim::Device& dev, std::vector<kir::Value> args) {
    image_ = dev.mem().image();
    args_ = std::move(args);
    valid_ = true;
  }

  /// Restore the captured memory image.  The device's allocation layout
  /// must be unchanged since capture (true within one job's lifetime: the
  /// interpreter never allocates).
  void restore(gpusim::Device& dev) const {
    dev.mem().restore(image_);
  }

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] const std::vector<kir::Value>& args() const noexcept { return args_; }
  [[nodiscard]] std::size_t image_words() const noexcept { return image_.size(); }

  void invalidate() noexcept {
    valid_ = false;
    image_.clear();
    args_.clear();
  }

 private:
  std::vector<std::uint32_t> image_;
  std::vector<kir::Value> args_;
  bool valid_ = false;
};

}  // namespace hauberk::core
