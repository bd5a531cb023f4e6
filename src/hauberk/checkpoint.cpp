#include "hauberk/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/bitops.hpp"

namespace hauberk::core {

namespace {

// Little-endian field helpers.  The repo only targets little-endian hosts
// today; the static_assert turns a future big-endian port into a compile
// error instead of silently unreadable checkpoints.
static_assert(std::endian::native == std::endian::little,
              "checkpoint files are defined little-endian");

struct FileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t payload_bytes;
  std::uint32_t payload_crc;
};
constexpr std::size_t kHeaderBytes = 20;  // packed on disk; struct padding ignored

void put_header(std::uint8_t* out, const FileHeader& h) {
  std::memcpy(out, &h.magic, 4);
  std::memcpy(out + 4, &h.version, 4);
  std::memcpy(out + 8, &h.payload_bytes, 8);
  std::memcpy(out + 16, &h.payload_crc, 4);
}

bool read_header(std::FILE* f, FileHeader& h) {
  return std::fread(&h.magic, 4, 1, f) == 1 && std::fread(&h.version, 4, 1, f) == 1 &&
         std::fread(&h.payload_bytes, 8, 1, f) == 1 && std::fread(&h.payload_crc, 4, 1, f) == 1;
}

}  // namespace

void CheckpointWriter::u32(std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  payload_.insert(payload_.end(), p, p + 4);
}

void CheckpointWriter::u64(std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  payload_.insert(payload_.end(), p, p + 8);
}

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void CheckpointWriter::bytes(std::span<const std::uint8_t> data) {
  payload_.insert(payload_.end(), data.begin(), data.end());
}

void CheckpointWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  payload_.insert(payload_.end(), s.begin(), s.end());
}

void CheckpointWriter::save_atomic(const std::string& path, std::uint32_t magic,
                                   std::uint32_t version) const {
  const std::string tmp = path + ".tmp";
  std::vector<std::uint8_t> image(kHeaderBytes + payload_.size());
  put_header(image.data(), {magic, version, payload_.size(),
                            common::crc32(payload_.data(), payload_.size())});
  std::copy(payload_.begin(), payload_.end(), image.begin() + kHeaderBytes);

  // No O_TRUNC: the temp file is the checkpoint before last (see below), so
  // overwriting it in place reuses its allocated blocks instead of creating
  // delayed-allocation data that the rename would have to flush.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) throw CheckpointError("checkpoint: cannot open '" + tmp + "' for writing");
  std::size_t done = 0;
  while (done < image.size()) {
    const ssize_t n = ::pwrite(fd, image.data() + done, image.size() - done,
                               static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  const bool sized =
      done == image.size() && ::ftruncate(fd, static_cast<off_t>(image.size())) == 0;
  if (::close(fd) != 0 || !sized) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: short write to '" + tmp + "'");
  }
  // Swap the names rather than rename over `path`: the old checkpoint's
  // inode becomes the next save's temp file.  On ext4 a rename that
  // replaces a file first flushes the new file's data, so every save would
  // wait on the disk's write-back queue.  Either way `path` names a
  // complete file at every instant.  The first save (no `path` yet) and
  // file systems without RENAME_EXCHANGE rename.
#ifdef RENAME_EXCHANGE
  if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(), RENAME_EXCHANGE) == 0) return;
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint: rename '" + tmp + "' -> '" + path + "' failed");
  }
}

CheckpointReader CheckpointReader::load(const std::string& path, std::uint32_t magic,
                                        std::uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw CheckpointError("checkpoint: cannot open '" + path + "'");
  FileHeader h{};
  std::vector<std::uint8_t> payload;
  bool short_file = false;
  if (!read_header(f, h)) {
    short_file = true;
  } else if (h.magic == magic && h.version == version) {
    // Cap the allocation at the actual file size so a corrupt size field
    // cannot demand gigabytes before the CRC check rejects the file.
    if (std::fseek(f, 0, SEEK_END) != 0) short_file = true;
    const long file_end = std::ftell(f);
    if (file_end < 0 ||
        h.payload_bytes > static_cast<std::uint64_t>(file_end) - kHeaderBytes) {
      short_file = true;
    } else {
      std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET);
      payload.resize(static_cast<std::size_t>(h.payload_bytes));
      if (!payload.empty() &&
          std::fread(payload.data(), 1, payload.size(), f) != payload.size())
        short_file = true;
    }
  }
  std::fclose(f);
  if (short_file)
    throw CheckpointError("checkpoint: '" + path + "' is truncated or unreadable");
  if (h.magic != magic)
    throw CheckpointError("checkpoint: '" + path + "' has wrong magic (not this file kind)");
  if (h.version != version)
    throw CheckpointError("checkpoint: '" + path + "' is format version " +
                          std::to_string(h.version) + ", expected " +
                          std::to_string(version));
  if (common::crc32(payload.data(), payload.size()) != h.payload_crc)
    throw CheckpointError("checkpoint: '" + path + "' failed its CRC (corrupt or torn)");
  return CheckpointReader(path, std::move(payload));
}

void CheckpointReader::need(std::size_t n) const {
  if (payload_.size() - pos_ < n)
    throw CheckpointError("checkpoint: '" + path_ + "' payload exhausted");
}

std::uint8_t CheckpointReader::u8() {
  need(1);
  return payload_[pos_++];
}

std::uint32_t CheckpointReader::u32() {
  need(4);
  std::uint32_t v;
  std::memcpy(&v, payload_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  need(8);
  std::uint64_t v;
  std::memcpy(&v, payload_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

void CheckpointReader::bytes(std::span<std::uint8_t> out) {
  need(out.size());
  std::memcpy(out.data(), payload_.data() + pos_, out.size());
  pos_ += out.size();
}

std::string CheckpointReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(payload_.data() + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace hauberk::core
