#include "storage/format.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/checksum.h"
#include "net/wire_protocol.h"

namespace cgq {
namespace storage {

namespace {

std::string MagicName(uint32_t magic) {
  switch (magic) {
    case kBlockMagic:
      return "block";
    case kWalMagic:
      return "commit log";
    case kManifestMagic:
      return "manifest";
  }
  return "frame";
}

/// The checksum seed binds the header fields the payload length and
/// checksum do not already pin.
uint64_t FrameSeed(uint32_t magic, uint16_t version, uint16_t type) {
  return uint64_t{magic} | (uint64_t{version} << 32) | (uint64_t{type} << 48);
}

}  // namespace

Result<std::string> EncodeFileFrame(uint32_t magic, uint16_t type,
                                    const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        MagicName(magic) + " payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte frame limit");
  }
  wire::Writer w;
  w.PutU32(magic);
  w.PutU16(kFormatVersion);
  w.PutU16(type);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU64(Checksum64(reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size(), FrameSeed(magic, kFormatVersion, type)));
  std::string frame = w.Take();
  frame += payload;
  return frame;
}

Result<FileFrameHeader> DecodeFileFrameHeader(uint32_t magic,
                                              const uint8_t* data, size_t len,
                                              const std::string& what) {
  wire::Reader r(data, len);
  CGQ_ASSIGN_OR_RETURN(uint32_t got_magic, r.U32());
  if (got_magic != magic) {
    return Status::DataLoss(what + ": bad " + MagicName(magic) + " magic 0x" +
                            [&] {
                              char buf[16];
                              std::snprintf(buf, sizeof(buf), "%08x",
                                            got_magic);
                              return std::string(buf);
                            }());
  }
  FileFrameHeader header;
  header.magic = got_magic;
  CGQ_ASSIGN_OR_RETURN(header.version, r.U16());
  CGQ_ASSIGN_OR_RETURN(header.type, r.U16());
  CGQ_ASSIGN_OR_RETURN(header.payload_len, r.U32());
  CGQ_ASSIGN_OR_RETURN(header.checksum, r.U64());
  if (header.version != kFormatVersion) {
    return Status::Unsupported(what + ": " + MagicName(magic) +
                               " format version " +
                               std::to_string(header.version) +
                               " is not supported (this build reads "
                               "version " +
                               std::to_string(kFormatVersion) + ")");
  }
  if (header.payload_len > kMaxFrameBytes) {
    return Status::DataLoss(what + ": " + MagicName(magic) + " claims " +
                            std::to_string(header.payload_len) +
                            " payload bytes (limit " +
                            std::to_string(kMaxFrameBytes) + ")");
  }
  return header;
}

Status VerifyFilePayload(const FileFrameHeader& header, const uint8_t* payload,
                         const std::string& what) {
  uint64_t got =
      Checksum64(payload, header.payload_len,
                 FrameSeed(header.magic, header.version, header.type));
  if (got != header.checksum) {
    return Status::DataLoss(what + ": checksum mismatch (stored " +
                            std::to_string(header.checksum) + ", computed " +
                            std::to_string(got) + ")");
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    if (err == ENOENT) return Status::NotFound(path + ": no such file");
    return Status::Unavailable(path + ": open failed: " +
                               std::strerror(err));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable(path + ": stat failed: " +
                               std::strerror(err));
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      ::close(fd);
      return Status::Unavailable(path + ": read failed: " +
                                 std::strerror(err));
    }
    if (n == 0) break;  // shrank since fstat: return what is there
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return bytes;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Unavailable(tmp + ": open failed");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) return Status::Unavailable(tmp + ": write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Unavailable(path + ": rename failed: " + ec.message());
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace cgq
