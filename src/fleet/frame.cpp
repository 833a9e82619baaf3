#include "fleet/frame.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

namespace torpedo::fleet {

namespace {

constexpr std::size_t kHeaderBytes = 5;  // u32 length + u8 type

std::uint32_t read_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

// read(2) exactly n bytes; false on EOF or error.
bool read_all(int fd, char* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::read(fd, data + done, n - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return false;  // EOF (0) or hard error
  }
  return true;
}

}  // namespace

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a peer that died mid-epoch must surface as a failed
    // send, not a SIGPIPE that kills this process.
    const ssize_t sent = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (sent > 0) {
      done += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  out.push_back(static_cast<char>(type));
  out.append(payload.data(), payload.size());
  return out;
}

bool send_frame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return false;
  const std::string frame = encode_frame(type, payload);
  return write_all(fd, frame.data(), frame.size());
}

bool recv_frame(int fd, Frame* out) {
  char header[kHeaderBytes];
  if (!read_all(fd, header, kHeaderBytes)) return false;
  const std::uint32_t len = read_u32le(header);
  if (len > kMaxFramePayload) return false;
  out->type = static_cast<FrameType>(header[4]);
  out->payload.resize(len);
  return len == 0 || read_all(fd, out->payload.data(), len);
}

void FrameBuffer::append(const char* data, std::size_t n) {
  if (error_) return;
  buf_.append(data, n);
}

bool FrameBuffer::next(Frame* out) {
  if (error_ || buf_.size() < kHeaderBytes) return false;
  const std::uint32_t len = read_u32le(buf_.data());
  if (len > kMaxFramePayload) {
    error_ = true;
    return false;
  }
  if (buf_.size() < kHeaderBytes + len) return false;
  out->type = static_cast<FrameType>(buf_[4]);
  out->payload.assign(buf_, kHeaderBytes, len);
  buf_.erase(0, kHeaderBytes + len);
  return true;
}

}  // namespace torpedo::fleet
