// Length-prefixed frame transport for the fleet socket protocol.
//
// Every message between a fleet worker and the coordinator is one frame:
//
//   [u32 payload length, little-endian][u8 type][payload bytes]
//
// Four frame types cover the whole conversation:
//
//   kHello    worker -> coordinator   protocol version + worker id
//   kPublish  worker -> coordinator   encode_publish() body (wire.h)
//   kDelta    coordinator -> worker   encode_delta() body (wire.h)
//   kDone     worker -> coordinator   encode_done() body (core/report_wire.h):
//                                     finalized report, profile/efficacy
//                                     rows, time-series samples
//
// The worker side is blocking (send_frame/recv_frame over its one socket);
// the coordinator side is non-blocking — it feeds whatever poll() delivered
// into a per-connection FrameBuffer and pops complete frames, so one slow
// worker can never stall the loop. Both sides are EINTR- and
// short-read/short-write-safe. A length prefix beyond kMaxFramePayload is
// treated as a protocol error, not an allocation request.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace torpedo::fleet {

enum class FrameType : std::uint8_t {
  kHello = 1,
  kPublish = 2,
  kDelta = 3,
  kDone = 4,
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// Corpus publications are bounded by kMaxListLength entries (wire.cpp);
// 64 MiB leaves an order of magnitude of headroom over any real batch. A
// kDone body carries every provenance record of the worker, each smaller
// on the wire than its bundle.json (at most ~370 KB in a 2-batch fleet
// run), so the bound also holds well over a hundred findings per worker.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

// [len][type][payload] as one contiguous byte string.
std::string encode_frame(FrameType type, std::string_view payload);

// Blocking full write of one frame. False on any write error (EPIPE, ...).
bool send_frame(int fd, FrameType type, std::string_view payload);

// Blocking full read of one frame. False on EOF, error, or an oversized
// length prefix.
bool recv_frame(int fd, Frame* out);

// Reassembles frames from arbitrarily-chunked reads (the coordinator's
// poll() loop). append() raw bytes as they arrive; next() pops the next
// complete frame. An oversized length prefix poisons the buffer: error()
// turns true and next() never yields again — the owner drops the peer.
class FrameBuffer {
 public:
  void append(const char* data, std::size_t n);
  bool next(Frame* out);
  bool error() const { return error_; }
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool error_ = false;
};

// send(2) until all of `data` is on the wire; EINTR-safe, and a closed peer
// is a false return rather than SIGPIPE. Shared by the frame senders above.
bool write_all(int fd, const char* data, std::size_t n);

}  // namespace torpedo::fleet
