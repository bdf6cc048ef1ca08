#ifndef SURFER_NET_FRAME_H_
#define SURFER_NET_FRAME_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "runtime/wire_batch.h"

namespace surfer {
namespace net {

/// Frame magic: "SRFR" little-endian. The first four bytes of every frame on
/// every surfer connection, so a stray connection (or a desynchronized
/// stream) fails at decode time instead of being misparsed.
inline constexpr uint32_t kFrameMagic = 0x52465253u;

/// Version of the frame layout *and* of the WireBatch encoding it carries.
/// Bumped whenever WireSegmentHeader, the record encodings, or the frame
/// header itself change shape; both ends must agree exactly.
/// v2: header grew link_seq + send_unix_us stamps (causal tracing), and the
/// heartbeat/clock-sync frame types appeared.
inline constexpr uint16_t kFrameVersion = 2;

/// Upper bound on a single frame payload. Far above anything the stager
/// seals (64 KiB default cap) but low enough that a corrupt length field
/// cannot drive a multi-gigabyte allocation.
inline constexpr uint64_t kMaxFramePayloadBytes = 1ull << 30;

/// Every message on the control plane (coordinator <-> worker) and the data
/// mesh (worker <-> worker) is one typed frame.
enum class FrameType : uint16_t {
  // Control plane.
  kHello = 1,        ///< worker -> coordinator: process index + mesh port
  kPeers = 2,        ///< coordinator -> workers: mesh port of every process
  kPlacement = 3,    ///< coordinator -> workers: replica table + fault plans
  kReady = 4,        ///< worker -> coordinator: mesh fully connected
  kRound = 5,        ///< coordinator -> workers: one BSP round assignment
  kTaskDone = 6,     ///< worker -> coordinator: one task completed
  kRoundDone = 7,    ///< worker -> coordinator: round barrier reached
  kFinalize = 8,     ///< coordinator -> workers: send results
  kWorkerStats = 9,  ///< worker -> coordinator: merged counters + link matrix
  kFinalState = 10,  ///< worker -> coordinator: one partition's vertex states
  kFinalVirtual = 11,  ///< worker -> coordinator: virtual vertex outputs
  kWorkerReport = 12,  ///< worker -> coordinator: run-report JSON text
  kFinalDone = 13,   ///< worker -> coordinator: result stream complete;
                     ///< the worker then waits for the next kJob
  kHeartbeat = 15,   ///< worker -> coordinator: periodic liveness + load
  kJob = 16,         ///< coordinator -> workers: start one job (app bytes)
  // Data mesh.
  kMeshHello = 20,   ///< connecting worker identifies its process index
  kData = 21,        ///< one serialized WireBatch
  kStateUpdate = 22,  ///< post-combine state replication to replica holders
  kEos = 23,         ///< sender finished sending for round `seq`
  /// Receiver-side acknowledgement of one kData/kStateUpdate frame
  /// (fault-tolerant runs only). A dying process may not close its sockets
  /// until every frame it sent has been *consumed* by the peer's receiver
  /// thread: a TCP close with unread inbound data degenerates to RST, which
  /// can discard in-flight bytes — exactly the completed-task output that
  /// Appendix B requires to survive the crash.
  kDataAck = 24,
  // Clock-sync session during the mesh rendezvous (NTP-style): the client
  // sends kPing, the server echoes the ping's send/recv stamps in kPong,
  // and the client closes the session with its kClockOffset estimate.
  kPing = 25,
  kPong = 26,
  kClockOffset = 27,
};

/// Microseconds since the Unix epoch; the clock every frame stamp, clock
/// offset, and trace anchor is expressed in.
uint64_t NowUnixUs();

/// The 32-byte length-prefixed frame header. `payload_bytes` bytes follow.
/// `link_seq` is the per-link monotone frame counter and `send_unix_us` the
/// sender's wall clock at write time; together with the receive timestamp
/// recorded by ReadFrame they give every frame a causal identity without
/// touching the payload encodings.
struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint16_t version = kFrameVersion;
  uint16_t type = 0;
  uint64_t payload_bytes = 0;
  uint64_t link_seq = 0;
  uint64_t send_unix_us = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 32);

struct Frame {
  FrameType type{};  ///< 0 names no frame type until a frame is read
  std::vector<uint8_t> payload;
  uint64_t link_seq = 0;      ///< sender's per-link frame counter
  uint64_t send_unix_us = 0;  ///< sender's clock at WriteFrame
  uint64_t recv_unix_us = 0;  ///< receiver's clock when ReadFrame decoded it
};

/// Writes one frame (header + payload) to the socket.
Status WriteFrame(Socket& sock, FrameType type,
                  const void* payload, size_t payload_bytes);
inline Status WriteFrame(Socket& sock, FrameType type,
                         const std::vector<uint8_t>& payload) {
  return WriteFrame(sock, type, payload.data(), payload.size());
}
inline Status WriteFrame(Socket& sock, FrameType type) {
  return WriteFrame(sock, type, nullptr, 0);
}

/// Reads one frame. Distinguishes the failure modes a process boundary
/// introduces: a clean EOF between frames returns kUnavailable (orderly peer
/// exit); EOF inside the header or payload returns kCorruption ("torn
/// frame"); a magic or version mismatch returns kCorruption/kNotSupported
/// before any payload is consumed. `interrupt` follows Socket::ReadFull
/// semantics (SIGTERM escape hatch for blocking control reads).
Result<Frame> ReadFrame(Socket& sock,
                        const std::atomic<bool>* interrupt = nullptr);

/// Serializes a WireBatch into a frame payload:
/// (src, dst, num_segments : u32) (num_messages, priced_bytes,
/// payload_bytes : u64) followed by the raw segment payload.
std::vector<uint8_t> EncodeWireBatch(const runtime::WireBatch& batch);

/// Decodes an EncodeWireBatch payload, validating the inner length field
/// against the actual frame size.
Result<runtime::WireBatch> DecodeWireBatch(const std::vector<uint8_t>& frame);

/// Bounds-checked sequential reader for frame payloads (control messages).
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& data) : data_(data) {}

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset_ + sizeof(T) > data_.size()) {
      return Status::Corruption("frame payload underrun");
    }
    std::memcpy(out, data_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return Status::OK();
  }

  Status ReadBytes(void* out, size_t len) {
    if (offset_ + len > data_.size()) {
      return Status::Corruption("frame payload underrun");
    }
    std::memcpy(out, data_.data() + offset_, len);
    offset_ += len;
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - offset_; }
  size_t offset() const { return offset_; }

 private:
  const std::vector<uint8_t>& data_;
  size_t offset_ = 0;
};

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_FRAME_H_
