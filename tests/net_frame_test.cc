// Wire-framing contract tests over real socketpairs: magic/version
// validation, torn frames, mid-frame EOF, partial reads under a trickling
// writer, and the control-message codecs the distributed engine rides on.

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "net/control.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/json.h"
#include "runtime/report.h"
#include "runtime/stats.h"

namespace surfer {
namespace net {
namespace {

std::pair<Socket, Socket> MustPair() {
  auto pair = Socket::Pair();
  EXPECT_TRUE(pair.ok()) << pair.status().ToString();
  return std::move(pair).value();
}

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) {
    out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

TEST(NetFrameTest, RoundTripsTypedPayloads) {
  auto [a, b] = MustPair();
  const std::vector<uint8_t> payload = Bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, payload).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kEos).ok());

  auto first = ReadFrame(b);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kData);
  EXPECT_EQ(first->payload, payload);

  auto second = ReadFrame(b);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, FrameType::kEos);
  EXPECT_TRUE(second->payload.empty());
}

TEST(NetFrameTest, CleanEofBetweenFramesIsUnavailable) {
  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kReady).ok());
  ASSERT_TRUE(ReadFrame(b).ok());
  a.Close();  // orderly peer exit
  auto eof = ReadFrame(b);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
}

TEST(NetFrameTest, EofInsideHeaderIsTornFrame) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = 0;
  // Half a header, then close: the stream died mid-frame.
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header) / 2).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, EofInsidePayloadIsTornFrame) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = 100;
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  const std::vector<uint8_t> partial(10, 0xAB);
  ASSERT_TRUE(a.WriteFull(partial.data(), partial.size()).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, MagicMismatchIsCorruption) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.magic = 0xDEADBEEF;
  header.type = static_cast<uint16_t>(FrameType::kData);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, VersionMismatchIsNotSupported) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.version = kFrameVersion + 1;
  header.type = static_cast<uint16_t>(FrameType::kData);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
}

TEST(NetFrameTest, OversizedLengthFieldIsRejectedBeforeAllocation) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = kMaxFramePayloadBytes + 1;
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, PartialWritesReassembleIntoOneFrame) {
  // A writer that trickles the frame one byte at a time forces the reader
  // through its short-read loop on every byte; the frame must reassemble
  // exactly.
  auto [a, b] = MustPair();
  std::vector<uint8_t> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = payload.size();
  std::vector<uint8_t> stream(sizeof(header) + payload.size());
  std::memcpy(stream.data(), &header, sizeof(header));
  std::memcpy(stream.data() + sizeof(header), payload.data(), payload.size());

  std::thread writer([&a, &stream] {
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(a.WriteFull(&stream[i], 1).ok());
    }
  });
  auto frame = ReadFrame(b);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kData);
  EXPECT_EQ(frame->payload, payload);
}

TEST(NetFrameTest, WireBatchRoundTripsThroughAFrame) {
  runtime::WireBatch batch;
  batch.src_machine = 3;
  batch.dst_machine = 5;
  batch.num_segments = 2;
  batch.num_messages = 77;
  batch.priced_bytes = 1234;
  batch.payload = Bytes({9, 8, 7, 6, 5, 4});

  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, EncodeWireBatch(batch)).ok());
  auto frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok());
  auto decoded = DecodeWireBatch(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->src_machine, batch.src_machine);
  EXPECT_EQ(decoded->dst_machine, batch.dst_machine);
  EXPECT_EQ(decoded->num_segments, batch.num_segments);
  EXPECT_EQ(decoded->num_messages, batch.num_messages);
  EXPECT_EQ(decoded->priced_bytes, batch.priced_bytes);
  EXPECT_EQ(decoded->payload, batch.payload);
}

TEST(NetFrameTest, TruncatedWireBatchPayloadIsCorruption) {
  runtime::WireBatch batch;
  batch.src_machine = 1;
  batch.dst_machine = 2;
  batch.payload = Bytes({1, 2, 3, 4});
  std::vector<uint8_t> encoded = EncodeWireBatch(batch);
  encoded.pop_back();  // inner length field now disagrees with reality
  auto decoded = DecodeWireBatch(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, RoundMsgRoundTrips) {
  RoundMsg msg;
  msg.seq = 42;
  msg.iteration = 3;
  msg.kind = RoundKind::kResend;
  msg.recovery = 1;
  msg.alive = {1, 0, 1};
  msg.exec = {0, kInvalidMachine, 2};
  msg.route = {0, 2, 2};
  msg.reexec = {kInvalidMachine, kInvalidMachine, 1};
  auto decoded = DecodeRound(EncodeRound(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->kind, msg.kind);
  EXPECT_EQ(decoded->recovery, msg.recovery);
  EXPECT_EQ(decoded->alive, msg.alive);
  EXPECT_EQ(decoded->exec, msg.exec);
  EXPECT_EQ(decoded->route, msg.route);
  EXPECT_EQ(decoded->reexec, msg.reexec);
}

TEST(NetControlTest, WorkerStatsRoundTripWithLinkMatrix) {
  WorkerStatsMsg msg;
  msg.counters.tasks_executed = 10;
  msg.counters.tasks_reexecuted = 2;
  msg.counters.messages_sent = 12345;
  msg.counters.tcp_bytes_sent = 999;
  msg.counters.resend_bytes = 7;
  msg.counters.replication_bytes = 13;
  msg.peak_rss_bytes = 1 << 20;
  msg.link_bytes = {0, 5, 10, 0};
  auto decoded = DecodeWorkerStats(EncodeWorkerStats(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->counters.tasks_executed, msg.counters.tasks_executed);
  EXPECT_EQ(decoded->counters.tasks_reexecuted,
            msg.counters.tasks_reexecuted);
  EXPECT_EQ(decoded->counters.messages_sent, msg.counters.messages_sent);
  EXPECT_EQ(decoded->counters.tcp_bytes_sent, msg.counters.tcp_bytes_sent);
  EXPECT_EQ(decoded->counters.resend_bytes, msg.counters.resend_bytes);
  EXPECT_EQ(decoded->counters.replication_bytes,
            msg.counters.replication_bytes);
  EXPECT_EQ(decoded->peak_rss_bytes, msg.peak_rss_bytes);
  EXPECT_EQ(decoded->link_bytes, msg.link_bytes);
}

TEST(NetControlTest, StateUpdateRoundTrips) {
  StateUpdateMsg msg;
  msg.partition = 4;
  msg.iteration = 2;
  msg.begin = 100;
  msg.count = 3;
  msg.states = Bytes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  msg.virtual_count = 1;
  msg.virtuals = Bytes({42, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4});
  auto decoded = DecodeStateUpdate(EncodeStateUpdate(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->partition, msg.partition);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->begin, msg.begin);
  EXPECT_EQ(decoded->count, msg.count);
  EXPECT_EQ(decoded->states, msg.states);
  EXPECT_EQ(decoded->virtual_count, msg.virtual_count);
  EXPECT_EQ(decoded->virtuals, msg.virtuals);
}

TEST(NetControlTest, PlacementCarriesFaultPlansAndTolerance) {
  PlacementMsg msg;
  msg.num_machines = 8;
  msg.num_partitions = 2;
  msg.replication = 3;
  msg.fault_tolerant = 1;
  msg.replicas = {0, 1, 2, 3, 4, 5};
  runtime::RuntimeFaultPlan plan;
  plan.machine = 5;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kCombine;
  plan.after_tasks = 2;
  msg.faults.push_back(plan);
  auto decoded = DecodePlacement(EncodePlacement(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_machines, msg.num_machines);
  EXPECT_EQ(decoded->fault_tolerant, 1);
  EXPECT_EQ(decoded->replicas, msg.replicas);
  ASSERT_EQ(decoded->faults.size(), 1u);
  EXPECT_EQ(decoded->faults[0].machine, plan.machine);
  EXPECT_EQ(decoded->faults[0].iteration, plan.iteration);
  EXPECT_EQ(decoded->faults[0].stage, plan.stage);
  EXPECT_EQ(decoded->faults[0].after_tasks, plan.after_tasks);
}

// A fault count read off the wire must fit the bytes that follow it before
// anything is allocated: 0xFFFFFFFF plans would be ~52 GB of vector.
TEST(NetControlTest, ForgedPlacementFaultCountIsRejectedBeforeAllocation) {
  PlacementMsg msg;
  msg.num_machines = 2;
  msg.num_partitions = 1;
  msg.replication = 2;
  msg.replicas = {0, 1};
  runtime::RuntimeFaultPlan plan;
  msg.faults.push_back(plan);
  std::vector<uint8_t> encoded = EncodePlacement(msg);
  // Header: three u32 + u8, then the replica vector (u32 count + 2 ids).
  const size_t count_offset = 3 * sizeof(uint32_t) + sizeof(uint8_t) +
                              sizeof(uint32_t) + 2 * sizeof(MachineId);
  uint32_t count = 0;
  std::memcpy(&count, encoded.data() + count_offset, sizeof(count));
  ASSERT_EQ(count, 1u);
  count = 0xFFFFFFFFu;
  std::memcpy(encoded.data() + count_offset, &count, sizeof(count));
  auto decoded = DecodePlacement(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, PlacementFaultStageOutsideTheEnumIsCorruption) {
  PlacementMsg msg;
  msg.num_machines = 2;
  msg.num_partitions = 1;
  msg.replication = 2;
  msg.replicas = {0, 1};
  runtime::RuntimeFaultPlan plan;
  plan.stage = runtime::RuntimeStage::kCombine;
  msg.faults.push_back(plan);
  std::vector<uint8_t> encoded = EncodePlacement(msg);
  // The plan's stage byte follows the fault count, machine and iteration.
  const size_t stage_offset = 3 * sizeof(uint32_t) + sizeof(uint8_t) +
                              sizeof(uint32_t) + 2 * sizeof(MachineId) +
                              sizeof(uint32_t) + sizeof(uint32_t) +
                              sizeof(int32_t);
  ASSERT_EQ(encoded[stage_offset],
            static_cast<uint8_t>(runtime::RuntimeStage::kCombine));
  encoded[stage_offset] = 2;
  auto decoded = DecodePlacement(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

/// A well-formed round for 3 partitions on 3 machines.
RoundMsg ValidRound() {
  RoundMsg msg;
  msg.seq = 7;
  msg.kind = RoundKind::kTransfer;
  msg.alive = {1, 1, 0};
  msg.exec = {0, 1, kInvalidMachine};
  msg.route = {0, 1, 1};
  msg.reexec = {kInvalidMachine, kInvalidMachine, kInvalidMachine};
  return msg;
}

void ExpectRoundRejected(const RoundMsg& msg) {
  const Status status = ValidateRound(msg, /*num_partitions=*/3,
                                      /*num_machines=*/3);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ValidateRoundAcceptsAWellFormedRound) {
  EXPECT_TRUE(ValidateRound(ValidRound(), 3, 3).ok());
  RoundMsg resend = ValidRound();
  resend.kind = RoundKind::kResend;
  EXPECT_TRUE(ValidateRound(resend, 3, 3).ok());
}

TEST(NetControlTest, ValidateRoundRejectsUnknownKind) {
  RoundMsg msg = ValidRound();
  msg.kind = static_cast<RoundKind>(3);
  ExpectRoundRejected(msg);
  // The same byte through the codec: DecodeRound accepts it, the check
  // is what stops it.
  auto decoded = DecodeRound(EncodeRound(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectRoundRejected(*decoded);
}

TEST(NetControlTest, ValidateRoundRejectsShortExec) {
  RoundMsg msg = ValidRound();
  msg.exec.pop_back();
  ExpectRoundRejected(msg);
}

TEST(NetControlTest, ValidateRoundRejectsShortRoute) {
  RoundMsg msg = ValidRound();
  msg.route.pop_back();
  ExpectRoundRejected(msg);
}

TEST(NetControlTest, ValidateRoundRejectsLongReexec) {
  RoundMsg msg = ValidRound();
  msg.reexec.push_back(kInvalidMachine);
  ExpectRoundRejected(msg);
}

TEST(NetControlTest, ValidateRoundRejectsWrongAliveLength) {
  RoundMsg msg = ValidRound();
  msg.alive.pop_back();
  ExpectRoundRejected(msg);
}

TEST(NetControlTest, ValidateRoundRejectsOutOfRangeMachine) {
  for (std::vector<MachineId> RoundMsg::*table :
       {&RoundMsg::exec, &RoundMsg::route, &RoundMsg::reexec}) {
    RoundMsg msg = ValidRound();
    (msg.*table)[1] = 3;  // one past the last machine
    ExpectRoundRejected(msg);
  }
}

/// Well-formed stats from process 0 of 3 on 2 machines, with clock sync on.
WorkerStatsMsg ValidWorkerStats() {
  WorkerStatsMsg msg;
  msg.link_bytes = {0, 96, 48, 0};
  msg.clock_synced = 1;
  msg.clock_offset_us = {0, 12, -7};
  msg.clock_uncertainty_us = {0, 3, 4};
  RoundLinkStat link;
  link.from_proc = 2;
  msg.round_link_stats = {link};
  return msg;
}

void ExpectWorkerStatsRejected(const WorkerStatsMsg& msg) {
  const Status status = ValidateWorkerStats(msg, /*num_machines=*/2,
                                            /*num_processes=*/3);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ValidateWorkerStatsAcceptsWellFormedStats) {
  EXPECT_TRUE(ValidateWorkerStats(ValidWorkerStats(), 2, 3).ok());
  // Without clock sync the clock vectors may be empty.
  WorkerStatsMsg unsynced = ValidWorkerStats();
  unsynced.clock_synced = 0;
  unsynced.clock_offset_us.clear();
  unsynced.clock_uncertainty_us.clear();
  EXPECT_TRUE(ValidateWorkerStats(unsynced, 2, 3).ok());
}

TEST(NetControlTest, ValidateWorkerStatsRejectsWrongLinkMatrixSize) {
  WorkerStatsMsg msg = ValidWorkerStats();
  msg.link_bytes.push_back(5);  // would spill past the merged 2 x 2 matrix
  ExpectWorkerStatsRejected(msg);
  msg.link_bytes.resize(3);
  ExpectWorkerStatsRejected(msg);
  msg.link_bytes.clear();
  ExpectWorkerStatsRejected(msg);
}

TEST(NetControlTest, ValidateWorkerStatsRejectsWrongClockVectorLength) {
  WorkerStatsMsg msg = ValidWorkerStats();
  msg.clock_offset_us.pop_back();
  ExpectWorkerStatsRejected(msg);
  msg = ValidWorkerStats();
  msg.clock_uncertainty_us.push_back(1);
  ExpectWorkerStatsRejected(msg);
}

TEST(NetControlTest, ValidateWorkerStatsRejectsRoundLinkFromUnknownProcess) {
  WorkerStatsMsg msg = ValidWorkerStats();
  msg.round_link_stats[0].from_proc = 3;  // one past the last process
  ExpectWorkerStatsRejected(msg);
  // The same record through the codec: the decoder accepts it, the check
  // is what stops it.
  auto decoded = DecodeWorkerStats(EncodeWorkerStats(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectWorkerStatsRejected(*decoded);
}

TEST(NetFrameTest, FramesCarryPerLinkSequenceAndSendStamp) {
  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, Bytes({1})).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kEos).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, Bytes({2})).ok());

  uint64_t prev_seq = 0;
  for (int i = 0; i < 3; ++i) {
    auto frame = ReadFrame(b);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    // Sequence numbers are per link and dense: 1, 2, 3 across frame types.
    EXPECT_EQ(frame->link_seq, prev_seq + 1);
    prev_seq = frame->link_seq;
    EXPECT_GT(frame->send_unix_us, 0u);
    // Same host, same clock: receive cannot precede send.
    EXPECT_GE(frame->recv_unix_us, frame->send_unix_us);
  }
  EXPECT_EQ(a.frames_written(), 3u);
}

// v2 header evolution: a frame from a hypothetical v1 peer (pre-stamp
// 16-byte header era, still sending version=1) must be refused as
// NotSupported — protocol mismatch, not corruption.
TEST(NetFrameTest, OldVersionPeerFrameIsNotSupported) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.version = 1;
  header.type = static_cast<uint16_t>(FrameType::kHeartbeat);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
}

TEST(NetFrameTest, HeartbeatFrameRoundTrips) {
  HeartbeatMsg msg;
  msg.proc = 2;
  msg.stage = 1;
  msg.iteration = 4;
  msg.round_seq = 17;
  msg.mailbox_frames = 5;
  msg.inflight_bytes = 4096;
  msg.staged_wire_bytes = 512;
  msg.rss_bytes = 10 << 20;
  msg.barrier_waiting = 1;
  msg.unix_us = 1234567890;

  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kHeartbeat, EncodeHeartbeat(msg)).ok());
  auto frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kHeartbeat);
  auto decoded = DecodeHeartbeat(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->proc, msg.proc);
  EXPECT_EQ(decoded->stage, msg.stage);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->round_seq, msg.round_seq);
  EXPECT_EQ(decoded->mailbox_frames, msg.mailbox_frames);
  EXPECT_EQ(decoded->inflight_bytes, msg.inflight_bytes);
  EXPECT_EQ(decoded->staged_wire_bytes, msg.staged_wire_bytes);
  EXPECT_EQ(decoded->rss_bytes, msg.rss_bytes);
  EXPECT_EQ(decoded->barrier_waiting, msg.barrier_waiting);
  EXPECT_EQ(decoded->unix_us, msg.unix_us);
}

TEST(NetFrameTest, TornHeartbeatFrameIsCorruption) {
  // The stream dies mid-heartbeat: header promises a full payload, the
  // socket closes after half of it — corruption taxonomy, not clean EOF.
  HeartbeatMsg msg;
  msg.proc = 1;
  const std::vector<uint8_t> payload = EncodeHeartbeat(msg);
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kHeartbeat);
  header.payload_bytes = payload.size();
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  ASSERT_TRUE(a.WriteFull(payload.data(), payload.size() / 2).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ShortHeartbeatPayloadIsCorruption) {
  HeartbeatMsg msg;
  std::vector<uint8_t> encoded = EncodeHeartbeat(msg);
  encoded.resize(encoded.size() - 3);
  auto decoded = DecodeHeartbeat(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ClockSyncPayloadsRoundTrip) {
  ClockPingMsg ping;
  ping.seq = 3;
  auto ping_decoded = DecodeClockPing(EncodeClockPing(ping));
  ASSERT_TRUE(ping_decoded.ok()) << ping_decoded.status().ToString();
  EXPECT_EQ(ping_decoded->seq, ping.seq);

  ClockPongMsg pong;
  pong.seq = 3;
  pong.t1 = 1000;
  pong.t2 = 1800;
  auto pong_decoded = DecodeClockPong(EncodeClockPong(pong));
  ASSERT_TRUE(pong_decoded.ok()) << pong_decoded.status().ToString();
  EXPECT_EQ(pong_decoded->seq, pong.seq);
  EXPECT_EQ(pong_decoded->t1, pong.t1);
  EXPECT_EQ(pong_decoded->t2, pong.t2);

  ClockOffsetMsg offset;
  offset.offset_us = -4200;
  offset.uncertainty_us = 37;
  auto offset_decoded = DecodeClockOffset(EncodeClockOffset(offset));
  ASSERT_TRUE(offset_decoded.ok()) << offset_decoded.status().ToString();
  EXPECT_EQ(offset_decoded->offset_us, offset.offset_us);
  EXPECT_EQ(offset_decoded->uncertainty_us, offset.uncertainty_us);
}

TEST(NetControlTest, WorkerStatsRoundTripsHealthPlaneFields) {
  WorkerStatsMsg msg;
  msg.heartbeats_sent = 9;
  msg.clock_synced = 1;
  msg.clock_offset_us = {0, -150, 2300};
  msg.clock_uncertainty_us = {0, 12, 40};
  RoundLinkStat link;
  link.seq = 6;
  link.iteration = 2;
  link.kind = 1;
  link.from_proc = 1;
  link.frames = 4;
  link.bytes = 8192;
  link.latency_sum_us = 1200;
  link.latency_max_us = 500;
  link.first_send_us = 111;
  link.last_recv_us = 999;
  msg.round_link_stats.push_back(link);
  auto decoded = DecodeWorkerStats(EncodeWorkerStats(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->heartbeats_sent, msg.heartbeats_sent);
  EXPECT_EQ(decoded->clock_synced, msg.clock_synced);
  EXPECT_EQ(decoded->clock_offset_us, msg.clock_offset_us);
  EXPECT_EQ(decoded->clock_uncertainty_us, msg.clock_uncertainty_us);
  ASSERT_EQ(decoded->round_link_stats.size(), 1u);
  EXPECT_EQ(decoded->round_link_stats[0].seq, link.seq);
  EXPECT_EQ(decoded->round_link_stats[0].iteration, link.iteration);
  EXPECT_EQ(decoded->round_link_stats[0].kind, link.kind);
  EXPECT_EQ(decoded->round_link_stats[0].from_proc, link.from_proc);
  EXPECT_EQ(decoded->round_link_stats[0].frames, link.frames);
  EXPECT_EQ(decoded->round_link_stats[0].bytes, link.bytes);
  EXPECT_EQ(decoded->round_link_stats[0].latency_sum_us, link.latency_sum_us);
  EXPECT_EQ(decoded->round_link_stats[0].latency_max_us, link.latency_max_us);
}

TEST(NetControlTest, PlacementCarriesHealthPlaneKnobs) {
  PlacementMsg msg;
  msg.num_machines = 4;
  msg.num_partitions = 4;
  msg.replication = 2;
  msg.replicas = {0, 1, 1, 2, 2, 3, 3, 0};
  msg.heartbeat_period_ms = 50;
  msg.clock_sync_pings = 8;
  msg.stall_proc = 1;
  msg.stall_iteration = 2;
  msg.stall_ms = 300;
  auto decoded = DecodePlacement(EncodePlacement(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->heartbeat_period_ms, msg.heartbeat_period_ms);
  EXPECT_EQ(decoded->clock_sync_pings, msg.clock_sync_pings);
  EXPECT_EQ(decoded->stall_proc, msg.stall_proc);
  EXPECT_EQ(decoded->stall_iteration, msg.stall_iteration);
  EXPECT_EQ(decoded->stall_ms, msg.stall_ms);
}

// Fork-free NTP exchange over a socketpair (TSan-safe): both halves agree
// on the estimated offset with opposite signs, and on one host with one
// clock the estimate must land near zero.
TEST(NetTransportTest, ClockSyncAgreesAcrossASocketpair) {
  auto [client_sock, server_sock] = MustPair();
  Result<ClockOffsetMsg> server_result =
      Status::Unavailable("server never ran");
  std::thread server([&server_sock, &server_result] {
    server_result = RunClockSyncServer(server_sock);
  });
  auto client_result = RunClockSyncClient(client_sock, /*pings=*/8);
  server.join();
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
  EXPECT_EQ(client_result->offset_us, -server_result->offset_us);
  EXPECT_EQ(client_result->uncertainty_us, server_result->uncertainty_us);
  // Loopback round trips are microseconds; a same-clock estimate beyond
  // 100ms would mean the math, not the link, is broken.
  EXPECT_LT(std::abs(client_result->offset_us), 100 * 1000);
}

/// Every strict prefix of a valid encoding must decode to Corruption.
template <typename Decode>
void ExpectEveryPrefixIsCorruption(const std::vector<uint8_t>& encoded,
                                   Decode decode, const char* what) {
  ASSERT_TRUE(decode(encoded).ok()) << what;
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::vector<uint8_t> prefix(encoded.begin(), encoded.begin() + len);
    const auto decoded = decode(prefix);
    ASSERT_FALSE(decoded.ok()) << what << " prefix " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << what << " prefix " << len;
  }
}

TEST(NetControlTest, TruncatedControlPayloadIsCorruption) {
  WorkerStatsMsg stats;
  stats.counters.messages_sent = 5;
  stats.link_bytes = {1, 2, 3, 4};
  stats.clock_offset_us = {0, -3};
  stats.clock_uncertainty_us = {0, 2};
  stats.round_link_stats.push_back(RoundLinkStat{});
  ExpectEveryPrefixIsCorruption(EncodeWorkerStats(stats), DecodeWorkerStats,
                                "WorkerStatsMsg");

  PlacementMsg placement;
  placement.num_machines = 2;
  placement.num_partitions = 1;
  placement.replication = 2;
  placement.replicas = {0, 1};
  placement.faults.push_back(runtime::RuntimeFaultPlan{});
  ExpectEveryPrefixIsCorruption(EncodePlacement(placement), DecodePlacement,
                                "PlacementMsg");

  ExpectEveryPrefixIsCorruption(EncodeRound(ValidRound()), DecodeRound,
                                "RoundMsg");
}

// Driven by RuntimeCounters::ForEachCounter alone, so a counter added to the
// list is covered here without editing the test: each counter gets a
// distinct value, survives the stats message, doubles under +=, and gets
// its own runtime-block key.
TEST(NetControlTest, EveryListedCounterShipsSumsAndReports) {
  runtime::RuntimeCounters counters;
  double next = 1.0;
  runtime::RuntimeCounters::ForEachCounter([&](const char*, auto member) {
    using Field = std::remove_reference_t<decltype(counters.*member)>;
    counters.*member = static_cast<Field>(next);
    next += 1.0;
  });

  WorkerStatsMsg msg;
  msg.counters = counters;
  auto decoded = DecodeWorkerStats(EncodeWorkerStats(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  runtime::RuntimeCounters doubled = counters;
  doubled += doubled;

  runtime::RuntimeStats stats;
  static_cast<runtime::RuntimeCounters&>(stats) = counters;
  const obs::JsonValue block = runtime::RuntimeStatsToJson(stats);

  std::set<std::string> names;
  runtime::RuntimeCounters::ForEachCounter([&](const char* name,
                                               auto member) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter " << name;
    EXPECT_EQ(decoded->counters.*member, counters.*member) << name;
    EXPECT_EQ(doubled.*member, 2 * (counters.*member)) << name;
    const obs::JsonValue* value = block.Find(name);
    ASSERT_NE(value, nullptr) << name;
    ASSERT_TRUE(value->is_number()) << name;
    EXPECT_EQ(value->as_number(), static_cast<double>(counters.*member))
        << name;
  });
  EXPECT_EQ(names.size(), runtime::kNumRuntimeCounters);
}

}  // namespace
}  // namespace net
}  // namespace surfer
