#include "shard/worker/protocol.h"

#include <utility>

#include "recovery/crc32.h"
#include "recovery/snapshot_file.h"
#include "serve/artifact.h"
#include "util/subprocess.h"

namespace divexp {
namespace shard {
namespace worker {

namespace {

constexpr uint32_t kSpecVersion = 1;

void PutFrameStats(recovery::ByteWriter* w, const FrameStats& stats) {
  w->PutU8(stats.resumed ? 1 : 0);
  w->PutU64(stats.checkpoints_written);
  w->PutU64(stats.checkpoint_bytes);
  w->PutU64(stats.checkpoint_write_failures);
  w->PutU32(stats.checkpoint_error_code);
  w->PutString(stats.checkpoint_error_message);
  w->PutU64(stats.peak_memory_bytes);
}

Status GetFrameStats(recovery::ByteReader* r, FrameStats* stats) {
  DIVEXP_ASSIGN_OR_RETURN(const uint8_t resumed, r->GetU8());
  stats->resumed = resumed != 0;
  DIVEXP_ASSIGN_OR_RETURN(stats->checkpoints_written, r->GetU64());
  DIVEXP_ASSIGN_OR_RETURN(stats->checkpoint_bytes, r->GetU64());
  DIVEXP_ASSIGN_OR_RETURN(stats->checkpoint_write_failures, r->GetU64());
  DIVEXP_ASSIGN_OR_RETURN(stats->checkpoint_error_code, r->GetU32());
  DIVEXP_ASSIGN_OR_RETURN(stats->checkpoint_error_message, r->GetBytes());
  DIVEXP_ASSIGN_OR_RETURN(stats->peak_memory_bytes, r->GetU64());
  return Status::OK();
}

Result<Frame> DecodePayload(const std::string& payload) {
  recovery::ByteReader r(payload);
  DIVEXP_ASSIGN_OR_RETURN(const uint8_t type, r.GetU8());
  if (type < static_cast<uint8_t>(FrameType::kHeartbeat) ||
      type > static_cast<uint8_t>(FrameType::kFatalStatus)) {
    return Status::InvalidArgument("unknown worker frame type " +
                                   std::to_string(type));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  switch (frame.type) {
    case FrameType::kHeartbeat:
    case FrameType::kProgress:
    case FrameType::kCheckpointWritten: {
      DIVEXP_ASSIGN_OR_RETURN(frame.value, r.GetU64());
      break;
    }
    case FrameType::kResultReady: {
      DIVEXP_ASSIGN_OR_RETURN(frame.value, r.GetU64());
      DIVEXP_ASSIGN_OR_RETURN(frame.fingerprint, r.GetU64());
      DIVEXP_ASSIGN_OR_RETURN(frame.artifact_path, r.GetBytes());
      DIVEXP_RETURN_NOT_OK(GetFrameStats(&r, &frame.stats));
      break;
    }
    case FrameType::kFatalStatus: {
      DIVEXP_ASSIGN_OR_RETURN(frame.status_code, r.GetU32());
      DIVEXP_ASSIGN_OR_RETURN(frame.message, r.GetBytes());
      DIVEXP_RETURN_NOT_OK(GetFrameStats(&r, &frame.stats));
      break;
    }
  }
  if (!r.empty()) {
    return Status::InvalidArgument(
        "worker frame has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return frame;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kProgress:
      return "progress";
    case FrameType::kCheckpointWritten:
      return "checkpoint-written";
    case FrameType::kResultReady:
      return "result-ready";
    case FrameType::kFatalStatus:
      return "fatal-status";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  recovery::ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(frame.type));
  switch (frame.type) {
    case FrameType::kHeartbeat:
    case FrameType::kProgress:
    case FrameType::kCheckpointWritten:
      payload.PutU64(frame.value);
      break;
    case FrameType::kResultReady:
      payload.PutU64(frame.value);
      payload.PutU64(frame.fingerprint);
      payload.PutString(frame.artifact_path);
      PutFrameStats(&payload, frame.stats);
      break;
    case FrameType::kFatalStatus:
      payload.PutU32(frame.status_code);
      payload.PutString(frame.message);
      PutFrameStats(&payload, frame.stats);
      break;
  }
  const std::string& body = payload.data();
  recovery::ByteWriter out;
  out.PutU32(static_cast<uint32_t>(body.size()));
  out.PutU32(recovery::Crc32(body));
  std::string encoded = out.Take();
  encoded += body;
  return encoded;
}

Status WriteFrame(int fd, const Frame& frame) {
  const std::string encoded = EncodeFrame(frame);
  return WriteAll(fd, encoded.data(), encoded.size());
}

void FrameReader::Feed(const void* data, size_t len) {
  buffer_.append(static_cast<const char*>(data), len);
}

Result<std::optional<Frame>> FrameReader::Next() {
  if (!error_.ok()) return error_;
  if (buffer_.size() < 8) return std::optional<Frame>();
  // The prefix is written little-endian by ByteWriter; decode the same
  // way so the reader is endian-correct, not endian-lucky.
  auto read_u32 = [&](size_t at) {
    return static_cast<uint32_t>(static_cast<uint8_t>(buffer_[at])) |
           static_cast<uint32_t>(static_cast<uint8_t>(buffer_[at + 1]))
               << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(buffer_[at + 2]))
               << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(buffer_[at + 3]))
               << 24;
  };
  const uint32_t len = read_u32(0);
  const uint32_t crc = read_u32(4);
  if (len > kMaxFramePayload) {
    error_ = Status::InvalidArgument(
        "worker frame length " + std::to_string(len) +
        " exceeds the protocol maximum");
    return error_;
  }
  if (buffer_.size() < 8 + static_cast<size_t>(len)) {
    return std::optional<Frame>();
  }
  const std::string payload = buffer_.substr(8, len);
  if (recovery::Crc32(payload) != crc) {
    error_ = Status::InvalidArgument("worker frame CRC mismatch");
    return error_;
  }
  Result<Frame> frame = DecodePayload(payload);
  if (!frame.ok()) {
    error_ = frame.status();
    return error_;
  }
  buffer_.erase(0, 8 + static_cast<size_t>(len));
  return std::optional<Frame>(std::move(*frame));
}

std::string SerializeWorkerSpec(const WorkerSpec& spec) {
  recovery::ByteWriter w;
  w.PutU32(kSpecVersion);
  w.PutU64(spec.shard);
  w.PutU64(spec.attempt);
  w.PutU64(spec.expected_fingerprint);
  w.PutI64(spec.timeout_ms);
  w.PutU64(spec.heartbeat_interval_ms);
  w.PutString(spec.result_path);
  w.PutString(spec.failpoints);
  // The serializable ExplorerOptions subset.
  w.PutF64(spec.base.min_support);
  w.PutU8(static_cast<uint8_t>(spec.base.miner));
  w.PutU8(static_cast<uint8_t>(spec.base.kernel));
  w.PutU64(spec.base.max_length);
  w.PutU64(spec.base.num_threads);
  w.PutI64(spec.base.limits.deadline_ms);
  w.PutU64(spec.base.limits.max_patterns);
  w.PutU64(spec.base.limits.max_memory_mb);
  w.PutString(spec.base.checkpoint_dir);
  w.PutU64(spec.base.checkpoint_every_ms);
  w.PutU8(spec.base.resume ? 1 : 0);
  // Dataset slice + outcomes.
  w.PutU64(spec.data.num_rows);
  w.PutU64(spec.data.num_attributes);
  w.PutU32Vector(spec.data.cells);
  serve::PutCatalog(&w, spec.data.catalog);
  w.PutU64(spec.outcomes.size());
  for (const Outcome o : spec.outcomes) {
    w.PutU8(static_cast<uint8_t>(o));
  }
  return w.Take();
}

Result<WorkerSpec> DeserializeWorkerSpec(const std::string& payload) {
  recovery::ByteReader r(payload);
  DIVEXP_ASSIGN_OR_RETURN(const uint32_t version, r.GetU32());
  if (version != kSpecVersion) {
    return Status::InvalidArgument("unsupported worker spec version " +
                                   std::to_string(version));
  }
  WorkerSpec spec;
  DIVEXP_ASSIGN_OR_RETURN(spec.shard, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.attempt, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.expected_fingerprint, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.timeout_ms, r.GetI64());
  DIVEXP_ASSIGN_OR_RETURN(spec.heartbeat_interval_ms, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.result_path, r.GetBytes());
  DIVEXP_ASSIGN_OR_RETURN(spec.failpoints, r.GetBytes());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.min_support, r.GetF64());
  DIVEXP_ASSIGN_OR_RETURN(const uint8_t miner, r.GetU8());
  if (miner > static_cast<uint8_t>(MinerKind::kAuto)) {
    return Status::InvalidArgument("worker spec has unknown miner kind " +
                                   std::to_string(miner));
  }
  spec.base.miner = static_cast<MinerKind>(miner);
  DIVEXP_ASSIGN_OR_RETURN(const uint8_t kernel, r.GetU8());
  if (kernel > static_cast<uint8_t>(fpm::KernelKind::kSimd)) {
    return Status::InvalidArgument(
        "worker spec has unknown kernel kind " + std::to_string(kernel));
  }
  spec.base.kernel = static_cast<fpm::KernelKind>(kernel);
  DIVEXP_ASSIGN_OR_RETURN(spec.base.max_length, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.num_threads, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.limits.deadline_ms, r.GetI64());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.limits.max_patterns, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.limits.max_memory_mb, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.checkpoint_dir, r.GetBytes());
  DIVEXP_ASSIGN_OR_RETURN(spec.base.checkpoint_every_ms, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(const uint8_t resume, r.GetU8());
  spec.base.resume = resume != 0;
  DIVEXP_ASSIGN_OR_RETURN(spec.data.num_rows, r.GetU64());
  DIVEXP_ASSIGN_OR_RETURN(spec.data.num_attributes, r.GetU64());
  DIVEXP_RETURN_NOT_OK(r.GetU32Vector(&spec.data.cells));
  if (spec.data.cells.size() !=
      spec.data.num_rows * spec.data.num_attributes) {
    return Status::InvalidArgument(
        "worker spec cell count does not match its dimensions");
  }
  DIVEXP_ASSIGN_OR_RETURN(spec.data.catalog, serve::GetCatalog(&r));
  DIVEXP_ASSIGN_OR_RETURN(const uint64_t num_outcomes, r.GetU64());
  if (num_outcomes > r.remaining()) {
    return Status::OutOfRange("worker spec outcome count " +
                              std::to_string(num_outcomes) +
                              " exceeds remaining payload");
  }
  spec.outcomes.reserve(num_outcomes);
  for (uint64_t i = 0; i < num_outcomes; ++i) {
    DIVEXP_ASSIGN_OR_RETURN(const uint8_t o, r.GetU8());
    if (o > static_cast<uint8_t>(Outcome::kBottom)) {
      return Status::InvalidArgument("worker spec has invalid outcome " +
                                     std::to_string(o));
    }
    spec.outcomes.push_back(static_cast<Outcome>(o));
  }
  if (!r.empty()) {
    return Status::InvalidArgument(
        "worker spec has " + std::to_string(r.remaining()) +
        " trailing bytes");
  }
  return spec;
}

Status WriteWorkerSpec(const std::string& path, const WorkerSpec& spec) {
  return recovery::WriteSnapshotFile(
      path, recovery::SnapshotKind::kWorkerSpec,
      SerializeWorkerSpec(spec));
}

Result<WorkerSpec> ReadWorkerSpec(const std::string& path) {
  DIVEXP_ASSIGN_OR_RETURN(
      std::string payload,
      recovery::ReadSnapshotFile(path,
                                 recovery::SnapshotKind::kWorkerSpec));
  return DeserializeWorkerSpec(payload);
}

}  // namespace worker
}  // namespace shard
}  // namespace divexp
