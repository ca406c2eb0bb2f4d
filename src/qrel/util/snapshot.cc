#include "qrel/util/snapshot.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

#include "qrel/util/fault_injection.h"
#include "qrel/util/vfs.h"

namespace qrel {

namespace {

constexpr uint8_t kMagic[8] = {'Q', 'R', 'E', 'L', 'S', 'N', 'A', 'P'};
// Container overhead: magic + version + fingerprint + work counter +
// kind length + payload length + checksum.
constexpr size_t kMinFileSize = 8 + 4 + 8 + 8 + 4 + 8 + 8;
// Guards against length fields conjured by corruption: no legitimate kind
// or payload comes close.
constexpr uint32_t kMaxKindLength = 4096;
constexpr uint64_t kMaxPayloadLength = uint64_t{1} << 30;

uint64_t Fnv1a(const uint8_t* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;  // FNV-1a prime
  }
  return hash;
}

// resize+memcpy rather than vector::insert with an iterator range: the
// range-insert path trips gcc 12's bogus -Wstringop-overflow/-Warray-bounds
// analysis at -O2.
void AppendBytes(std::vector<uint8_t>* bytes, const void* data, size_t size) {
  if (size == 0) {
    return;
  }
  const size_t offset = bytes->size();
  bytes->resize(offset + size);
  std::memcpy(bytes->data() + offset, data, size);
}

void AppendU32(std::vector<uint8_t>* bytes, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes->push_back(static_cast<uint8_t>(value >> shift));
  }
}

void AppendU64(std::vector<uint8_t>* bytes, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes->push_back(static_cast<uint8_t>(value >> shift));
  }
}

uint32_t LoadU32(const uint8_t* data) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | data[i];
  }
  return value;
}

uint64_t LoadU64(const uint8_t* data) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | data[i];
  }
  return value;
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

void SnapshotWriter::U32(uint32_t value) { AppendU32(&bytes_, value); }
void SnapshotWriter::U64(uint64_t value) { AppendU64(&bytes_, value); }
void SnapshotWriter::Double(double value) { U64(DoubleBits(value)); }

void SnapshotWriter::String(std::string_view value) {
  U32(static_cast<uint32_t>(value.size()));
  AppendBytes(&bytes_, value.data(), value.size());
}

void SnapshotWriter::RationalVal(const Rational& value) {
  BigIntVal(value.numerator());
  BigIntVal(value.denominator());
}

void SnapshotWriter::RngState(const Rng& rng) {
  for (uint64_t word : rng.Save()) {
    U64(word);
  }
}

void SnapshotWriter::TupleVal(const std::vector<int32_t>& tuple) {
  U32(static_cast<uint32_t>(tuple.size()));
  for (int32_t element : tuple) {
    U32(static_cast<uint32_t>(element));
  }
}

// ---------------------------------------------------------------------------
// SnapshotReader

Status SnapshotReader::U8(uint8_t* out) {
  if (remaining() < 1) {
    return Status::DataLoss("snapshot payload truncated");
  }
  *out = bytes_[position_++];
  return Status::Ok();
}

Status SnapshotReader::U32(uint32_t* out) {
  if (remaining() < 4) {
    return Status::DataLoss("snapshot payload truncated");
  }
  *out = LoadU32(bytes_.data() + position_);
  position_ += 4;
  return Status::Ok();
}

Status SnapshotReader::U64(uint64_t* out) {
  if (remaining() < 8) {
    return Status::DataLoss("snapshot payload truncated");
  }
  *out = LoadU64(bytes_.data() + position_);
  position_ += 8;
  return Status::Ok();
}

Status SnapshotReader::I64(int64_t* out) {
  uint64_t bits = 0;
  QREL_RETURN_IF_ERROR(U64(&bits));
  *out = static_cast<int64_t>(bits);
  return Status::Ok();
}

Status SnapshotReader::Double(double* out) {
  uint64_t bits = 0;
  QREL_RETURN_IF_ERROR(U64(&bits));
  *out = BitsToDouble(bits);
  return Status::Ok();
}

Status SnapshotReader::String(std::string* out) {
  uint32_t length = 0;
  QREL_RETURN_IF_ERROR(U32(&length));
  if (length > remaining()) {
    return Status::DataLoss("snapshot string length exceeds payload");
  }
  out->assign(reinterpret_cast<const char*>(bytes_.data() + position_),
              length);
  position_ += length;
  return Status::Ok();
}

Status SnapshotReader::BigIntVal(BigInt* out) {
  std::string digits;
  QREL_RETURN_IF_ERROR(String(&digits));
  StatusOr<BigInt> parsed = BigInt::FromDecimalString(digits);
  if (!parsed.ok()) {
    return Status::DataLoss("snapshot holds a malformed integer: " +
                            parsed.status().message());
  }
  *out = std::move(parsed).value();
  return Status::Ok();
}

Status SnapshotReader::RationalVal(Rational* out) {
  BigInt numerator;
  BigInt denominator;
  QREL_RETURN_IF_ERROR(BigIntVal(&numerator));
  QREL_RETURN_IF_ERROR(BigIntVal(&denominator));
  if (denominator.IsZero()) {
    return Status::DataLoss("snapshot holds a zero-denominator rational");
  }
  *out = Rational(std::move(numerator), std::move(denominator));
  return Status::Ok();
}

Status SnapshotReader::RngState(Rng* out) {
  std::array<uint64_t, 4> state = {};
  for (uint64_t& word : state) {
    QREL_RETURN_IF_ERROR(U64(&word));
  }
  StatusOr<Rng> restored = Rng::Restore(state);
  if (!restored.ok()) {
    return Status::DataLoss("snapshot holds an invalid RNG state");
  }
  *out = std::move(restored).value();
  return Status::Ok();
}

Status SnapshotReader::TupleVal(std::vector<int32_t>* out) {
  uint32_t size = 0;
  QREL_RETURN_IF_ERROR(U32(&size));
  if (static_cast<size_t>(size) * 4 > remaining()) {
    return Status::DataLoss("snapshot tuple length exceeds payload");
  }
  out->clear();
  out->reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    uint32_t element = 0;
    QREL_RETURN_IF_ERROR(U32(&element));
    out->push_back(static_cast<int32_t>(element));
  }
  return Status::Ok();
}

Status SnapshotReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::DataLoss("snapshot payload has trailing bytes");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Fingerprint

Fingerprint& Fingerprint::Mix(uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  }
  hash_ = Fnv1a(bytes, sizeof(bytes), hash_);
  return *this;
}

Fingerprint& Fingerprint::Mix(std::string_view value) {
  Mix(static_cast<uint64_t>(value.size()));
  hash_ = Fnv1a(reinterpret_cast<const uint8_t*>(value.data()), value.size(),
                hash_);
  return *this;
}

Fingerprint& Fingerprint::MixDouble(double value) {
  return Mix(DoubleBits(value));
}

Fingerprint& Fingerprint::MixRational(const Rational& value) {
  Mix(value.numerator().ToDecimalString());
  return Mix(value.denominator().ToDecimalString());
}

// ---------------------------------------------------------------------------
// Container encode / decode

std::vector<uint8_t> EncodeSnapshot(const SnapshotData& data) {
  std::vector<uint8_t> bytes;
  bytes.reserve(kMinFileSize + data.kind.size() + data.payload.size());
  AppendBytes(&bytes, kMagic, sizeof(kMagic));
  AppendU32(&bytes, kSnapshotFormatVersion);
  AppendU64(&bytes, data.fingerprint);
  AppendU64(&bytes, data.work_spent);
  AppendU32(&bytes, static_cast<uint32_t>(data.kind.size()));
  AppendBytes(&bytes, data.kind.data(), data.kind.size());
  AppendU64(&bytes, static_cast<uint64_t>(data.payload.size()));
  AppendBytes(&bytes, data.payload.data(), data.payload.size());
  AppendU64(&bytes, Fnv1a(bytes.data(), bytes.size(),
                          0xcbf29ce484222325ULL));
  return bytes;
}

StatusOr<SnapshotData> DecodeSnapshot(const uint8_t* data, size_t size) {
  if (size < kMinFileSize) {
    return Status::DataLoss("snapshot truncated: " + std::to_string(size) +
                            " byte(s), need at least " +
                            std::to_string(kMinFileSize));
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a qrel snapshot (bad magic)");
  }
  size_t offset = sizeof(kMagic);
  uint32_t version = LoadU32(data + offset);
  offset += 4;
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }

  SnapshotData result;
  result.fingerprint = LoadU64(data + offset);
  offset += 8;
  result.work_spent = LoadU64(data + offset);
  offset += 8;

  uint32_t kind_length = LoadU32(data + offset);
  offset += 4;
  if (kind_length > kMaxKindLength || kind_length > size - offset) {
    return Status::DataLoss("snapshot kind length exceeds file size");
  }
  result.kind.assign(reinterpret_cast<const char*>(data + offset),
                     kind_length);
  offset += kind_length;

  if (size - offset < 8) {
    return Status::DataLoss("snapshot truncated before payload length");
  }
  uint64_t payload_length = LoadU64(data + offset);
  offset += 8;
  if (payload_length > kMaxPayloadLength ||
      payload_length > size - offset) {
    return Status::DataLoss("snapshot payload length exceeds file size");
  }
  result.payload.assign(data + offset, data + offset + payload_length);
  offset += payload_length;

  if (size - offset != 8) {
    return Status::DataLoss("snapshot has trailing bytes after checksum");
  }
  uint64_t stored = LoadU64(data + offset);
  uint64_t computed = Fnv1a(data, offset, 0xcbf29ce484222325ULL);
  if (stored != computed) {
    return Status::DataLoss("snapshot checksum mismatch (file corrupted)");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Atomic file I/O (POSIX: write temp -> fsync -> rename).

namespace {

// Directory holding `path` ("." for a bare file name); fsync'd after the
// rename so the new directory entry survives a power loss.
std::string ParentDirectory(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) {
    return ".";
  }
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace

Status WriteSnapshotFile(const std::string& path, const SnapshotData& data) {
  QREL_FAULT_SITE("util.snapshot.write");
  Vfs& vfs = ProcessVfs();
  std::vector<uint8_t> bytes = EncodeSnapshot(data);
  // Per-attempt-unique temp name ("<path>.tmp.<pid>.<seq>"): concurrent
  // writers — two threads of this process as much as two processes
  // sharing the directory — race only on the final rename (last writer
  // wins, both files whole), never on the temp file itself, where an
  // O_TRUNC collision would tear both writers' data. Startup GC
  // (net/server.h RecoverState) parses this exact shape to tell a crashed
  // writer's orphan from a live writer's file by the embedded pid.
  static std::atomic<uint64_t> temp_seq{0};
  std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed) + 1);
  StatusOr<int> opened = vfs.OpenWrite(temp_path);
  if (!opened.ok()) {
    return Status(opened.status().code(),
                  "cannot create checkpoint temp file " + temp_path + ": " +
                      opened.status().message());
  }
  int fd = *opened;
  // Every early return below funnels through one of these, so no failure
  // path can leak the descriptor or leave the temp file behind. Cleanup
  // is best-effort: a second failure while cleaning up must not mask the
  // original error.
  auto fail_open = [&](const char* what, const Status& cause) {
    vfs.Close(fd);
    vfs.Unlink(temp_path);
    return Status(cause.code(),
                  std::string("checkpoint ") + what + " failed: " +
                      cause.message());
  };
  auto fail_closed = [&](const char* what, const Status& cause) {
    vfs.Unlink(temp_path);
    return Status(cause.code(),
                  std::string("checkpoint ") + what + " failed: " +
                      cause.message());
  };
  size_t written = 0;
  while (written < bytes.size()) {
    StatusOr<size_t> n =
        vfs.Write(fd, bytes.data() + written, bytes.size() - written);
    if (!n.ok()) {
      return fail_open("write", n.status());
    }
    if (*n == 0) {
      // A zero-byte transfer would loop forever; treat it as the I/O
      // error it almost certainly is.
      return fail_open("write",
                       Status::Internal("write transferred no bytes"));
    }
    written += *n;
  }
  // fsync before rename: the rename must not become durable before the
  // data it points at.
  Status synced = vfs.Fsync(fd);
  if (!synced.ok()) {
    return fail_open("fsync", synced);
  }
  Status closed = vfs.Close(fd);
  if (!closed.ok()) {
    return fail_closed("close", closed);
  }
  Status renamed = vfs.Rename(temp_path, path);
  if (!renamed.ok()) {
    return fail_closed("rename", renamed);
  }
  // fsync the containing directory: the rename updated a directory entry,
  // and without this a power loss can roll the directory back to the old
  // (or no) snapshot even though the data blocks were synced above. The
  // temp file is already renamed away, so there is nothing to unlink on
  // this last error path.
  Status dir_synced = vfs.FsyncDir(ParentDirectory(path));
  if (!dir_synced.ok()) {
    return Status(dir_synced.code(), "checkpoint directory fsync failed: " +
                                         dir_synced.message());
  }
  return Status::Ok();
}

StatusOr<SnapshotData> ReadSnapshotFile(const std::string& path) {
  QREL_FAULT_SITE("util.snapshot.load");
  StatusOr<std::vector<uint8_t>> bytes = ProcessVfs().ReadFileBytes(
      path, kMaxPayloadLength + kMinFileSize + kMaxKindLength);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no snapshot at " + path);
    }
    if (bytes.status().code() == StatusCode::kDataLoss) {
      return Status::DataLoss("snapshot file implausibly large");
    }
    return Status(bytes.status().code(),
                  "snapshot read failed: " + bytes.status().message());
  }
  return DecodeSnapshot(bytes->data(), bytes->size());
}

// ---------------------------------------------------------------------------
// Checkpointer / CheckpointScope

Checkpointer::Checkpointer(std::string path,
                           std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval) {
  // The interval clock starts now, not at the first write: a run shorter
  // than the interval pays nothing for being checkpointable.
  last_write_ = Clock::now();
}

Status Checkpointer::LoadForResume() {
  StatusOr<SnapshotData> snapshot = ReadSnapshotFile(path_);
  if (!snapshot.ok()) {
    if (snapshot.status().code() == StatusCode::kNotFound) {
      return Status::Ok();  // fresh run
    }
    return snapshot.status();
  }
  MutexLock lock(&mu_);
  resume_ = std::move(snapshot).value();
  resume_consumed_ = false;
  return Status::Ok();
}

CheckpointScope::CheckpointScope(RunContext* ctx, std::string_view kind,
                                 uint64_t fingerprint)
    : kind_(kind), fingerprint_(fingerprint) {
  if (ctx == nullptr || ctx->checkpointer() == nullptr) {
    return;  // inert: no policy attached
  }
  Checkpointer* checkpointer = ctx->checkpointer();
  // Test-and-set under the checkpointer's lock: with concurrent scope
  // construction on one context (parallel engine core), exactly one scope
  // wins the claim and the rest are inert.
  MutexLock lock(&checkpointer->mu_);
  if (checkpointer->claimed_) {
    return;  // inert: a nested (or concurrent) loop already claimed
  }
  ctx_ = ctx;
  checkpointer_ = checkpointer;
  checkpointer_->claimed_ = true;
}

CheckpointScope::~CheckpointScope() {
  if (checkpointer_ != nullptr) {
    MutexLock lock(&checkpointer_->mu_);
    checkpointer_->claimed_ = false;
  }
}

bool CheckpointScope::WouldClaim(const RunContext* ctx) {
  return ctx != nullptr && ctx->checkpointer() != nullptr &&
         !ctx->checkpointer()->claimed();
}

Status CheckpointScope::TakeResume(std::optional<SnapshotReader>* reader) {
  reader->reset();
  if (checkpointer_ == nullptr) {
    return Status::Ok();
  }
  MutexLock lock(&checkpointer_->mu_);
  if (!checkpointer_->resume_.has_value() ||
      checkpointer_->resume_consumed_) {
    return Status::Ok();
  }
  SnapshotData& resume = *checkpointer_->resume_;
  if (resume.kind != kind_) {
    // Another algorithm's state; leave it for the rung it belongs to.
    return Status::Ok();
  }
  if (resume.fingerprint != fingerprint_) {
    return Status::InvalidArgument(
        "snapshot '" + checkpointer_->path_ + "' (kind " + resume.kind +
        ") was written by a run with different parameters; refusing to "
        "resume from it");
  }
  checkpointer_->resume_consumed_ = true;
  if (ctx_ != nullptr) {
    ctx_->SetWorkSpent(resume.work_spent);
  }
  reader->emplace(std::move(resume.payload));
  return Status::Ok();
}

bool CheckpointScope::CheckpointDue() const {
  if (checkpointer_ == nullptr) {
    return false;
  }
  // Cancellation and an exhausted work budget are O(1) loads; deadline
  // expiry is left to the interval writes, which already consult the clock.
  bool trip_pending =
      ctx_ != nullptr &&
      (ctx_->cancellation_requested() ||
       (ctx_->has_work_budget() && ctx_->work_remaining() == 0));
  MutexLock lock(&checkpointer_->mu_);
  if (checkpointer_->ForeignResumePending(kind_)) {
    return false;
  }
  return trip_pending || !checkpointer_->last_write_.has_value() ||
         Checkpointer::Clock::now() - *checkpointer_->last_write_ >=
             checkpointer_->interval_;
}

Status CheckpointScope::WritePayload(std::vector<uint8_t> payload) {
  // Held across the file write: one writer at a time per checkpoint path
  // (WriteSnapshotFile's unique temp names already make concurrent writers
  // safe; the lock makes them ordered, so last_write_/writes_ cannot drift
  // from what is on disk).
  MutexLock lock(&checkpointer_->mu_);
  if (checkpointer_->ForeignResumePending(kind_)) {
    return Status::Ok();  // this run proceeds without checkpointing
  }
  SnapshotData data;
  data.kind = kind_;
  data.fingerprint = fingerprint_;
  data.work_spent = ctx_ != nullptr ? ctx_->work_spent() : 0;
  data.payload = std::move(payload);
  QREL_RETURN_IF_ERROR(WriteSnapshotFile(checkpointer_->path_, data));
  checkpointer_->last_write_ = Checkpointer::Clock::now();
  ++checkpointer_->writes_;
  return Status::Ok();
}

}  // namespace qrel
