#include "stream/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <fstream>

#include "common/bytes.hpp"

namespace turbda::stream {

namespace {

/// Slicing-by-8 tables: kCrc[0] is the classic byte table, and kCrc[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight input bytes fold
/// into the register with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr auto kCrc = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void put_metrics(std::vector<std::uint8_t>& out, const StreamCycleMetrics& m) {
  bytes::put_i32(out, m.cycle);
  bytes::put_f64(out, m.time_hours);
  bytes::put_f64(out, m.rmse_prior);
  bytes::put_f64(out, m.rmse_post);
  bytes::put_f64(out, m.spread_prior);
  bytes::put_f64(out, m.spread_post);
  bytes::put_i32(out, m.batches_assimilated);
  bytes::put_i32(out, m.batches_discarded);
  bytes::put_i32(out, m.max_batch_age);
  out.push_back(m.deadline_miss ? 1 : 0);
  bytes::put_f64(out, m.obs_arrival_cycles);
  bytes::put_i32(out, m.obs_rejected);
  bytes::put_i32(out, m.batches_rejected);
  bytes::put_f64(out, m.max_r_scale);
  bytes::put_i32(out, m.analysis_failures);
  bytes::put_i32(out, m.solver_fallbacks);
  bytes::put_i32(out, m.spread_recoveries);
  out.push_back(m.degraded ? 1 : 0);
  bytes::put_f64(out, m.forecast_ms);
  bytes::put_f64(out, m.analysis_ms);
  bytes::put_f64(out, m.qc_ms);
  bytes::put_f64(out, m.checkpoint_ms);
  bytes::put_f64(out, m.cycle_ms);
  bytes::put_f64(out, m.pool_idle_frac);
  bytes::put_i32(out, m.late_applied);
  bytes::put_i32(out, m.ingest_reconnects);
  bytes::put_i32(out, m.ingest_frames_corrupt);
  bytes::put_i32(out, m.ingest_frames_resynced);
  bytes::put_i32(out, m.ingest_queue_drops);
}

void read_metrics(bytes::Reader& rd, StreamCycleMetrics& m) {
  m.cycle = rd.i32();
  m.time_hours = rd.f64();
  m.rmse_prior = rd.f64();
  m.rmse_post = rd.f64();
  m.spread_prior = rd.f64();
  m.spread_post = rd.f64();
  m.batches_assimilated = rd.i32();
  m.batches_discarded = rd.i32();
  m.max_batch_age = rd.i32();
  m.deadline_miss = rd.u8() != 0;
  m.obs_arrival_cycles = rd.f64();
  m.obs_rejected = rd.i32();
  m.batches_rejected = rd.i32();
  m.max_r_scale = rd.f64();
  m.analysis_failures = rd.i32();
  m.solver_fallbacks = rd.i32();
  m.spread_recoveries = rd.i32();
  m.degraded = rd.u8() != 0;
  m.forecast_ms = rd.f64();
  m.analysis_ms = rd.f64();
  m.qc_ms = rd.f64();
  m.checkpoint_ms = rd.f64();
  m.cycle_ms = rd.f64();
  m.pool_idle_frac = rd.f64();
  m.late_applied = rd.i32();
  m.ingest_reconnects = rd.i32();
  m.ingest_frames_corrupt = rd.i32();
  m.ingest_frames_resynced = rd.i32();
  m.ingest_queue_drops = rd.i32();
}

/// The v3 payload, in load_checkpoint's order.
Status encode_payload(const CheckpointSource& src, std::vector<std::uint8_t>& out) {
  bytes::put_u64(out, src.seed);
  bytes::put_u64(out, src.n_members);
  bytes::put_u64(out, src.dim);
  bytes::put_i32(out, src.cycles);
  out.push_back(src.schedule);
  bytes::put_i32(out, src.overlap_depth);
  bytes::put_i32(out, src.next_cycle);
  bytes::put_u64(out, rng::Rng::kStateBytes);
  src.rng_modelerr->save_state(out);
  bytes::put_f64_span(out, src.ensemble);
  out.push_back(src.have_increment ? 1 : 0);
  bytes::put_f64_span(out, src.buf_prior);
  bytes::put_f64_span(out, src.buf_post);
  bytes::put_u64(out, src.ring.size());
  for (const auto& s : src.ring) {
    bytes::put_i32(out, s.cycle);
    bytes::put_f64_span(out, s.prior);
    bytes::put_f64_span(out, s.post);
  }
  bytes::put_blob(out, src.applied);
  if (!bytes::put_blob_with(out, [&](std::vector<std::uint8_t>& o) {
        return src.stream->save_state(o);
      }))
    return Status(StatusCode::kUnsupported, "stream does not support checkpointing");
  if (!bytes::put_blob_with(out, [&](std::vector<std::uint8_t>& o) {
        return src.filter == nullptr || src.filter->save_state(o);
      }))
    return Status(StatusCode::kUnsupported, "filter does not support checkpointing");
  bytes::put_u64(out, src.metrics.size());
  for (const auto& m : src.metrics) put_metrics(out, m);
  return Status::Ok();
}

/// Writes `<path>.tmp`, then renames it over `path`: readers see the old
/// file or the new one, never a torn one. A temp file this call created is
/// removed on failure.
Status write_file_atomic(const std::string& path, std::span<const std::uint8_t> file) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status(StatusCode::kIoError, "cannot open checkpoint file for write: " + tmp);
    out.write(reinterpret_cast<const char*>(file.data()), static_cast<std::streamsize>(file.size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return Status(StatusCode::kIoError, "checkpoint write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(StatusCode::kIoError, "cannot replace checkpoint file: " + path);
  }
  return Status::Ok();
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^ kCrc[5][(lo >> 16) & 0xFFu] ^
        kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const CheckpointSource& src,
                       std::vector<std::uint8_t>& buf) {
  // File image: magic, version, then the payload as one length-prefixed
  // blob, then the CRC of the payload.
  buf.clear();
  bytes::put_u32(buf, kCheckpointMagic);
  bytes::put_u32(buf, kCheckpointVersion);
  Status st = Status::Ok();
  if (!bytes::put_blob_with(buf, [&](std::vector<std::uint8_t>& out) {
        st = encode_payload(src, out);
        return st.ok();
      }))
    return st;
  constexpr std::size_t kHeaderBytes = 16;
  bytes::put_u32(buf, crc32(std::span<const std::uint8_t>(buf).subspan(kHeaderBytes)));
  return write_file_atomic(path, buf);
}

Status load_checkpoint(const std::string& path, CheckpointData& data) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status(StatusCode::kIoError, "cannot open checkpoint file: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status(StatusCode::kIoError, "cannot size checkpoint file: " + path);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(file.data()), size))
    return Status(StatusCode::kIoError, "cannot read checkpoint file: " + path);

bytes::Reader rd(file);
  const std::uint32_t magic = rd.u32();
  if (!rd.ok()) return Status(StatusCode::kCorruptData, "checkpoint truncated: no header");
  if (magic != kCheckpointMagic)
    return Status(StatusCode::kCorruptData, "not a checkpoint file (bad magic)");
  const std::uint32_t version = rd.u32();
  if (version != kCheckpointVersion)
    return Status(StatusCode::kUnsupported,
                  "unsupported checkpoint format version " + std::to_string(version) +
                      " (expected " + std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t len = rd.u64();
  const auto payload = rd.raw(len);
  const std::uint32_t stored_crc = rd.u32();
  if (!rd.done())
    return Status(StatusCode::kCorruptData, "checkpoint truncated or has trailing bytes");
  if (crc32(payload) != stored_crc)
    return Status(StatusCode::kCorruptData, "checkpoint CRC mismatch — file is corrupt");

  bytes::Reader pr(payload);
  data.seed = pr.u64();
  data.n_members = pr.u64();
  data.dim = pr.u64();
  data.cycles = pr.i32();
  data.schedule = pr.u8();
  data.overlap_depth = pr.i32();
  data.next_cycle = pr.i32();
  if (!pr.blob(data.rng_modelerr) || !pr.f64_vec(data.ensemble))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  data.have_increment = pr.u8();
  if (!pr.f64_vec(data.buf_prior) || !pr.f64_vec(data.buf_post))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_ring = pr.u64();
  data.ring.clear();
  for (std::uint64_t i = 0; i < n_ring && pr.ok(); ++i) {
    CheckpointData::StagedSlotData s;
    s.cycle = pr.i32();
    if (!pr.f64_vec(s.prior) || !pr.f64_vec(s.post))
      return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
    data.ring.push_back(std::move(s));
  }
  if (!pr.blob(data.applied) || !pr.blob(data.stream_state) || !pr.blob(data.filter_state))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_metrics = pr.u64();
  data.metrics.clear();
  for (std::uint64_t i = 0; i < n_metrics && pr.ok(); ++i) {
    StreamCycleMetrics m;
    read_metrics(pr, m);
    data.metrics.push_back(m);
  }
  if (!pr.done()) return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  if (data.ensemble.size() != data.n_members * data.dim)
    return Status(StatusCode::kCorruptData, "checkpoint ensemble size inconsistent");
  if (data.have_increment != 0 &&
      (data.buf_prior.size() != data.ensemble.size() ||
       data.buf_post.size() != data.ensemble.size()))
    return Status(StatusCode::kCorruptData, "checkpoint analysis buffers inconsistent");
  for (const auto& s : data.ring)
    if (s.prior.size() != data.ensemble.size() || s.post.size() != data.ensemble.size())
      return Status(StatusCode::kCorruptData, "checkpoint staged slot inconsistent");
  return Status::Ok();
}

}  // namespace turbda::stream
