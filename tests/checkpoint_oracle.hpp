// Reference encoders for the checkpoint codec tests: the byte-at-a-time
// CRC-32, the per-byte little-endian f64 writer, and the v3 file image
// written field by field from a decoded CheckpointData. They are the
// straightforward forms of what src/stream/checkpoint.cpp and
// src/common/bytes.hpp do in bulk, so the library codec is checked against
// them byte for byte.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/checkpoint.hpp"

namespace turbda::oracle {

inline std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Length-prefixed f64 array, one byte at a time.
inline void put_f64_span(std::vector<std::uint8_t>& out, std::span<const double> v) {
  put_u64(out, v.size());
  for (double x : v) put_f64(out, x);
}

inline void put_blob(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> v) {
  put_u64(out, v.size());
  out.insert(out.end(), v.begin(), v.end());
}

inline void put_metrics(std::vector<std::uint8_t>& out, const stream::StreamCycleMetrics& m) {
  put_i32(out, m.cycle);
  put_f64(out, m.time_hours);
  put_f64(out, m.rmse_prior);
  put_f64(out, m.rmse_post);
  put_f64(out, m.spread_prior);
  put_f64(out, m.spread_post);
  put_i32(out, m.batches_assimilated);
  put_i32(out, m.batches_discarded);
  put_i32(out, m.max_batch_age);
  put_u8(out, m.deadline_miss ? 1 : 0);
  put_f64(out, m.obs_arrival_cycles);
  put_i32(out, m.obs_rejected);
  put_i32(out, m.batches_rejected);
  put_f64(out, m.max_r_scale);
  put_i32(out, m.analysis_failures);
  put_i32(out, m.solver_fallbacks);
  put_i32(out, m.spread_recoveries);
  put_u8(out, m.degraded ? 1 : 0);
  put_f64(out, m.forecast_ms);
  put_f64(out, m.analysis_ms);
  put_f64(out, m.qc_ms);
  put_f64(out, m.checkpoint_ms);
  put_f64(out, m.cycle_ms);
  put_f64(out, m.pool_idle_frac);
  put_i32(out, m.late_applied);
  put_i32(out, m.ingest_reconnects);
  put_i32(out, m.ingest_frames_corrupt);
  put_i32(out, m.ingest_frames_resynced);
  put_i32(out, m.ingest_queue_drops);
}

/// The complete v3 file image of `d`: header, payload, CRC trailer.
inline std::vector<std::uint8_t> encode_checkpoint_v3(const stream::CheckpointData& d) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, d.seed);
  put_u64(payload, d.n_members);
  put_u64(payload, d.dim);
  put_i32(payload, d.cycles);
  put_u8(payload, d.schedule);
  put_i32(payload, d.overlap_depth);
  put_i32(payload, d.next_cycle);
  put_blob(payload, d.rng_modelerr);
  put_f64_span(payload, d.ensemble);
  put_u8(payload, d.have_increment);
  put_f64_span(payload, d.buf_prior);
  put_f64_span(payload, d.buf_post);
  put_u64(payload, d.ring.size());
  for (const auto& s : d.ring) {
    put_i32(payload, s.cycle);
    put_f64_span(payload, s.prior);
    put_f64_span(payload, s.post);
  }
  put_blob(payload, d.applied);
  put_blob(payload, d.stream_state);
  put_blob(payload, d.filter_state);
  put_u64(payload, d.metrics.size());
  for (const auto& m : d.metrics) put_metrics(payload, m);

  std::vector<std::uint8_t> file;
  put_u32(file, 0x4B434454u);  // "TDCK"
  put_u32(file, 3);
  put_u64(file, payload.size());
  file.insert(file.end(), payload.begin(), payload.end());
  put_u32(file, crc32_bytewise(payload));
  return file;
}

}  // namespace turbda::oracle
