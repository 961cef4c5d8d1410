// Versioned, integrity-checked snapshots of a cycling run.
//
// A real-time assimilation service must survive being killed: the snapshot
// captures everything the RealtimeRunner needs to continue *bitwise
// identically* — the ensemble, the cycle index, the overlapped schedule's
// staged analysis buffers, the duplicate-batch guard, the stream's
// undelivered queue and truth ring, the filter's cross-cycle state and the
// metrics rows already produced. The file format is little-endian with a
// magic tag, a format version and a CRC-32 trailer over the payload, so a
// truncated, corrupted or future-format file is *refused* with a precise
// Status instead of silently resuming from garbage. A snapshot replaces the
// previous one atomically (temp file + rename), so a crash mid-write leaves
// the last good checkpoint in place.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "rng/rng.hpp"
#include "stream/realtime_runner.hpp"

namespace turbda::stream {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B434454u;  // "TDCK" LE
// v2: StreamCycleMetrics grew qc_ms / checkpoint_ms / pool_idle_frac.
// v3: overlap_depth config echo + deep-overlap staged-analysis ring;
//     StreamCycleMetrics grew late_applied / ingest_* columns.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Everything a snapshot holds. The config echo fields let resume() refuse a
/// checkpoint taken under a different setup instead of diverging silently.
struct CheckpointData {
  // Config echo.
  std::uint64_t seed = 0;
  std::uint64_t n_members = 0;
  std::uint64_t dim = 0;
  std::int32_t cycles = 0;
  std::uint8_t schedule = 0;      ///< static_cast<uint8_t>(Schedule)
  std::int32_t overlap_depth = 1; ///< Overlapped pipeline depth K

  std::int32_t next_cycle = 0;  ///< first cycle the resumed run executes

  std::vector<std::uint8_t> rng_modelerr;  ///< Rng::kStateBytes
  std::vector<double> ensemble;            ///< n_members * dim, member-major

  // Overlapped schedule: staged analysis buffers (empty unless
  // have_increment).
  std::uint8_t have_increment = 0;
  std::vector<double> buf_prior, buf_post;

  /// Deep-overlap (K > 1) ring: analyses staged but not yet applied at the
  /// snapshot point, in ascending cycle order. Empty for Serial and K == 1
  /// runs.
  struct StagedSlotData {
    std::int32_t cycle = -1;
    std::vector<double> prior, post;
  };
  std::vector<StagedSlotData> ring;

  std::vector<std::uint8_t> applied;  ///< per-window duplicate guard, size cycles
  std::vector<std::uint8_t> stream_state;
  std::vector<std::uint8_t> filter_state;
  std::vector<StreamCycleMetrics> metrics;  ///< rows already produced
};

/// The state a snapshot encodes, as views of the running service's own
/// buffers, so save_checkpoint serializes straight from them with no
/// intermediate copy. Field for field what load_checkpoint decodes into
/// CheckpointData.
struct CheckpointSource {
  std::uint64_t seed = 0;
  std::uint64_t n_members = 0;
  std::uint64_t dim = 0;
  std::int32_t cycles = 0;
  std::uint8_t schedule = 0;
  std::int32_t overlap_depth = 1;
  std::int32_t next_cycle = 0;

  const rng::Rng* rng_modelerr = nullptr;  ///< required
  std::span<const double> ensemble;
  bool have_increment = false;
  std::span<const double> buf_prior, buf_post;  ///< empty unless have_increment

  struct StagedSlot {
    std::int32_t cycle = -1;
    std::span<const double> prior, post;
  };
  std::vector<StagedSlot> ring;  ///< ascending cycle order

  std::span<const std::uint8_t> applied;
  const ObservationStream* stream = nullptr;  ///< required
  const da::Filter* filter = nullptr;         ///< nullptr: free run, no filter state
  std::span<const StreamCycleMetrics> metrics;
};

/// CRC-32 (IEEE, reflected 0xEDB88320) over `data`, slicing-by-8 — shared by
/// the checkpoint and wire formats, exposed for tests.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Encodes `src` into `buf` (cleared first; the caller keeps it to reuse its
/// capacity across snapshots), writes it to `<path>.tmp` in the same
/// directory and renames that over `path`. On failure `path` is left as it
/// was, the temp file is removed, and the Status is kIoError (kUnsupported
/// when the stream or filter cannot be checkpointed).
[[nodiscard]] Status save_checkpoint(const std::string& path, const CheckpointSource& src,
                                     std::vector<std::uint8_t>& buf);

/// Validates magic, version, length and CRC before decoding; on any failure
/// returns a non-ok Status and leaves `data` unspecified.
[[nodiscard]] Status load_checkpoint(const std::string& path, CheckpointData& data);

}  // namespace turbda::stream
