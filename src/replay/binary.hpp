// Binary snapshot encoding: the one format a checkpoint is written and read
// in. It transcodes SnapshotImage (replay/snapshot.hpp), which owns the
// section structure and the refusal rules; standalone snapshots and every
// CheckpointStore rung use it.
//
// File layout (all integers little-endian):
//
//   "USNAPBIN"                     8-byte magic
//   u32 version                    kSnapshotVersion; any other value rejected
//   u32 flags                      bit 0: delta (needs a base to resolve)
//   u64 seq                        checkpoint sequence number
//   u64 base_seq                   predecessor in the delta chain (0 = full)
//   u32 section_count
//   u64 header checksum            XXH64 over every header byte above
//   section frames ...
//   "USNAPEND"                     8-byte trailer
//
// Section frame:
//
//   u8  kind                       SectionKind
//   u16 name_len + bytes           "" for kernel / fault-plan / recorder
//   u8  entry flags                0 payload, 1 reference, 2 recorder-append
//   u32 payload_len
//   u64 frame checksum             XXH64 of the payload bytes, seeded with
//                                  XXH64 of the metadata bytes above
//   payload bytes
//
// The frame checksum covers the frame's metadata (kind, name, flags,
// length) as well as its payload, so truncation and bit-flips anywhere in a
// frame are detected and reported at section granularity (section name,
// byte offset, stored vs computed checksum) instead of one opaque
// document-level failure. Checksums are support::xxh64 since version 6.
// Version 7 has version 6's frame layout; only the supervisor payload is
// shorter. A file of any other version is refused.
//
// Frames are copy-free: the encoder appends each frame's metadata and
// payload straight into the file buffer and patches the length and
// checksum in place; the parser views names and payloads in the file
// bytes, and a chain decode copies a payload once, when it materializes
// the section.
//
// Incremental checkpoints: a delta file carries full payloads only for the
// sections that changed since the previous checkpoint. Clean sections
// shrink to a *reference* frame whose 8-byte payload is the expected XXH64
// of the base's payload, so a drifted base is caught at resolve time.
// The event-recorder section — which only ever grows during a run — gets a
// dedicated *append* frame carrying just the new entries, spliced onto the
// base payload byte-for-byte. IncrementalEncoder detects all three cases by
// comparing encoded payload bytes.
//
// Each section kind's payload layout is written once, as a transfer() over
// the shared byte codec (support/bytes.hpp) that both encodes and decodes.
// A machine section is its flags and counters followed by
// statechart::transfer_execution_state, the body the verifier's state
// encoding (verify/statespace.*) shares.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "replay/snapshot.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

inline constexpr std::string_view kBinaryMagic = "USNAPBIN";
inline constexpr std::string_view kBinaryTrailer = "USNAPEND";

/// Section kind tags (stable on-disk values).
enum class SectionKind : std::uint8_t {
  kKernel = 1,
  kFaultPlan = 2,
  kRecorder = 3,
  kMachine = 4,
  kBus = 5,
  kWatchdog = 6,
  kSupervisor = 7,
  kBreaker = 8,
  kHealth = 9,
  kBank = 10,
};

[[nodiscard]] std::string_view to_string(SectionKind kind);

/// Parsed header of a binary snapshot (no payload validation).
struct BinarySnapshotInfo {
  int version = 0;
  bool delta = false;
  std::uint64_t seq = 0;
  std::uint64_t base_seq = 0;
  std::uint32_t section_count = 0;
};

/// Parses and validates just the fixed header (magic, version, header
/// checksum). Cheap enough to classify files before a full decode.
[[nodiscard]] bool read_binary_info(std::string_view data, BinarySnapshotInfo& info,
                                    support::DiagnosticSink& sink);

/// Serializes an image as a standalone full binary snapshot (seq 0).
[[nodiscard]] std::string image_to_binary(const SnapshotImage& image);

/// Parses and fully validates a standalone full binary snapshot. Delta
/// files are rejected (they need their chain — see image_from_binary_chain).
[[nodiscard]] bool image_from_binary(std::string_view data, SnapshotImage& image,
                                     support::DiagnosticSink& sink);

/// Resolves a delta chain — chain[0] must be a full snapshot, each later
/// element a delta whose base_seq links to its predecessor's seq — into the
/// final image. One pass, base first: each rung's header and frame checksums
/// are checked once, the base's sections are decoded once, each delta's
/// payload frames are decoded as they land and recorder appends are spliced
/// in place. Reference frames are verified against the materialized base
/// payloads. Any link, checksum or decode break fails with a structured
/// diagnostic and stores the index of the rung that caused it in
/// `*failed_rung` — the prefix chain[0..failed_rung) resolves on its own.
[[nodiscard]] bool image_from_binary_chain(const std::vector<std::string_view>& chain,
                                           SnapshotImage& image,
                                           support::DiagnosticSink& sink,
                                           std::size_t* failed_rung = nullptr);

/// Captures the targets (capture_image: returns false, `out` untouched, when
/// the state is not checkpointable) into a standalone full snapshot, with
/// SnapshotStats accounting on the kernel.
[[nodiscard]] bool save_snapshot_binary(const SnapshotTargets& targets, std::string& out,
                                        support::DiagnosticSink& sink);

/// Restores a standalone full snapshot into `targets`. The file is decoded
/// and matched against the targets before any of them is touched, so format
/// errors never leave a partial restore; component-level apply failures
/// may (see apply_image).
[[nodiscard]] bool restore_snapshot_binary(const SnapshotTargets& targets,
                                           std::string_view data,
                                           support::DiagnosticSink& sink);

// --- incremental encoding ----------------------------------------------------

/// Encodes a stream of checkpoints from the same targets, emitting full
/// snapshots as chain bases and dirty-section deltas in between. Dirty
/// detection compares encoded payload bytes against the previous
/// checkpoint, so a section that merely *ticked* without changing state
/// still dedups to a reference frame. If the section set itself changes
/// (targets added/removed), the encoder falls back to a full snapshot.
class IncrementalEncoder {
 public:
  struct Result {
    std::string bytes;
    bool delta = false;
    std::uint64_t seq = 0;
    std::uint64_t base_seq = 0;  ///< 0 for full snapshots.
    std::size_t sections_dirty = 0;
    std::size_t sections_total = 0;
  };

  /// Captures the targets (same refusal rules as capture_image) and encodes
  /// the next checkpoint in the chain. `force_full` starts a new base.
  /// Updates the kernel's SnapshotStats.
  [[nodiscard]] bool encode(const SnapshotTargets& targets, bool force_full, Result& out,
                            support::DiagnosticSink& sink);

  /// Forgets the chain, so the next encode is a full snapshot, and
  /// continues sequence numbering strictly above `seq`. Used after a
  /// restore from a directory whose rungs survive — new files must never
  /// collide with (or sort below) existing ones.
  void resume_after(std::uint64_t seq) {
    previous_.clear();
    last_seq_ = 0;
    if (next_seq_ <= seq) next_seq_ = seq + 1;
  }

 private:
  struct PrevSection {
    SectionKind kind;
    std::string name;
    std::string payload;
  };
  std::vector<PrevSection> previous_;  ///< Empty = no base yet.
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_seq_ = 0;
};

}  // namespace umlsoc::replay
