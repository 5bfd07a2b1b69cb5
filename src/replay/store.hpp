// Checkpoint store with a recovery ladder, consistent across process
// crashes.
//
// CheckpointStore rotates binary snapshots (replay/binary.hpp) in a
// directory: every `full_interval`-th checkpoint is a full snapshot (a
// chain base), the ones between are dirty-section deltas chained to their
// predecessor. Files are written atomically — payload to a `.tmp` sibling,
// then renamed into place — so a process that dies mid-write leaves either
// the old state or a stray `.tmp` the scanner ignores, never a
// half-visible checkpoint under its final name. That covers process death
// only: nothing calls fsync, so a power loss or kernel crash can still
// lose or tear a renamed rung (ROADMAP item 7).
//
// Recovery walks the ladder: restore_latest_good() materializes the newest
// checkpoint's chain and validates every rung (header, per-section
// checksums, chain links, payload decodes) before anything is applied.
// Each pass of a restore opens the directory once and works relative to
// that descriptor: it lists the directory with readdir (other processes
// may write it), matching rung names without building paths and noting
// the inode each name links to, and reads every rung of the chain in full
// into buffers the store keeps (see "Held rung files" below for how). The
// rung bytes go to the one-pass chain decoder (image_from_binary_chain),
// which names the rung a failure belongs to. A corrupt, truncated or
// version-skewed file is *quarantined* — renamed to `<name>.quarantined`
// and recorded with its structured diagnostics — and the ladder steps down
// to the next older checkpoint until one restores or the directory is
// exhausted. Supervision warm restarts ride on this: a supervisor restart
// callback that calls restore_latest_good() recovers the newest state that
// still checks out. After a successful restore the next checkpoint starts
// a new chain, numbered above every rung the restore's own directory scan
// found.
//
// Decode reuse: the store remembers the chain its last successful restore
// decoded — rung seqs, the rung bytes that passed every check, and the
// decoded image. A later restore still lists the directory, reads every
// rung of its chain and checks every header; when the chain it read has
// the same seqs and every rung is byte-for-byte equal to the remembered
// bytes, it applies the remembered image instead of decoding again
// (Stats::reused_decodes counts these). The decode is a pure function of
// those bytes, and the key is the bytes read from disk in that same pass,
// so nothing on disk is trusted without being read: a new rung, a prune, a
// quarantine, an in-place bit flip or another process's write reads back
// differently and decodes afresh. A failed decode forgets the chain. The
// store holds one chain; root-cause probes, which restore the same
// last-good chain over and over, are the pattern this serves.
//
// Held rung files: the store also keeps each rung of the remembered chain
// open (read-only, close-on-exec) with the inode it was opened on, and a
// later pass reads a rung through that descriptor (one fstat and one pread
// from offset 0) when its own listing shows the same inode under the
// rung's name; otherwise it opens the name (openat, fstat, pread, close)
// and keeps the descriptor only when its st_ino equals the listed inode.
// An open descriptor pins its inode, so no other file can take that number
// while the store holds it: an equal inode means the name still links to
// that very file. An in-place write or truncation is read by the pread; a
// rename over the name, a delete or a recreate lists a new inode and the
// name is opened afresh. Where a file system's d_ino differs from st_ino
// no descriptor is kept and every rung is opened by name. Either way every
// rung is read in full in every pass, and the decode key is the bytes that
// pass read. Lifetime: after a successful restore the store holds exactly
// the restored chain's descriptors and closes every other; a failed
// decode or an exhausted ladder closes them all, a quarantine or a prune
// of a rung closes its descriptor, and so does the destructor. So between
// calls a store holds at most one chain's rungs open, and it is not
// copyable.
//
// Fault injection: an installed FaultPlan is consulted once per write at
// FaultSite::kCheckpoint. kError tears the file (half written), kBitFlip
// flips one bit, kDropResponse models a crash before the rename (the tmp
// file never lands). The chaos soak drives exactly these paths and expects
// every seed to recover through the ladder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/fault.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

struct CheckpointStoreConfig {
  std::filesystem::path directory;
  std::string prefix = "ckpt";
  /// Every Nth checkpoint is a full snapshot (chain base); must be >= 1.
  /// 1 makes every checkpoint full (no deltas).
  unsigned full_interval = 8;
  /// Full bases retained. Rotation deletes everything older than the
  /// oldest retained full, so every surviving delta always has its base.
  unsigned keep_fulls = 2;
};

class CheckpointStore {
 public:
  struct WriteResult {
    std::uint64_t seq = 0;
    bool delta = false;
    bool torn = false;     ///< Injected kError: file truncated to half.
    bool lost = false;     ///< Injected kDropResponse: never renamed into place.
    bool flipped = false;  ///< Injected kBitFlip: one bit corrupted.
    std::size_t bytes = 0;
    std::filesystem::path path;
  };

  struct QuarantineRecord {
    std::filesystem::path path;
    std::string reason;  ///< Structured diagnostics from the failed validation.
  };

  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t fulls = 0;
    std::uint64_t deltas = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t write_faults = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t restores = 0;
    std::uint64_t restored_seq = 0;  ///< Seq of the last successful restore.
    std::uint64_t pruned = 0;        ///< Files deleted by rotation.
    std::uint64_t tmp_swept = 0;     ///< Stray tmp files removed at open.
    /// Restores that applied the remembered image of a byte-identical chain
    /// instead of decoding it again (counted in `restores` too).
    std::uint64_t reused_decodes = 0;
    /// Rung reads served through a descriptor the store held from an
    /// earlier read instead of opening the rung's name.
    std::uint64_t held_reads = 0;
  };

  explicit CheckpointStore(CheckpointStoreConfig config);
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;
  ~CheckpointStore();

  /// Installs (or clears) the fault plan consulted per write at
  /// FaultSite::kCheckpoint.
  void install_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  /// Captures the targets (snapshot refusal rules apply) and writes the
  /// next checkpoint in the rotation. Injected write faults do NOT fail the
  /// call — a torn or lost checkpoint is the recovery ladder's problem —
  /// but are reported in `out`.
  [[nodiscard]] bool checkpoint(const SnapshotTargets& targets, WriteResult& out,
                                support::DiagnosticSink& sink);

  /// Walks the ladder newest-to-oldest: validates each checkpoint's full
  /// chain, quarantines every file that fails (structured reason recorded),
  /// and applies the newest chain that survives. Returns false only when no
  /// restorable checkpoint remains; quarantine events along the way surface
  /// as warnings on `sink`, terminal failure as an error. On success the
  /// encoder chain is reset and numbering resumes above the newest rung on
  /// disk, so later checkpoints never overwrite or sort below a survivor.
  [[nodiscard]] bool restore_latest_good(const SnapshotTargets& targets,
                                         support::DiagnosticSink& sink);

  /// Time travel: restores the newest checkpoint whose sequence is <= `seq`
  /// (exactly `seq` when that rung survives on disk), materializing its
  /// full+delta chain with the same validation and quarantine behavior as
  /// restore_latest_good, including the encoder reset on success. Returns
  /// false when no rung at or below `seq` restores.
  [[nodiscard]] bool restore_to(std::uint64_t seq, const SnapshotTargets& targets,
                                support::DiagnosticSink& sink);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }
  [[nodiscard]] const CheckpointStoreConfig& config() const { return config_; }

 private:
  /// The chain the last successful restore decoded, oldest first.
  struct DecodedChain {
    std::vector<std::uint64_t> seqs;
    std::vector<std::string> rungs;  ///< File bytes, parallel to `seqs`.
    SnapshotImage image;
  };

  /// A checkpoint file found by one listing: its seq and the inode its name
  /// linked to then.
  struct ListedRung {
    std::uint64_t seq = 0;
    std::uint64_t inode = 0;
  };

  /// A rung file kept open across restores, and the inode it was opened on.
  struct HeldRung {
    std::uint64_t seq = 0;
    std::uint64_t inode = 0;
    int fd = -1;
  };

  [[nodiscard]] std::filesystem::path path_for(std::uint64_t seq) const;
  /// Shared ladder walk: restores the newest rung with seq <= max_seq.
  [[nodiscard]] bool restore_ladder(std::uint64_t max_seq, const SnapshotTargets& targets,
                                    support::DiagnosticSink& sink);
  /// Reads rung `seq`, listed with `inode`, in full into `out`: through its
  /// held descriptor when that was opened on `inode`, else by opening its
  /// name relative to `directory_fd` (holding the new descriptor when its
  /// inode is `inode`).
  [[nodiscard]] bool read_rung(int directory_fd, std::uint64_t seq, std::uint64_t inode,
                               std::string& out);
  /// Closes the held descriptors whose rung `drop` selects.
  template <typename Drop>
  void close_held_if(Drop&& drop);
  void quarantine(std::uint64_t seq, std::string reason, support::DiagnosticSink& sink);
  void prune(support::DiagnosticSink& sink);
  /// Deletes stray `*.tmp` siblings left by a crashed (or SIGKILLed) writer.
  /// Called at open: by then any previous owner of the directory is dead —
  /// the process pool reaps a worker before re-dispatching its seed — so a
  /// surviving tmp is garbage by definition, and sweeping it keeps crashed
  /// runs from accumulating junk the scanner must skip forever.
  void sweep_stray_tmps();

  CheckpointStoreConfig config_;
  IncrementalEncoder encoder_;
  sim::FaultPlan* fault_plan_ = nullptr;
  std::uint64_t count_ = 0;             ///< Checkpoints attempted (cadence clock).
  std::vector<std::uint64_t> fulls_;    ///< Seqs of retained full snapshots, ascending.
  std::vector<QuarantineRecord> quarantined_;
  DecodedChain decoded_;  ///< Empty until a restore decodes a chain.
  /// Open rung files; between calls, at most the rungs of `decoded_`.
  std::vector<HeldRung> held_;
  /// Per-pass scratch, kept so that a pass allocates nothing per rung: the
  /// listing, the chain's seqs tip first, the rung bytes read in that order
  /// and the name of the rung being opened.
  std::vector<ListedRung> listed_;
  std::vector<std::uint64_t> chain_;
  std::vector<std::string> read_;
  std::string name_;
  Stats stats_;
};

}  // namespace umlsoc::replay
