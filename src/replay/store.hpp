// Checkpoint store with a recovery ladder, consistent across process
// crashes.
//
// CheckpointStore rotates binary snapshots (replay/binary.hpp) in a
// directory: every `full_interval`-th checkpoint is a full snapshot (a
// chain base), the ones between are dirty-section deltas chained to their
// predecessor. Each chain is one append-only file, `<prefix>-NNNNNNNN.usnap`
// named by its base's seq (the low eight decimal digits): a base creates
// the file (replacing one of that name) and every delta is one append of
// its rung bytes to it, through the descriptor the store keeps open. A
// chain file is its rungs back to back, each exactly the bytes a
// standalone snapshot of that seq would hold.
//
// No rename makes a rung visible; the checksums make a torn one safe. A
// process that dies mid-append leaves a rung cut short, and a reader
// finds every rung's end from its header and frame lengths and proves it
// with the frame checksums and the trailer (binary_rung_size, then the
// chain decode), so a cut or scribbled rung is caught where it starts and
// everything before it still restores. Every delta depends on the rung
// before it, so a bad rung takes the rest of its chain with it anyway.
// That covers process death only: nothing calls fsync, so a power loss or
// kernel crash can still lose or reorder appends the page cache held
// (ROADMAP item 7).
//
// Recovery walks the ladder: restore_latest_good() restores the newest
// rung that still checks out. A restore pass opens the directory once,
// lists it with readdir (other processes may write it), matching chain
// names without building paths and noting the inode each name links to,
// and then goes through the chain files newest first. It reads a file in
// full into a buffer the store keeps, splits it into rungs (parsing each
// rung's header once) and hands them to the one-pass chain decoder
// (image_from_binary_chain), which names the rung a failure belongs to. A
// bad rung past the base is *quarantined* by truncating its file there,
// and the rung before it restores; a bad base sets the whole file aside,
// renamed to `<name>.quarantined`, and the walk goes on to the next older
// file. Either way one QuarantineRecord names the file and the rung, with
// its structured diagnostics. restore_to(seq) splits a chain only up to
// `seq` and skips chain files based above it, so it never judges, cuts or
// renames a rung above its target. Supervision warm restarts ride on
// this: a supervisor restart callback that calls restore_latest_good()
// recovers the newest state that still checks out. After a successful
// restore the next checkpoint starts a new chain, numbered above every
// rung on disk: that checkpoint reads the newest chain file to learn its
// last seq, which a rewind leaves unread.
//
// Decode reuse: the store remembers the chain file its last successful
// restore decoded, the bytes of the rungs it restored and the decoded
// image. A later restore still lists the directory, reads the chain file
// and splits it; when it is the same chain file and the rungs it split
// are byte-for-byte the remembered bytes, it applies the remembered image
// instead of decoding again (Stats::reused_decodes counts these). The
// decode is a pure function of those bytes, and the key is the bytes read
// from disk in that same pass, so nothing on disk is trusted without being
// read: a new rung, a prune, a quarantine, an in-place bit flip or another
// process's write reads back differently and decodes afresh. Only a
// successful decode replaces the image, so the memo always holds the
// decode of its bytes. Root-cause probes, which restore the same last-good
// chain over and over, are the pattern this serves.
//
// The held descriptor: the store keeps one chain file open between calls
// (close-on-exec): the chain it appends to, from the base that creates it,
// or else the chain file it last read, which after a successful restore is
// the restored chain. A pass reads a chain file through that descriptor
// (one fstat and one pread from offset 0) when its own listing shows the
// same inode under the file's name; otherwise it closes it, opens the name
// (openat, fstat, pread) and holds the new descriptor if its st_ino equals
// the listed inode. An open descriptor pins its inode, so no other file
// can take that number while the store holds it: an equal inode means the
// name still links to that very file. An append, truncation or in-place
// write is read by the pread; a rename over the name, a delete or a
// recreate lists a new inode and the name is opened afresh. Where a file
// system's d_ino differs from st_ino no descriptor is reused. Either way
// the file is read in full in every pass, and the decode key is the bytes
// that pass read. Setting a file aside closes its descriptor, a base
// replaces it with the new chain's, and the destructor closes it; the
// store is not copyable.
//
// Fault injection: an installed FaultPlan is consulted once per write at
// FaultSite::kCheckpoint. kError tears the rung (half of it appended),
// kBitFlip flips one bit, kDropResponse loses it (nothing appended; a lost
// base still creates its file, empty, so that chain never restores). The
// chaos soak drives exactly these paths and expects every seed to recover
// through the ladder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
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
  /// Full bases retained. Rotation deletes every chain file older than the
  /// oldest retained base, so every surviving delta always has its base.
  unsigned keep_fulls = 2;
};

class CheckpointStore {
 public:
  struct WriteResult {
    std::uint64_t seq = 0;
    bool delta = false;
    bool torn = false;     ///< Injected kError: half the rung appended.
    bool lost = false;     ///< Injected kDropResponse: nothing appended.
    bool flipped = false;  ///< Injected kBitFlip: one bit corrupted.
    std::size_t bytes = 0;
    std::filesystem::path path;  ///< The chain file the rung went to.
  };

  struct QuarantineRecord {
    std::filesystem::path path;  ///< The chain file, as named before any rename.
    std::string reason;  ///< The bad rung and the diagnostics of its failed validation.
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
    std::uint64_t pruned = 0;        ///< Chain files deleted by rotation.
    /// Restores that applied the remembered image of a byte-identical chain
    /// instead of decoding it again (counted in `restores` too).
    std::uint64_t reused_decodes = 0;
    /// Chain file reads served through the descriptor the store held from
    /// an earlier write or read instead of opening the file's name.
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

  /// Walks the ladder newest-to-oldest: validates each chain file's rungs,
  /// quarantines what fails (structured reason recorded), and applies the
  /// newest rung that survives. Returns false only when no restorable
  /// checkpoint remains; quarantine events along the way surface as
  /// warnings on `sink`, terminal failure as an error. On success the
  /// encoder chain is reset and numbering resumes above the newest rung on
  /// disk, so later checkpoints never overwrite or sort below a survivor.
  [[nodiscard]] bool restore_latest_good(const SnapshotTargets& targets,
                                         support::DiagnosticSink& sink);

  /// Time travel: restores the newest checkpoint whose sequence is <= `seq`
  /// (exactly `seq` when that rung survives on disk), materializing its
  /// full+delta chain with the same validation and quarantine behavior as
  /// restore_latest_good, including the encoder reset on success. Rungs
  /// above `seq` are neither read nor changed. Returns false when no rung
  /// at or below `seq` restores.
  [[nodiscard]] bool restore_to(std::uint64_t seq, const SnapshotTargets& targets,
                                support::DiagnosticSink& sink);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }
  [[nodiscard]] const CheckpointStoreConfig& config() const { return config_; }

 private:
  /// A chain file found by one listing: its base seq and the inode its
  /// name linked to then.
  struct ListedChain {
    std::uint64_t base = 0;
    std::uint64_t inode = 0;
  };

  /// What the last successful decode read and made of it.
  struct DecodedChain {
    std::uint64_t base = 0;  ///< The chain file's base seq.
    std::string bytes;       ///< The rungs decoded, as read from that file.
    SnapshotImage image;
  };

  [[nodiscard]] std::filesystem::path path_for(std::uint64_t base) const;
  /// Shared ladder walk: restores the newest rung with seq <= max_seq.
  [[nodiscard]] bool restore_ladder(std::uint64_t max_seq, const SnapshotTargets& targets,
                                    support::DiagnosticSink& sink);
  /// Reads chain file `chain` in full into `file_`: through the held
  /// descriptor when it holds the listed inode, else by opening the name
  /// relative to `directory_fd`, which then becomes the held descriptor if
  /// its inode is the listed one.
  [[nodiscard]] bool read_chain(int directory_fd, const ListedChain& chain);
  /// Splits `file_` into `rungs_` and `seqs_`, from its base up to the rung
  /// `max_seq`. Returns why the rung after them cannot be delimited, or ""
  /// when the split ended at `max_seq` or the end of the file.
  [[nodiscard]] std::string split(std::uint64_t max_seq);
  /// Quarantines every rung of `chain` after `rungs_`: truncates the file
  /// after them or, with `rungs_` empty, sets the file aside.
  void quarantine(const ListedChain& chain, std::string reason, support::DiagnosticSink& sink);
  void prune(support::DiagnosticSink& sink);
  /// Raises the numbering above the newest chain file's last readable rung.
  void number_above_disk();
  void close_chain();

  CheckpointStoreConfig config_;
  IncrementalEncoder encoder_;
  sim::FaultPlan* fault_plan_ = nullptr;
  std::uint64_t count_ = 0;             ///< Checkpoints attempted (cadence clock).
  std::vector<std::uint64_t> fulls_;    ///< Seqs of retained full snapshots, ascending.
  std::vector<QuarantineRecord> quarantined_;
  DecodedChain decoded_;  ///< Empty until a restore decodes a chain.
  /// The one chain file held open, -1 for none: the chain being appended
  /// to while `appending_`, else the chain file last read.
  int chain_fd_ = -1;
  std::uint64_t chain_base_ = 0;  ///< Base seq naming the held file.
  bool appending_ = false;
  /// Set by a restore: the next checkpoint numbers above every rung on disk.
  bool renumber_ = false;
  /// Per-pass scratch, kept so that a warm pass allocates nothing: the
  /// listing, the chain file's bytes, its rungs and their seqs, and the
  /// name of the file being opened.
  std::vector<ListedChain> chains_;
  std::string file_;
  std::vector<std::string_view> rungs_;
  std::vector<std::uint64_t> seqs_;
  std::string name_;
  Stats stats_;
};

}  // namespace umlsoc::replay
