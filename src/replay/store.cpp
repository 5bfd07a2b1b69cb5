#include "replay/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <fstream>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

namespace umlsoc::replay {

namespace {

constexpr std::string_view kExtension = ".usnap";
constexpr std::string_view kTmpSuffix = ".tmp";
constexpr std::string_view kQuarantineSuffix = ".quarantined";

/// Closes a file descriptor when it leaves scope, unless released.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] int get() const { return fd_; }
  /// Hands the descriptor to the caller, who closes it.
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// The store directory, open for one pass: listed with readdir, and the
/// directory that rung names are opened relative to. A directory that
/// cannot be opened lists as empty and reads nothing.
class Directory {
 public:
  explicit Directory(const std::filesystem::path& path) : stream_(::opendir(path.c_str())) {}
  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;
  ~Directory() {
    if (stream_ != nullptr) ::closedir(stream_);
  }
  [[nodiscard]] DIR* stream() const { return stream_; }
  /// The descriptor for *at() calls; -1 when the directory did not open.
  [[nodiscard]] int fd() const { return stream_ == nullptr ? -1 : ::dirfd(stream_); }

 private:
  DIR* stream_;
};

/// Reads the whole open file `fd` into `out`, from offset 0 whatever the
/// descriptor's position: one fstat and one pread. `status` receives the
/// fstat result.
bool read_whole(int fd, std::string& out, struct stat& status) {
  if (::fstat(fd, &status) != 0) return false;
  out.resize(static_cast<std::size_t>(status.st_size));
  // A regular file returns everything in one pread; the loop covers short
  // reads and signals. A file that shrank underneath fails the read.
  for (std::size_t done = 0; done < out.size();) {
    const ssize_t got = ::pread(fd, out.data() + done, out.size() - done,
                                static_cast<off_t>(done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
}

/// True when a tmp filename `<base>.<pid>.tmp` embeds the pid of a process
/// that is still alive — that tmp is a concurrent writer's in-flight
/// checkpoint, not a stray. Legacy tmps without a pid always read as dead.
bool tmp_writer_alive(std::string_view name) {
  if (name.size() <= kTmpSuffix.size()) return false;
  const std::string_view body = name.substr(0, name.size() - kTmpSuffix.size());
  const std::size_t dot = body.rfind('.');
  if (dot == std::string_view::npos) return false;
  const char* first = body.data() + dot + 1;
  const char* last = body.data() + body.size();
  long long pid = 0;
  const auto [ptr, ec] = std::from_chars(first, last, pid);
  if (ec != std::errc() || ptr != last || pid <= 0) return false;
  if (pid > std::numeric_limits<pid_t>::max()) return false;
  // Signal 0: existence probe. EPERM still means the process exists.
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

/// Lands `bytes` at `path`: written to a tmp sibling, then renamed into
/// place, unless `lost` (a crash before the rename leaves the tmp).
bool land_file(const std::filesystem::path& path, std::string_view bytes, bool lost,
               support::DiagnosticSink& sink) {
  // The tmp sibling carries the writer's pid: if two processes ever touch
  // the same directory (a re-dispatched seed racing a predecessor that is
  // being torn down), their in-flight writes cannot collide on one tmp name
  // and clobber each other mid-rename.
  const std::filesystem::path tmp =
      path.string() + "." + std::to_string(::getpid()) + std::string(kTmpSuffix);
  if (!write_file(tmp, bytes)) {
    sink.error("checkpoint-store", "cannot write " + tmp.string());
    return false;
  }
  if (lost) return true;
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    sink.error("checkpoint-store", "cannot rename " + tmp.string() + ": " + ec.message());
    return false;
  }
  return true;
}

/// Calls `visit(name, inode)` for each regular file in `directory`,
/// following symlinks as std::filesystem::is_regular_file does; `inode` is
/// the file's d_ino, or the fstatat st_ino of an entry that had to be
/// stat'ed (unknown type or a symlink). One readdir pass from where the
/// stream stands (every caller lists a Directory it just opened), with no
/// path built per entry; `name` is valid only during the call.
template <typename Visit>
void list_files(Directory& directory, Visit&& visit) {
  if (directory.stream() == nullptr) return;
  while (const dirent* entry = ::readdir(directory.stream())) {
    bool regular = entry->d_type == DT_REG;
    std::uint64_t inode = entry->d_ino;
    if (entry->d_type == DT_UNKNOWN || entry->d_type == DT_LNK) {
      struct stat status {};
      regular = ::fstatat(directory.fd(), entry->d_name, &status, 0) == 0 &&
                S_ISREG(status.st_mode);
      inode = status.st_ino;
    }
    if (regular) visit(std::string_view(entry->d_name), inode);
  }
}

/// Writes rung `seq`'s file name, `<prefix>-NNNNNNNN.usnap` (the low eight
/// decimal digits), into `name`, reusing its capacity.
void rung_name(std::string_view prefix, std::uint64_t seq, std::string& name) {
  name.assign(prefix);
  name += "-00000000";
  name += kExtension;
  for (std::size_t i = prefix.size() + 8; i > prefix.size(); --i) {
    name[i] = static_cast<char>('0' + seq % 10);
    seq /= 10;
  }
}

/// True when `name` starts with `<prefix>-`.
bool has_stem(std::string_view name, std::string_view prefix) {
  return name.size() > prefix.size() && name.starts_with(prefix) && name[prefix.size()] == '-';
}

/// The non-quarantined checkpoint files in `directory`, with their inodes,
/// into `rungs`, by seq descending. Names are matched in one listing; no
/// path is built for a rung until it is pruned or quarantined. (`Rung` is
/// CheckpointStore::ListedRung, a private type this function cannot name.)
template <typename Rung>
void scan(Directory& directory, std::string_view prefix, std::vector<Rung>& rungs) {
  rungs.clear();
  const std::size_t digits_at = prefix.size() + 1;
  list_files(directory, [&](std::string_view name, std::uint64_t inode) {
    if (name.size() != digits_at + 8 + kExtension.size() || !has_stem(name, prefix) ||
        !name.ends_with(kExtension)) {
      return;
    }
    std::uint64_t seq = 0;
    const char* digits = name.data() + digits_at;
    const auto [ptr, parse_ec] = std::from_chars(digits, digits + 8, seq);
    if (parse_ec == std::errc() && ptr == digits + 8) rungs.push_back({seq, inode});
  });
  std::sort(rungs.begin(), rungs.end(),
            [](const Rung& a, const Rung& b) { return a.seq > b.seq; });
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

CheckpointStore::CheckpointStore(CheckpointStoreConfig config) : config_(std::move(config)) {
  if (config_.full_interval == 0) config_.full_interval = 1;
  if (config_.keep_fulls == 0) config_.keep_fulls = 1;
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  sweep_stray_tmps();
}

CheckpointStore::~CheckpointStore() {
  close_held_if([](const HeldRung&) { return true; });
}

template <typename Drop>
void CheckpointStore::close_held_if(Drop&& drop) {
  std::erase_if(held_, [&drop](const HeldRung& held) {
    if (!drop(held)) return false;
    ::close(held.fd);
    return true;
  });
}

bool CheckpointStore::read_rung(int directory_fd, std::uint64_t seq, std::uint64_t inode,
                                std::string& out) {
  struct stat status {};
  const auto held = std::find_if(held_.begin(), held_.end(),
                                 [seq](const HeldRung& rung) { return rung.seq == seq; });
  if (held != held_.end()) {
    // The held descriptor pins its inode, so an equal listed inode means
    // the name still links to this very file.
    if (held->inode == inode) {
      ++stats_.held_reads;
      return read_whole(held->fd, out, status);
    }
    ::close(held->fd);
    held_.erase(held);
  }
  rung_name(config_.prefix, seq, name_);
  FileDescriptor file(::openat(directory_fd, name_.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0) return false;
  const bool read = read_whole(file.get(), out, status);
  if (read && status.st_ino == inode) {
    held_.push_back({seq, inode, -1});
    held_.back().fd = file.release();
  }
  return read;
}

void CheckpointStore::sweep_stray_tmps() {
  Directory directory(config_.directory);
  list_files(directory, [this](std::string_view name, std::uint64_t) {
    if (!has_stem(name, config_.prefix) || !name.ends_with(kTmpSuffix)) return;
    // A pid-scoped tmp whose writer is still running is an in-flight
    // checkpoint of a concurrent store (the race the pid-scoped names exist
    // to tolerate) — deleting it would fail that writer's rename mid-
    // checkpoint. Only genuinely orphaned tmps are strays.
    if (tmp_writer_alive(name)) return;
    std::error_code rm;
    if (std::filesystem::remove(config_.directory / name, rm)) ++stats_.tmp_swept;
  });
}

std::filesystem::path CheckpointStore::path_for(std::uint64_t seq) const {
  std::string name;
  rung_name(config_.prefix, seq, name);
  return config_.directory / name;
}

bool CheckpointStore::checkpoint(const SnapshotTargets& targets, WriteResult& out,
                                 support::DiagnosticSink& sink) {
  const bool force_full = count_ % config_.full_interval == 0;
  ++count_;

  IncrementalEncoder::Result encoded;
  if (!encoder_.encode(targets, force_full, encoded, sink)) return false;

  WriteResult result;
  result.seq = encoded.seq;
  result.delta = encoded.delta;
  result.path = path_for(encoded.seq);

  std::string bytes = std::move(encoded.bytes);
  if (fault_plan_ != nullptr) {
    const sim::FaultDecision decision = fault_plan_->consult(sim::FaultSite::kCheckpoint);
    switch (decision.kind) {
      case sim::FaultKind::kError:
        // Torn write: only the first half of the file makes it to disk.
        bytes.resize(bytes.size() / 2);
        result.torn = true;
        break;
      case sim::FaultKind::kDropResponse:
        // Crash before the rename: the tmp file is written but never lands.
        result.lost = true;
        break;
      case sim::FaultKind::kBitFlip: {
        // One bit, spread deterministically across the file by the mask.
        const int bit = std::countr_zero(decision.flip_mask | 1);
        const std::size_t position = bytes.empty() ? 0 : bit * (bytes.size() - 1) / 63;
        if (!bytes.empty()) bytes[position] ^= static_cast<char>(1u << (bit & 7));
        result.flipped = true;
        break;
      }
      case sim::FaultKind::kNone:
        break;
    }
    if (result.torn || result.lost || result.flipped) ++stats_.write_faults;
  }

  // Store I/O (write, rename, prune) is timed apart from the encode.
  const auto io_started = std::chrono::steady_clock::now();
  const bool landed = land_file(result.path, bytes, result.lost, sink);
  if (landed) {
    result.bytes = bytes.size();
    ++stats_.checkpoints;
    stats_.bytes_written += bytes.size();
    if (encoded.delta) {
      ++stats_.deltas;
    } else {
      ++stats_.fulls;
      // A lost full must not count as a retained base: its deltas would
      // chain to a file that never landed.
      if (!result.lost) {
        fulls_.push_back(encoded.seq);
        prune(sink);
      }
    }
  }
  targets.kernel->note_snapshot_store(elapsed_ns(io_started));
  if (!landed) return false;
  out = result;
  return true;
}

void CheckpointStore::prune(support::DiagnosticSink& sink) {
  if (fulls_.size() <= config_.keep_fulls) return;
  fulls_.erase(fulls_.begin(), fulls_.end() - config_.keep_fulls);
  const std::uint64_t keep_from = fulls_.front();
  close_held_if([keep_from](const HeldRung& held) { return held.seq < keep_from; });
  Directory directory(config_.directory);
  std::vector<ListedRung> rungs;
  scan(directory, config_.prefix, rungs);
  for (const ListedRung& rung : rungs) {
    if (rung.seq >= keep_from) continue;
    const std::filesystem::path path = path_for(rung.seq);
    std::error_code ec;
    if (std::filesystem::remove(path, ec)) {
      ++stats_.pruned;
    } else if (ec) {
      sink.warning("checkpoint-store", "cannot prune " + path.string() + ": " + ec.message());
    }
  }
}

void CheckpointStore::quarantine(std::uint64_t seq, std::string reason,
                                 support::DiagnosticSink& sink) {
  close_held_if([seq](const HeldRung& held) { return held.seq == seq; });
  const std::filesystem::path path = path_for(seq);
  std::error_code ec;
  std::filesystem::rename(path, path.string() + std::string(kQuarantineSuffix), ec);
  if (ec) {
    // Renaming failed (e.g. the file vanished); removing keeps the ladder
    // terminating either way.
    std::filesystem::remove(path, ec);
  }
  sink.warning("checkpoint-store", "quarantined " + path.filename().string() + ": " + reason);
  quarantined_.push_back({path, std::move(reason)});
  ++stats_.quarantines;
}

bool CheckpointStore::restore_latest_good(const SnapshotTargets& targets,
                                          support::DiagnosticSink& sink) {
  return restore_ladder(std::numeric_limits<std::uint64_t>::max(), targets, sink);
}

bool CheckpointStore::restore_to(std::uint64_t seq, const SnapshotTargets& targets,
                                 support::DiagnosticSink& sink) {
  return restore_ladder(seq, targets, sink);
}

bool CheckpointStore::restore_ladder(std::uint64_t max_seq, const SnapshotTargets& targets,
                                     support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("checkpoint-store", "no kernel target registered");
    return false;
  }
  const auto started = std::chrono::steady_clock::now();
  // Every pass either restores, or quarantines at least one file and
  // rescans — so the walk terminates.
  for (;;) {
    Directory directory(config_.directory);
    scan(directory, config_.prefix, listed_);
    // Rungs newer than the rewind target are skipped, not quarantined: a
    // time-travel probe must leave the rest of the ladder intact. They stay
    // in the listing past the tip choice so delta chains that reach *below*
    // max_seq still resolve their bases.
    std::size_t first = 0;
    while (first < listed_.size() && listed_[first].seq > max_seq) ++first;
    if (first == listed_.size()) {
      sink.error("checkpoint-store",
                 "no restorable checkpoint in " + config_.directory.string() +
                     (max_seq == std::numeric_limits<std::uint64_t>::max()
                          ? ""
                          : " at or below seq " + std::to_string(max_seq)) +
                     " (" + std::to_string(quarantined_.size()) + " quarantined)");
      // Nothing listed is left to read; failed passes may have opened rungs
      // of chains that never restored.
      close_held_if([](const HeldRung&) { return true; });
      return false;
    }

    const std::uint64_t tip = listed_[first].seq;
    // Materialize the tip's chain, newest to oldest, via base_seq links,
    // reading rung i of chain_ into read_[i].
    chain_.clear();
    std::string tip_failure;
    std::optional<std::uint64_t> broken;
    const ListedRung* cursor = &listed_[first];
    for (;;) {
      if (read_.size() == chain_.size()) read_.emplace_back();
      std::string& bytes = read_[chain_.size()];
      support::DiagnosticSink probe;
      BinarySnapshotInfo info;
      if (!read_rung(directory.fd(), cursor->seq, cursor->inode, bytes)) {
        broken = cursor->seq;
        tip_failure = "unreadable file";
        break;
      }
      if (!read_binary_info(bytes, info, probe)) {
        broken = cursor->seq;
        tip_failure = probe.str();
        break;
      }
      chain_.push_back(cursor->seq);
      if (!info.delta) break;  // Reached the full base.
      const auto base = std::find_if(
          listed_.begin(), listed_.end(),
          [&info](const ListedRung& rung) { return rung.seq == info.base_seq; });
      if (base == listed_.end() || chain_.size() > listed_.size()) {
        // The base was lost, quarantined, or the links cycle; nothing this
        // delta chains to can be trusted, so the tip itself steps aside.
        broken = tip;
        tip_failure = "delta " + std::to_string(info.seq) + " needs base checkpoint " +
                      std::to_string(info.base_seq) + ", which is missing";
        break;
      }
      cursor = &*base;
    }
    if (broken) {
      quarantine(*broken, std::move(tip_failure), sink);
      continue;
    }

    // The decode is a function of the rung bytes alone: a chain that read
    // back byte for byte as the remembered one (kept oldest first) gets the
    // remembered image.
    const std::size_t length = chain_.size();
    bool reused = length == decoded_.seqs.size();
    for (std::size_t i = 0; reused && i < length; ++i) {
      const std::size_t remembered = length - 1 - i;
      reused = chain_[i] == decoded_.seqs[remembered] && read_[i] == decoded_.rungs[remembered];
    }
    if (!reused) {
      // Forget the remembered chain; its rung buffers are swapped into
      // read_ below for the next pass.
      decoded_.seqs.clear();
      decoded_.image = {};
      // Oldest first for the decoder, which validates the chain in one
      // pass and names the rung a failure belongs to.
      const std::vector<std::string_view> oldest_first(read_.rend() - length, read_.rend());
      support::DiagnosticSink attempt;
      std::size_t failed = 0;
      if (!image_from_binary_chain(oldest_first, decoded_.image, attempt, &failed)) {
        close_held_if([](const HeldRung&) { return true; });
        quarantine(chain_[length - 1 - failed], attempt.str(), sink);
        continue;
      }
      decoded_.seqs.assign(chain_.rbegin(), chain_.rend());
      decoded_.rungs.resize(length);
      for (std::size_t i = 0; i < length; ++i) decoded_.rungs[i].swap(read_[length - 1 - i]);
    }

    support::DiagnosticSink apply_sink;
    if (!apply_image(targets, decoded_.image, apply_sink)) {
      quarantine(decoded_.seqs.back(), "restore failed: " + apply_sink.str(), sink);
      continue;
    }
    // Keep exactly the restored chain's rungs open.
    close_held_if([this](const HeldRung& held) {
      return std::find(chain_.begin(), chain_.end(), held.seq) == chain_.end();
    });
    targets.kernel->note_snapshot_restore(elapsed_ns(started));
    // Later checkpoints start a new chain numbered above every rung on disk.
    encoder_.resume_after(listed_.front().seq);
    ++stats_.restores;
    if (reused) ++stats_.reused_decodes;
    stats_.restored_seq = decoded_.seqs.back();
    sink.note("checkpoint-store",
              "restored checkpoint " + std::to_string(stats_.restored_seq) + " (chain of " +
                  std::to_string(decoded_.seqs.size()) + ")");
    return true;
  }
}

}  // namespace umlsoc::replay
