#include "replay/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <limits>
#include <system_error>
#include <utility>

namespace umlsoc::replay {

namespace {

constexpr std::string_view kExtension = ".usnap";
constexpr std::string_view kQuarantineSuffix = ".quarantined";
constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

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
/// directory that chain names are opened relative to. A directory that
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

/// Appends all of `bytes` to `fd`, which was opened O_APPEND.
bool append_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t put = ::write(fd, bytes.data(), bytes.size());
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(put));
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

/// Writes the name of the chain based at `base`, `<prefix>-NNNNNNNN.usnap`
/// (the low eight decimal digits), into `name`, reusing its capacity.
void chain_name(std::string_view prefix, std::uint64_t base, std::string& name) {
  name.assign(prefix);
  name += "-00000000";
  name += kExtension;
  for (std::size_t i = prefix.size() + 8; i > prefix.size(); --i) {
    name[i] = static_cast<char>('0' + base % 10);
    base /= 10;
  }
}

/// The chain files in `directory`, with their inodes, into `chains`, by
/// base seq descending. Names are matched in one listing; no path is built
/// for a chain until it is pruned or quarantined. (`Chain` is
/// CheckpointStore::ListedChain, a private type this function cannot name.)
template <typename Chain>
void list_chains(Directory& directory, std::string_view prefix, std::vector<Chain>& chains) {
  chains.clear();
  const std::size_t digits_at = prefix.size() + 1;
  list_files(directory, [&](std::string_view name, std::uint64_t inode) {
    if (name.size() != digits_at + 8 + kExtension.size() || !name.starts_with(prefix) ||
        name[prefix.size()] != '-' || !name.ends_with(kExtension)) {
      return;
    }
    std::uint64_t base = 0;
    const char* digits = name.data() + digits_at;
    const auto [ptr, parse_ec] = std::from_chars(digits, digits + 8, base);
    if (parse_ec == std::errc() && ptr == digits + 8) chains.push_back({base, inode});
  });
  std::sort(chains.begin(), chains.end(),
            [](const Chain& a, const Chain& b) { return a.base > b.base; });
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
}

CheckpointStore::~CheckpointStore() { close_chain(); }

void CheckpointStore::close_chain() {
  if (chain_fd_ >= 0) ::close(chain_fd_);
  chain_fd_ = -1;
  appending_ = false;
}

std::filesystem::path CheckpointStore::path_for(std::uint64_t base) const {
  std::string name;
  chain_name(config_.prefix, base, name);
  return config_.directory / name;
}

bool CheckpointStore::read_chain(int directory_fd, const ListedChain& chain) {
  struct stat status {};
  // The held descriptor pins its inode, so an equal listed inode means the
  // name still links to that very file.
  if (chain_fd_ >= 0 && chain_base_ == chain.base && read_whole(chain_fd_, file_, status) &&
      status.st_ino == chain.inode) {
    ++stats_.held_reads;
    return true;
  }
  close_chain();
  chain_name(config_.prefix, chain.base, name_);
  FileDescriptor file(::openat(directory_fd, name_.c_str(), O_RDONLY | O_CLOEXEC));
  if (file.get() < 0 || !read_whole(file.get(), file_, status)) return false;
  if (status.st_ino == chain.inode) {
    chain_fd_ = file.release();
    chain_base_ = chain.base;
  }
  return true;
}

std::string CheckpointStore::split(std::uint64_t max_seq) {
  rungs_.clear();
  seqs_.clear();
  std::string_view rest = file_;
  if (rest.empty()) return "the base: empty chain file";
  // The split stops at max_seq itself, never at a rung found above it: the
  // rung after max_seq may be cut short, with no seq left to read.
  while (!rest.empty() && (seqs_.empty() || seqs_.back() < max_seq)) {
    BinarySnapshotInfo info;
    support::DiagnosticSink probe;
    const std::size_t size = binary_rung_size(rest, info, probe);
    if (info.seq > max_seq) break;
    if (size == 0) {
      // A rung whose header does not read may lie above a rewind's target,
      // and a rewind changes nothing there.
      if (info.seq == 0 && max_seq != kNoLimit && !seqs_.empty()) break;
      const std::string rung = info.seq != 0    ? "rung " + std::to_string(info.seq)
                               : seqs_.empty() ? "the base"
                                               : "the rung after " + std::to_string(seqs_.back());
      return rung + ": " + probe.str();
    }
    rungs_.push_back(rest.substr(0, size));
    seqs_.push_back(info.seq);
    rest.remove_prefix(size);
  }
  return {};
}

bool CheckpointStore::checkpoint(const SnapshotTargets& targets, WriteResult& out,
                                 support::DiagnosticSink& sink) {
  // A delta is appended to the chain the store holds open; without one (a
  // fresh store, after a restore, or after a failed write) the checkpoint
  // starts a chain.
  const bool force_full = count_ % config_.full_interval == 0 || !appending_;
  ++count_;
  if (renumber_) {
    number_above_disk();
    renumber_ = false;
  }

  IncrementalEncoder::Result encoded;
  if (!encoder_.encode(targets, force_full, encoded, sink)) return false;

  WriteResult result;
  result.seq = encoded.seq;
  result.delta = encoded.delta;
  result.path = path_for(encoded.delta ? chain_base_ : encoded.seq);

  std::string bytes = std::move(encoded.bytes);
  if (fault_plan_ != nullptr) {
    const sim::FaultDecision decision = fault_plan_->consult(sim::FaultSite::kCheckpoint);
    switch (decision.kind) {
      case sim::FaultKind::kError:
        // Torn write: only the first half of the rung makes it to disk.
        bytes.resize(bytes.size() / 2);
        result.torn = true;
        break;
      case sim::FaultKind::kDropResponse:
        // Lost write: a crash before the append.
        result.lost = true;
        break;
      case sim::FaultKind::kBitFlip: {
        // One bit, spread deterministically across the rung by the mask.
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

  // Store I/O (create or append, prune) is timed apart from the encode.
  const auto io_started = std::chrono::steady_clock::now();
  if (!encoded.delta) {
    // A base starts its chain's file, emptying one of that name. A lost
    // base still creates it, so that its deltas land in a chain that
    // never restores.
    close_chain();
    chain_fd_ = ::open(result.path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                       0644);
    chain_base_ = encoded.seq;
    appending_ = chain_fd_ >= 0;
  }
  const bool landed = appending_ && (result.lost || append_all(chain_fd_, bytes));
  if (landed) {
    result.bytes = bytes.size();
    ++stats_.checkpoints;
    stats_.bytes_written += bytes.size();
    if (encoded.delta) {
      ++stats_.deltas;
    } else {
      ++stats_.fulls;
      // A lost base must not count as a retained base: its deltas chain to
      // a rung that never landed.
      if (!result.lost) {
        fulls_.push_back(encoded.seq);
        prune(sink);
      }
    }
  } else {
    sink.error("checkpoint-store", "cannot write " + result.path.string());
    close_chain();
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
  Directory directory(config_.directory);
  list_chains(directory, config_.prefix, chains_);
  for (const ListedChain& chain : chains_) {
    // The held descriptor is the new base's chain, which is kept.
    if (chain.base >= keep_from) continue;
    chain_name(config_.prefix, chain.base, name_);
    if (::unlinkat(directory.fd(), name_.c_str(), 0) == 0) {
      ++stats_.pruned;
    } else if (errno != ENOENT) {
      sink.warning("checkpoint-store", "cannot prune " + name_ + ": " +
                                           std::generic_category().message(errno));
    }
  }
}

void CheckpointStore::number_above_disk() {
  Directory directory(config_.directory);
  list_chains(directory, config_.prefix, chains_);
  if (chains_.empty()) return;
  std::uint64_t newest = chains_.front().base;
  if (read_chain(directory.fd(), chains_.front())) {
    (void)split(kNoLimit);
    if (!seqs_.empty()) newest = std::max(newest, seqs_.back());
  }
  encoder_.resume_after(newest);
}

void CheckpointStore::quarantine(const ListedChain& chain, std::string reason,
                                 support::DiagnosticSink& sink) {
  const std::filesystem::path path = path_for(chain.base);
  std::error_code ec;
  if (rungs_.empty()) {
    if (chain.base == chain_base_) close_chain();
    std::filesystem::rename(path, path.string() + std::string(kQuarantineSuffix), ec);
  } else {
    const std::string_view kept = rungs_.back();
    std::filesystem::resize_file(
        path, static_cast<std::uintmax_t>(kept.data() + kept.size() - file_.data()), ec);
  }
  sink.warning("checkpoint-store", "quarantined " + path.filename().string() + " at " + reason);
  quarantined_.push_back({path, std::move(reason)});
  ++stats_.quarantines;
}

bool CheckpointStore::restore_latest_good(const SnapshotTargets& targets,
                                          support::DiagnosticSink& sink) {
  return restore_ladder(kNoLimit, targets, sink);
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
  // One listing, newest chain first. Each file either restores, or loses
  // its bad rung and every rung after it and tries again, or is set aside.
  Directory directory(config_.directory);
  list_chains(directory, config_.prefix, chains_);
  for (const ListedChain& chain : chains_) {
    // A rewind leaves the chains above its target as they are.
    if (chain.base > max_seq) continue;
    std::string failure;
    if (read_chain(directory.fd(), chain)) {
      failure = split(max_seq);
    } else {
      rungs_.clear();
      seqs_.clear();
      failure = "the base: unreadable file";
    }
    for (;;) {
      if (!failure.empty()) quarantine(chain, std::move(failure), sink);
      if (rungs_.empty()) break;
      // The decode is a function of the rung bytes alone: rungs that read
      // back byte for byte as the remembered ones get the remembered image.
      const std::string_view bytes(file_.data(), static_cast<std::size_t>(
                                                     rungs_.back().data() + rungs_.back().size() -
                                                     file_.data()));
      const bool reused = decoded_.base == chain.base && decoded_.bytes == bytes;
      if (!reused) {
        support::DiagnosticSink attempt;
        std::size_t bad = 0;
        // The image is replaced only on success, so the memo stays whole.
        if (!image_from_binary_chain(rungs_, decoded_.image, attempt, &bad)) {
          failure = "rung " + std::to_string(seqs_[bad]) + ": " + attempt.str();
          rungs_.resize(bad);
          seqs_.resize(bad);
          continue;
        }
        decoded_.base = chain.base;
        decoded_.bytes.assign(bytes);
      }
      support::DiagnosticSink apply_sink;
      if (!apply_image(targets, decoded_.image, apply_sink)) {
        failure = "rung " + std::to_string(seqs_.back()) + ": restore failed: " + apply_sink.str();
        rungs_.pop_back();
        seqs_.pop_back();
        continue;
      }
      targets.kernel->note_snapshot_restore(elapsed_ns(started));
      // The restored chain stays held and is appended to no more: the next
      // checkpoint starts a new chain, numbered above every rung on disk.
      appending_ = false;
      encoder_.resume_after(seqs_.back());
      renumber_ = true;
      ++stats_.restores;
      if (reused) ++stats_.reused_decodes;
      stats_.restored_seq = seqs_.back();
      sink.note("checkpoint-store", "restored checkpoint " + std::to_string(stats_.restored_seq) +
                                        " (chain of " + std::to_string(seqs_.size()) + ")");
      return true;
    }
  }
  sink.error("checkpoint-store",
             "no restorable checkpoint in " + config_.directory.string() +
                 (max_seq == kNoLimit ? "" : " at or below seq " + std::to_string(max_seq)) +
                 " (" + std::to_string(quarantined_.size()) + " quarantined)");
  return false;
}

}  // namespace umlsoc::replay
