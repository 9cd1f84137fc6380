// CountingEnv -- an Env wrapper that counts the durable I/O a service
// issues: appends, bytes and fsyncs per file class (WAL, checkpoint,
// other), plus the wall time of every WAL fsync.  Installed through
// DurabilityOptions::env; everything else forwards to the base Env.

#ifndef PERFBENCH_SRC_COUNTING_ENV_H_
#define PERFBENCH_SRC_COUNTING_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/env.h"

namespace perfbench {

enum class FileClass { kWal = 0, kCheckpoint = 1, kOther = 2 };

/// Classifies a path by its base name: "wal-*" is the WAL, "ckpt-*" a
/// checkpoint (including its temp file), anything else "other".
FileClass ClassifyPath(const std::string& path);

class CountingEnv final : public pmi::Env {
 public:
  struct ClassCounts {
    uint64_t appends = 0;
    uint64_t bytes = 0;
    uint64_t syncs = 0;
  };
  struct Counts {
    ClassCounts by_class[3];
    /// Wall time of each WAL Sync, microseconds, in completion order.
    std::vector<double> wal_sync_us;

    const ClassCounts& of(FileClass c) const {
      return by_class[static_cast<int>(c)];
    }
    uint64_t bytes_written() const {
      return by_class[0].bytes + by_class[1].bytes + by_class[2].bytes;
    }
  };

  /// `base` must outlive this env.
  explicit CountingEnv(pmi::Env* base) : base_(base) {}

  /// Snapshot of the counters since construction or the last Reset().
  Counts counts() const;
  void Reset();

  // Called by the counting file handles.
  void OnAppend(FileClass c, size_t bytes);
  void OnSync(FileClass c, double us);

  pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> NewWritableFile(
      const std::string& path) override;
  pmi::Status CreateExclusive(const std::string& path,
                              std::string_view contents) override {
    return base_->CreateExclusive(path, contents);
  }
  pmi::StatusOr<std::unique_ptr<pmi::FileLock>> LockFile(
      const std::string& path) override {
    return base_->LockFile(path);
  }
  pmi::StatusOr<std::unique_ptr<pmi::RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  pmi::StatusOr<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  pmi::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  pmi::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  pmi::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  pmi::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  pmi::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  pmi::Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  pmi::Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }

 private:
  pmi::Env* base_;
  mutable std::mutex mu_;
  Counts counts_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COUNTING_ENV_H_
