#include "perfbench/src/counting_env.h"

#include <chrono>
#include <utility>

namespace perfbench {
namespace {

class CountingFile final : public pmi::WritableFile {
 public:
  CountingFile(std::unique_ptr<pmi::WritableFile> base, FileClass cls,
               CountingEnv* env)
      : base_(std::move(base)), cls_(cls), env_(env) {}

  pmi::Status Append(std::string_view data) override {
    pmi::Status s = base_->Append(data);
    env_->OnAppend(cls_, data.size());
    return s;
  }
  pmi::Status Sync() override {
    const auto t0 = std::chrono::steady_clock::now();
    pmi::Status s = base_->Sync();
    env_->OnSync(cls_, std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    return s;
  }
  pmi::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<pmi::WritableFile> base_;
  FileClass cls_;
  CountingEnv* env_;
};

}  // namespace

FileClass ClassifyPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (base.rfind("wal-", 0) == 0) return FileClass::kWal;
  if (base.rfind("ckpt-", 0) == 0) return FileClass::kCheckpoint;
  return FileClass::kOther;
}

CountingEnv::Counts CountingEnv::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

void CountingEnv::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_ = Counts{};
}

void CountingEnv::OnAppend(FileClass c, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassCounts& cc = counts_.by_class[static_cast<int>(c)];
  ++cc.appends;
  cc.bytes += bytes;
}

void CountingEnv::OnSync(FileClass c, double us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.by_class[static_cast<int>(c)].syncs;
  if (c == FileClass::kWal) counts_.wal_sync_us.push_back(us);
}

pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path) {
  pmi::StatusOr<std::unique_ptr<pmi::WritableFile>> f =
      base_->NewWritableFile(path);
  if (!f.ok()) return f.status();
  return std::unique_ptr<pmi::WritableFile>(
      new CountingFile(std::move(*f), ClassifyPath(path), this));
}

}  // namespace perfbench
