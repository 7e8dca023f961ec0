#include "em/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace emsplit {

namespace {

// Entry framing: u32 payload length, u64 FNV-1a of the payload, payload.
// A crash mid-append leaves a torn final entry; the loader detects it by
// length overrun or checksum mismatch and stops there — everything before
// the tear is intact because entries are only ever appended.

constexpr std::uint8_t kSortPass = 1;
constexpr std::uint8_t kSortTaken = 2;
constexpr std::uint8_t kPartRoot = 3;
constexpr std::uint8_t kPartBucketDone = 4;
constexpr std::uint8_t kPartTaken = 5;

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Little-endian-on-the-host payload builder; the journal is a local
/// recovery record, not an interchange format.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void u64(std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(v));
  }
  void u64s(const std::vector<std::uint64_t>& vs) {
    u64(vs.size());
    for (const auto v : vs) u64(v);
  }
  void spans(const std::vector<CkptSpan>& vs) {
    u64(vs.size());
    for (const auto& s : vs) {
      u64(s.lo);
      u64(s.hi);
      u8(s.sorted ? 1 : 0);
    }
  }
  [[nodiscard]] std::span<const std::byte> view() const { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + sizeof(v) > bytes_.size()) return false;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return true;
  }
  bool u64s(std::vector<std::uint64_t>& vs) {
    std::uint64_t n = 0;
    if (!u64(n) || n > (bytes_.size() - pos_) / sizeof(std::uint64_t)) {
      return false;
    }
    vs.resize(n);
    for (auto& v : vs) {
      if (!u64(v)) return false;
    }
    return true;
  }
  bool spans(std::vector<CkptSpan>& vs) {
    std::uint64_t n = 0;
    if (!u64(n) || n > (bytes_.size() - pos_) / 17) return false;
    vs.resize(n);
    for (auto& s : vs) {
      std::uint8_t sorted = 0;
      if (!u64(s.lo) || !u64(s.hi) || !u8(sorted)) return false;
      s.sorted = sorted != 0;
    }
    return true;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

CheckpointJournal::CheckpointJournal(BlockDevice& device, std::string path)
    : dev_(&device), path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("CheckpointJournal: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  load();
}

CheckpointJournal::~CheckpointJournal() {
  // Return every still-owned extent; the file stays (it is the record a
  // restarted process recovers from).  Deallocation drops the extents'
  // checksum entries, so the device's sidecar is persisted first: a resumed
  // run then still verifies the journaled blocks.
  dev_->persist_sums();
  for (auto& [fp, st] : sorts_) dev_->deallocate(st.extent);
  for (auto& [fp, st] : parts_) {
    dev_->deallocate(st.out);
    for (auto& b : st.buckets) {
      if (!b.done) dev_->deallocate(b.extent);
    }
  }
  if (fd_ >= 0) ::close(fd_);
}

void CheckpointJournal::load() {
  std::vector<std::byte> file;
  {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end > 0) {
      file.resize(static_cast<std::size_t>(end));
      std::size_t done = 0;
      while (done < file.size()) {
        const ssize_t n = ::pread(fd_, file.data() + done, file.size() - done,
                                  static_cast<off_t>(done));
        if (n < 0) {
          if (errno == EINTR) continue;
          throw std::runtime_error("CheckpointJournal: read failed: " +
                                   std::string(std::strerror(errno)));
        }
        if (n == 0) break;
        done += static_cast<std::size_t>(n);
      }
      file.resize(done);
    }
  }

  std::size_t pos = 0;
  std::size_t intact_end = 0;
  while (pos + sizeof(std::uint32_t) + sizeof(std::uint64_t) <= file.size()) {
    std::uint32_t len = 0;
    std::uint64_t sum = 0;
    std::memcpy(&len, file.data() + pos, sizeof(len));
    std::memcpy(&sum, file.data() + pos + sizeof(len), sizeof(sum));
    const std::size_t body = pos + sizeof(len) + sizeof(sum);
    if (body + len > file.size()) break;  // torn tail
    const std::span<const std::byte> payload(file.data() + body, len);
    if (fnv1a(payload) != sum) break;  // torn tail
    pos = body + len;
    intact_end = pos;

    PayloadReader r(payload);
    std::uint8_t tag = 0;
    std::uint64_t fp = 0;
    if (!r.u8(tag) || !r.u64(fp)) continue;  // unknown/short: skip entry
    switch (tag) {
      case kSortPass: {
        SortState st;
        if (r.u64(st.pass) && r.u64(st.extent.first) &&
            r.u64(st.extent.count) && r.u64(st.size) && r.u64s(st.offsets)) {
          sorts_[fp] = std::move(st);
        }
        break;
      }
      case kSortTaken:
        sorts_.erase(fp);
        break;
      case kPartRoot: {
        PartState st;
        std::uint64_t nb = 0;
        bool ok = r.u64(st.out.first) && r.u64(st.out.count) && r.u64(st.n) &&
                  r.spans(st.spans) && r.u64(nb);
        for (std::uint64_t i = 0; ok && i < nb; ++i) {
          PartBucket b;
          ok = r.u64(b.extent.first) && r.u64(b.extent.count) &&
               r.u64(b.size) && r.u64(b.out_lo) && r.u64s(b.ranks);
          if (ok) st.buckets.push_back(std::move(b));
        }
        if (ok) parts_[fp] = std::move(st);
        break;
      }
      case kPartBucketDone: {
        std::uint64_t idx = 0;
        std::vector<CkptSpan> spans;
        const auto it = parts_.find(fp);
        if (r.u64(idx) && r.spans(spans) && it != parts_.end() &&
            idx < it->second.buckets.size()) {
          it->second.buckets[idx].done = true;
          it->second.spans.insert(it->second.spans.end(), spans.begin(),
                                  spans.end());
        }
        break;
      }
      case kPartTaken:
        parts_.erase(fp);
        break;
      default:
        break;  // future tag: ignore
    }
  }

  // Truncate a torn tail so new appends start on an intact boundary.
  if (intact_end < file.size()) {
    if (::ftruncate(fd_, static_cast<off_t>(intact_end)) != 0) {
      throw std::runtime_error("CheckpointJournal: ftruncate failed: " +
                               std::string(std::strerror(errno)));
    }
  }
}

void CheckpointJournal::append_entry(std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t sum = fnv1a(payload);
  std::vector<std::byte> entry;
  entry.reserve(sizeof(len) + sizeof(sum) + payload.size());
  const auto* lp = reinterpret_cast<const std::byte*>(&len);
  entry.insert(entry.end(), lp, lp + sizeof(len));
  const auto* sp = reinterpret_cast<const std::byte*>(&sum);
  entry.insert(entry.end(), sp, sp + sizeof(sum));
  entry.insert(entry.end(), payload.begin(), payload.end());
  std::size_t done = 0;
  while (done < entry.size()) {
    const ssize_t n = ::write(fd_, entry.data() + done, entry.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("CheckpointJournal: append failed: " +
                               std::string(std::strerror(errno)));
    }
    done += static_cast<std::size_t>(n);
  }
  // The journal entry must be durable before the pass it supersedes is
  // recycled — fsync is the write barrier of the recovery protocol.
  ::fsync(fd_);
  if (publishes_left_ != UINT64_MAX && --publishes_left_ == 0) {
    // Crash injection: die as abruptly as SIGKILL, skipping destructors.
    std::_Exit(137);
  }
}

void CheckpointJournal::restore_device() {
  std::vector<BlockRange> live;
  for (const auto& [fp, st] : sorts_) {
    if (st.extent.valid() && st.extent.count > 0) live.push_back(st.extent);
  }
  for (const auto& [fp, st] : parts_) {
    if (st.out.valid() && st.out.count > 0) live.push_back(st.out);
    for (const auto& b : st.buckets) {
      if (!b.done && b.extent.valid() && b.extent.count > 0) {
        live.push_back(b.extent);
      }
    }
  }
  dev_->restore(0, live);
}

std::uint64_t CheckpointJournal::owned_blocks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [fp, st] : sorts_) total += st.extent.count;
  for (const auto& [fp, st] : parts_) {
    total += st.out.count;
    for (const auto& b : st.buckets) {
      if (!b.done) total += b.extent.count;
    }
  }
  return total;
}

std::optional<CheckpointJournal::SortState> CheckpointJournal::resume_sort(
    std::uint64_t fingerprint) {
  const auto it = sorts_.find(fingerprint);
  if (it == sorts_.end()) return std::nullopt;
  resumed_passes_ += it->second.pass;
  return it->second;
}

void CheckpointJournal::publish_sort_pass(
    std::uint64_t fingerprint, std::uint64_t pass, BlockRange extent,
    std::uint64_t size, const std::vector<std::uint64_t>& offsets) {
  PayloadWriter w;
  w.u8(kSortPass);
  w.u64(fingerprint);
  w.u64(pass);
  w.u64(extent.first);
  w.u64(extent.count);
  w.u64(size);
  w.u64s(offsets);
  append_entry(w.view());

  const auto it = sorts_.find(fingerprint);
  if (it != sorts_.end()) dev_->deallocate(it->second.extent);
  sorts_[fingerprint] = SortState{pass, extent, size, offsets};
}

BlockRange CheckpointJournal::take_sort_extent(std::uint64_t fingerprint) {
  const auto it = sorts_.find(fingerprint);
  if (it == sorts_.end()) {
    throw std::logic_error("CheckpointJournal: no sort state to take");
  }
  PayloadWriter w;
  w.u8(kSortTaken);
  w.u64(fingerprint);
  append_entry(w.view());
  const BlockRange extent = it->second.extent;
  sorts_.erase(it);
  return extent;
}

std::optional<CheckpointJournal::PartState> CheckpointJournal::resume_part(
    std::uint64_t fingerprint) {
  const auto it = parts_.find(fingerprint);
  if (it == parts_.end()) return std::nullopt;
  resumed_passes_ += 1;  // the root distribution pass
  for (const auto& b : it->second.buckets) {
    if (b.done) ++resumed_passes_;
  }
  return it->second;
}

void CheckpointJournal::publish_part_root(std::uint64_t fingerprint,
                                          BlockRange out, std::uint64_t n,
                                          std::vector<PartBucket> buckets,
                                          const std::vector<CkptSpan>& spans) {
  PayloadWriter w;
  w.u8(kPartRoot);
  w.u64(fingerprint);
  w.u64(out.first);
  w.u64(out.count);
  w.u64(n);
  w.spans(spans);
  w.u64(buckets.size());
  for (const auto& b : buckets) {
    w.u64(b.extent.first);
    w.u64(b.extent.count);
    w.u64(b.size);
    w.u64(b.out_lo);
    w.u64s(b.ranks);
  }
  append_entry(w.view());

  PartState st;
  st.out = out;
  st.n = n;
  st.spans = spans;
  st.buckets = std::move(buckets);
  parts_[fingerprint] = std::move(st);
}

void CheckpointJournal::publish_part_bucket_done(
    std::uint64_t fingerprint, std::uint64_t bucket,
    const std::vector<CkptSpan>& spans) {
  const auto it = parts_.find(fingerprint);
  if (it == parts_.end() || bucket >= it->second.buckets.size()) {
    throw std::logic_error("CheckpointJournal: unknown partition bucket");
  }
  PayloadWriter w;
  w.u8(kPartBucketDone);
  w.u64(fingerprint);
  w.u64(bucket);
  w.spans(spans);
  append_entry(w.view());

  PartBucket& b = it->second.buckets[bucket];
  if (!b.done) {
    dev_->deallocate(b.extent);
    b.done = true;
  }
  it->second.spans.insert(it->second.spans.end(), spans.begin(), spans.end());
}

BlockRange CheckpointJournal::take_part_out(std::uint64_t fingerprint) {
  const auto it = parts_.find(fingerprint);
  if (it == parts_.end()) {
    throw std::logic_error("CheckpointJournal: no partition state to take");
  }
  PayloadWriter w;
  w.u8(kPartTaken);
  w.u64(fingerprint);
  append_entry(w.view());
  const BlockRange out = it->second.out;
  for (const auto& b : it->second.buckets) {
    if (!b.done) dev_->deallocate(b.extent);
  }
  parts_.erase(it);
  return out;
}

}  // namespace emsplit
