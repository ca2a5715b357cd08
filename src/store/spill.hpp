// Bounded-memory result path: append-only spill writers, mmap-backed
// segment readers, and the K-way merge that reconstructs the global record
// order (DESIGN.md §10).
//
// The in-RAM result path grows one vector across the whole scan — ~400 GB
// at 2^32 targets. SpillWriter caps that at O(segment): records accumulate
// in a fixed-capacity staged payload, and when it fills the run is sorted
// by global permutation-cycle index and flushed as one self-describing,
// CRC-guarded segment (store/spill_format.hpp). Every segment is therefore
// a sorted run, so reading the scan back is a K-way heap merge over all
// segments of all shards — cycle indices are globally unique, which makes
// the merged stream byte-identical to what a single-process single-thread
// scan would have produced, for any {process × thread} sharding.
//
// Hot-path contract (iwlint): SpillWriter::append and SegmentReader::next
// are IWSCAN_HOT roots — no allocation, no locking, no syscalls per
// record. The segment flush (order check, radix sort + gather, CRC,
// buffered fwrite) is the audited IWSCAN_HOT_BOUNDARY; it reuses its
// scratch buffers' capacity, so steady-state appends stay allocation-free
// (tests/alloc_budget_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "store/crc32.hpp"
#include "store/spill_format.hpp"
#include "util/annotations.hpp"

namespace iwscan::store {

struct SpillConfig {
  std::string directory;  // created if missing
  std::size_t segment_bytes = kDefaultSegmentBytes;
  std::uint64_t seed = 0;  // scan seed, stamped into every segment header
  std::uint32_t shard = 0;
  std::uint32_t total_shards = 1;
};

/// Canonical file name for one shard's spill, e.g.
/// "host-00002-of-00008.iwspill".
[[nodiscard]] std::string spill_file_name(std::uint32_t shard,
                                          std::uint32_t total_shards);

/// dir + "/" + name (no-op join when dir is empty).
[[nodiscard]] std::string join_path(const std::string& dir, const std::string& name);

/// True iff the two permutation strides intersect: shard_a (mod total_a)
/// and shard_b (mod total_b) share a residue class exactly when
/// shard_a ≡ shard_b (mod gcd(total_a, total_b)).
[[nodiscard]] bool shards_overlap(std::uint32_t shard_a, std::uint32_t total_a,
                                  std::uint32_t shard_b, std::uint32_t total_b);

/// Expands inputs (spill files or directories containing them) into the
/// sorted list of host spill files, matched by file-name prefix.
[[nodiscard]] bool collect_spill_files(const std::vector<std::string>& inputs,
                                       std::vector<std::string>& files,
                                       std::string* error);

namespace detail {

/// Buffered append-only file sink; keeps cstdio out of the templates so
/// the flush path stays one audited syscall site.
class FileSink {
 public:
  FileSink() = default;
  ~FileSink();
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  [[nodiscard]] bool open(const std::string& path, std::string* error);
  void write(std::span<const std::uint8_t> bytes);
  [[nodiscard]] bool close();
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  std::FILE* file_ = nullptr;
  bool ok_ = true;
};

/// Creates `directory` (and parents) if needed, then opens the sink.
[[nodiscard]] bool open_spill_sink(const std::string& directory,
                                   const std::string& path, FileSink& sink,
                                   std::string* error);

}  // namespace detail

/// Read-only memory mapping of a whole spill file. Segment payload spans
/// point into the mapping, so readers never copy the file into RAM — the
/// kernel pages it in on demand and may evict it under pressure.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] bool map(const std::string& path, std::string* error);
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }

 private:
  void unmap() noexcept;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One validated segment inside a mapped spill file.
struct SegmentView {
  SegmentMeta meta;
  std::span<const std::uint8_t> payload;
};

namespace detail {

/// One record of a run being sorted: its cycle and its slot in append order.
struct RunKey {
  std::uint64_t cycle = 0;
  std::uint32_t slot = 0;
};

/// Stable LSD radix sort of keys[0, n) by cycle, 11 bits a pass over the
/// bits of (cycle - min_cycle) that can differ; a pass whose digit is the
/// same for every key is skipped. `scratch` holds ≥ n keys; the two
/// vectors may trade buffers.
void radix_sort_keys(std::vector<RunKey>& keys, std::vector<RunKey>& scratch,
                     std::size_t n, std::uint64_t min_cycle, std::uint64_t max_cycle);

}  // namespace detail

/// Streams (cycle, record) pairs into fixed-size sorted segments. Records
/// may arrive in any order (sessions complete out of cycle order): append
/// encodes each into the segment's staged payload at its arrival slot, and
/// the flush sorts the run by (cycle, slot) keys — or, when the run
/// arrived in cycle order, writes the staged payload as it is.
template <class Record>
class SpillWriter {
  static constexpr std::size_t kWidth = RecordTraits<Record>::wire_bytes;

 public:
  explicit SpillWriter(const SpillConfig& config)
      : capacity_(std::clamp<std::size_t>(config.segment_bytes / kWidth, 1, 1u << 26)),
        seed_(config.seed),
        shard_(config.shard),
        total_shards_(config.total_shards) {
    staged_.resize(capacity_ * kWidth);
    path_ = join_path(config.directory, spill_file_name(shard_, total_shards_));
    ok_ = detail::open_spill_sink(config.directory, path_, sink_, &error_);
  }
  ~SpillWriter() { close(); }
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Hot per-record entry point: one fixed-offset encode into the staged
  /// payload, no allocation, no lock; only a full segment crosses into the
  /// flush boundary below.
  IWSCAN_HOT void append(std::uint64_t cycle, const Record& record) {
    if (count_ == capacity_) flush_segment();
    encode_record(staged_.data() + count_ * kWidth, cycle, record);
    ++count_;
    ++appended_;
  }

  /// Flushes the tail segment and closes the file. False on any I/O error
  /// (disk full, unwritable directory); error() has the detail.
  bool close() {
    if (closed_) return ok_;
    closed_ = true;
    if (ok_) flush_segment();
    if (!sink_.close()) ok_ = false;
    if (!ok_ && error_.empty()) error_ = "I/O error writing " + path_;
    return ok_;
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t segments_flushed() const noexcept {
    return segments_flushed_;
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// The audited hot/cold hand-off: order the run, CRC it, and hand it to
  /// the buffered file sink in two writes. The sort scratch is sized by
  /// the first run that needs it and reused after.
  IWSCAN_HOT_BOUNDARY void flush_segment() {
    if (count_ == 0) return;
    if (!ok_) {  // a failed sink drops the run; close() reports the error
      count_ = 0;
      return;
    }
    std::span<const std::uint8_t> payload(staged_.data(), count_ * kWidth);
    if (!cycle_ordered(payload)) payload = sort_run(payload);
    SegmentMeta meta;
    meta.kind = RecordTraits<Record>::kind;
    meta.seed = seed_;
    meta.shard = shard_;
    meta.total_shards = total_shards_;
    meta.record_bytes = static_cast<std::uint32_t>(kWidth);
    meta.record_count = static_cast<std::uint32_t>(count_);
    meta.first_cycle = record_cycle(payload.data());
    meta.last_cycle = record_cycle(payload.data() + payload.size() - kWidth);
    meta.payload_crc = crc32(payload);
    std::array<std::uint8_t, kSegmentHeaderBytes> header;
    encode_segment_header(header, meta);
    sink_.write(header);
    sink_.write(payload);
    if (!sink_.ok()) ok_ = false;
    count_ = 0;
    ++segments_flushed_;
  }

  /// One linear check: does the staged run already ascend by cycle?
  static bool cycle_ordered(std::span<const std::uint8_t> run) {
    std::uint64_t previous = record_cycle(run.data());
    for (std::size_t at = kWidth; at < run.size(); at += kWidth) {
      const std::uint64_t cycle = record_cycle(run.data() + at);
      if (cycle < previous) return false;
      previous = cycle;
    }
    return true;
  }

  /// Radix-sorts the run's (cycle, slot) keys, then gathers the records
  /// into `sorted_` in key order.
  std::span<const std::uint8_t> sort_run(std::span<const std::uint8_t> run) {
    if (keys_.size() < count_) {
      keys_.resize(count_);
      key_scratch_.resize(count_);
      sorted_.resize(count_ * kWidth);
    }
    std::uint64_t min_cycle = ~std::uint64_t{0};
    std::uint64_t max_cycle = 0;
    for (std::size_t slot = 0; slot < count_; ++slot) {
      const std::uint64_t cycle = record_cycle(run.data() + slot * kWidth);
      keys_[slot] = detail::RunKey{cycle, static_cast<std::uint32_t>(slot)};
      min_cycle = std::min(min_cycle, cycle);
      max_cycle = std::max(max_cycle, cycle);
    }
    detail::radix_sort_keys(keys_, key_scratch_, count_, min_cycle, max_cycle);
    for (std::size_t i = 0; i < count_; ++i) {
      std::copy_n(run.data() + std::size_t{keys_[i].slot} * kWidth, kWidth,
                  sorted_.data() + i * kWidth);
    }
    return {sorted_.data(), run.size()};
  }

  std::size_t capacity_ = 1;  // records per segment
  std::uint64_t seed_ = 0;
  std::uint32_t shard_ = 0;
  std::uint32_t total_shards_ = 1;
  std::vector<std::uint8_t> staged_;  // capacity_ records in arrival order
  std::size_t count_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t segments_flushed_ = 0;
  std::vector<detail::RunKey> keys_;  // sort scratch, sized at first use
  std::vector<detail::RunKey> key_scratch_;
  std::vector<std::uint8_t> sorted_;
  std::string path_;
  std::string error_;
  detail::FileSink sink_;
  bool ok_ = true;
  bool closed_ = false;
};

/// Opens one spill file: maps it, walks and validates every segment
/// (structure + header CRC + payload CRC + uniform seed/shard identity),
/// then iterates records in file order via next().
template <class Record>
class SegmentReader {
  static constexpr std::size_t kWidth = RecordTraits<Record>::wire_bytes;

 public:
  [[nodiscard]] bool open(const std::string& path, std::string* error) {
    path_ = path;
    if (!file_.map(path, error)) return false;
    std::span<const std::uint8_t> rest = file_.bytes();
    while (!rest.empty()) {
      if (rest.size() < kSegmentHeaderBytes) {
        return fail(error, "truncated segment header");
      }
      SegmentMeta meta;
      std::string detail_error;
      if (!decode_segment_header(rest.first<kSegmentHeaderBytes>(), meta,
                                 &detail_error)) {
        return fail(error, detail_error);
      }
      rest = rest.subspan(kSegmentHeaderBytes);
      if (meta.record_bytes != kWidth) {
        return fail(error, "segment record width " +
                               std::to_string(meta.record_bytes) +
                               " does not match this build's codec");
      }
      const std::size_t payload_bytes = std::size_t{meta.record_count} * kWidth;
      if (rest.size() < payload_bytes) {
        return fail(error, "truncated segment payload (file cut short mid-segment)");
      }
      const std::span<const std::uint8_t> payload = rest.first(payload_bytes);
      rest = rest.subspan(payload_bytes);
      if (crc32(payload) != meta.payload_crc) {
        return fail(error, "segment payload CRC mismatch (corrupted records)");
      }
      if (!segments_.empty()) {
        const SegmentMeta& first = segments_.front().meta;
        if (meta.seed != first.seed || meta.shard != first.shard ||
            meta.total_shards != first.total_shards) {
          return fail(error, "segments disagree on seed/shard identity");
        }
      }
      record_count_ += meta.record_count;
      segments_.push_back(SegmentView{meta, payload});
    }
    return true;
  }

  /// Hot sequential read: records in file order (per-segment cycle order).
  IWSCAN_HOT bool next(std::uint64_t& cycle, Record& out) {
    while (segment_index_ < segments_.size()) {
      const std::span<const std::uint8_t> payload = segments_[segment_index_].payload;
      if (offset_ < payload.size()) {
        cycle = decode_record(payload.data() + offset_, out);
        offset_ += kWidth;
        return true;
      }
      ++segment_index_;
      offset_ = 0;
    }
    return false;
  }

  [[nodiscard]] const std::vector<SegmentView>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] bool has_identity() const noexcept { return !segments_.empty(); }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    return segments_.empty() ? 0 : segments_.front().meta.seed;
  }
  [[nodiscard]] std::uint32_t shard() const noexcept {
    return segments_.empty() ? 0 : segments_.front().meta.shard;
  }
  [[nodiscard]] std::uint32_t total_shards() const noexcept {
    return segments_.empty() ? 1 : segments_.front().meta.total_shards;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  bool fail(std::string* error, const std::string& detail) const {
    if (error != nullptr) *error = path_ + ": " + detail;
    return false;
  }

  MappedFile file_;
  std::vector<SegmentView> segments_;  // payloads are whole records
  std::uint64_t record_count_ = 0;
  std::size_t segment_index_ = 0;
  std::size_t offset_ = 0;  // into segments_[segment_index_].payload
  std::string path_;
};

/// K-way merge over every segment of every input file: streams records in
/// strictly increasing global cycle order. Cycle uniqueness is enforced —
/// a repeated or out-of-order cycle (overlapping shards, duplicated
/// inputs) stops the stream with ok() == false instead of emitting a
/// corrupt merge.
///
/// The heap holds (next cycle, cursor) pairs over raw segment positions:
/// ordering reads only the cycle a record opens with, and a record is
/// decoded once, when it is emitted, straight into the caller's `out`.
template <class Record>
class MergeReader {
  static constexpr std::size_t kWidth = RecordTraits<Record>::wire_bytes;
  static constexpr std::ptrdiff_t kPrefetchAhead = 256;  // bytes, ~5 records

 public:
  explicit MergeReader(std::vector<SegmentReader<Record>> inputs)
      : inputs_(std::move(inputs)) {
    for (const SegmentReader<Record>& input : inputs_) {
      for (const SegmentView& segment : input.segments()) {
        if (segment.payload.empty()) continue;
        heap_.push_back(Head{record_cycle(segment.payload.data()),
                             static_cast<std::uint32_t>(cursors_.size())});
        cursors_.push_back(Cursor{segment.payload.data(),
                                  segment.payload.data() + segment.payload.size()});
      }
      record_count_ += input.record_count();
    }
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const Head& a, const Head& b) { return a.cycle > b.cycle; });
  }

  bool next(std::uint64_t& cycle, Record& out) {
    if (!error_.empty() || heap_.empty()) return false;
    Head& top = heap_.front();
    Cursor& cursor = cursors_[top.cursor];
    cycle = decode_record(cursor.at, out);
    cursor.at += kWidth;
    if (cursor.at != cursor.end) {
      // Every cursor streams its own stretch of the mapping, more streams
      // than the hardware prefetcher follows: ask for this one's bytes a
      // few records ahead, long before the heap comes back to it.
      __builtin_prefetch(
          cursor.at + std::min<std::ptrdiff_t>(kPrefetchAhead, cursor.end - cursor.at - 1));
      top.cycle = record_cycle(cursor.at);
    } else {
      top = heap_.back();
      heap_.pop_back();
    }
    sift_down();
    if (emitted_ > 0 && cycle <= last_cycle_) {
      error_ = "cycle index " + std::to_string(cycle) +
               " repeats or regresses in the merge (overlapping or "
               "duplicated spill inputs)";
      return false;
    }
    last_cycle_ = cycle;
    ++emitted_;
    return true;
  }

  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    for (const SegmentReader<Record>& input : inputs_) {
      if (input.has_identity()) return input.seed();
    }
    return 0;
  }
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Cursor {
    const std::uint8_t* at;   // the segment's next record
    const std::uint8_t* end;  // one past its last
  };
  struct Head {
    std::uint64_t cycle;  // the cycle *cursors_[cursor].at opens with
    std::uint32_t cursor;
  };

  /// Restores the min-heap after the root's cycle grew: one pass down,
  /// taking the smaller child branch-free, stopping where the root fits.
  void sift_down() {
    const std::size_t n = heap_.size();
    if (n < 2) return;
    const Head moving = heap_.front();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n) {
        child += static_cast<std::size_t>(heap_[child + 1].cycle < heap_[child].cycle);
      }
      if (moving.cycle <= heap_[child].cycle) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = moving;
  }

  std::vector<SegmentReader<Record>> inputs_;  // owns the mappings
  std::vector<Cursor> cursors_;
  std::vector<Head> heap_;
  std::uint64_t record_count_ = 0;
  std::uint64_t last_cycle_ = 0;
  std::uint64_t emitted_ = 0;
  std::string error_;
};

/// Opens and cross-validates a set of spill files, then hands back the
/// merge. Rejects, with a clear error: unreadable/corrupt files, inputs
/// from different scans (mixed seeds), and overlapping shard strides.
template <class Record>
[[nodiscard]] std::optional<MergeReader<Record>> open_merge(
    const std::vector<std::string>& files, std::string* error) {
  std::vector<SegmentReader<Record>> readers;
  readers.reserve(files.size());
  for (const std::string& file : files) {
    SegmentReader<Record> reader;
    if (!reader.open(file, error)) return std::nullopt;
    readers.push_back(std::move(reader));
  }
  const SegmentReader<Record>* reference = nullptr;
  for (const SegmentReader<Record>& reader : readers) {
    if (!reader.has_identity()) continue;  // empty spill: nothing to clash
    if (reference == nullptr) {
      reference = &reader;
      continue;
    }
    if (reader.seed() != reference->seed()) {
      if (error != nullptr) {
        *error = "mixed scan seeds: " + reference->path() + " has seed " +
                 std::to_string(reference->seed()) + " but " + reader.path() +
                 " has seed " + std::to_string(reader.seed()) +
                 "; spill files merge only within a single scan";
      }
      return std::nullopt;
    }
  }
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (!readers[i].has_identity()) continue;
    for (std::size_t j = i + 1; j < readers.size(); ++j) {
      if (!readers[j].has_identity()) continue;
      if (shards_overlap(readers[i].shard(), readers[i].total_shards(),
                         readers[j].shard(), readers[j].total_shards())) {
        if (error != nullptr) {
          *error = "overlapping shards: " + readers[i].path() + " covers shard " +
                   std::to_string(readers[i].shard()) + "/" +
                   std::to_string(readers[i].total_shards()) + " and " +
                   readers[j].path() + " covers shard " +
                   std::to_string(readers[j].shard()) + "/" +
                   std::to_string(readers[j].total_shards()) +
                   "; their permutation strides intersect, so the same "
                   "targets would merge twice";
        }
        return std::nullopt;
      }
    }
  }
  return MergeReader<Record>(std::move(readers));
}

/// Convenience: merge `files` fully into RAM (tests, small scans).
template <class Record>
[[nodiscard]] bool read_merged(const std::vector<std::string>& files,
                               std::vector<Record>& out, std::string* error) {
  auto merge = open_merge<Record>(files, error);
  if (!merge.has_value()) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(merge->record_count()));
  std::uint64_t cycle = 0;
  Record record{};
  while (merge->next(cycle, record)) out.push_back(record);
  if (!merge->ok()) {
    if (error != nullptr) *error = merge->error();
    return false;
  }
  return true;
}

}  // namespace iwscan::store
