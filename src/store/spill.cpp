#include "store/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <filesystem>
#include <numeric>

namespace iwscan::store {

std::string spill_file_name(std::uint32_t shard, std::uint32_t total_shards) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "host-%05u-of-%05u.iwspill", shard, total_shards);
  return buf;
}

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

bool shards_overlap(std::uint32_t shard_a, std::uint32_t total_a,
                    std::uint32_t shard_b, std::uint32_t total_b) {
  const std::uint32_t g = std::gcd(std::max(total_a, 1u), std::max(total_b, 1u));
  return shard_a % g == shard_b % g;
}

bool collect_spill_files(const std::vector<std::string>& inputs,
                         std::vector<std::string>& files, std::string* error) {
  namespace fs = std::filesystem;
  const std::string_view prefix = RecordTraits<core::HostScanRecord>::file_prefix;
  const auto matches = [&](const fs::path& path) {
    const std::string name = path.filename().string();
    return path.extension() == ".iwspill" &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.size() > prefix.size() && name[prefix.size()] == '-';
  };
  for (const std::string& input : inputs) {
    std::error_code ec;
    const fs::file_status status = fs::status(input, ec);
    if (ec || status.type() == fs::file_type::not_found) {
      if (error != nullptr) *error = "no such file or directory: " + input;
      return false;
    }
    if (fs::is_directory(status)) {
      for (const fs::directory_entry& entry : fs::directory_iterator(input, ec)) {
        if (entry.is_regular_file() && matches(entry.path())) {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        if (error != nullptr) *error = "cannot list directory: " + input;
        return false;
      }
    } else if (matches(fs::path(input))) {
      files.push_back(input);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return true;
}

namespace detail {

void radix_sort_keys(std::vector<RunKey>& keys, std::vector<RunKey>& scratch,
                     std::size_t n, std::uint64_t min_cycle, std::uint64_t max_cycle) {
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const unsigned bits = static_cast<unsigned>(std::bit_width(max_cycle - min_cycle));
  std::array<std::uint32_t, kBuckets> counts;
  for (unsigned shift = 0; shift < bits; shift += kDigitBits) {
    const auto digit = [&](const RunKey& key) {
      return static_cast<std::size_t>(((key.cycle - min_cycle) >> shift) & (kBuckets - 1));
    };
    counts.fill(0);
    for (std::size_t i = 0; i < n; ++i) ++counts[digit(keys[i])];
    if (counts[digit(keys[0])] == n) continue;  // one digit for every key
    std::uint32_t total = 0;
    for (std::uint32_t& count : counts) total += std::exchange(count, total);
    for (std::size_t i = 0; i < n; ++i) scratch[counts[digit(keys[i])]++] = keys[i];
    keys.swap(scratch);
  }
}

FileSink::~FileSink() { static_cast<void>(close()); }

bool FileSink::open(const std::string& path, std::string* error) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    ok_ = false;
    return false;
  }
  return true;
}

void FileSink::write(std::span<const std::uint8_t> bytes) {
  if (file_ == nullptr || !ok_ || bytes.empty()) return;
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    ok_ = false;
  }
}

bool FileSink::close() {
  if (file_ == nullptr) return ok_;
  if (std::fclose(file_) != 0) ok_ = false;
  file_ = nullptr;
  return ok_;
}

bool open_spill_sink(const std::string& directory, const std::string& path,
                     FileSink& sink, std::string* error) {
  if (!directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec) {
      if (error != nullptr) *error = "cannot create spill directory " + directory;
      return false;
    }
  }
  return sink.open(path, error);
}

}  // namespace detail

MappedFile::~MappedFile() { unmap(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::unmap() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

bool MappedFile::map(const std::string& path, std::string* error) {
  unmap();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    if (error != nullptr) *error = "cannot stat " + path;
    return false;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {  // a valid, empty spill: no segments, no mapping
    ::close(fd);
    return true;
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (data == MAP_FAILED) {
    if (error != nullptr) *error = "cannot mmap " + path;
    return false;
  }
  data_ = data;
  size_ = size;
  return true;
}

}  // namespace iwscan::store
