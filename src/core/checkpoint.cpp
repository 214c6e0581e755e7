#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "util/error.hpp"

namespace mggcn::core {

namespace {

constexpr char kMagic[8] = {'M', 'G', 'C', 'K', 'P', 'T', '1', '\0'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bytes between the read position and the end of the file.
std::uint64_t bytes_left(std::ifstream& is) {
  const auto pos = is.tellg();
  is.seekg(0, std::ios::end);
  const auto end = is.tellg();
  is.seekg(pos);
  return static_cast<std::uint64_t>(end - pos);
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  MGGCN_CHECK_MSG(static_cast<bool>(is), "truncated checkpoint");
  return value;
}

void write_matrix(std::ofstream& os, const dense::HostMatrix& m) {
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

dense::HostMatrix read_matrix(std::ifstream& is, std::int64_t rows,
                              std::int64_t cols) {
  dense::HostMatrix m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  MGGCN_CHECK_MSG(static_cast<bool>(is), "truncated checkpoint");
  return m;
}

}  // namespace

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  MGGCN_CHECK(checkpoint.adam_m.size() == checkpoint.num_layers() &&
              checkpoint.adam_v.size() == checkpoint.num_layers());
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  MGGCN_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);

  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::int32_t>(checkpoint.adam_step));
  write_pod(os, static_cast<std::uint32_t>(checkpoint.num_layers()));
  for (std::size_t l = 0; l < checkpoint.num_layers(); ++l) {
    const auto& w = checkpoint.weights[l];
    MGGCN_CHECK(checkpoint.adam_m[l].rows() == w.rows() &&
                checkpoint.adam_v[l].cols() == w.cols());
    write_pod(os, w.rows());
    write_pod(os, w.cols());
    write_matrix(os, w);
    write_matrix(os, checkpoint.adam_m[l]);
    write_matrix(os, checkpoint.adam_v[l]);
  }
  MGGCN_CHECK_MSG(static_cast<bool>(os), "write failed: " + path);
}

Checkpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MGGCN_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);

  char magic[8];
  is.read(magic, sizeof(magic));
  MGGCN_CHECK_MSG(is && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                  "bad checkpoint magic in " + path);
  const auto version = read_pod<std::uint32_t>(is);
  MGGCN_CHECK_MSG(version == kVersion, "unsupported checkpoint version");

  Checkpoint checkpoint;
  checkpoint.adam_step = read_pod<std::int32_t>(is);
  MGGCN_CHECK_MSG(checkpoint.adam_step >= 0, "corrupt checkpoint step");
  const auto layers = read_pod<std::uint32_t>(is);
  for (std::uint32_t l = 0; l < layers; ++l) {
    const auto rows = read_pod<std::int64_t>(is);
    const auto cols = read_pod<std::int64_t>(is);
    // W, m and v are rows x cols floats each; the file must hold them
    // before the shape sizes an allocation.
    const std::uint64_t floats = bytes_left(is) / (3 * sizeof(float));
    MGGCN_CHECK_MSG(rows > 0 && cols > 0 &&
                        static_cast<std::uint64_t>(rows) <= floats &&
                        static_cast<std::uint64_t>(cols) <=
                            floats / static_cast<std::uint64_t>(rows),
                    "corrupt checkpoint shape");
    checkpoint.weights.push_back(read_matrix(is, rows, cols));
    checkpoint.adam_m.push_back(read_matrix(is, rows, cols));
    checkpoint.adam_v.push_back(read_matrix(is, rows, cols));
  }
  MGGCN_CHECK_MSG(bytes_left(is) == 0, "trailing bytes in checkpoint");
  return checkpoint;
}

}  // namespace mggcn::core
