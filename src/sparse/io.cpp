#include "sparse/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace mggcn::sparse {

namespace {

constexpr char kMagic[8] = {'M', 'G', 'C', 'S', 'R', '1', '\0', '\0'};

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void write_vec(std::ofstream& os, std::span<const T> values) {
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  MGGCN_CHECK_MSG(static_cast<bool>(is), "truncated csr file");
  return value;
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
std::vector<T> read_vec(std::ifstream& is, std::size_t count) {
  std::vector<T> values(count);
  is.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  MGGCN_CHECK_MSG(static_cast<bool>(is), "truncated csr file");
  return values;
}

}  // namespace

void write_csr(const Csr& matrix, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  MGGCN_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, matrix.rows());
  write_pod(os, matrix.cols());
  write_pod(os, matrix.nnz());
  write_vec(os, matrix.row_ptr());
  write_vec(os, matrix.col_idx());
  write_vec(os, matrix.values());
  MGGCN_CHECK_MSG(static_cast<bool>(os), "write failed: " + path);
}

Csr read_csr(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MGGCN_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  MGGCN_CHECK_MSG(is && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                  "bad csr magic in " + path);
  const auto rows = read_pod<std::int64_t>(is);
  const auto cols = read_pod<std::int64_t>(is);
  const auto nnz = read_pod<std::int64_t>(is);
  // The header sizes every array, so it must describe exactly the bytes
  // the file holds before anything is allocated from it. Column indices
  // are u32, which bounds cols.
  const std::uint64_t left = bytes_left(is);
  MGGCN_CHECK_MSG(rows >= 0 && cols >= 0 && cols <= (std::int64_t{1} << 32) &&
                      nnz >= 0 && static_cast<std::uint64_t>(rows) < left &&
                      static_cast<std::uint64_t>(nnz) < left &&
                      (static_cast<std::uint64_t>(rows + nnz) + 1) * 8 == left,
                  "csr header does not match the file size of " + path);
  auto row_ptr =
      read_vec<std::int64_t>(is, static_cast<std::size_t>(rows) + 1);
  auto col_idx = read_vec<std::uint32_t>(is, static_cast<std::size_t>(nnz));
  auto values = read_vec<float>(is, static_cast<std::size_t>(nnz));
  // Checked here rather than in the Csr constructor, which hot paths call
  // per batch on structure they built themselves.
  MGGCN_CHECK_MSG(row_ptr.front() == 0 && row_ptr.back() == nnz &&
                      std::is_sorted(row_ptr.begin(), row_ptr.end()),
                  "csr row_ptr is not monotone from 0 to nnz in " + path);
  MGGCN_CHECK_MSG(std::all_of(col_idx.begin(), col_idx.end(),
                              [cols](std::uint32_t c) { return c < cols; }),
                  "csr column index out of range in " + path);
  return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

Coo read_edge_list(const std::string& path, std::int64_t num_vertices) {
  std::ifstream is(path);
  MGGCN_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);
  Coo coo(num_vertices, num_vertices);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u >> v)) continue;
    MGGCN_CHECK_MSG(static_cast<std::int64_t>(u) < num_vertices &&
                        static_cast<std::int64_t>(v) < num_vertices,
                    "edge endpoint out of range in " + path);
    coo.add(static_cast<std::uint32_t>(u), static_cast<std::uint32_t>(v));
  }
  return coo;
}

Coo read_matrix_market(const std::string& path) {
  std::ifstream is(path);
  MGGCN_CHECK_MSG(is.is_open(), "cannot open for reading: " + path);

  std::string header;
  MGGCN_CHECK_MSG(static_cast<bool>(std::getline(is, header)),
                  "empty MatrixMarket file: " + path);
  MGGCN_CHECK_MSG(header.rfind("%%MatrixMarket", 0) == 0,
                  "missing MatrixMarket banner in " + path);
  const bool pattern = header.find("pattern") != std::string::npos;
  const bool symmetric = header.find("symmetric") != std::string::npos;
  MGGCN_CHECK_MSG(header.find("coordinate") != std::string::npos,
                  "only coordinate MatrixMarket files are supported");

  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  std::int64_t rows = 0, cols = 0, nnz = 0;
  MGGCN_CHECK_MSG(static_cast<bool>(sizes >> rows >> cols >> nnz),
                  "bad MatrixMarket size line in " + path);
  // Indices are stored as u32, and the header's nnz counts distinct
  // entries of a rows x cols matrix (computed without overflowing rows*cols).
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 32;
  MGGCN_CHECK_MSG(rows >= 0 && cols >= 0 && nnz >= 0 && rows <= kMaxDim &&
                      cols <= kMaxDim,
                  "bad MatrixMarket sizes in " + path);
  MGGCN_CHECK_MSG(
      cols == 0 ? nnz == 0 : nnz / cols + (nnz % cols != 0 ? 1 : 0) <= rows,
      "MatrixMarket nnz exceeds rows * cols in " + path);

  // The header is not trusted with the allocation: reserve at most
  // kMaxReserve entries up front and grow as entries actually arrive.
  constexpr std::int64_t kMaxReserve = std::int64_t{1} << 20;
  Coo coo(rows, cols);
  coo.reserve(static_cast<std::size_t>(std::min(nnz, kMaxReserve) *
                                       (symmetric ? 2 : 1)));
  for (std::int64_t e = 0; e < nnz; ++e) {
    MGGCN_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                    "truncated MatrixMarket file: " + path);
    std::istringstream entry(line);
    std::int64_t r = 0, c2 = 0;
    double value = 1.0;
    MGGCN_CHECK_MSG(static_cast<bool>(entry >> r >> c2),
                    "bad MatrixMarket entry in " + path);
    if (!pattern) entry >> value;
    MGGCN_CHECK_MSG(r >= 1 && r <= rows && c2 >= 1 && c2 <= cols,
                    "MatrixMarket index out of range in " + path);
    coo.add(static_cast<std::uint32_t>(r - 1),
            static_cast<std::uint32_t>(c2 - 1), static_cast<float>(value));
    if (symmetric && r != c2) {
      coo.add(static_cast<std::uint32_t>(c2 - 1),
              static_cast<std::uint32_t>(r - 1), static_cast<float>(value));
    }
  }
  return coo;
}

void write_matrix_market(const Csr& matrix, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  MGGCN_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  os << "%%MatrixMarket matrix coordinate real general\n"
     << matrix.rows() << ' ' << matrix.cols() << ' ' << matrix.nnz()
     << '\n';
  const auto row_ptr = matrix.row_ptr();
  const auto col_idx = matrix.col_idx();
  const auto values = matrix.values();
  for (std::int64_t r = 0; r < matrix.rows(); ++r) {
    for (std::int64_t e = row_ptr[static_cast<std::size_t>(r)];
         e < row_ptr[static_cast<std::size_t>(r) + 1]; ++e) {
      os << r + 1 << ' ' << col_idx[static_cast<std::size_t>(e)] + 1 << ' '
         << values[static_cast<std::size_t>(e)] << '\n';
    }
  }
}

void write_edge_list(const Csr& matrix, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  MGGCN_CHECK_MSG(os.is_open(), "cannot open for writing: " + path);
  const auto row_ptr = matrix.row_ptr();
  const auto col_idx = matrix.col_idx();
  for (std::int64_t r = 0; r < matrix.rows(); ++r) {
    for (std::int64_t e = row_ptr[static_cast<std::size_t>(r)];
         e < row_ptr[static_cast<std::size_t>(r) + 1]; ++e) {
      os << r << ' ' << col_idx[static_cast<std::size_t>(e)] << '\n';
    }
  }
}

}  // namespace mggcn::sparse
