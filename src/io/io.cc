#include "io/io.h"

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "common/thread_pool.h"
#include "common/util.h"
#include "io/atomic_file.h"
#include "obs/metrics.h"

namespace sysds {
namespace io {

StatusOr<MatrixBlock> Reader::ReadMatrix(const std::string& path,
                                         const FormatDescriptor& desc) const {
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no matrix reader");
}

StatusOr<FrameBlock> Reader::ReadFrame(
    const std::string& path, const FormatDescriptor& desc,
    const std::vector<ValueType>& schema) const {
  (void)path;
  (void)schema;
  return Unimplemented("format '" + desc.kind + "' has no frame reader");
}

Status Writer::WriteMatrix(const MatrixBlock& m, const std::string& path,
                           const FormatDescriptor& desc) const {
  (void)m;
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no matrix writer");
}

Status Writer::WriteFrame(const FrameBlock& f, const std::string& path,
                          const FormatDescriptor& desc) const {
  (void)f;
  (void)path;
  return Unimplemented("format '" + desc.kind + "' has no frame writer");
}

namespace {

// A line-aligned piece [first, second) of a text file's buffer.
using TextChunk = std::pair<const char*, const char*>;

// Smallest chunk worth a task of its own: a file below it is one chunk.
constexpr size_t kMinTextChunkBytes = size_t{16} << 10;

// The first '\n' in [b, e), or e when there is none.
inline const char* FindNewline(const char* b, const char* e) {
  const void* nl = std::memchr(b, '\n', static_cast<size_t>(e - b));
  return nl == nullptr ? e : static_cast<const char*>(nl);
}

// Cuts [begin, end) in place into line-aligned chunks: exactly one when
// num_threads == 1, else up to kMaxLoopChunks of at least
// kMinTextChunkBytes each, so where a chunk ends depends on the file, never
// on the thread count. Shared by the matrix and frame text readers.
std::vector<TextChunk> LineAlignedChunks(const char* begin, const char* end,
                                         int num_threads) {
  const size_t size = static_cast<size_t>(end - begin);
  size_t num_chunks = 1;
  if (num_threads != 1) {
    num_chunks = std::clamp<size_t>(size / kMinTextChunkBytes, 1,
                                    static_cast<size_t>(kMaxLoopChunks));
  }
  const size_t target = size / num_chunks + 1;
  std::vector<TextChunk> chunks;
  while (begin < end) {
    const char* cut =
        begin + std::min(target, static_cast<size_t>(end - begin));
    cut = FindNewline(cut, end);
    if (cut < end) ++cut;  // include the newline
    chunks.emplace_back(begin, cut);
    begin = cut;
  }
  return chunks;
}

// Calls fn(line_begin, line_end) for each line of `chunk`, newline
// excluded; a last line without one ends at the chunk's end. Stops early
// when fn returns false.
template <typename Fn>
void ForEachLine(const TextChunk& chunk, const Fn& fn) {
  const char* p = chunk.first;
  while (p < chunk.second) {
    const char* line_end = FindNewline(p, chunk.second);
    if (!fn(p, line_end)) return;
    p = line_end + 1;
  }
}

// Runs fn(chunk index) for every chunk on the global pool.
void ForEachChunk(size_t num_chunks, const char* label,
                  const std::function<void(size_t)>& fn) {
  const auto n = static_cast<int64_t>(num_chunks);
  ThreadPool::Global().ParallelFor(
      0, n, n,
      [&](int64_t cb, int64_t ce) {
        for (int64_t c = cb; c < ce; ++c) fn(static_cast<size_t>(c));
      },
      label);
}

// First row of each chunk: the lines for which is_row(begin, end) holds are
// counted per chunk in parallel, then prefix-summed; the last entry is the
// total.
template <typename IsRow>
std::vector<int64_t> ChunkRowOffsets(const std::vector<TextChunk>& chunks,
                                     const IsRow& is_row) {
  std::vector<int64_t> first_row(chunks.size() + 1, 0);
  ForEachChunk(chunks.size(), "io.read", [&](size_t c) {
    int64_t lines = 0;
    ForEachLine(chunks[c], [&](const char* b, const char* e) {
      lines += is_row(b, e) ? 1 : 0;
      return true;
    });
    first_row[c + 1] = lines;
  });
  for (size_t c = 0; c < chunks.size(); ++c) first_row[c + 1] += first_row[c];
  return first_row;
}

// strtod on a NUL-terminated copy of the whole token s[0, len).
double ParseDoubleToken(const char* s, size_t len) {
  return std::strtod(std::string(s, len).c_str(), nullptr);
}

// Parses the numeric csv cell [b, e) to exactly the double strtod gives
// for it. std::from_chars does so when it takes the whole token and the
// value is not NaN: both parsers round correctly, so the bits agree, and
// only a NaN's payload ("nan(...)") may differ between them. Every other
// token — a leading '+' or blank, hex, "1.5\r", empty, out of range —
// falls back to strtod.
inline double ParseCell(const char* b, const char* e) {
  double v;
  const auto [ptr, ec] = std::from_chars(b, e, v);
  if (ec == std::errc() && ptr == e && !std::isnan(v)) return v;
  return ParseDoubleToken(b, static_cast<size_t>(e - b));
}

// ---------------------------------------------------------------------------
// csv: parallel numeric matrix text and frame text.

Status CsvShortRowError(int64_t row, int64_t cells, int64_t cols) {
  return IoError("csv: row " + std::to_string(row + 1) + " has " +
                 std::to_string(cells) + " columns, expected " +
                 std::to_string(cols));
}

// The error for the first line of [begin, end) with fewer than `cols`
// cells; the caller knows there is one.
Status FirstShortCsvRow(const char* begin, const char* end, int64_t cols,
                        char delim) {
  int64_t row = 0;
  for (const char* p = begin; p < end; ++row) {
    const char* line_end = FindNewline(p, end);
    const int64_t cells = 1 + std::count(p, line_end, delim);
    if (cells < cols) return CsvShortRowError(row, cells, cols);
    p = line_end + 1;
  }
  return Internal("csv: no short row");
}

StatusOr<MatrixBlock> ReadMatrixCsvImpl(const std::string& path,
                                        const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  const int threads =
      desc.num_threads > 0 ? desc.num_threads : DefaultParallelism();
  const char delim = desc.delimiter;

  const char* begin = data.data();
  const char* end = begin + data.size();
  if (desc.header) {
    const char* nl = FindNewline(begin, end);
    begin = nl == end ? end : nl + 1;
  }
  if (begin >= end) return MatrixBlock::Dense(0, 0);
  const int64_t cols = 1 + std::count(begin, FindNewline(begin, end), delim);

  // Every line is a row, empty ones included.
  const std::vector<TextChunk> chunks = LineAlignedChunks(begin, end, threads);
  const std::vector<int64_t> first_row =
      ChunkRowOffsets(chunks, [](const char*, const char*) { return true; });
  // A full row takes at least `cols` bytes (cols - 1 delimiters and a
  // newline, which the last row may lack), so rows * cols > bytes + 1
  // proves a short row. Report it before the first line's width sizes a
  // rows x cols block the file cannot fill.
  const int64_t rows = first_row.back();
  if (cols > (static_cast<int64_t>(end - begin) + 1) / rows) {
    return FirstShortCsvRow(begin, end, cols, delim);
  }
  MatrixBlock m = MatrixBlock::Dense(rows, cols);

  // Cells past the first line's width are ignored; a short row fails.
  std::vector<Status> chunk_status(chunks.size());
  std::vector<int64_t> chunk_nnz(chunks.size(), 0);
  ForEachChunk(chunks.size(), "io.read", [&](size_t c) {
    int64_t row = first_row[c];
    int64_t nnz = 0;
    ForEachLine(chunks[c], [&](const char* p, const char* line_end) {
      double* out = m.DenseRow(row);
      int64_t col = 0;
      const char* tok = p;
      while (true) {
        const char* q = tok;
        while (q < line_end && *q != delim) ++q;
        if (col < cols) {
          const double v = ParseCell(tok, q);
          out[col++] = v;
          nnz += v != 0.0;
        }
        if (q == line_end) break;
        tok = q + 1;
      }
      if (col != cols) {
        chunk_status[c] = CsvShortRowError(row, col, cols);
        return false;
      }
      ++row;
      return true;
    });
    chunk_nnz[c] = nnz;
  });
  for (const Status& s : chunk_status) SYSDS_RETURN_IF_ERROR(s);
  int64_t nnz = 0;
  for (int64_t n : chunk_nnz) nnz += n;
  m.ExamSparsity(nnz);
  return m;
}

// Longest "%.17g" text of a double ("-1.2345678901234567e-308") plus its
// delimiter.
constexpr size_t kMaxCellChars = 25;
// Bound on one writer chunk's text; the writer formats a window of chunks
// in parallel, writes them in order, and formats the next window.
constexpr size_t kWriteChunkBytes = size_t{1} << 20;

// Formats rows [r0, r1) of `m` as csv lines into `out` (room for
// kMaxCellChars per cell plus a newline per row) and returns the length.
// std::to_chars with chars_format::general and precision 17 is defined as
// printf("%.17g"), so each cell's bytes are snprintf's.
size_t FormatCsvRows(const MatrixBlock& m, int64_t r0, int64_t r1,
                     char delim, char* out) {
  const int64_t cols = m.Cols();
  char* p = out;
  auto put = [&p](double v) {
    p = std::to_chars(p, p + kMaxCellChars, v, std::chars_format::general, 17)
            .ptr;
  };
  for (int64_t r = r0; r < r1; ++r) {
    if (m.IsSparse()) {
      const SparseRow& row = m.SparseData().Row(r);
      int64_t k = 0;
      for (int64_t c = 0; c < cols; ++c) {
        if (c > 0) *p++ = delim;
        if (k < row.Size() && row.Indexes()[k] == c) {
          put(row.Values()[k++]);
        } else {
          *p++ = '0';
        }
      }
    } else {
      const double* row = m.DenseRow(r);
      for (int64_t c = 0; c < cols; ++c) {
        if (c > 0) *p++ = delim;
        put(row[c]);
      }
    }
    *p++ = '\n';
  }
  return static_cast<size_t>(p - out);
}

Status WriteMatrixCsvImpl(const MatrixBlock& m, const std::string& path,
                          const FormatDescriptor& desc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return IoError("cannot open '" + path + "' for writing");
  bool ok = true;
  auto put = [&](const char* s, size_t n) {
    ok = ok && std::fwrite(s, 1, n, f) == n;
  };
  if (desc.header) {
    std::string header;
    for (int64_t c = 0; c < m.Cols(); ++c) {
      if (c > 0) header += desc.delimiter;
      header += "C" + std::to_string(c + 1);
    }
    header += '\n';
    put(header.data(), header.size());
  }

  const int threads =
      desc.num_threads > 0 ? desc.num_threads : DefaultParallelism();
  const size_t row_bytes = static_cast<size_t>(m.Cols()) * kMaxCellChars + 1;
  const int64_t chunk_rows = std::max<int64_t>(
      1, static_cast<int64_t>(kWriteChunkBytes / row_bytes));
  const int64_t num_chunks = (m.Rows() + chunk_rows - 1) / chunk_rows;
  const int64_t window = std::min<int64_t>(num_chunks, 2 * threads);
  std::vector<std::unique_ptr<char[]>> text(static_cast<size_t>(window));
  std::vector<size_t> text_len(text.size());
  for (auto& t : text) {
    t.reset(new char[static_cast<size_t>(std::min(chunk_rows, m.Rows())) *
                     row_bytes]);
  }
  for (int64_t w = 0; w < num_chunks && ok; w += window) {
    const int64_t n = std::min(window, num_chunks - w);
    ForEachChunk(static_cast<size_t>(n), "io.write", [&](size_t i) {
      const int64_t r0 = (w + static_cast<int64_t>(i)) * chunk_rows;
      text_len[i] = FormatCsvRows(m, r0, std::min(m.Rows(), r0 + chunk_rows),
                                  desc.delimiter, text[i].get());
    });
    for (int64_t i = 0; i < n; ++i) put(text[i].get(), text_len[i]);
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) return IoError("write failed for '" + path + "'");
  return Status::Ok();
}

// True for numeric/boolean frame columns, which get strict cell validation.
inline bool IsTypedNumeric(ValueType t) {
  return t != ValueType::kString && t != ValueType::kUnknown;
}

// Parses a numeric frame cell strictly: empty is missing (0.0), anything
// else must be a full double literal (trailing spaces/CR allowed).
// Returns false on malformed input.
inline bool ParseStrictNumeric(const std::string& cell, double* out) {
  if (cell.empty()) {
    *out = 0.0;
    return true;
  }
  const char* s = cell.c_str();
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  if (*end != '\0') return false;
  *out = v;
  return true;
}

StatusOr<FrameBlock> ReadFrameCsvImpl(const std::string& path,
                                      const FormatDescriptor& desc,
                                      const std::vector<ValueType>& schema) {
  SYSDS_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  const int threads =
      desc.num_threads > 0 ? desc.num_threads : DefaultParallelism();

  const char* begin = data.data();
  const char* end = begin + data.size();
  std::vector<std::string> names;
  if (desc.header) {
    const char* nl = FindNewline(begin, end);
    names = SplitString(std::string(begin, nl), desc.delimiter);
    begin = nl == end ? end : nl + 1;
  }

  // Column count from the first non-empty line (header included when there
  // is no body, matching the serial reader).
  int64_t cols = 0;
  {
    std::string first_line;
    ForEachLine({begin, end}, [&](const char* b, const char* e) {
      first_line.assign(b, e);
      return first_line.empty();
    });
    if (first_line.empty() && desc.header && !names.empty()) {
      cols = static_cast<int64_t>(names.size());
    } else if (!first_line.empty()) {
      cols = static_cast<int64_t>(
          SplitString(first_line, desc.delimiter).size());
    }
  }
  if (cols == 0) return FrameBlock(0, schema);

  std::vector<ValueType> sch = schema;
  if (sch.empty()) {
    sch.assign(static_cast<size_t>(cols), ValueType::kString);
  }
  if (static_cast<int64_t>(sch.size()) != cols) {
    return IoError("frame csv: schema size does not match column count");
  }

  // Rows are the non-empty lines; each chunk learns its first row number
  // (for placement and error messages) from the parallel count.
  auto non_empty = [](const char* b, const char* e) { return e > b; };
  const std::vector<TextChunk> chunks = LineAlignedChunks(begin, end, threads);
  const std::vector<int64_t> first_row = ChunkRowOffsets(chunks, non_empty);

  FrameBlock f(first_row.back(), sch, names);
  std::vector<Status> chunk_status(chunks.size());
  ForEachChunk(chunks.size(), "io.read", [&](size_t c) {
    int64_t row = first_row[c];
    ForEachLine(chunks[c], [&](const char* b, const char* e) {
      if (!non_empty(b, e)) return true;
      std::vector<std::string> cells =
          SplitString(std::string(b, e), desc.delimiter);
      if (static_cast<int64_t>(cells.size()) != cols) {
        chunk_status[c] = IoError(
            "frame csv: ragged row " + std::to_string(row + 1) + ": " +
            std::to_string(cells.size()) + " columns, expected " +
            std::to_string(cols));
        return false;
      }
      for (int64_t col = 0; col < cols; ++col) {
        const std::string& cell = cells[static_cast<size_t>(col)];
        if (IsTypedNumeric(sch[static_cast<size_t>(col)])) {
          double v;
          if (!ParseStrictNumeric(cell, &v)) {
            chunk_status[c] = IoError(
                "frame csv: row " + std::to_string(row + 1) + ", column " +
                std::to_string(col + 1) + ": malformed numeric value '" +
                cell + "'");
            return false;
          }
          f.SetDouble(row, col, v);
        } else {
          f.SetString(row, col, cell);
        }
      }
      ++row;
      return true;
    });
  });
  for (const Status& s : chunk_status) SYSDS_RETURN_IF_ERROR(s);
  return f;
}

Status WriteFrameCsvImpl(const FrameBlock& f, const std::string& path,
                         const FormatDescriptor& desc) {
  std::ofstream out(path);
  if (!out) return IoError("cannot open '" + path + "' for writing");
  if (desc.header) {
    for (int64_t c = 0; c < f.Cols(); ++c) {
      if (c > 0) out << desc.delimiter;
      out << f.ColumnNames()[c];
    }
    out << "\n";
  }
  for (int64_t r = 0; r < f.Rows(); ++r) {
    for (int64_t c = 0; c < f.Cols(); ++c) {
      if (c > 0) out << desc.delimiter;
      out << f.GetString(r, c);
    }
    out << "\n";
  }
  out.close();
  if (!out) return IoError("write failed for '" + path + "'");
  return Status::Ok();
}

class CsvFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    return ReadMatrixCsvImpl(path, desc);
  }
  StatusOr<FrameBlock> ReadFrame(const std::string& path,
                                 const FormatDescriptor& desc,
                                 const std::vector<ValueType>& schema)
      const override {
    return ReadFrameCsvImpl(path, desc, schema);
  }
};

class CsvFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    return WriteMatrixCsvImpl(m, path, desc);
  }
  Status WriteFrame(const FrameBlock& f, const std::string& path,
                    const FormatDescriptor& desc) const override {
    return WriteFrameCsvImpl(f, path, desc);
  }
};

// ---------------------------------------------------------------------------
// binary: SystemDS binary block format.

constexpr uint64_t kBinaryMagic = 0x53595344424d4231ULL;  // "SYSDBMB1"
constexpr uint64_t kBinaryFrameMagic = 0x53595344424d4631ULL;  // "SYSDBMF1"

class BinaryFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    (void)desc;
    std::ifstream in(path, std::ios::binary);
    if (!in) return IoError("cannot open '" + path + "' for reading");
    auto m = ReadMatrixBinaryStream(in);
    if (!m.ok()) {
      return Status(m.status().code(), m.status().message() + " ('" + path + "')");
    }
    return m;
  }
};

class BinaryFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    (void)desc;
    std::ofstream out(path, std::ios::binary);
    if (!out) return IoError("cannot open '" + path + "' for writing");
    SYSDS_RETURN_IF_ERROR(WriteMatrixBinaryStream(m, out));
    if (!out) return IoError("write failed for '" + path + "'");
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// ijv: MatrixMarket-style coordinate text.

class IjvFormatReader : public Reader {
 public:
  StatusOr<MatrixBlock> ReadMatrix(const std::string& path,
                                   const FormatDescriptor& desc)
      const override {
    (void)desc;
    std::ifstream in(path);
    if (!in) return IoError("cannot open '" + path + "' for reading");
    std::string header;
    if (!std::getline(in, header) || header.size() < 2 ||
        header.compare(0, 2, "%%") != 0) {
      return IoError("ijv: missing %% header in '" + path + "'");
    }
    long long rows = 0, cols = 0, nnz = 0;
    if (std::sscanf(header.c_str(), "%%%% %lld %lld %lld", &rows, &cols,
                    &nnz) < 2) {
      return IoError("ijv: malformed header '" + header + "'");
    }
    double sparsity = rows * cols > 0
                          ? static_cast<double>(nnz) / (rows * cols)
                          : 1.0;
    MatrixBlock m(rows, cols,
                  MatrixBlock::EvalSparseFormat(rows, cols, sparsity));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      long long r = 0, c = 0;
      double v = 0.0;
      if (std::sscanf(line.c_str(), "%lld %lld %lf", &r, &c, &v) != 3) {
        return IoError("ijv: malformed line '" + line + "'");
      }
      if (r < 1 || r > rows || c < 1 || c > cols) {
        return IoError("ijv: cell index out of declared bounds");
      }
      m.Set(r - 1, c - 1, v);
    }
    m.MarkNnzDirty();
    return m;
  }
};

class IjvFormatWriter : public Writer {
 public:
  Status WriteMatrix(const MatrixBlock& m, const std::string& path,
                     const FormatDescriptor& desc) const override {
    (void)desc;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return IoError("cannot open '" + path + "' for writing");
    }
    std::fprintf(f, "%%%% %lld %lld %lld\n",
                 static_cast<long long>(m.Rows()),
                 static_cast<long long>(m.Cols()),
                 static_cast<long long>(m.NonZeros()));
    // A failed fprintf sets the stream's error flag; stop at the first.
    for (int64_t r = 0; r < m.Rows() && !std::ferror(f); ++r) {
      if (m.IsSparse()) {
        const SparseRow& row = m.SparseData().Row(r);
        for (int64_t p = 0; p < row.Size(); ++p) {
          std::fprintf(f, "%lld %lld %.17g\n",
                       static_cast<long long>(r + 1),
                       static_cast<long long>(row.Indexes()[p] + 1),
                       row.Values()[p]);
        }
      } else {
        for (int64_t c = 0; c < m.Cols(); ++c) {
          double v = m.Get(r, c);
          if (v != 0.0) {
            std::fprintf(f, "%lld %lld %.17g\n",
                         static_cast<long long>(r + 1),
                         static_cast<long long>(c + 1), v);
          }
        }
      }
    }
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_failed) {
      return IoError("write failed for '" + path + "'");
    }
    return Status::Ok();
  }
};

// ---------------------------------------------------------------------------
// Generated frame formats (delimited/fixed-width/key-value): the registry
// entry compiles a reader closure from the descriptor on each call (§3.2
// code generation of I/O primitives), so the registry stays the single
// entry point for every format kind.

class GeneratedFormatReader : public Reader {
 public:
  StatusOr<FrameBlock> ReadFrame(const std::string& path,
                                 const FormatDescriptor& desc,
                                 const std::vector<ValueType>& schema)
      const override {
    if (!schema.empty()) {
      return InvalidArgument(
          "generated formats take their schema from the descriptor");
    }
    SYSDS_ASSIGN_OR_RETURN(GeneratedReader read, GenerateReader(desc));
    return read(path);
  }
};

class GeneratedFormatWriter : public Writer {
 public:
  Status WriteFrame(const FrameBlock& f, const std::string& path,
                    const FormatDescriptor& desc) const override {
    SYSDS_ASSIGN_OR_RETURN(GeneratedWriter write, GenerateWriter(desc));
    return write(f, path);
  }
};

}  // namespace

Status WriteMatrixBinaryStream(const MatrixBlock& m, std::ostream& out) {
  uint64_t magic = kBinaryMagic;
  int64_t rows = m.Rows(), cols = m.Cols(), nnz = m.NonZeros();
  uint8_t sparse = m.IsSparse() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  out.write(reinterpret_cast<const char*>(&nnz), 8);
  out.write(reinterpret_cast<const char*>(&sparse), 1);
  if (!m.IsSparse()) {
    out.write(reinterpret_cast<const char*>(m.DenseData()),
              static_cast<std::streamsize>(rows * cols * 8));
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      const SparseRow& row = m.SparseData().Row(r);
      int64_t n = row.Size();
      out.write(reinterpret_cast<const char*>(&n), 8);
      out.write(reinterpret_cast<const char*>(row.Indexes()),
                static_cast<std::streamsize>(n * 8));
      out.write(reinterpret_cast<const char*>(row.Values()),
                static_cast<std::streamsize>(n * 8));
    }
  }
  if (!out) return IoError("binary matrix stream write failed");
  return Status::Ok();
}

StatusOr<MatrixBlock> ReadMatrixBinaryStream(std::istream& in) {
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0, nnz = 0;
  uint8_t sparse = 0;
  in.read(reinterpret_cast<char*>(&magic), 8);
  if (!in || magic != kBinaryMagic) {
    return CorruptError("not a SystemDS binary matrix");
  }
  in.read(reinterpret_cast<char*>(&rows), 8);
  in.read(reinterpret_cast<char*>(&cols), 8);
  in.read(reinterpret_cast<char*>(&nnz), 8);
  in.read(reinterpret_cast<char*>(&sparse), 1);
  if (!in || rows < 0 || cols < 0) {
    return CorruptError("malformed binary matrix header");
  }
  MatrixBlock m(rows, cols, sparse != 0);
  if (!sparse) {
    in.read(reinterpret_cast<char*>(m.DenseData()),
            static_cast<std::streamsize>(rows * cols * 8));
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      int64_t n = 0;
      in.read(reinterpret_cast<char*>(&n), 8);
      if (!in || n < 0 || n > cols) {
        return CorruptError("malformed sparse row in binary matrix");
      }
      SparseRow& row = m.SparseData().Row(r);
      row.Reserve(n);
      std::vector<int64_t> idx(static_cast<size_t>(n));
      std::vector<double> val(static_cast<size_t>(n));
      in.read(reinterpret_cast<char*>(idx.data()),
              static_cast<std::streamsize>(n * 8));
      in.read(reinterpret_cast<char*>(val.data()),
              static_cast<std::streamsize>(n * 8));
      for (int64_t p = 0; p < n; ++p) row.Append(idx[p], val[p]);
    }
  }
  if (!in) return IoError("truncated binary matrix");
  m.SetNonZeros(nnz);
  return m;
}

StatusOr<MatrixBlock> ReadMatrixBinaryVerified(const std::string& path) {
  VerifiedReader reader;
  SYSDS_RETURN_IF_ERROR(reader.Open(path));
  constexpr int64_t kHeaderBytes = 8 + 8 + 8 + 8 + 1;
  if (reader.PayloadSize() < kHeaderBytes) {
    return CorruptError("'" + path + "': too short for a binary matrix");
  }
  char header[kHeaderBytes];
  SYSDS_RETURN_IF_ERROR(reader.Read(header, kHeaderBytes));
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0, nnz = 0;
  std::memcpy(&magic, header, 8);
  std::memcpy(&rows, header + 8, 8);
  std::memcpy(&cols, header + 16, 8);
  std::memcpy(&nnz, header + 24, 8);
  const bool dense = header[32] == 0;
  if (magic == kBinaryMagic && dense) {
    // The dims fix the payload size, so a header that disagrees with the
    // footer is rejected before its claimed size is allocated; the cells
    // then land straight in the block, checksummed chunk by chunk.
    int64_t cells = 0, bytes = 0;
    if (rows < 0 || cols < 0 || __builtin_mul_overflow(rows, cols, &cells) ||
        __builtin_mul_overflow(cells, int64_t{8}, &bytes) ||
        bytes != reader.Remaining()) {
      return CorruptError("'" + path + "': dense header " +
                          std::to_string(rows) + "x" + std::to_string(cols) +
                          " disagrees with the payload size " +
                          std::to_string(reader.PayloadSize()));
    }
    MatrixBlock m(rows, cols, /*sparse=*/false);
    SYSDS_RETURN_IF_ERROR(reader.Read(m.DenseData(), bytes));
    SYSDS_RETURN_IF_ERROR(reader.Verify());
    m.SetNonZeros(nnz);
    return m;
  }
  // Sparse rows have no fixed size: verify the whole payload, then parse it
  // from memory (the istringstream takes the buffer over without a copy).
  std::string payload(static_cast<size_t>(reader.PayloadSize()), '\0');
  std::memcpy(payload.data(), header, kHeaderBytes);
  SYSDS_RETURN_IF_ERROR(
      reader.Read(payload.data() + kHeaderBytes, reader.Remaining()));
  SYSDS_RETURN_IF_ERROR(reader.Verify());
  std::istringstream in(std::move(payload));
  auto m = ReadMatrixBinaryStream(in);
  if (!m.ok()) {
    return Status(m.status().code(),
                  m.status().message() + " ('" + path + "')");
  }
  return m;
}

Status WriteFrameBinaryStream(const FrameBlock& f, std::ostream& out) {
  uint64_t magic = kBinaryFrameMagic;
  int64_t rows = f.Rows(), cols = f.Cols();
  out.write(reinterpret_cast<const char*>(&magic), 8);
  out.write(reinterpret_cast<const char*>(&rows), 8);
  out.write(reinterpret_cast<const char*>(&cols), 8);
  auto write_string = [&out](const std::string& s) {
    int64_t n = static_cast<int64_t>(s.size());
    out.write(reinterpret_cast<const char*>(&n), 8);
    out.write(s.data(), static_cast<std::streamsize>(n));
  };
  for (int64_t c = 0; c < cols; ++c) {
    uint8_t type = static_cast<uint8_t>(f.Schema()[static_cast<size_t>(c)]);
    out.write(reinterpret_cast<const char*>(&type), 1);
  }
  uint8_t has_names = f.ColumnNames().empty() ? 0 : 1;
  out.write(reinterpret_cast<const char*>(&has_names), 1);
  if (has_names) {
    for (int64_t c = 0; c < cols; ++c) {
      write_string(f.ColumnNames()[static_cast<size_t>(c)]);
    }
  }
  for (int64_t c = 0; c < cols; ++c) {
    if (const double* num = f.NumericData(c)) {
      out.write(reinterpret_cast<const char*>(num),
                static_cast<std::streamsize>(rows * 8));
    } else {
      const std::string* str = f.StringData(c);
      for (int64_t r = 0; r < rows; ++r) write_string(str[r]);
    }
  }
  if (!out) return IoError("binary frame stream write failed");
  return Status::Ok();
}

StatusOr<FrameBlock> ReadFrameBinaryStream(std::istream& in) {
  uint64_t magic = 0;
  int64_t rows = 0, cols = 0;
  in.read(reinterpret_cast<char*>(&magic), 8);
  if (!in || magic != kBinaryFrameMagic) {
    return CorruptError("not a SystemDS binary frame");
  }
  in.read(reinterpret_cast<char*>(&rows), 8);
  in.read(reinterpret_cast<char*>(&cols), 8);
  if (!in || rows < 0 || cols < 0) {
    return CorruptError("malformed binary frame header");
  }
  auto read_string = [&in](std::string* s) -> bool {
    int64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), 8);
    if (!in || n < 0) return false;
    s->resize(static_cast<size_t>(n));
    in.read(s->data(), static_cast<std::streamsize>(n));
    return static_cast<bool>(in);
  };
  std::vector<ValueType> schema(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    uint8_t type = 0;
    in.read(reinterpret_cast<char*>(&type), 1);
    schema[static_cast<size_t>(c)] = static_cast<ValueType>(type);
  }
  uint8_t has_names = 0;
  in.read(reinterpret_cast<char*>(&has_names), 1);
  if (!in) return CorruptError("malformed binary frame header");
  std::vector<std::string> names;
  if (has_names) {
    names.resize(static_cast<size_t>(cols));
    for (int64_t c = 0; c < cols; ++c) {
      if (!read_string(&names[static_cast<size_t>(c)])) {
        return CorruptError("malformed binary frame column names");
      }
    }
  }
  FrameBlock f = has_names ? FrameBlock(rows, schema, names)
                           : FrameBlock(rows, schema);
  for (int64_t c = 0; c < cols; ++c) {
    if (schema[static_cast<size_t>(c)] == ValueType::kString) {
      std::string cell;
      for (int64_t r = 0; r < rows; ++r) {
        if (!read_string(&cell)) {
          return IoError("truncated binary frame");
        }
        f.SetString(r, c, cell);
      }
    } else {
      std::vector<double> col(static_cast<size_t>(rows));
      in.read(reinterpret_cast<char*>(col.data()),
              static_cast<std::streamsize>(rows * 8));
      for (int64_t r = 0; r < rows; ++r) {
        f.SetDouble(r, c, col[static_cast<size_t>(r)]);
      }
    }
  }
  if (!in) return IoError("truncated binary frame");
  return f;
}

FormatRegistry::FormatRegistry() {
  RegisterFormat("csv", std::make_unique<CsvFormatReader>(),
                 std::make_unique<CsvFormatWriter>());
  RegisterFormat("binary", std::make_unique<BinaryFormatReader>(),
                 std::make_unique<BinaryFormatWriter>());
  RegisterFormat("ijv", std::make_unique<IjvFormatReader>(),
                 std::make_unique<IjvFormatWriter>());
  RegisterFormat("delimited", std::make_unique<GeneratedFormatReader>(),
                 std::make_unique<GeneratedFormatWriter>());
  RegisterFormat("fixed-width", std::make_unique<GeneratedFormatReader>(),
                 nullptr);
  RegisterFormat("key-value", std::make_unique<GeneratedFormatReader>(),
                 nullptr);
}

FormatRegistry& FormatRegistry::Get() {
  static FormatRegistry* registry = new FormatRegistry();
  return *registry;
}

void FormatRegistry::RegisterFormat(const std::string& kind,
                                    std::unique_ptr<Reader> reader,
                                    std::unique_ptr<Writer> writer) {
  for (auto& [name, entry] : formats_) {
    if (name == kind) {
      entry.reader = std::move(reader);
      entry.writer = std::move(writer);
      return;
    }
  }
  formats_.emplace_back(kind, Entry{std::move(reader), std::move(writer)});
}

StatusOr<const Reader*> FormatRegistry::FindReader(
    const std::string& kind) const {
  for (const auto& [name, entry] : formats_) {
    if (name == kind && entry.reader != nullptr) return entry.reader.get();
  }
  return InvalidArgument("no reader registered for format '" + kind + "'");
}

StatusOr<const Writer*> FormatRegistry::FindWriter(
    const std::string& kind) const {
  for (const auto& [name, entry] : formats_) {
    if (name == kind && entry.writer != nullptr) return entry.writer.get();
  }
  return InvalidArgument("no writer registered for format '" + kind + "'");
}

std::vector<std::string> FormatRegistry::Kinds() const {
  std::vector<std::string> kinds;
  for (const auto& [name, entry] : formats_) kinds.push_back(name);
  return kinds;
}

namespace {

// Bytes of the files that went through the entry points below and the
// nanoseconds spent there, per side: bytes / ns is the reader's and the
// writer's MB/s in -stats and --metrics output.
struct IoCounters {
  obs::Counter* bytes;
  obs::Counter* ns;
};

const IoCounters& ReadCounters() {
  static const IoCounters c{
      obs::MetricsRegistry::Get().GetCounter("io.read_bytes"),
      obs::MetricsRegistry::Get().GetCounter("io.read_ns")};
  return c;
}

const IoCounters& WriteCounters() {
  static const IoCounters c{
      obs::MetricsRegistry::Get().GetCounter("io.write_bytes"),
      obs::MetricsRegistry::Get().GetCounter("io.write_ns")};
  return c;
}

// Runs op() and, if it succeeds, charges its time and the size of the file
// at `path` to `counters`.
template <typename Op>
auto Counted(const IoCounters& counters, const std::string& path,
             const Op& op) {
  const auto start = std::chrono::steady_clock::now();
  auto result = op();
  if (result.ok()) {
    counters.ns->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    struct stat st;
    if (::stat(path.c_str(), &st) == 0) counters.bytes->Add(st.st_size);
  }
  return result;
}

}  // namespace

StatusOr<MatrixBlock> Read(const std::string& path,
                           const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Reader* reader,
                         FormatRegistry::Get().FindReader(desc.kind));
  return Counted(ReadCounters(), path,
                 [&] { return reader->ReadMatrix(path, desc); });
}

StatusOr<FrameBlock> ReadFrame(const std::string& path,
                               const FormatDescriptor& desc,
                               const std::vector<ValueType>& schema) {
  SYSDS_ASSIGN_OR_RETURN(const Reader* reader,
                         FormatRegistry::Get().FindReader(desc.kind));
  return Counted(ReadCounters(), path,
                 [&] { return reader->ReadFrame(path, desc, schema); });
}

Status Write(const MatrixBlock& m, const std::string& path,
             const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Writer* writer,
                         FormatRegistry::Get().FindWriter(desc.kind));
  return Counted(WriteCounters(), path,
                 [&] { return writer->WriteMatrix(m, path, desc); });
}

Status Write(const FrameBlock& f, const std::string& path,
             const FormatDescriptor& desc) {
  SYSDS_ASSIGN_OR_RETURN(const Writer* writer,
                         FormatRegistry::Get().FindWriter(desc.kind));
  return Counted(WriteCounters(), path,
                 [&] { return writer->WriteFrame(f, path, desc); });
}

}  // namespace io
}  // namespace sysds
