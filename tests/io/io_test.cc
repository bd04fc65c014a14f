#include "io/io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/systemds_context.h"
#include "io/format_descriptor.h"
#include "obs/metrics.h"
#include "runtime/matrix/lib_datagen.h"

namespace sysds {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sysds_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, CsvRoundtripDense) {
  auto m = RandMatrix(55, 13, -5, 5, 1.0, 1, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("a.csv"), FormatDescriptor::Csv()).ok());
  auto back = io::Read(Path("a.csv"), FormatDescriptor::Csv());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
}

TEST_F(IoTest, CsvMultiThreadedMatchesSingle) {
  auto m = RandMatrix(500, 20, -1, 1, 1.0, 2, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("b.csv"), FormatDescriptor::Csv()).ok());
  auto r1 = io::Read(Path("b.csv"), FormatDescriptor::Csv(',', false, 1));
  auto r8 = io::Read(Path("b.csv"), FormatDescriptor::Csv(',', false, 8));
  ASSERT_TRUE(r1.ok() && r8.ok());
  EXPECT_TRUE(r1->EqualsApprox(*r8, 0));
}

TEST_F(IoTest, CsvHeaderAndDelimiter) {
  {
    std::ofstream f(Path("c.csv"));
    f << "a;b;c\n1;2;3\n4;5;6\n";
  }
  auto m = io::Read(Path("c.csv"), FormatDescriptor::Csv(';', true));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->Rows(), 2);
  EXPECT_EQ(m->Cols(), 3);
  EXPECT_DOUBLE_EQ(m->Get(1, 2), 6.0);
}

TEST_F(IoTest, CsvRaggedRowRejected) {
  {
    std::ofstream f(Path("d.csv"));
    f << "1,2,3\n4,5\n";
  }
  EXPECT_FALSE(io::Read(Path("d.csv"), FormatDescriptor::Csv()).ok());
}

TEST_F(IoTest, BinaryRoundtripDenseAndSparse) {
  auto dense = RandMatrix(40, 30, -1, 1, 1.0, 3, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*dense, Path("e.bin"),
                        FormatDescriptor::Binary()).ok());
  auto back = io::Read(Path("e.bin"), FormatDescriptor::Binary());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(*dense, 0));

  auto sparse = RandMatrix(80, 80, -1, 1, 0.05, 4, RandPdf::kUniform, 1);
  sparse->ToSparse();
  ASSERT_TRUE(io::Write(*sparse, Path("f.bin"),
                        FormatDescriptor::Binary()).ok());
  auto back2 = io::Read(Path("f.bin"), FormatDescriptor::Binary());
  ASSERT_TRUE(back2.ok());
  EXPECT_TRUE(back2->IsSparse());
  EXPECT_TRUE(back2->EqualsApprox(*sparse, 0));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  {
    std::ofstream f(Path("g.bin"), std::ios::binary);
    f << "not a matrix";
  }
  EXPECT_FALSE(io::Read(Path("g.bin"), FormatDescriptor::Binary()).ok());
}

TEST_F(IoTest, IjvRoundtrip) {
  auto m = RandMatrix(30, 30, -1, 1, 0.1, 5, RandPdf::kUniform, 1);
  ASSERT_TRUE(io::Write(*m, Path("h.ijv"), FormatDescriptor::Ijv()).ok());
  auto back = io::Read(Path("h.ijv"), FormatDescriptor::Ijv());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Rows(), 30);
  EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
}

TEST_F(IoTest, FormatNameDispatch) {
  auto m = RandMatrix(10, 4, 0, 1, 1.0, 6, RandPdf::kUniform, 1);
  for (const char* name : {"csv", "binary", "ijv"}) {
    std::string p = Path("dispatch");
    auto desc = FormatDescriptor::FromFormatName(name);
    ASSERT_TRUE(desc.ok());
    ASSERT_TRUE(io::Write(*m, p, *desc).ok());
    auto back = io::Read(p, *desc);
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back->EqualsApprox(*m, 1e-12));
  }
  EXPECT_TRUE(FormatDescriptor::FromFormatName("text").ok());
  EXPECT_TRUE(FormatDescriptor::FromFormatName("BINARY").ok());
  EXPECT_FALSE(FormatDescriptor::FromFormatName("parquet").ok());
}

TEST_F(IoTest, RegistryRejectsUnknownAndUnsupported) {
  FormatDescriptor bogus;
  bogus.kind = "avro";
  EXPECT_FALSE(io::Read(Path("x"), bogus).ok());
  // fixed-width registers a frame reader only: no matrix read, no write.
  FormatDescriptor fw;
  fw.kind = "fixed-width";
  fw.columns.push_back({"a", ValueType::kString, 4});
  EXPECT_FALSE(io::Read(Path("x"), fw).ok());
  FrameBlock f(1, {ValueType::kString});
  EXPECT_FALSE(io::Write(f, Path("x"), fw).ok());
}

TEST_F(IoTest, FrameCsvRoundtripWithHeader) {
  FrameBlock f(2, {ValueType::kString, ValueType::kFP64}, {"name", "v"});
  f.SetString(0, 0, "alpha");
  f.SetString(1, 0, "beta");
  f.SetDouble(0, 1, 1.5);
  f.SetDouble(1, 1, 2.5);
  FormatDescriptor desc = FormatDescriptor::Csv(',', true);
  ASSERT_TRUE(io::Write(f, Path("i.csv"), desc).ok());
  auto back = io::ReadFrame(Path("i.csv"), desc,
                            {ValueType::kString, ValueType::kFP64});
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ColumnNames()[0], "name");
  EXPECT_EQ(back->GetString(1, 0), "beta");
  EXPECT_DOUBLE_EQ(back->GetDouble(0, 1), 1.5);
}

TEST_F(IoTest, FrameCsvParallelMatchesSerial) {
  {
    std::ofstream f(Path("p.csv"));
    for (int r = 0; r < 500; ++r) {
      f << "tok" << (r % 17) << "," << r << "." << (r % 10) << "\n";
    }
  }
  std::vector<ValueType> schema = {ValueType::kString, ValueType::kFP64};
  auto r1 = io::ReadFrame(Path("p.csv"),
                          FormatDescriptor::Csv(',', false, 1), schema);
  auto r8 = io::ReadFrame(Path("p.csv"),
                          FormatDescriptor::Csv(',', false, 8), schema);
  ASSERT_TRUE(r1.ok() && r8.ok());
  ASSERT_EQ(r1->Rows(), 500);
  ASSERT_EQ(r8->Rows(), 500);
  for (int64_t r = 0; r < r1->Rows(); ++r) {
    EXPECT_EQ(r1->GetString(r, 0), r8->GetString(r, 0));
    EXPECT_EQ(r1->GetDouble(r, 1), r8->GetDouble(r, 1));
  }
}

TEST_F(IoTest, FrameCsvRaggedRowReportsRowNumber) {
  {
    std::ofstream f(Path("q.csv"));
    f << "a,1\nb,2\nc\n";
  }
  auto r = io::ReadFrame(Path("q.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 3"), std::string::npos);
}

TEST_F(IoTest, FrameCsvMalformedNumericReportsRowAndColumn) {
  {
    std::ofstream f(Path("r.csv"));
    f << "a,1.5\nb,oops\n";
  }
  auto r = io::ReadFrame(Path("r.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("row 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("oops"), std::string::npos);
  // Untyped (all-string) schemas keep every cell verbatim.
  auto ok = io::ReadFrame(Path("r.csv"), FormatDescriptor::Csv());
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString(1, 1), "oops");
}

TEST_F(IoTest, FrameCsvEmptyNumericCellIsMissing) {
  {
    std::ofstream f(Path("s.csv"));
    f << "a,1.5\nb,\n";
  }
  auto r = io::ReadFrame(Path("s.csv"), FormatDescriptor::Csv(),
                         {ValueType::kString, ValueType::kFP64});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->GetDouble(1, 1), 0.0);
}

TEST_F(IoTest, GeneratedDelimitedReader) {
  {
    std::ofstream f(Path("j.psv"));
    f << "id|value|tag\n1|2.5|x\n2|3.5|y\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"delimited","delimiter":"|","header":true,
          "columns":[{"name":"id","type":"int64"},
                     {"name":"value","type":"fp64"},
                     {"name":"tag","type":"string"}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("j.psv"), *desc);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->Rows(), 2);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 1), 3.5);
  EXPECT_EQ(frame->GetString(0, 2), "x");
}

TEST_F(IoTest, GeneratedFixedWidthReader) {
  {
    std::ofstream f(Path("k.fw"));
    f << "  1 2.50\n 12 3.75\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"fixed-width",
          "columns":[{"name":"id","type":"int64","width":3},
                     {"name":"v","type":"fp64","width":5}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("k.fw"), *desc);
  ASSERT_TRUE(frame.ok());
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 1), 3.75);
}

TEST_F(IoTest, GeneratedKeyValueReader) {
  {
    std::ofstream f(Path("l.kv"));
    f << "b=2;a=1\na=3;b=4\n";
  }
  auto desc = ParseFormatDescriptor(
      R"({"kind":"key-value","delimiter":";",
          "columns":[{"name":"a","type":"fp64"},
                     {"name":"b","type":"fp64"}]})");
  ASSERT_TRUE(desc.ok());
  auto frame = io::ReadFrame(Path("l.kv"), *desc);
  ASSERT_TRUE(frame.ok());
  // Key order per line does not matter.
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(frame->GetDouble(1, 0), 3.0);
}

TEST_F(IoTest, GeneratedWriterRoundtrip) {
  auto desc = ParseFormatDescriptor(
      R"({"kind":"delimited","delimiter":",","header":true,
          "columns":[{"name":"x","type":"fp64"},{"name":"y","type":"fp64"}]})");
  ASSERT_TRUE(desc.ok());
  FrameBlock f(2, {ValueType::kFP64, ValueType::kFP64}, {"x", "y"});
  f.SetDouble(0, 0, 1);
  f.SetDouble(1, 1, 4);
  ASSERT_TRUE(io::Write(f, Path("m.csv"), *desc).ok());
  auto back = io::ReadFrame(Path("m.csv"), *desc);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->GetDouble(1, 1), 4.0);
}

TEST_F(IoTest, UnknownFormatKindRejected) {
  auto desc = ParseFormatDescriptor(
      R"({"kind":"avro","columns":[{"name":"a"}]})");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE(GenerateReader(*desc).ok());
  EXPECT_FALSE(io::ReadFrame(Path("nope"), *desc).ok());
}

TEST_F(IoTest, MatrixKindDescriptorNeedsNoColumns) {
  auto desc = ParseFormatDescriptor(R"({"kind":"csv","num_threads":2})");
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->num_threads, 2);
  auto fail = ParseFormatDescriptor(R"({"kind":"delimited"})");
  EXPECT_FALSE(fail.ok());
}

// --- csv differential tests: the reader against a per-token strtod oracle,
// the writer against a per-cell snprintf("%.17g") oracle.

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Cells of a csv text the way the reader defines them: lines split on '\n'
// (a last line without one included), cells on ',', each cell strtod'ed as
// one NUL-terminated token.
std::vector<std::vector<double>> StrtodOracle(const std::string& text) {
  std::vector<std::vector<double>> rows;
  size_t p = 0;
  while (p < text.size()) {
    size_t nl = text.find('\n', p);
    if (nl == std::string::npos) nl = text.size();
    std::vector<double> row;
    size_t t = p;
    while (true) {
      size_t e = text.find(',', t);
      if (e == std::string::npos || e > nl) e = nl;
      row.push_back(std::strtod(text.substr(t, e - t).c_str(), nullptr));
      if (e == nl) break;
      t = e + 1;
    }
    rows.push_back(row);
    p = nl + 1;
  }
  return rows;
}

TEST_F(IoTest, CsvReaderMatchesStrtodOracleBitForBit) {
  const std::vector<std::string> odd = {
      "nan",    "NaN",      "-nan",    "inf",      "-inf",   "Infinity",
      "-0",     "1e308",    "1e-320",  "4.9e-324", "+1",     " 2",
      "  -3.5e2", "0x1p3",  "",        "1e400",    "-1e-400", "1.5abc",
      "abc",    "nan(7)",   "3.",      "0.1",      "2.2250738585072014e-308",
      "123456789.123456789"};
  std::string text;
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  // 6000 rows of ~70 bytes: far more than one chunk at 8 threads, so chunk
  // boundaries fall mid-file; CRLF line ends and no final newline.
  for (int r = 0; r < 6000; ++r) {
    for (int c = 0; c < 6; ++c) {
      if (c > 0) text += ',';
      if (next() % 4 == 0) {
        text += odd[next() % odd.size()];
      } else {
        char buf[40];
        const int digits = static_cast<int>(next() % 17) + 1;
        std::snprintf(buf, sizeof(buf), "%.*g", digits,
                      (static_cast<double>(next()) - 2e9) / 7.0);
        text += buf;
      }
    }
    if (r + 1 < 6000) text += "\r\n";
  }
  {
    std::ofstream f(Path("odd.csv"), std::ios::binary);
    f << text;
  }
  const auto want = StrtodOracle(text);
  for (int threads : {1, 8}) {
    auto m = io::Read(Path("odd.csv"),
                      FormatDescriptor::Csv(',', false, threads));
    ASSERT_TRUE(m.ok()) << m.status();
    ASSERT_EQ(m->Rows(), 6000);
    ASSERT_EQ(m->Cols(), 6);
    for (int64_t r = 0; r < m->Rows(); ++r) {
      for (int64_t c = 0; c < m->Cols(); ++c) {
        ASSERT_EQ(Bits(m->Get(r, c)), Bits(want[r][c]))
            << "threads " << threads << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(IoTest, CsvWriterMatchesPrintfOracleByteForByte) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> special = {
      0.0, -0.0, 1.0, -1.0, nan, -nan, INFINITY, -INFINITY,
      // %g switches to exponent form below 1e-4 and at 1e17 (precision 17).
      1e-5, std::nextafter(1e-5, 0.0), std::nextafter(1e-5, 1.0), 1e-4,
      std::nextafter(1e-4, 0.0), 1e17, std::nextafter(1e17, 0.0),
      std::nextafter(1e17, 1e18), 1e16, 4.9406564584124654e-324,
      2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3,
      0.30000000000000004, 1e21, 12345.678, -2.5e-310};
  auto oracle = [](const MatrixBlock& m) {
    std::string s;
    char buf[64];
    for (int64_t r = 0; r < m.Rows(); ++r) {
      for (int64_t c = 0; c < m.Cols(); ++c) {
        if (c > 0) s += ',';
        s.append(buf, std::snprintf(buf, sizeof(buf), "%.17g", m.Get(r, c)));
      }
      s += '\n';
    }
    return s;
  };
  MatrixBlock m = MatrixBlock::FromValues(
      static_cast<int64_t>(special.size()) / 2, 2, special);
  ASSERT_TRUE(io::Write(m, Path("w.csv"), FormatDescriptor::Csv()).ok());
  EXPECT_EQ(ReadText(Path("w.csv")), oracle(m));

  auto sparse = RandMatrix(3000, 40, -1e6, 1e6, 0.02, 9, RandPdf::kUniform, 1);
  ASSERT_TRUE(sparse->IsSparse());
  ASSERT_TRUE(
      io::Write(*sparse, Path("ws.csv"), FormatDescriptor::Csv()).ok());
  EXPECT_EQ(ReadText(Path("ws.csv")), oracle(*sparse));

  auto dense = RandMatrix(4000, 60, -1, 1, 1.0, 10, RandPdf::kNormal, 1);
  ASSERT_TRUE(io::Write(*dense, Path("wd.csv"), FormatDescriptor::Csv()).ok());
  EXPECT_EQ(ReadText(Path("wd.csv")), oracle(*dense));
}

TEST_F(IoTest, CsvRaggedRowReportsFirstBadRowAtAnyThreadCount) {
  {
    std::ofstream f(Path("rag.csv"));
    for (int r = 1; r <= 9000; ++r) {
      f << (r == 4321 || r == 8000 ? "1,2\n" : "1,2,3\n");
    }
  }
  for (int threads : {1, 8}) {
    auto m = io::Read(Path("rag.csv"),
                      FormatDescriptor::Csv(',', false, threads));
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kIoError);
    EXPECT_EQ(m.status().message(),
              "csv: row 4321 has 2 columns, expected 3")
        << "threads " << threads;
  }
}

TEST_F(IoTest, CsvWideFirstLineFailsBeforeAllocating) {
  // 400 KB: a 100000-cell first line, then 100000 one-cell rows. Sizing
  // the block from the first line would ask for 100001 x 100000 doubles
  // (80 GB) and die in bad_alloc.
  {
    std::ofstream f(Path("wide.csv"));
    for (int c = 0; c < 100000; ++c) f << (c == 0 ? "0" : ",0");
    f << "\n";
    for (int r = 0; r < 100000; ++r) f << "1\n";
  }
  for (int threads : {1, 8}) {
    auto m = io::Read(Path("wide.csv"),
                      FormatDescriptor::Csv(',', false, threads));
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kIoError);
    EXPECT_EQ(m.status().message(),
              "csv: row 2 has 1 columns, expected 100000")
        << "threads " << threads;
  }
}

TEST_F(IoTest, CsvLongCellIsParsedWhole) {
  // 70 digits: cut at 63 bytes it would read as 1e62.
  const std::string big = "1" + std::string(69, '0');
  {
    std::ofstream f(Path("long.csv"));
    f << big << ", " << big << "\n";
  }
  auto m = io::Read(Path("long.csv"), FormatDescriptor::Csv());
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->Get(0, 0), 1e69);
  EXPECT_EQ(m->Get(0, 1), 1e69);  // leading blank: the strtod fallback
}

TEST_F(IoTest, CsvHeaderRoundTrip) {
  auto m = RandMatrix(30, 3, -1, 1, 1.0, 11, RandPdf::kUniform, 1);
  ASSERT_TRUE(
      io::Write(*m, Path("h.csv"), FormatDescriptor::Csv(',', true)).ok());
  const std::string text = ReadText(Path("h.csv"));
  EXPECT_EQ(text.substr(0, text.find('\n')), "C1,C2,C3");
  auto back = io::Read(Path("h.csv"), FormatDescriptor::Csv(',', true));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->Rows(), 30);
  EXPECT_TRUE(back->EqualsApprox(*m, 0));
}

TEST_F(IoTest, WriteToFullDiskFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full does not exist";
  }
  // One matrix small enough to sit in stdio's buffer until fclose, one
  // larger than a writer chunk.
  for (int64_t rows : {2, 20000}) {
    auto m = RandMatrix(rows, 20, -1, 1, 1.0, 12, RandPdf::kUniform, 1);
    for (const FormatDescriptor& desc :
         {FormatDescriptor::Csv(), FormatDescriptor::Ijv()}) {
      Status s = io::Write(*m, "/dev/full", desc);
      EXPECT_FALSE(s.ok()) << rows << " rows, " << desc.kind;
      EXPECT_NE(s.message().find("/dev/full"), std::string::npos);
    }
  }
  FrameBlock f(3, {ValueType::kString, ValueType::kFP64});
  f.SetString(0, 0, "a");
  f.SetDouble(0, 1, 1.5);
  Status s = io::Write(f, "/dev/full", FormatDescriptor::Csv());
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("/dev/full"), std::string::npos);
  // A DML scalar write fails the script the same way.
  SystemDSContext ctx;
  auto r = ctx.Execute("x = 42\nwrite(x, '/dev/full')\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("/dev/full"), std::string::npos);
}

TEST_F(IoTest, ReadAndWriteAdvanceIoCounters) {
  auto& reg = obs::MetricsRegistry::Get();
  auto m = RandMatrix(200, 10, -1, 1, 1.0, 13, RandPdf::kUniform, 1);
  const int64_t wrote = reg.CounterValue("io.write_bytes");
  const int64_t write_ns = reg.CounterValue("io.write_ns");
  ASSERT_TRUE(io::Write(*m, Path("n.csv"), FormatDescriptor::Csv()).ok());
  const auto size =
      static_cast<int64_t>(std::filesystem::file_size(Path("n.csv")));
  EXPECT_EQ(reg.CounterValue("io.write_bytes") - wrote, size);
  EXPECT_GT(reg.CounterValue("io.write_ns"), write_ns);

  const int64_t read = reg.CounterValue("io.read_bytes");
  const int64_t read_ns = reg.CounterValue("io.read_ns");
  ASSERT_TRUE(io::Read(Path("n.csv"), FormatDescriptor::Csv()).ok());
  EXPECT_EQ(reg.CounterValue("io.read_bytes") - read, size);
  EXPECT_GT(reg.CounterValue("io.read_ns"), read_ns);
  ASSERT_TRUE(io::ReadFrame(Path("n.csv"), FormatDescriptor::Csv()).ok());
  EXPECT_EQ(reg.CounterValue("io.read_bytes") - read, 2 * size);
}

}  // namespace
}  // namespace sysds
