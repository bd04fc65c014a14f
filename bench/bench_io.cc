// Ablation A6 (§3.2 / §4.2 observation 1): data ingestion. Multi-threaded
// CSV parsing vs single-threaded (string-to-double parsing is compute-
// intensive), the CSV writer, the binary block format, and the generated
// readers from format descriptors. Also the durable-file path the buffer
// pool and the checkpoints share: a spill write (WriteAtomic of a dense
// block), its verified restore, a checkpoint-style ReadVerified, and CRC-32
// throughput.
//
// Every row runs once as warm-up, then five timed repetitions, and reports
// the median, min and interquartile range in seconds plus MB/s at the
// median over the bytes that row reads or writes.
// Results land in BENCH_io.json; `--smoke` runs at tiny scale.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "common/util.h"
#include "io/atomic_file.h"
#include "io/format_descriptor.h"
#include "io/io.h"
#include "runtime/matrix/lib_datagen.h"

using namespace sysds;

namespace {

struct Summary {
  double median_s = 0;
  double min_s = 0;
  double iqr_s = 0;
};

// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

// One warm-up call of `op`, then `reps` timed ones; `check` validates each
// result outside the timed section, and a wrong one fails the bench.
template <typename Op, typename Check>
bool Measure(int reps, const Op& op, const Check& check, Summary* out) {
  std::vector<double> secs;
  for (int i = 0; i <= reps; ++i) {
    Timer t;
    auto result = op();
    const double elapsed = t.ElapsedSeconds();
    if (!check(result)) return false;
    if (i > 0) secs.push_back(elapsed);
  }
  std::sort(secs.begin(), secs.end());
  out->median_s = Percentile(secs, 0.5);
  out->min_s = secs.front();
  out->iqr_s = Percentile(secs, 0.75) - Percentile(secs, 0.25);
  return true;
}

bool SameCells(const StatusOr<MatrixBlock>& got, const MatrixBlock& b) {
  if (!got.ok()) return false;
  const MatrixBlock& a = *got;
  return a.Rows() == b.Rows() && a.Cols() == b.Cols() && !a.IsSparse() &&
         !b.IsSparse() &&
         std::memcmp(a.DenseData(), b.DenseData(),
                     static_cast<size_t>(a.Rows() * a.Cols()) * 8) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();
  const int reps = std::max(5, scale.repetitions);
  int64_t rows = scale.rows * 4, cols = scale.cols;
  // The spill block is lm_spill's 40 MB X (25000 x 200) except at tiny
  // scale, where it shrinks with the rest of the inputs.
  const bool tiny = scale.rows <= 1000;
  const int64_t spill_rows = tiny ? 1000 : 25000, spill_cols = tiny ? 100 : 200;

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "sysds_bench_io";
  std::filesystem::create_directories(dir);
  std::string csv = (dir / "X.csv").string();
  std::string bin = (dir / "X.bin").string();
  std::string spill = (dir / "spill.bin").string();

  auto x = RandMatrix(rows, cols, 0.0, 1.0, 1.0, 1, RandPdf::kUniform, 1);
  auto s = RandMatrix(spill_rows, spill_cols, 0.0, 1.0, 1.0, 1,
                      RandPdf::kUniform, 2);
  if (!io::Write(*x, csv, FormatDescriptor::Csv()).ok() ||
      !io::Write(*x, bin, FormatDescriptor::Binary()).ok()) {
    return 1;
  }
  auto file_mb = [](const std::string& path) {
    return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  };
  const double csv_mb = file_mb(csv);

  std::printf("# A6 I/O: %lld x %lld matrix, csv %.1f MB; spill block "
              "%lld x %lld; warm-up + %d repetitions\n",
              static_cast<long long>(rows), static_cast<long long>(cols),
              csv_mb, static_cast<long long>(spill_rows),
              static_cast<long long>(spill_cols), reps);
  std::printf("%-30s%10s%12s%12s%12s%12s\n", "row", "MB", "median_s",
              "min_s", "iqr_s", "MB/s");

  JsonResultWriter json("BENCH_io.json");
  bool ok = true;
  auto row = [&](const char* name, double mb, const auto& op,
                 const auto& check) {
    Summary sum;
    if (!Measure(reps, op, check, &sum)) {
      std::fprintf(stderr, "%s: wrong output\n", name);
      ok = false;
      return;
    }
    const double mb_s = sum.median_s > 0 ? mb / sum.median_s : 0.0;
    std::printf("%-30s%10.1f%12.4f%12.4f%12.4f%12.1f\n", name, mb,
                sum.median_s, sum.min_s, sum.iqr_s, mb_s);
    json.Add(name, {{"mb", mb},
                    {"median_s", sum.median_s},
                    {"min_s", sum.min_s},
                    {"iqr_s", sum.iqr_s},
                    {"mb_s", mb_s},
                    {"repetitions", reps}});
  };
  auto matches_x = [&](const StatusOr<MatrixBlock>& m) {
    return m.ok() && m->EqualsApprox(*x, 1e-9);
  };

  row("csv_single_threaded", csv_mb,
      [&] { return io::Read(csv, FormatDescriptor::Csv(',', false, 1)); },
      matches_x);
  row("csv_multi_threaded", csv_mb,
      [&] {
        return io::Read(
            csv, FormatDescriptor::Csv(',', false, DefaultParallelism()));
      },
      matches_x);
  // The writer's output must read back to the same bits.
  const std::string csv_out = (dir / "X_out.csv").string();
  row("csv_write", csv_mb,
      [&] { return io::Write(*x, csv_out, FormatDescriptor::Csv()); },
      [&](const Status& st) {
        return st.ok() &&
               SameCells(io::Read(csv_out, FormatDescriptor::Csv()), *x);
      });
  row("binary_block_format", file_mb(bin),
      [&] { return io::Read(bin, FormatDescriptor::Binary()); },
      [&](const StatusOr<MatrixBlock>& m) { return SameCells(m, *x); });
  {
    // Generated reader from a format descriptor (typed columns).
    std::string desc_json = R"({"kind":"delimited","delimiter":",","columns":[)";
    for (int64_t c = 0; c < cols; ++c) {
      if (c > 0) desc_json += ",";
      desc_json += R"({"name":"c)" + std::to_string(c) + R"(","type":"fp64"})";
    }
    desc_json += "]}";
    auto desc = ParseFormatDescriptor(desc_json);
    if (!desc.ok()) return 1;
    row("generated_reader_frame", csv_mb,
        [&] { return io::ReadFrame(csv, *desc); },
        [&](const StatusOr<FrameBlock>& f) {
          return f.ok() && f->Rows() == rows;
        });
  }

  // The buffer pool's spill file: binary block payload + CRC footer,
  // written to a temp name and renamed.
  auto write_spill = [&] {
    return io::WriteAtomic(spill, [&](std::ostream& out) {
      return io::WriteMatrixBinaryStream(*s, out);
    });
  };
  if (!write_spill().ok()) return 1;
  const double spill_mb = file_mb(spill);
  row("spill_write_atomic", spill_mb, write_spill,
      [](const Status& st) { return st.ok(); });
  row("spill_verified_restore", spill_mb,
      [&] { return io::ReadMatrixBinaryVerified(spill); },
      [&](const StatusOr<MatrixBlock>& m) { return SameCells(m, *s); });
  row("checkpoint_read_verified", spill_mb,
      [&] { return io::ReadVerified(spill); },
      [&](const StatusOr<std::string>& payload) {
        return payload.ok() &&
               static_cast<int64_t>(payload->size()) +
                       io::kChecksumFooterSize ==
                   static_cast<int64_t>(std::filesystem::file_size(spill));
      });
  {
    const size_t n = static_cast<size_t>(spill_rows * spill_cols) * 8;
    const uint32_t want = Crc32::Of(s->DenseData(), n);
    row("crc32", static_cast<double>(n) / 1e6,
        [&] { return Crc32::Of(s->DenseData(), n); },
        [&](uint32_t crc) { return crc == want; });
  }

  std::filesystem::remove_all(dir);
  if (!json.Write()) {
    std::fprintf(stderr, "failed to write BENCH_io.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
