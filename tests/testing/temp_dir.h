#ifndef SYSDS_TESTS_TESTING_TEMP_DIR_H_
#define SYSDS_TESTS_TESTING_TEMP_DIR_H_

// A fresh directory per test under the system temp dir, removed with its
// contents on destruction. Tests that write files put them here rather than
// in the working directory: ctest runs every test case as its own process,
// so under `ctest -j` two tests writing the same relative path race.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace sysds_test {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    std::string pattern = (std::filesystem::temp_directory_path() /
                           ("sysds_" + tag + "_XXXXXX"))
                              .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << pattern;
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace sysds_test

#endif  // SYSDS_TESTS_TESTING_TEMP_DIR_H_
