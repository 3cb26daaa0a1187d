// Per-test scratch paths. ctest runs every TEST as its own process, several
// at once under -j, so a fixed /tmp path shared by two cases lets one delete
// or overwrite the other's files. These paths embed the process id and the
// running test's name, so no two concurrent tests share one.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace hynapse::testing {

/// "<temp dir>/hynapse_<pid>_<suite>_<test>_<name>". Creates nothing.
inline std::string temp_path(const std::string& name) {
  std::string tag = "hynapse_" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    tag += std::string{"_"} + info->test_suite_name() + "_" + info->name();
  }
  tag += "_" + name;
  for (char& c : tag) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.') c = '_';
  }
  return (std::filesystem::temp_directory_path() / tag).string();
}

/// A fresh, empty directory at temp_path(name), created up front.
inline std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace hynapse::testing
