/**
 * @file
 * A private scratch directory for one test. ctest runs every gtest case
 * in its own process, concurrently under -j, so fixed names under
 * ::testing::TempDir() collide across cases; a mkdtemp directory never
 * does. The directory and everything in it is removed on scope exit.
 */

#ifndef FIRESIM_TESTS_SCOPED_TEMP_DIR_HH
#define FIRESIM_TESTS_SCOPED_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace firesim
{

class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        std::string tmpl = ::testing::TempDir() + "firesim-XXXXXX";
        if (!::mkdtemp(tmpl.data())) {
            std::perror("mkdtemp");
            std::abort();
        }
        dir = tmpl;
    }

    ~ScopedTempDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    const std::string &path() const { return dir; }

    /** Path of @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return dir + "/" + name;
    }

  private:
    std::string dir;
};

} // namespace firesim

#endif // FIRESIM_TESTS_SCOPED_TEMP_DIR_HH
