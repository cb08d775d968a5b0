/**
 * @file
 * Per-test scratch file paths.
 *
 * gtest_discover_tests registers every test case as its own ctest,
 * so `ctest -j` runs cases of one suite as concurrent processes. A
 * fixed file name under TempDir() would be shared between them, and
 * one case could overwrite or delete another's file mid-run. The
 * path below is unique per test case and process instead.
 */

#ifndef NANOBUS_TESTS_TEST_TEMP_PATH_HH
#define NANOBUS_TESTS_TEST_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace nanobus {

/**
 * TempDir() path ending in `stem`, tagged with the running test's
 * suite and name plus the process id. Call it from inside a test or
 * fixture, where gtest knows the current test.
 */
inline std::string
uniqueTempPath(const std::string &stem)
{
    std::string name = "nanobus";
    if (const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "." +
            info->name();
    }
    name += "_" + std::to_string(::getpid()) + "_" + stem;
    // Parameterized test names carry '/'.
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + name;
}

} // namespace nanobus

#endif // NANOBUS_TESTS_TEST_TEMP_PATH_HH
