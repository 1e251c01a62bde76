/**
 * @file
 * Per-test temp-file paths. `ctest -j` runs every test case as its own
 * process, so two cases that write the same fixed name under the temp
 * directory overwrite each other's files. These paths carry the test
 * suite, test name and parameter instead.
 */

#ifndef WIDIR_TESTS_TEMP_PATH_H
#define WIDIR_TESTS_TEMP_PATH_H

#include <gtest/gtest.h>

#include <string>

namespace widir::test {

/** TempDir()/widir_<suite>.<test>_<leaf>, unique to the running test. */
inline std::string
testTempPath(const std::string &leaf)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = info ? std::string(info->test_suite_name()) + "." +
                                 info->name()
                           : std::string("outside_test");
    // Parameterized suites and tests carry '/' in their names.
    for (char &c : tag) {
        if (c == '/')
            c = '_';
    }
    return ::testing::TempDir() + "widir_" + tag + "_" + leaf;
}

} // namespace widir::test

#endif // WIDIR_TESTS_TEMP_PATH_H
