// Unit tests for Table, CsvWriter, Cli and unit formatting.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace hbsp::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table table{"demo"};
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table table{"t"};
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  Table table{"t"};
  EXPECT_THROW(table.set_header({}), std::invalid_argument);
}

TEST(Table, RejectsHeaderAfterRows) {
  Table table{"t"};
  table.set_header({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.set_header({"b"}), std::logic_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<long long>(-42)), "-42");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "hbspk_csv_test.csv";
  {
    CsvWriter csv{path};
    csv.write_row({"a", "b,c"});
    csv.write_row({"1", "2"});
  }
  std::ifstream in{path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "a,\"b,c\"\n1,2\n");
  std::remove(path.c_str());
}

TEST(Cli, ParsesAllFlagForms) {
  // --gamma is trailing, so it is a bare boolean; "pos" right after --beta's
  // value is positional.
  const char* argv[] = {"prog", "--alpha=1", "--beta", "2", "pos", "--gamma"};
  Cli cli{6, argv};
  cli.allow("alpha").allow("beta").allow("gamma");
  cli.validate();
  EXPECT_EQ(cli.get_int("alpha", 0), 1);
  EXPECT_EQ(cli.get("beta", ""), "2");
  EXPECT_TRUE(cli.get_bool("gamma", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli{2, argv};
  cli.allow("fine");
  EXPECT_THROW(cli.validate(), std::invalid_argument);
}

TEST(Cli, HelpIsReportedByValidateWithTheRegisteredFlags) {
  const char* argv[] = {"prog", "--help"};
  Cli cli{2, argv};
  cli.allow("threads", "worker threads");
  try {
    cli.validate();
    FAIL() << "validate() did not report --help";
  } catch (const CliHelp& help) {
    EXPECT_NE(help.usage.find("usage: prog"), std::string::npos);
    EXPECT_NE(help.usage.find("--threads  worker threads"), std::string::npos);
  }
}

/// run_main bodies: each registers one flag, validates, then acts on it.
int body_returning_seven(Cli& cli) {
  cli.allow("threads");
  cli.validate();
  (void)cli.get_positive_int("threads", 1);
  return 7;
}

int body_failing_at_runtime(Cli& cli) {
  cli.validate();
  throw std::runtime_error{"the machine caught fire"};
}

TEST(Cli, RunMainMapsOutcomesToExitCodes) {
  const char* plain[] = {"prog", "--threads", "2"};
  EXPECT_EQ(run_main(3, plain, body_returning_seven), 7);
  const char* help[] = {"prog", "--help"};
  EXPECT_EQ(run_main(2, help, body_returning_seven), 0);
  const char* unknown[] = {"prog", "--oops"};
  EXPECT_EQ(run_main(2, unknown, body_returning_seven), 2);
  const char* bad_value[] = {"prog", "--threads", "0"};
  EXPECT_EQ(run_main(3, bad_value, body_returning_seven), 2);
  const char* bare[] = {"prog", "--"};
  EXPECT_EQ(run_main(2, bare, body_returning_seven), 2);
  const char* none[] = {"prog"};
  EXPECT_EQ(run_main(1, none, body_failing_at_runtime), 1);
}

TEST(Cli, PositiveIntAcceptsThreadsValues) {
  const char* argv[] = {"prog", "--threads=4", "--big", "123456"};
  Cli cli{4, argv};
  EXPECT_EQ(cli.get_positive_int("threads", 1), 4);
  EXPECT_EQ(cli.get_positive_int("big", 1), 123456);
  EXPECT_EQ(cli.get_positive_int("absent", 3), 3);  // fallback when missing
}

TEST(Cli, PositiveIntRejectsZero) {
  const char* argv[] = {"prog", "--threads=0"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsNegatives) {
  const char* argv[] = {"prog", "--threads=-2"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsNonNumeric) {
  for (const char* bad : {"--threads=four", "--threads=4x", "--threads=",
                          "--threads= 4", "--threads=4.5"}) {
    const char* argv[] = {"prog", bad};
    Cli cli{2, argv};
    EXPECT_THROW((void)cli.get_positive_int("threads", 1),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Cli, PositiveIntRejectsBareBooleanForm) {
  // A trailing `--threads` parses as the boolean "true", which is not a
  // thread count.
  const char* argv[] = {"prog", "--threads"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveIntRejectsOverflow) {
  const char* argv[] = {"prog", "--threads=99999999999999999999999999"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_int("threads", 1), std::invalid_argument);
}

TEST(Cli, PositiveDoubleAcceptsRates) {
  const char* argv[] = {"prog", "--qps=250.5", "--duration", "0.25"};
  Cli cli{4, argv};
  EXPECT_DOUBLE_EQ(cli.get_positive_double("qps", 1.0), 250.5);
  EXPECT_DOUBLE_EQ(cli.get_positive_double("duration", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_positive_double("absent", 3.5), 3.5);
}

TEST(Cli, PositiveDoubleRejectsNonPositiveAndJunk) {
  for (const char* bad : {"--qps=0", "--qps=-1.5", "--qps=fast", "--qps=2x",
                          "--qps=", "--qps=nan", "--qps=inf"}) {
    const char* argv[] = {"prog", bad};
    Cli cli{2, argv};
    EXPECT_THROW((void)cli.get_positive_double("qps", 1.0),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Cli, PositiveDoubleRejectsBareBooleanForm) {
  const char* argv[] = {"prog", "--qps"};
  Cli cli{2, argv};
  EXPECT_THROW((void)cli.get_positive_double("qps", 1.0),
               std::invalid_argument);
}

TEST(Cli, DefaultsApplyWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli{1, argv};
  EXPECT_EQ(cli.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("absent", 2.5), 2.5);
  EXPECT_FALSE(cli.get_bool("absent", false));
  EXPECT_FALSE(cli.has("absent"));
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(999), "999 B");
  EXPECT_EQ(format_bytes(1500), "1.5 KB");
  EXPECT_EQ(format_bytes(2'000'000), "2.0 MB");
  EXPECT_EQ(format_bytes(3'100'000'000ULL), "3.1 GB");
}

TEST(Units, FormatTimePicksScale) {
  EXPECT_EQ(format_time(2.0), "2.000 s");
  EXPECT_EQ(format_time(0.0025), "2.500 ms");
  EXPECT_EQ(format_time(2.5e-6), "2.500 us");
  EXPECT_EQ(format_time(5e-9), "5.0 ns");
}

TEST(Units, IntsInKbytes) {
  // The paper's problem size: 100 KB of 4-byte integers.
  EXPECT_EQ(ints_in_kbytes(100), 25000u);
  EXPECT_EQ(ints_in_kbytes(1000), 250000u);
}

}  // namespace
}  // namespace hbsp::util
