// The elide flag table (tools/flags.hpp), row by row: every numeric row
// rejects malformed and out-of-range values and accepts an in-range one,
// every row is refused by the commands that do not read it, and every
// command's usage text lists exactly the rows it reads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "flags.hpp"

namespace elision::cli {
namespace {

bool numeric(const Flag& f) {
  return f.kind == Kind::kInt || f.kind == Kind::kU64 ||
         f.kind == Kind::kDouble || f.kind == Kind::kThreads;
}

std::string exact(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string integer(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.0f", x);
  return buf;
}

// Values the row must reject: no number, trailing junk, just outside each
// end of its range, and an overflow of the value type.
std::vector<std::string> bad_values(const Flag& f) {
  std::vector<std::string> v = {"", "1x"};
  if (f.kind == Kind::kDouble) {
    v.push_back("1e999");
    v.push_back(f.range.lo_open ? exact(f.range.lo)
                                : exact(std::nextafter(f.range.lo, -1e300)));
    if (std::isfinite(f.range.hi)) {
      v.push_back(exact(std::nextafter(f.range.hi, 1e300)));
    }
    return v;
  }
  v.push_back("99999999999999999999999");
  v.push_back(integer(f.range.lo - 1));
  if (std::isfinite(f.range.hi)) {
    v.push_back(integer(f.range.hi + 1));
  } else {
    v.push_back(f.kind == Kind::kU64 ? "18446744073709551616" : "2147483648");
  }
  return v;
}

// A value inside the row's range.
double good_value(const Flag& f) {
  if (std::isfinite(f.range.hi)) return f.range.hi;
  return f.range.lo + 1;
}

// The numeric field `f` sets, read back as a double.
double read(const Options& o, const Flag& f) {
  return std::visit(
      [&](auto m) -> double {
        using T = std::remove_cvref_t<decltype(o.*m)>;
        if constexpr (std::is_arithmetic_v<T>) {
          return static_cast<double>(o.*m);
        } else if constexpr (std::is_same_v<T, std::optional<double>>) {
          return (o.*m).value_or(NAN);
        } else {
          return NAN;
        }
      },
      f.field);
}

// Parses `flag value` (or the bare flag) for `cmd`, after the positional
// argument the command requires.
std::optional<std::string> parse_one(Command cmd, const Flag& f,
                                     const std::string& value, Options& o) {
  std::vector<const char*> args;
  if (cmd == kStamp) args.push_back("genome");
  if (cmd == kFigure) args.push_back("fig3.1");
  args.push_back(f.name);
  if (f.kind != Kind::kBool) args.push_back(value.c_str());
  return parse(cmd, args, o);
}

// Each command bit a row lists.
std::vector<Command> commands_of(unsigned bits) {
  std::vector<Command> out;
  for (const CommandInfo& c : commands()) {
    if ((bits & c.cmd) != 0) out.push_back(c.cmd);
  }
  return out;
}

TEST(CliFlags, EveryNumericRowRejectsMalformedAndOutOfRangeValues) {
  int rows = 0;
  for (const Flag& f : flags()) {
    if (!numeric(f)) continue;
    ++rows;
    for (const Command cmd : commands_of(f.commands)) {
      for (const std::string& v : bad_values(f)) {
        Options o;
        EXPECT_TRUE(parse_one(cmd, f, v, o).has_value())
            << f.name << " accepted '" << v << "'";
      }
      Options o;
      const double good = good_value(f);
      const std::string text =
          f.kind == Kind::kDouble ? exact(good) : integer(good);
      EXPECT_EQ(parse_one(cmd, f, text, o), std::nullopt)
          << f.name << " " << text;
      EXPECT_EQ(read(o, f), good) << f.name;
    }
  }
  EXPECT_GE(rows, 18);
}

TEST(CliFlags, CommandsRefuseFlagsTheyDoNotRead) {
  for (const Flag& f : flags()) {
    ASSERT_NE(f.commands, 0u) << f.name;
    for (const CommandInfo& c : commands()) {
      if ((f.commands & c.cmd) != 0) continue;
      Options o;
      const auto diag = parse_one(c.cmd, f, "1", o);
      ASSERT_TRUE(diag.has_value())
          << "elide " << c.name << " took " << f.name;
      EXPECT_NE(diag->find("does not take"), std::string::npos) << *diag;
    }
  }
}

TEST(CliFlags, UsageListsExactlyTheFlagsACommandReads) {
  for (const CommandInfo& c : commands()) {
    const std::string text = usage(c.cmd);
    for (const Flag& f : flags()) {
      const bool listed =
          text.find(std::string("[") + f.name + " ") != std::string::npos ||
          text.find(std::string("[") + f.name + "]") != std::string::npos;
      EXPECT_EQ(listed, (f.commands & c.cmd) != 0)
          << "elide " << c.name << " usage and " << f.name;
    }
  }
}

TEST(CliFlags, PositionalArguments) {
  Options o;
  EXPECT_TRUE(parse(kTree, std::vector<const char*>{"junk"}, o));
  EXPECT_TRUE(parse(kStamp, std::vector<const char*>{}, o));
  EXPECT_TRUE(parse(kFigure, std::vector<const char*>{}, o));
  EXPECT_TRUE(parse(kStamp, std::vector<const char*>{"genome", "ssca2"}, o));
  Options stamp;
  EXPECT_EQ(parse(kStamp, std::vector<const char*>{"--threads", "4", "ssca2"},
                  stamp),
            std::nullopt);
  EXPECT_EQ(stamp.positional, "ssca2");
  EXPECT_EQ(stamp.threads, 4);
}

TEST(CliFlags, StressLockNamesMatchWithoutRegardToCase) {
  Options o;
  const std::vector<const char*> args = {
      "--locks", "ttas,Ticket-adj,shared-ttas,Shared-TTAS,RACY"};
  ASSERT_EQ(parse(kStress, args, o), std::nullopt);
  ASSERT_EQ(o.locks.size(), 5u);
  EXPECT_EQ(locks::find_lock(o.locks[1]), locks::LockId::kTicketAdj);
  EXPECT_EQ(locks::find_lock(o.locks[2]), locks::LockId::kSharedTtas);
  EXPECT_EQ(locks::find_lock(o.locks[4]), locks::LockId::kRacy);
}

TEST(CliFlags, ListsTakeAllOrKnownNames) {
  Options o;
  ASSERT_EQ(parse(kStress,
                  std::vector<const char*>{"--workloads", "counter,btree",
                                           "--schemes", "all"},
                  o),
            std::nullopt);
  EXPECT_EQ(o.workloads, (std::vector<std::string>{"counter", "btree"}));
  EXPECT_TRUE(o.schemes.empty());  // "all"
  for (const char* bad : {"", "counter,", "all,counter", "Counter"}) {
    Options p;
    EXPECT_TRUE(
        parse(kStress, std::vector<const char*>{"--workloads", bad}, p))
        << "'" << bad << "'";
  }
}

TEST(CliFlags, HostThreadsZeroMeansEveryHardwareThread) {
  Options o;
  ASSERT_EQ(parse(kSuite, std::vector<const char*>{"--host-threads", "0"}, o),
            std::nullopt);
  EXPECT_GE(o.host_threads, 1);
}

TEST(CliFlags, MissingValueIsADiagnostic) {
  Options o;
  const auto diag = parse(kSuite, std::vector<const char*>{"--jobs"}, o);
  ASSERT_TRUE(diag.has_value());
  EXPECT_EQ(*diag, "missing value for --jobs");
}

}  // namespace
}  // namespace elision::cli
