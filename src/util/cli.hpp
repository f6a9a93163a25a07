#pragma once
// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and bare boolean `--name`.
// Unknown flags are an error so typos in sweep scripts fail loudly. Every
// binary's main goes through run_main, which turns a bad command line into
// a usage message and exit 2, and `--help` into the usage and exit 0.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hbsp::util {

/// A command line the program cannot run with: an unknown or malformed flag
/// or a bad flag value. what() names the problem; usage() lists the flags
/// registered when it was thrown.
class CliError : public std::invalid_argument {
 public:
  CliError(const std::string& message, std::string usage)
      : std::invalid_argument{message}, usage_{std::move(usage)} {}
  [[nodiscard]] const std::string& usage() const noexcept { return usage_; }

 private:
  std::string usage_;
};

/// Thrown by Cli::validate() when the command line asks for --help.
struct CliHelp {
  std::string usage;
};

/// Parsed flags plus positional arguments.
class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  /// Registers a flag so it is considered known; returns *this for chaining.
  Cli& allow(const std::string& name, const std::string& help = "");

  /// Rejects any parsed flag that was never allow()ed (CliError), or throws
  /// CliHelp when --help was given. Call it after the last allow().
  void validate() const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Strict variant for flags like --threads: the value must be a fully
  /// numeric, strictly positive integer; anything else (0, negatives,
  /// non-numeric text, a bare boolean flag) throws std::invalid_argument.
  [[nodiscard]] std::int64_t get_positive_int(const std::string& name,
                                              std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Strict variant for flags like --qps: the value must be fully numeric
  /// and strictly positive; anything else (0, negatives, non-numeric text,
  /// a bare boolean flag, trailing junk) throws std::invalid_argument with
  /// the same friendly message shape as get_positive_int.
  [[nodiscard]] double get_positive_double(const std::string& name,
                                           double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Renders the registered flags as a help string.
  [[nodiscard]] std::string help() const;

  /// "usage: <program> [flags]" followed by help().
  [[nodiscard]] std::string usage() const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::map<std::string, std::string> known_;
  std::vector<std::string> positional_;
};

/// The shared main of the bench and example binaries. Parses argv into a
/// Cli and runs `body`, which registers its flags, calls cli.validate() and
/// does the work; what `body` throws becomes an exit code, never
/// std::terminate:
///   --help                        usage on stdout, exit 0
///   CliError (bad flag or value)  message and usage on stderr, exit 2
///   any other exception           message on stderr, exit 1
int run_main(int argc, const char* const* argv, int (*body)(Cli& cli));

}  // namespace hbsp::util
