#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <stdexcept>

namespace hbsp::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw CliError{"bare '--' is not a flag", usage()};
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

Cli& Cli::allow(const std::string& name, const std::string& help) {
  known_[name] = help;
  return *this;
}

void Cli::validate() const {
  if (flags_.contains("help") && !known_.contains("help")) {
    throw CliHelp{usage()};
  }
  for (const auto& [name, value] : flags_) {
    if (!known_.contains(name)) {
      throw CliError{"unknown flag --" + name, usage()};
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

std::int64_t Cli::get_positive_int(const std::string& name,
                                   std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  // Digits only: no sign, whitespace, suffix, or the bare-flag "true".
  const bool digits_only =
      !text.empty() &&
      text.find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  const long long value = digits_only ? std::strtoll(text.c_str(), nullptr, 10) : 0;
  if (!digits_only || errno == ERANGE || value <= 0) {
    throw CliError{
        "--" + name + " expects a positive integer, got '" + text + "'",
        usage()};
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

double Cli::get_positive_double(const std::string& name,
                                double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  // The whole token must parse (no suffix, no bare-flag "true") and the
  // value must be a strictly positive finite number.
  const bool parsed = end != nullptr && *end == '\0' && !text.empty();
  if (!parsed || errno == ERANGE || !(value > 0.0) ||
      value > std::numeric_limits<double>::max()) {
    throw CliError{
        "--" + name + " expects a positive number, got '" + text + "'",
        usage()};
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Cli::help() const {
  std::string text = "flags:\n";
  for (const auto& [name, description] : known_) {
    text += "  --" + name;
    if (!description.empty()) text += "  " + description;
    text += '\n';
  }
  return text;
}

std::string Cli::usage() const {
  return "usage: " + (program_.empty() ? std::string{"program"} : program_) +
         " [flags]\n" + help();
}

int run_main(int argc, const char* const* argv, int (*body)(Cli& cli)) {
  const std::string program = argc > 0 ? argv[0] : "program";
  try {
    Cli cli{argc, argv};
    return body(cli);
  } catch (const CliHelp& help) {
    std::cout << help.usage;
    return 0;
  } catch (const CliError& error) {
    std::cerr << program << ": " << error.what() << '\n' << error.usage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << program << ": error: " << error.what() << '\n';
    return 1;
  } catch (...) {
    std::cerr << program << ": error: unknown exception\n";
    return 1;
  }
}

}  // namespace hbsp::util
