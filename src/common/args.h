// Declarative command-line flag parsing shared by the cloudlens tools.
//
// A FlagSet is a table of flag registrations; parse() walks argv against it.
// Both `--flag VALUE` and `--flag=VALUE` spellings are accepted for every
// value-taking flag. Errors (unknown flag, missing value, rejected value)
// always name the offending token so the user sees exactly which argument
// failed, via error().
//
//   args::FlagSet flags;
//   flags.flag("--no-cache", &no_cache);          // presence flag
//   flags.value("--scale", &scale);               // double
//   flags.value("--out", &dir);                   // string
//   flags.value("--backend", [](const std::string& v) {
//     return find_backend(v) != nullptr;          // false => rejected value
//   }, "want cloudlens|azure|google");            // hint in the error
//   if (!flags.parse(argc, argv, /*start=*/2)) {
//     std::cerr << flags.error() << "\n"; ...
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace cloudlens::args {

/// A registry of flags plus the parse loop over argv. Registrations borrow
/// the target pointers, so the FlagSet must not outlive the variables it
/// writes into (in practice both live on the same stack frame).
class FlagSet {
 public:
  /// Presence flag: `--name` sets *target to true. No value is consumed,
  /// and the `--name=...` spelling is rejected as an unknown token.
  FlagSet& flag(std::string name, bool* target);

  /// Value flags: `--name VALUE` or `--name=VALUE`. Numeric conversions
  /// follow strtod/strtoull; a non-numeric value is a parse error naming
  /// the token. The `seen` pointer, when given, is set to true once the
  /// flag appears (for "was this flag passed at all?" distinctions).
  FlagSet& value(std::string name, std::string* target, bool* seen = nullptr);
  FlagSet& value(std::string name, double* target, bool* seen = nullptr);
  FlagSet& value(std::string name, std::uint64_t* target,
                 bool* seen = nullptr);
  FlagSet& value(std::string name, std::uint32_t* target,
                 bool* seen = nullptr);

  /// Custom value flag: apply() returns false to reject the value, which
  /// surfaces as `invalid value for --name: 'VALUE'` (append a hint with
  /// the optional third argument, e.g. "want private|public").
  FlagSet& value(std::string name, std::function<bool(const std::string&)>,
                 std::string hint = {});

  /// Parses argv[start..argc). Returns false on the first offending token;
  /// error() then describes it. Tokens that do not start with "--" are
  /// rejected as unexpected positional arguments.
  bool parse(int argc, char** argv, int start);

  const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string name;
    bool takes_value = false;
    std::string hint;                               ///< for rejected values
    std::function<bool(const std::string&)> apply;  ///< value flags
    bool* presence = nullptr;                       ///< presence flags
  };

  FlagSet& add(Flag flag);
  const Flag* find(const std::string& name) const;

  std::vector<Flag> flags_;
  std::string error_;
};

}  // namespace cloudlens::args
