// Shared command-line plumbing for the ambb_* tools.
//
// Every tool walks argv with a Parser (consistent "<tool>: <flag> needs
// a value" / "unknown argument" error text), opts into the uniform flag
// set via CommonFlags (--jobs, --out, --filter, --net) and
// resolves registry protocols through resolve_protocol, which prints an
// "unknown protocol 'X', did you mean 'Y'?" suggestion plus the
// available list instead of aborting. Tool-specific flags stay in the
// tool; only the shared behaviour lives here.
#pragma once

#include <cstdint>
#include <string>

#include "runner/registry.hpp"

namespace ambb::cli {

/// One pass over argv. Usage:
///
///   cli::Parser p("ambb_sweep", argc, argv);
///   while (p.next()) {
///     if (cli::handle_common_flag(p, &cf, &ok)) { if (!ok) return false; }
///     else if (p.arg() == "--spec") { if (!p.to_str(&spec)) return false; }
///     else { p.unknown(); return false; }
///   }
class Parser {
 public:
  Parser(const char* tool, int argc, char** argv)
      : tool_(tool), argc_(argc), argv_(argv) {}

  /// Advance to the next argument. False once argv is exhausted.
  bool next();

  /// The current argument (a flag, for well-formed input).
  const std::string& arg() const { return arg_; }

  /// Consume the current flag's value token. Prints "<tool>: <flag>
  /// needs a value" and returns nullptr when argv ends first.
  const char* value();

  /// value() + strict numeric parse (digits only, overflow-checked).
  /// False + "<tool>: <flag> expects a number, got '...'" on failure.
  bool to_u32(std::uint32_t* out);
  bool to_u64(std::uint64_t* out);
  bool to_unsigned(unsigned* out);
  /// value() + parse_eps: false + "<tool>: <flag> expects a number in
  /// (0, 0.5), got '...'" for anything outside that open interval.
  bool to_eps(double* out);
  /// value() into a string; false when the value is missing.
  bool to_str(std::string* out);

  /// "<tool>: unknown argument '<arg>'" on stderr.
  void unknown() const;

  const char* tool() const { return tool_; }

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string arg_;
};

/// Which of the uniform flags a tool accepts.
enum : unsigned {
  kJobs = 1u << 0,
  kOut = 1u << 1,
  kFilter = 1u << 2,
  kNet = 1u << 3,
};

/// The uniform flag set. A tool sets `accept` (and its own `out`
/// default), then calls handle_common_flag for every argument.
struct CommonFlags {
  unsigned accept = kJobs | kOut | kFilter | kNet;
  unsigned jobs = 0;           ///< --jobs: 0 = one per hardware thread
  std::string out;             ///< --out: BENCH_<out>.json basename
  std::string filter;          ///< --filter: label substring
  std::string net = "lockstep";  ///< --net: delay policy (DESIGN.md §16)
};

/// True when p.arg() is an accepted uniform flag (value consumed).
/// *ok is false when the flag's value was missing or malformed —
/// including a --net spec that fails parse_net_policy.
bool handle_common_flag(Parser& p, CommonFlags* cf, bool* ok);

/// find_protocol + diagnostics: on an unknown name prints
///   <tool>: unknown protocol 'X', did you mean 'Y'?
///   <tool>: available protocols: ...
/// and returns nullptr.
const ProtocolInfo* resolve_protocol(const char* tool,
                                     const std::string& name);

}  // namespace ambb::cli
