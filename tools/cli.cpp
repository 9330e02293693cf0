#include "cli.hpp"

#include <cstdio>
#include <limits>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "sim/net_policy.hpp"

namespace ambb::cli {

bool Parser::next() {
  if (i_ + 1 >= argc_) return false;
  arg_ = argv_[++i_];
  return true;
}

const char* Parser::value() {
  if (i_ + 1 >= argc_) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool_, arg_.c_str());
    return nullptr;
  }
  return argv_[++i_];
}

bool Parser::to_u64(std::uint64_t* out) {
  const char* v = value();
  if (v == nullptr) return false;
  const auto parsed = parse_uint(v);
  if (!parsed) {
    std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", tool_,
                 arg_.c_str(), v);
    return false;
  }
  *out = *parsed;
  return true;
}

bool Parser::to_u32(std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!to_u64(&v)) return false;
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    std::fprintf(stderr, "%s: %s value %llu is out of range\n", tool_,
                 arg_.c_str(), static_cast<unsigned long long>(v));
    return false;
  }
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool Parser::to_unsigned(unsigned* out) {
  std::uint32_t v = 0;
  if (!to_u32(&v)) return false;
  *out = v;
  return true;
}

bool Parser::to_eps(double* out) {
  const char* v = value();
  if (v == nullptr) return false;
  const auto eps = parse_eps(v);
  if (!eps) {
    std::fprintf(stderr, "%s: %s expects a number in (0, 0.5), got '%s'\n",
                 tool_, arg_.c_str(), v);
    return false;
  }
  *out = *eps;
  return true;
}

bool Parser::to_str(std::string* out) {
  const char* v = value();
  if (v == nullptr) return false;
  *out = v;
  return true;
}

void Parser::unknown() const {
  std::fprintf(stderr, "%s: unknown argument '%s'\n", tool_, arg_.c_str());
}

bool handle_common_flag(Parser& p, CommonFlags* cf, bool* ok) {
  *ok = true;
  const std::string& arg = p.arg();
  if ((cf->accept & kJobs) != 0 && arg == "--jobs") {
    *ok = p.to_unsigned(&cf->jobs);
    return true;
  }
  if ((cf->accept & kOut) != 0 && arg == "--out") {
    *ok = p.to_str(&cf->out);
    return true;
  }
  if ((cf->accept & kFilter) != 0 && arg == "--filter") {
    *ok = p.to_str(&cf->filter);
    return true;
  }
  if ((cf->accept & kNet) != 0 && arg == "--net") {
    if (!p.to_str(&cf->net)) {
      *ok = false;
      return true;
    }
    try {
      parse_net_policy(cf->net);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "%s: %s\n", p.tool(), e.what());
      *ok = false;
    }
    return true;
  }
  return false;
}

const ProtocolInfo* resolve_protocol(const char* tool,
                                     const std::string& name) {
  const ProtocolInfo* info = find_protocol(name);
  if (info != nullptr) return info;
  const std::string hint = suggest_protocol(name);
  if (hint.empty()) {
    std::fprintf(stderr, "%s: unknown protocol '%s'\n", tool, name.c_str());
  } else {
    std::fprintf(stderr, "%s: unknown protocol '%s', did you mean '%s'?\n",
                 tool, name.c_str(), hint.c_str());
  }
  std::fprintf(stderr, "%s: available protocols:", tool);
  for (const auto& p : protocols()) std::fprintf(stderr, " %s", p.name.c_str());
  std::fprintf(stderr, "\n");
  return nullptr;
}

}  // namespace ambb::cli
