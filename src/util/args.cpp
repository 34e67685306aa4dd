#include "util/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace anyblock {

namespace {

/// Reports a malformed option value and exits: callers are command-line
/// front ends, and a silently-zero --t would poison a whole bench run.
[[noreturn]] void fail_value(const std::string& program,
                             std::string_view name, const std::string& value,
                             const char* expected) {
  std::fprintf(stderr, "%s: option --%.*s expects %s, got '%s'\n",
               program.c_str(), static_cast<int>(name.size()), name.data(),
               expected, value.c_str());
  std::exit(1);
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add(std::string_view name, std::string_view default_value,
                    std::string_view help) {
  Option opt;
  opt.default_value = std::string(default_value);
  opt.help = std::string(help);
  if (!options_.emplace(std::string(name), std::move(opt)).second)
    throw std::logic_error("ArgParser: option --" + std::string(name) +
                           " registered twice");
  order_.emplace_back(name);
}

void ArgParser::add_flag(std::string_view name, std::string_view help) {
  Option opt;
  opt.help = std::string(help);
  opt.is_flag = true;
  if (!options_.emplace(std::string(name), std::move(opt)).second)
    throw std::logic_error("ArgParser: option --" + std::string(name) +
                           " registered twice");
  order_.emplace_back(name);
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    }
    if (arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      inline_value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
    }
    const auto it = options_.find(name);
    if (it == options_.end()) {
      std::fprintf(stderr, "%s: unknown option --%s\n", program_.c_str(),
                   name.c_str());
      print_help();
      return false;
    }
    if (it->second.is_flag) {
      it->second.value.emplace("1");
    } else if (inline_value) {
      it->second.value = std::move(inline_value);
    } else if (i + 1 < argc) {
      it->second.value = std::string(argv[++i]);
    } else {
      std::fprintf(stderr, "%s: option --%s requires a value\n",
                   program_.c_str(), name.c_str());
      return false;
    }
  }
  return true;
}

std::string ArgParser::get(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("undeclared option: " + std::string(name));
  return it->second.value.value_or(it->second.default_value);
}

std::int64_t ArgParser::parse_int(std::string_view name,
                                  const std::string& token) const {
  // strtoll with a null endptr turns '--t banana' into a silent 0; insist
  // on a non-empty token, full consumption, and no range overflow.
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (token.empty() || end != token.c_str() + token.size())
    fail_value(program_, name, token, "an integer");
  if (errno == ERANGE)
    fail_value(program_, name, token, "an integer in range");
  return static_cast<std::int64_t>(value);
}

std::int64_t ArgParser::get_int(std::string_view name) const {
  return parse_int(name, get(name));
}

double ArgParser::get_double(std::string_view name) const {
  const std::string token = get(name);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size())
    fail_value(program_, name, token, "a number");
  if (errno == ERANGE) fail_value(program_, name, token, "a number in range");
  return value;
}

bool ArgParser::get_flag(std::string_view name) const {
  const auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("undeclared flag: " + std::string(name));
  return it->second.value.has_value();
}

std::vector<std::int64_t> ArgParser::get_int_list(std::string_view name) const {
  std::vector<std::int64_t> values;
  const std::string raw = get(name);
  std::size_t pos = 0;
  while (pos < raw.size()) {
    std::size_t next = raw.find(',', pos);
    if (next == std::string::npos) next = raw.size();
    if (next > pos)
      values.push_back(parse_int(name, raw.substr(pos, next - pos)));
    pos = next + 1;
  }
  return values;
}

void ArgParser::print_help() const {
  std::printf("%s — %s\n\noptions:\n", program_.c_str(), description_.c_str());
  for (const auto& name : order_) {
    const auto& opt = options_.at(name);
    if (opt.is_flag) {
      std::printf("  --%-20s %s\n", name.c_str(), opt.help.c_str());
    } else {
      std::printf("  --%-20s %s (default: %s)\n", name.c_str(),
                  opt.help.c_str(), opt.default_value.c_str());
    }
  }
}

}  // namespace anyblock
