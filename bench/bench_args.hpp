// Command-line parsing shared by the bench binaries. Every numeric flag
// goes through one of these: garbage, trailing characters, or a value out
// of the stated bounds prints an error naming the flag and exits 2, before
// the caller builds any ThreadPool or runs any work.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace bfpsim {

/// An integer flag value in [lo, hi].
inline long long parse_int_arg(const char* prog, const char* flag,
                               const char* text, long long lo,
                               long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s '%s' must be an integer in [%lld, %lld]\n",
                 prog, flag, text, lo, hi);
    std::exit(2);
  }
  return v;
}

/// The value of `--threads`: an integer in [0, 1024] (0 = hardware
/// concurrency), the bound the bfpsim CLI enforces.
inline int parse_threads_arg(const char* prog, const char* text) {
  return static_cast<int>(parse_int_arg(prog, "--threads", text, 0, 1024));
}

/// The value of `--seed`: any unsigned 64-bit integer, digits only.
inline std::uint64_t parse_seed_arg(const char* prog, const char* text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr,
                 "%s: --seed '%s' must be an unsigned 64-bit integer\n", prog,
                 text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// A real flag value in [lo, hi] (NaN is rejected).
inline double parse_double_arg(const char* prog, const char* flag,
                               const char* text, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !(v >= lo && v <= hi)) {
    std::fprintf(stderr, "%s: %s '%s' must be a number in [%g, %g]\n", prog,
                 flag, text, lo, hi);
    std::exit(2);
  }
  return v;
}

}  // namespace bfpsim
