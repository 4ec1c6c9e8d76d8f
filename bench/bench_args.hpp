// Command-line parsing shared by the bench binaries.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace bfpsim {

/// The value of `--threads`: an integer in [0, 1024] (0 = hardware
/// concurrency), the bound the bfpsim CLI enforces. Garbage or an
/// out-of-range value prints an error and exits 2, before the caller
/// builds any ThreadPool.
inline int parse_threads_arg(const char* prog, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 0 || v > 1024) {
    std::fprintf(stderr,
                 "%s: --threads '%s' must be an integer in [0, 1024]\n",
                 prog, text);
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace bfpsim
