#include "util/stats.h"

#include <cstdio>

namespace lepton::util {

std::string format_code_tally(const CodeTally& t,
                              std::string (*name)(unsigned code)) {
  std::string out;
  for (unsigned c = 0; c < t.ceiling(); ++c) {
    std::uint64_t n = t.count(c);
    if (n == 0) continue;
    if (!out.empty()) out += "  ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "=%llu",
                  static_cast<unsigned long long>(n));
    out += name(c);
    out += buf;
  }
  return out.empty() ? "(none)" : out;
}

}  // namespace lepton::util
