#include "util/failpoint.h"

#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "util/fnv1a.h"
#include "util/rng.h"

namespace lepton::util::failpoint {
namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

enum class Trigger : std::uint8_t { kAlways, kProbability, kEvery, kOnce };

struct Site {
  std::string name;
  Action action = Action::kNone;
  int err = EIO;
  std::chrono::milliseconds delay{0};
  Trigger trigger = Trigger::kAlways;
  double probability = 1.0;
  std::uint64_t every = 1;
  Rng rng{0};
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  std::vector<std::uint64_t> fire_log;  // 1-based hit indices, capped
};

constexpr std::size_t kFireLogCap = 4096;

struct Registry {
  std::mutex mu;
  std::vector<Site> sites;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ErrnoName {
  const char* name;
  int value;
};

// The errnos the wired sites can plausibly surface; numbers also parse.
constexpr ErrnoName kErrnoNames[] = {
    {"ECONNREFUSED", ECONNREFUSED}, {"ECONNRESET", ECONNRESET},
    {"EPIPE", EPIPE},               {"ETIMEDOUT", ETIMEDOUT},
    {"EMFILE", EMFILE},             {"ENFILE", ENFILE},
    {"ENOMEM", ENOMEM},             {"ENOBUFS", ENOBUFS},
    {"EIO", EIO},                   {"EAGAIN", EAGAIN},
    {"ENOSPC", ENOSPC},             {"EHOSTUNREACH", EHOSTUNREACH},
    {"ENETUNREACH", ENETUNREACH},
};

bool parse_errno(const std::string& s, int* out) {
  for (const auto& e : kErrnoNames) {
    if (s == e.name) {
      *out = e.value;
      return true;
    }
  }
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v <= 0) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool set_error(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what;
  return false;
}

bool parse_action(const std::string& s, Site* site, std::string* err) {
  if (s == "short") {
    site->action = Action::kShort;
    return true;
  }
  if (s == "fail") {
    site->action = Action::kFail;
    return true;
  }
  if (s == "err" || s.rfind("err:", 0) == 0) {
    site->action = Action::kErr;
    if (s.size() > 4 && !parse_errno(s.substr(4), &site->err)) {
      return set_error(err, "failpoint " + site->name + ": unknown errno '" +
                                s.substr(4) + "'");
    }
    return true;
  }
  if (s.rfind("delay:", 0) == 0) {
    std::string d = s.substr(6);
    if (d.size() < 3 || d.substr(d.size() - 2) != "ms") {
      return set_error(err, "failpoint " + site->name +
                                ": delay wants '<N>ms', got '" + d + "'");
    }
    std::uint64_t ms = 0;
    if (!parse_u64(d.substr(0, d.size() - 2), &ms)) {
      return set_error(err, "failpoint " + site->name +
                                ": bad delay '" + d + "'");
    }
    site->action = Action::kDelay;
    site->delay = std::chrono::milliseconds(ms);
    return true;
  }
  return set_error(err,
                   "failpoint " + site->name + ": unknown action '" + s + "'");
}

bool parse_trigger_term(const std::string& s, Site* site, bool* seed_set,
                        std::uint64_t* site_seed, std::string* err) {
  if (s == "once") {
    site->trigger = Trigger::kOnce;
    return true;
  }
  if (s.rfind("every", 0) == 0) {
    std::uint64_t n = 0;
    if (!parse_u64(s.substr(5), &n) || n == 0) {
      return set_error(err, "failpoint " + site->name +
                                ": bad trigger '" + s + "'");
    }
    site->trigger = Trigger::kEvery;
    site->every = n;
    return true;
  }
  if (s.rfind("seed", 0) == 0) {
    std::uint64_t n = 0;
    if (!parse_u64(s.substr(4), &n)) {
      return set_error(err, "failpoint " + site->name +
                                ": bad trigger '" + s + "'");
    }
    *seed_set = true;
    *site_seed = n;
    return true;
  }
  // A probability: float in [0, 1].
  char* end = nullptr;
  double p = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return set_error(err,
                     "failpoint " + site->name + ": bad trigger '" + s + "'");
  }
  site->trigger = Trigger::kProbability;
  site->probability = p;
  return true;
}

}  // namespace

bool arm(const std::string& spec, std::string* err) {
  std::vector<Site> sites;
  // Per-site seed overrides (@seedN); -1-like sentinel via the bool.
  std::vector<std::pair<bool, std::uint64_t>> seed_override;
  std::uint64_t global_seed = 0;

  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    std::string entry = trim(spec.substr(pos, semi - pos));
    pos = semi + 1;
    if (entry.empty()) continue;

    std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return set_error(err, "failpoint entry '" + entry +
                                "' is not site=action[@trigger]");
    }
    std::string key = trim(entry.substr(0, eq));
    std::string val = trim(entry.substr(eq + 1));
    if (key == "seed") {
      if (!parse_u64(val, &global_seed)) {
        return set_error(err, "failpoint seed: bad value '" + val + "'");
      }
      continue;
    }

    Site site;
    site.name = key;
    bool seed_set = false;
    std::uint64_t site_seed = 0;
    std::size_t at = val.find('@');
    std::string action_s = at == std::string::npos ? val : val.substr(0, at);
    if (!parse_action(trim(action_s), &site, err)) return false;
    if (at != std::string::npos) {
      std::string trig = val.substr(at + 1);
      std::size_t tpos = 0;
      while (tpos <= trig.size()) {
        std::size_t comma = trig.find(',', tpos);
        if (comma == std::string::npos) comma = trig.size();
        std::string term = trim(trig.substr(tpos, comma - tpos));
        tpos = comma + 1;
        if (term.empty()) continue;
        if (!parse_trigger_term(term, &site, &seed_set, &site_seed, err)) {
          return false;
        }
      }
    }
    seed_override.emplace_back(seed_set, site_seed);
    sites.push_back(std::move(site));
  }

  // Seed each site's PRNG only now: a 'seed=' entry anywhere in the spec
  // applies to every site without an explicit @seedN override. Mixing in
  // the site name's FNV-1a keeps two sites armed with the same global
  // seed drawing independent sequences.
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::uint64_t seed = seed_override[i].first
                             ? seed_override[i].second
                             : (global_seed ^ fnv1a(sites[i].name));
    sites[i].rng = Rng(seed);
  }

  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites = std::move(sites);
  detail::g_armed.store(!r.sites.empty(), std::memory_order_release);
  return true;
}

bool arm_from_env(std::string* err) {
  const char* spec = std::getenv("LEPTON_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return true;
  return arm(spec, err);
}

void disarm() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  r.sites.clear();
  detail::g_armed.store(false, std::memory_order_release);
}

Outcome hit(std::string_view site) {
  Outcome out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (Site& s : r.sites) {
    if (s.name != site) continue;
    ++s.hits;
    bool fire = false;
    switch (s.trigger) {
      case Trigger::kAlways:
        fire = true;
        break;
      case Trigger::kProbability:
        fire = s.rng.chance(s.probability);
        break;
      case Trigger::kEvery:
        fire = s.hits % s.every == 0;
        break;
      case Trigger::kOnce:
        fire = s.hits == 1;
        break;
    }
    if (!fire) return out;
    ++s.fires;
    if (s.fire_log.size() < kFireLogCap) s.fire_log.push_back(s.hits);
    out.action = s.action;
    out.err = s.err;
    out.delay = s.delay;
    out.draw = s.rng.next();
    return out;
  }
  return out;
}

std::vector<SiteReport> report() {
  std::vector<SiteReport> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  out.reserve(r.sites.size());
  for (const Site& s : r.sites) {
    out.push_back({s.name, s.hits, s.fires});
  }
  return out;
}

std::vector<std::uint64_t> fire_log(std::string_view site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const Site& s : r.sites) {
    if (s.name == site) return s.fire_log;
  }
  return {};
}

std::string stats_text() {
  std::string t;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const Site& s : r.sites) {
    t += "failpoint ";
    t += s.name;
    t += ' ';
    t += std::to_string(s.hits);
    t += ' ';
    t += std::to_string(s.fires);
    t += '\n';
  }
  return t;
}

}  // namespace lepton::util::failpoint
