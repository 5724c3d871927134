#include "util/rng.h"

#include <cmath>

namespace cookiepicker::util {

double Pcg32::uniform01() {
  // 32 random bits scaled into [0,1); enough resolution for simulation use.
  return next() * (1.0 / 4294967296.0);
}

double Pcg32::normal(double mean, double stddev) {
  // Box-Muller; guard against log(0).
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 1e-12;
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  return mean + stddev * radius * std::cos(theta);
}

double Pcg32::logNormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Pcg32::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Pcg32 Pcg32::fork(std::string_view tag) {
  const std::uint64_t tagHash = fnv1a64(tag);
  // Mix current state with the tag so forks from the same parent differ and
  // forks with the same tag from identical parents agree.
  return Pcg32(state_ ^ tagHash, inc_ ^ (tagHash * 0x9e3779b97f4a7c15ULL));
}

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (const char ch : text) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace cookiepicker::util
