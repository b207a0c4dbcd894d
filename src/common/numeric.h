// Floating-point comparison helpers and shared numeric constants.
//
// All electrical quantities in msn use doubles with the unit system
// documented in DESIGN.md §4: Ω, pF, µm, and Ω·pF (= 1 ps) for time.
// Comparisons between derived delays therefore operate at magnitudes of
// roughly 1e-3..1e5 ps, for which a mixed absolute/relative epsilon works
// well.
#ifndef MSN_COMMON_NUMERIC_H
#define MSN_COMMON_NUMERIC_H

#include <algorithm>
#include <cmath>
#include <limits>

namespace msn {

/// Default absolute tolerance for delay/capacitance comparisons (in the
/// native unit of the compared quantity).
inline constexpr double kEps = 1e-9;

/// Positive infinity shorthand used for "no solution / unreachable".
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// True iff |a - b| is within `eps` absolutely or relatively.
inline bool ApproxEq(double a, double b, double eps = kEps) {
  const double diff = std::fabs(a - b);
  if (diff <= eps) return true;
  return diff <= eps * std::max(std::fabs(a), std::fabs(b));
}

/// True iff a <= b up to tolerance.
inline bool LessOrApprox(double a, double b, double eps = kEps) {
  return a <= b || ApproxEq(a, b, eps);
}

}  // namespace msn

#endif  // MSN_COMMON_NUMERIC_H
