// analysis/algo_verify.hpp -- symbolic verification of <m,k,n> family tables.
//
// Extends the schedule prover (analysis/schedule_verify.hpp) from the fixed
// 2x2 quadrant program to arbitrary <bm,bk,bn> coefficient tables
// (analysis/algo_family.hpp).  The table IS the whole program -- there is no
// step ordering to check -- so verification reduces to exact integer
// algebra over the monomial space A_il (x) B_lpj:
//
//   1. dims           1 <= bm,bk,bn <= kMaxBlockDim, 1 <= rank <= kMaxRank,
//                     arrays present (the runtime layer checks this one);
//   2. coefficients   every entry of a/b/c is -1, 0 or +1 (the interpreter
//                     stages combinations with adds/subtracts only);
//   3. empty factor   no product multiplies an empty A or B combination;
//   4. product identity  for every C block (i,j),
//                        sum_r c[ij][r] * (a_r (x) b_r) == sum_l A_il B_lj
//                     as bilinear forms over NONCOMMUTING blocks -- checked
//                     monomial by monomial, so a wrong coefficient sign or a
//                     bad C-accumulation row is pinpointed to the first
//                     mismatching (i,l)x(l',j) monomial;
//   5. dead product   every product is consumed by some C row;
//   6. admissible rank   rank <= bm*bk*bn (never worse than the naive
//                     algorithm it replaces);
//   7. temp peak      declared_temp_peak covers the staging buffers the
//                     one-level interpreter materializes for this table.
//
// The core is constexpr and reports the FIRST violation with its product /
// C-block / monomial coordinates; algo_verify.cpp static_asserts it over
// every shipped table, so a broken table fails the library build.  The
// runtime layer re-runs the core and formats the same coordinates into
// step-precise diagnostics for tools/verify_schedules and the negative
// tests.
#pragma once

#include <string>
#include <vector>

#include "analysis/algo_family.hpp"

namespace strassen::analysis {

// Hard bounds of the constexpr core's scratch arrays; every shipped table is
// far below them.
inline constexpr int kMaxBlockDim = 4;
inline constexpr int kMaxRank = 32;

enum class FamilyViolation {
  kNone = 0,
  kBadDims,          // block grid or rank outside [1, bound], missing array
  kBadCoefficient,   // a/b/c entry outside {-1, 0, +1}
  kEmptyFactor,      // a product with an all-zero A or B combination
  kProductIdentity,  // some C block's bilinear form misses its target
  kDeadProduct,      // a product no C row consumes
  kInadmissibleRank, // rank exceeds the trivial bm*bk*bn
  kTempPeakMismatch, // declared_temp_peak != the interpreter's requirement
};

constexpr const char* family_violation_name(FamilyViolation v) {
  switch (v) {
    case FamilyViolation::kNone: return "none";
    case FamilyViolation::kBadDims: return "bad-dims";
    case FamilyViolation::kBadCoefficient: return "bad-coefficient";
    case FamilyViolation::kEmptyFactor: return "empty-factor";
    case FamilyViolation::kProductIdentity: return "product-identity";
    case FamilyViolation::kDeadProduct: return "dead-product";
    case FamilyViolation::kInadmissibleRank: return "inadmissible-rank";
    case FamilyViolation::kTempPeakMismatch: return "temp-peak-mismatch";
  }
  return "?";
}

// First violation with its coordinates.  `product` indexes the offending
// product (kEmptyFactor, kDeadProduct, kBadCoefficient in a/b), `ci`/`cj`
// the offending C block, and for kProductIdentity (ai,al)x(bl,bj) names the
// first mismatching monomial with the got/want coefficients.
struct FamilyCoreResult {
  FamilyViolation violation = FamilyViolation::kNone;
  int product = -1;
  int ci = -1, cj = -1;
  int ai = -1, al = -1, bl = -1, bj = -1;
  int got = 0, want = 0;
  // Derived statistics (valid when violation == kNone).
  int rank = 0;
  int linear_ops = 0;  // nonzero a/b/c coefficients beyond the first per row
  int temp_peak = 0;   // staging buffers the interpreter materializes
};

// Staging buffers the one-level interpreter (core/family.hpp) keeps live for
// this table: the A-combination and B-combination buffers (needed as soon as
// ANY product combines 2+ blocks or negates one -- the interpreter stages
// uniformly rather than special-casing pass-through products) and the
// product buffer (always, C blocks accumulate several products).
constexpr int family_required_temp_peak(const FamilyTable& t) {
  bool needs_asum = false;
  bool needs_bsum = false;
  for (int r = 0; r < t.rank; ++r) {
    int na = 0, nb = 0;
    for (int s = 0; s < t.bm * t.bk; ++s) na += t.a[r * t.bm * t.bk + s] != 0;
    for (int s = 0; s < t.bk * t.bn; ++s) nb += t.b[r * t.bk * t.bn + s] != 0;
    if (na != 1) needs_asum = true;
    if (nb != 1) needs_bsum = true;
    for (int s = 0; s < t.bm * t.bk; ++s)
      if (t.a[r * t.bm * t.bk + s] < 0) needs_asum = true;
    for (int s = 0; s < t.bk * t.bn; ++s)
      if (t.b[r * t.bk * t.bn + s] < 0) needs_bsum = true;
  }
  return (needs_asum ? 1 : 0) + (needs_bsum ? 1 : 0) + 1;
}

// The constexpr prover.  Returns the first violation (checks in the order
// documented above) or kNone plus the derived statistics.
constexpr FamilyCoreResult verify_family_core(const FamilyTable& t) {
  FamilyCoreResult res;
  // 1. dims.
  // No pointer-vs-nullptr test on a/b/c: gcc with -fsanitize=undefined
  // refuses to constant-fold global-array-address vs nullptr comparisons,
  // which would break the static_asserts over the shipped tables.  The
  // runtime layer (verify_family) rejects missing arrays before calling in.
  if (t.bm < 1 || t.bm > kMaxBlockDim || t.bk < 1 || t.bk > kMaxBlockDim ||
      t.bn < 1 || t.bn > kMaxBlockDim || t.rank < 1 || t.rank > kMaxRank) {
    res.violation = FamilyViolation::kBadDims;
    return res;
  }
  const int na = t.bm * t.bk;  // A blocks
  const int nb = t.bk * t.bn;  // B blocks
  const int nc = t.bm * t.bn;  // C blocks
  // 2. coefficient range.
  for (int r = 0; r < t.rank; ++r) {
    for (int s = 0; s < na; ++s) {
      const int v = t.a[r * na + s];
      if (v < -1 || v > 1) {
        res.violation = FamilyViolation::kBadCoefficient;
        res.product = r;
        res.ai = s / t.bk;
        res.al = s % t.bk;
        res.got = v;
        return res;
      }
    }
    for (int s = 0; s < nb; ++s) {
      const int v = t.b[r * nb + s];
      if (v < -1 || v > 1) {
        res.violation = FamilyViolation::kBadCoefficient;
        res.product = r;
        res.bl = s / t.bn;
        res.bj = s % t.bn;
        res.got = v;
        return res;
      }
    }
  }
  for (int cb = 0; cb < nc; ++cb) {
    for (int r = 0; r < t.rank; ++r) {
      const int v = t.c[cb * t.rank + r];
      if (v < -1 || v > 1) {
        res.violation = FamilyViolation::kBadCoefficient;
        res.product = r;
        res.ci = cb / t.bn;
        res.cj = cb % t.bn;
        res.got = v;
        return res;
      }
    }
  }
  // 3. empty factors.
  for (int r = 0; r < t.rank; ++r) {
    int nza = 0, nzb = 0;
    for (int s = 0; s < na; ++s) nza += t.a[r * na + s] != 0;
    for (int s = 0; s < nb; ++s) nzb += t.b[r * nb + s] != 0;
    if (nza == 0 || nzb == 0) {
      res.violation = FamilyViolation::kEmptyFactor;
      res.product = r;
      return res;
    }
  }
  // 4. product identity, monomial by monomial: for C block (i,j), the
  // coefficient of A_{ai,al} B_{bl,bj} must be 1 when ai==i, bj==j, al==bl
  // and 0 otherwise.
  for (int i = 0; i < t.bm; ++i) {
    for (int j = 0; j < t.bn; ++j) {
      for (int ai = 0; ai < t.bm; ++ai) {
        for (int al = 0; al < t.bk; ++al) {
          for (int bl = 0; bl < t.bk; ++bl) {
            for (int bj = 0; bj < t.bn; ++bj) {
              int acc = 0;
              for (int r = 0; r < t.rank; ++r) {
                const int g = t.c[(i * t.bn + j) * t.rank + r];
                if (g == 0) continue;
                acc += g * t.a[r * na + ai * t.bk + al] *
                       t.b[r * nb + bl * t.bn + bj];
              }
              const int want = (ai == i && bj == j && al == bl) ? 1 : 0;
              if (acc != want) {
                res.violation = FamilyViolation::kProductIdentity;
                res.ci = i;
                res.cj = j;
                res.ai = ai;
                res.al = al;
                res.bl = bl;
                res.bj = bj;
                res.got = acc;
                res.want = want;
                return res;
              }
            }
          }
        }
      }
    }
  }
  // 5. dead products.
  for (int r = 0; r < t.rank; ++r) {
    bool used = false;
    for (int cb = 0; cb < nc; ++cb) used = used || t.c[cb * t.rank + r] != 0;
    if (!used) {
      res.violation = FamilyViolation::kDeadProduct;
      res.product = r;
      return res;
    }
  }
  // 6. admissible rank.
  if (t.rank > t.trivial_rank()) {
    res.violation = FamilyViolation::kInadmissibleRank;
    res.got = t.rank;
    res.want = t.trivial_rank();
    return res;
  }
  // 7. temp peak.
  const int need = family_required_temp_peak(t);
  if (t.declared_temp_peak != need) {
    res.violation = FamilyViolation::kTempPeakMismatch;
    res.got = t.declared_temp_peak;
    res.want = need;
    return res;
  }
  res.rank = t.rank;
  res.temp_peak = need;
  for (int r = 0; r < t.rank; ++r) {
    int nza = 0, nzb = 0;
    for (int s = 0; s < na; ++s) nza += t.a[r * na + s] != 0;
    for (int s = 0; s < nb; ++s) nzb += t.b[r * nb + s] != 0;
    res.linear_ops += (nza - 1) + (nzb - 1);
  }
  for (int cb = 0; cb < nc; ++cb) {
    int nzc = 0;
    for (int r = 0; r < t.rank; ++r) nzc += t.c[cb * t.rank + r] != 0;
    if (nzc > 0) res.linear_ops += nzc - 1;
  }
  return res;
}

// Runtime layer: re-runs the core and formats every violation (the core
// stops at the first; the runtime version iterates by masking, which for a
// coefficient table means at most a handful of messages) into step-precise
// diagnostics.  Empty result == verified.  Implemented in algo_verify.cpp.
std::vector<std::string> verify_family(const FamilyTable& t);

}  // namespace strassen::analysis
