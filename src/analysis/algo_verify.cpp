// analysis/algo_verify.cpp -- build-time proofs of the shipped family
// tables, and the runtime diagnostics layer.

#include "analysis/algo_verify.hpp"

#include <sstream>

#include "analysis/schedule.hpp"

namespace strassen::analysis {

// ---- build-time proofs -----------------------------------------------------
// Every shipped <m,k,n> table is proved by the constexpr core: the bilinear
// identity over noncommuting blocks, coefficient discipline, no dead or
// empty products, admissible rank, and the declared staging peak.  Editing a
// table into something wrong fails the library build here, with the
// violation kind in the assert text.

static_assert(verify_family_core(kTable222).violation == FamilyViolation::kNone,
              "<2,2,2> family table failed symbolic verification");
static_assert(verify_family_core(kTable323).violation == FamilyViolation::kNone,
              "<3,2,3> family table failed symbolic verification");
static_assert(verify_family_core(kTable234).violation == FamilyViolation::kNone,
              "<2,3,4> family table failed symbolic verification");
static_assert(verify_family_core(kTable333).violation == FamilyViolation::kNone,
              "<3,3,3> family table failed symbolic verification");

// Rank and staging-peak pins: a table quietly gaining products (or losing
// its sub-trivial rank) is a perf regression the identity check alone would
// not catch.
static_assert(verify_family_core(kTable222).rank == 7);
static_assert(verify_family_core(kTable323).rank == 17);
static_assert(verify_family_core(kTable234).rank == 22);
static_assert(verify_family_core(kTable333).rank == 23);
static_assert(verify_family_core(kTable222).temp_peak == 3);
static_assert(verify_family_core(kTable323).temp_peak == 3);
static_assert(verify_family_core(kTable234).temp_peak == 3);
static_assert(verify_family_core(kTable333).temp_peak == 3);

// The <2,2,2> coefficient table is the Winograd schedule in another clothing:
// same 7 products, same 15 linear combinations on the A/B side as the step
// table's adds (the C side differs in accounting only -- the schedule's U
// chain reuses partial sums the flat gamma rows spell out).
static_assert(verify_family_core(kTable222).rank ==
                  kWinogradLowMem.step_count - [] {
                    int linear = 0;
                    for (int i = 0; i < kWinogradLowMem.step_count; ++i)
                      linear +=
                          kWinogradLowMem.steps[i].kind != StepKind::kMul;
                    return linear;
                  }(),
              "<2,2,2> table and the Winograd schedule disagree on products");

namespace {

// Block label like "A[1][0]" / "B[0][2]" / "C[2][1]".
std::string blk(char side, int i, int j) {
  std::ostringstream os;
  os << side << "[" << i << "][" << j << "]";
  return os.str();
}

}  // namespace

std::vector<std::string> verify_family(const FamilyTable& t) {
  std::vector<std::string> out;
  // The constexpr core stops at the first violation; re-running it after
  // each report would find the same one, so the runtime layer repeats the
  // checks with full iteration.  Order and semantics mirror the core
  // exactly.
  if (t.bm < 1 || t.bm > kMaxBlockDim || t.bk < 1 || t.bk > kMaxBlockDim ||
      t.bn < 1 || t.bn > kMaxBlockDim || t.rank < 1 || t.rank > kMaxRank ||
      t.a == nullptr || t.b == nullptr || t.c == nullptr) {
    std::ostringstream os;
    os << "table '" << t.name << "': bad dims <" << t.bm << "," << t.bk << ","
       << t.bn << "> rank " << t.rank << " (bounds: block dim 1.."
       << kMaxBlockDim << ", rank 1.." << kMaxRank << ", arrays non-null)";
    out.push_back(os.str());
    return out;  // nothing below is safe to read
  }
  const int na = t.bm * t.bk;
  const int nb = t.bk * t.bn;
  const int nc = t.bm * t.bn;
  for (int r = 0; r < t.rank; ++r) {
    for (int s = 0; s < na; ++s) {
      const int v = t.a[r * na + s];
      if (v < -1 || v > 1) {
        std::ostringstream os;
        os << "product " << r + 1 << ": A coefficient " << v << " at "
           << blk('A', s / t.bk, s % t.bk) << " outside {-1,0,1}";
        out.push_back(os.str());
      }
    }
    for (int s = 0; s < nb; ++s) {
      const int v = t.b[r * nb + s];
      if (v < -1 || v > 1) {
        std::ostringstream os;
        os << "product " << r + 1 << ": B coefficient " << v << " at "
           << blk('B', s / t.bn, s % t.bn) << " outside {-1,0,1}";
        out.push_back(os.str());
      }
    }
  }
  for (int cb = 0; cb < nc; ++cb) {
    for (int r = 0; r < t.rank; ++r) {
      const int v = t.c[cb * t.rank + r];
      if (v < -1 || v > 1) {
        std::ostringstream os;
        os << blk('C', cb / t.bn, cb % t.bn) << ": accumulation coefficient "
           << v << " of product " << r + 1 << " outside {-1,0,1}";
        out.push_back(os.str());
      }
    }
  }
  if (!out.empty()) return out;  // identity over bad coefficients is noise
  for (int r = 0; r < t.rank; ++r) {
    int nza = 0, nzb = 0;
    for (int s = 0; s < na; ++s) nza += t.a[r * na + s] != 0;
    for (int s = 0; s < nb; ++s) nzb += t.b[r * nb + s] != 0;
    if (nza == 0 || nzb == 0) {
      std::ostringstream os;
      os << "product " << r + 1 << ": "
         << (nza == 0 ? "A" : "B") << " combination is empty";
      out.push_back(os.str());
    }
  }
  for (int i = 0; i < t.bm; ++i) {
    for (int j = 0; j < t.bn; ++j) {
      bool block_bad = false;
      for (int ai = 0; ai < t.bm && !block_bad; ++ai) {
        for (int al = 0; al < t.bk && !block_bad; ++al) {
          for (int bl = 0; bl < t.bk && !block_bad; ++bl) {
            for (int bj = 0; bj < t.bn && !block_bad; ++bj) {
              int acc = 0;
              for (int r = 0; r < t.rank; ++r) {
                const int g = t.c[(i * t.bn + j) * t.rank + r];
                if (g == 0) continue;
                acc += g * t.a[r * na + ai * t.bk + al] *
                       t.b[r * nb + bl * t.bn + bj];
              }
              const int want = (ai == i && bj == j && al == bl) ? 1 : 0;
              if (acc != want) {
                std::ostringstream os;
                os << blk('C', i, j) << ": accumulation row is wrong -- "
                   << "coefficient of " << blk('A', ai, al) << "."
                   << blk('B', bl, bj) << " is " << acc << ", want " << want;
                out.push_back(os.str());
                block_bad = true;  // one monomial per block keeps it readable
              }
            }
          }
        }
      }
    }
  }
  for (int r = 0; r < t.rank; ++r) {
    bool used = false;
    for (int cb = 0; cb < nc; ++cb) used = used || t.c[cb * t.rank + r] != 0;
    if (!used) {
      std::ostringstream os;
      os << "product " << r + 1 << ": dead -- no C row consumes it";
      out.push_back(os.str());
    }
  }
  if (t.rank > t.trivial_rank()) {
    std::ostringstream os;
    os << "table '" << t.name << "': rank " << t.rank
       << " exceeds the trivial rank " << t.trivial_rank();
    out.push_back(os.str());
  }
  const int need = family_required_temp_peak(t);
  if (t.declared_temp_peak != need) {
    std::ostringstream os;
    os << "table '" << t.name << "': declared temp peak "
       << t.declared_temp_peak << " but the interpreter stages " << need
       << " buffer" << (need == 1 ? "" : "s");
    out.push_back(os.str());
  }
  return out;
}

}  // namespace strassen::analysis
