// analysis/schedule_verify.cpp -- diagnostics layer over the constexpr core,
// plus the compile-time proof of the shipped tables.
#include "analysis/schedule_verify.hpp"

#include <sstream>

namespace strassen::analysis {

// ---- compile-time proof of the shipped schedules --------------------------
// A bad edit to analysis/schedule.hpp stops the library from building; the
// CLI (tools/verify_schedules) and tests re-prove at runtime with readable
// diagnostics.
namespace {
// True when `s` verifies with exactly these proven statistics.
constexpr bool proves(const Schedule& s, int temp_peak, int products,
                      int linear_ops) {
  const CoreResult r = verify_core(s);
  return r.violation == Violation::kNone && r.temp_peak == temp_peak &&
         r.products == products && r.linear_ops == linear_ops;
}

static_assert(proves(kWinogradLowMem, 2, 7, 15) &&
                  temp_buffer_count(kWinogradLowMem) == 2,
              "shipped Winograd schedule must verify as 7 products + 15 "
              "additions (paper S3.3) in 2 arena buffers "
              "(Boyer-Dumas-Pernet-Zhou bound)");
static_assert(products_consume(kKreczmar) && proves(kKreczmar, 0, 7, 15),
              "shipped Kreczmar schedule must verify as 7 products + 15 "
              "additions with no temporaries, each product consuming its "
              "operands");
static_assert(products_consume(kWinogradSpawn) &&
                  proves(kWinogradSpawn, 11, 7, 15),
              "shipped spawn schedule must verify as one concurrent group of "
              "7 products + 15 additions over 4 + 4 + 3 live temporaries, "
              "each product consuming its operands");

std::string step_label(const Schedule& sched, int i) {
  std::ostringstream os;
  os << "step " << i;
  if (i >= 0 && i < sched.step_count && sched.steps[i].note[0] != '\0')
    os << " (" << sched.steps[i].note << ")";
  return os.str();
}

std::string step_render(const Step& s) {
  std::ostringstream os;
  const char* dst = operand_name(s.dst);
  switch (s.kind) {
    case StepKind::kAdd:
      os << dst << " = " << operand_name(s.a0) << " + " << operand_name(s.a1);
      break;
    case StepKind::kSub:
      os << dst << " = " << operand_name(s.a0) << " - " << operand_name(s.a1);
      break;
    case StepKind::kAddInplace:
      os << dst << " += " << operand_name(s.a0);
      break;
    case StepKind::kSubInplace:
      os << dst << " -= " << operand_name(s.a0);
      break;
    case StepKind::kMul:
      os << dst << " = " << operand_name(s.a0) << " . " << operand_name(s.b0);
      break;
  }
  return os.str();
}

// Forward pass collecting EVERY forward-detectable violation instead of
// stopping at the first one (the constexpr core's behaviour).  Execution
// continues past a violation where the symbolic state still makes sense, so
// one mutation does not drown the report in cascading noise: an undefined
// read contributes zero coefficients, a skipped malformed step leaves its
// destination untouched.
SymState forward_diagnose(const Schedule& sched,
                          std::vector<std::string>& errors,
                          int last_writer[kOperandCount]) {
  SymState st = detail::initial_state();
  const bool consume = products_consume(sched);
  for (int i = 0; i < kOperandCount; ++i) last_writer[i] = -1;
  for (int i = 0; i < sched.step_count; ++i) {
    const Step& s = sched.steps[i];
    if (is_input(s.dst) && !sched.overwrites_inputs) {
      std::ostringstream os;
      os << step_label(sched, i) << ": writes input quadrant "
         << operand_name(s.dst) << " ('" << step_render(s)
         << "'); A/B quadrants are read-only in a table not marked "
            "overwrites_inputs";
      errors.push_back(os.str());
      continue;
    }
    Operand bad = Operand::kNone;
    const Violation shape_v =
        detail::step_shape_check(s, st, sched.overwrites_inputs, &bad);
    if (shape_v != Violation::kNone) {
      std::ostringstream os;
      os << step_label(sched, i) << ": " << violation_name(shape_v)
         << " on operand " << operand_name(bad) << " in '" << step_render(s)
         << "'";
      errors.push_back(os.str());
      continue;  // malformed: cannot execute symbolically
    }
    const detail::ReadSet reads = detail::step_reads(s);
    if (is_product(s.kind)) {
      for (int k = 0; k < reads.count; ++k) {
        if (reads.ops[k] == s.dst) {
          std::ostringstream os;
          os << step_label(sched, i) << ": product destination "
             << operand_name(s.dst)
             << " aliases a source operand; recursive products require "
                "disjoint storage";
          errors.push_back(os.str());
        }
      }
    }
    for (int k = 0; k < reads.count; ++k) {
      const Operand op = reads.ops[k];
      if (is_temp(op) && !detail::temp_declared(sched, op)) {
        std::ostringstream os;
        os << step_label(sched, i) << ": temporary " << operand_name(op)
           << " is not in the schedule's declared temporary list";
        errors.push_back(os.str());
      }
      if (!st.slot[static_cast<int>(op)].defined) {
        std::ostringstream os;
        os << step_label(sched, i) << ": reads " << operand_name(op)
           << " while it holds no value ('" << step_render(s)
           << "'); a reordering delayed the value it expects, or a product "
              "consumed it";
        errors.push_back(os.str());
      }
    }
    if (is_temp(s.dst) && !detail::temp_declared(sched, s.dst)) {
      std::ostringstream os;
      os << step_label(sched, i) << ": temporary " << operand_name(s.dst)
         << " is not in the schedule's declared temporary list";
      errors.push_back(os.str());
    }
    detail::sym_apply(s, st);
    if (consume && is_product(s.kind)) detail::sym_consume(s, st);
    last_writer[static_cast<int>(s.dst)] = i;
  }
  return st;
}

}  // namespace

std::string bilinear_to_string(const Bilinear& b) {
  std::ostringstream os;
  bool any = false;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int k = b.c[i][j];
      if (k == 0) continue;
      if (any) os << " ";
      os << (k > 0 ? "+" : "-");
      if (k != 1 && k != -1) os << (k > 0 ? k : -k) << "*";
      os << operand_name(static_cast<Operand>(
                static_cast<int>(Operand::kA11) + i))
         << "."
         << operand_name(static_cast<Operand>(
                static_cast<int>(Operand::kB11) + j));
      any = true;
    }
  }
  if (!any) os << "0";
  return os.str();
}

VerifyResult verify_schedule(const Schedule& sched) {
  VerifyResult out;
  if (sched.step_count <= 0 || sched.steps == nullptr) {
    out.errors.push_back("schedule has no steps");
    return out;
  }
  if (sched.temp_count > kTempSlotCount || sched.temp_buffer == nullptr) {
    std::ostringstream os;
    os << "schedule declares " << sched.temp_count
       << " temporaries (at most " << kTempSlotCount
       << ", each mapped by a non-null temp_buffer)";
    out.errors.push_back(os.str());
    return out;
  }
  {
    int gstep = -1;
    Operand gop = Operand::kNone;
    const Violation gv = detail::check_groups(sched, &gstep, &gop);
    if (gv != Violation::kNone) {
      std::ostringstream os;
      os << step_label(sched, gstep) << ": " << violation_name(gv) << " on "
         << operand_name(gop) << " in concurrent group member '"
         << step_render(sched.steps[gstep])
         << "'; group members must be plain products that write (or "
            "consume) nothing a sibling writes or consumes and read no "
            "sibling's destination";
      out.errors.push_back(os.str());
    }
  }
  int last_writer[kOperandCount];
  const SymState st = forward_diagnose(sched, out.errors, last_writer);

  {
    Operand dead = Operand::kNone;
    // Report every dead store, not just the first: re-scan from each index.
    for (int from = 0; from < sched.step_count;) {
      Schedule tail = sched;
      tail.steps = sched.steps + from;
      tail.step_count = sched.step_count - from;
      const int i = detail::first_dead_store(tail, &dead);
      if (i < 0) break;
      const int abs_i = from + i;
      std::ostringstream os;
      os << step_label(sched, abs_i) << ": value written to "
         << operand_name(dead)
         << " is never read before being overwritten (dead store -- a later "
            "step clobbers a value the schedule still owed a use)";
      out.errors.push_back(os.str());
      from = abs_i + 1;
    }
  }

  for (Operand c :
       {Operand::kC11, Operand::kC12, Operand::kC21, Operand::kC22}) {
    const SymValue& v = st.slot[static_cast<int>(c)];
    if (!v.defined) {
      out.errors.push_back(std::string("output ") + operand_name(c) +
                           " is never written");
      continue;
    }
    const Bilinear want = c_target(c);
    const int w = last_writer[static_cast<int>(c)];
    if (!(v.bil == want)) {
      std::ostringstream os;
      os << "product identity fails for " << operand_name(c)
         << " (last written at " << step_label(sched, w) << "): computed "
         << bilinear_to_string(v.bil) << ", expected "
         << bilinear_to_string(want);
      out.errors.push_back(os.str());
    }
  }

  int peak_step = -1;
  out.temp_peak = detail::live_temp_peak(sched, &peak_step);
  if (out.temp_peak != sched.declared_temp_peak) {
    std::ostringstream os;
    os << "live-temporary peak is " << out.temp_peak << " (first reached at "
       << step_label(sched, peak_step) << ") but the schedule declares "
       << sched.declared_temp_peak;
    out.errors.push_back(os.str());
  }

  {
    int bstep = -1;
    Operand bop = Operand::kNone;
    const Violation bv = detail::check_temp_buffers(sched, &bstep, &bop);
    if (bv == Violation::kBadTempBuffer) {
      std::ostringstream os;
      os << "temp_buffer maps " << operand_name(bop)
         << " to a buffer id outside [0, " << sched.temp_count << ")";
      out.errors.push_back(os.str());
    } else if (bv == Violation::kSharedTempOverlap) {
      std::ostringstream os;
      os << step_label(sched, bstep) << ": temporary " << operand_name(bop)
         << " shares an arena buffer with another temporary that is still "
            "live here -- shared-buffer temps must have disjoint live ranges";
      out.errors.push_back(os.str());
    }
  }

  for (int i = 0; i < sched.step_count; ++i) {
    if (is_product(sched.steps[i].kind))
      ++out.products;
    else
      ++out.linear_ops;
  }
  out.ok = out.errors.empty();
  return out;
}

}  // namespace strassen::analysis
