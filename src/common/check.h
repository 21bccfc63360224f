#ifndef BCCS_COMMON_CHECK_H_
#define BCCS_COMMON_CHECK_H_

#include <sstream>

/// Invariant checks for the hot structures: message + abort, never silent.
///
///   BCCS_CHECK(cond)            always on, in every build type. For cheap
///                               structural invariants whose violation means
///                               memory is already (or about to be) wrong —
///                               continuing would corrupt served answers or
///                               durable state. Costs one predictable branch;
///                               tools/run_bench.sh reports the total as
///                               check_overhead on the benchmark workloads.
///   BCCS_CHECK_EQ/NE/LT/LE/GT/GE(a, b)
///                               comparison forms that print both values.
///   BCCS_DCHECK / BCCS_DCHECK_* debug/validate builds only (see
///                               BCCS_DCHECK_IS_ON below). For per-element
///                               checks inside hot loops, where an always-on
///                               branch would be measurable.
///
/// Every form streams an optional context message:
///
///   BCCS_CHECK_LT(v, n) << "vertex out of range in " << where;
///
/// On failure the expression, file:line, values (comparison forms), and the
/// streamed message are printed to stderr and the process aborts — a failed
/// check is a bug in this code, not a recoverable input error (input
/// validation returns errors through the validate.h / graph_io paths).
///
/// Contract vs BCCS_DCHECK (DESIGN.md, contract 5): code may NOT rely on a
/// BCCS_DCHECK for safety — release builds skip it entirely — while a
/// passed BCCS_CHECK is a real guarantee downstream code may assume.

// BCCS_DCHECK is live when NDEBUG is off (Debug builds) or when the build
// forces it (the `dev` preset sets BCCS_FORCE_DCHECK so the -Werror static
// analysis build also exercises the debug checks at near-release speed).
#if !defined(NDEBUG) || defined(BCCS_FORCE_DCHECK)
#define BCCS_DCHECK_IS_ON 1
#else
#define BCCS_DCHECK_IS_ON 0
#endif

namespace bccs {
namespace check_internal {

/// Collects the failure message; the destructor prints and aborts. Lives
/// only inside a failing check's full-expression.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* condition);
  [[noreturn]] ~CheckFailure();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Formats "a vs b" for the comparison forms. Out-of-line so the cold
/// failure path adds no code to the caller beyond one call.
template <typename A, typename B>
std::string FormatComparison(const A& a, const B& b) {
  std::ostringstream os;
  os << " (" << a << " vs " << b << ")";
  return os.str();
}

}  // namespace check_internal
}  // namespace bccs

// BCCS_STRIP_CHECKS_FOR_BENCH exists ONLY for the check-overhead benchmark
// (tools/run_bench.sh builds a second copy of the benchmark with it to
// measure what the always-on checks cost). It must never be set for a
// served binary: the safety argument in DESIGN.md contract 5 assumes
// BCCS_CHECK is live.
#if defined(BCCS_STRIP_CHECKS_FOR_BENCH)

#define BCCS_CHECK(condition) \
  while (false) ::bccs::check_internal::CheckFailure(__FILE__, __LINE__, "").stream()
#define BCCS_CHECK_OP_(op, a, b) BCCS_CHECK((a)op(b))

#else  // !BCCS_STRIP_CHECKS_FOR_BENCH

// The for-loop trick: the condition is evaluated once; on failure the loop
// "body" — an expression statement the caller may extend with << — runs with
// a CheckFailure whose destructor aborts (so the loop never iterates). A
// plain statement form keeps it dangling-else safe.
#define BCCS_CHECK(condition)                                          \
  for (bool bccs_check_ok_ = static_cast<bool>(condition); !bccs_check_ok_; \
       bccs_check_ok_ = true)                                          \
  ::bccs::check_internal::CheckFailure(__FILE__, __LINE__, #condition).stream()

#define BCCS_CHECK_OP_(op, a, b)                                              \
  for (bool bccs_check_ok_ = static_cast<bool>((a)op(b)); !bccs_check_ok_;    \
       bccs_check_ok_ = true)                                                 \
  ::bccs::check_internal::CheckFailure(__FILE__, __LINE__, #a " " #op " " #b) \
          .stream()                                                           \
      << ::bccs::check_internal::FormatComparison((a), (b))

#endif  // BCCS_STRIP_CHECKS_FOR_BENCH

#define BCCS_CHECK_EQ(a, b) BCCS_CHECK_OP_(==, a, b)
#define BCCS_CHECK_NE(a, b) BCCS_CHECK_OP_(!=, a, b)
#define BCCS_CHECK_LT(a, b) BCCS_CHECK_OP_(<, a, b)
#define BCCS_CHECK_LE(a, b) BCCS_CHECK_OP_(<=, a, b)
#define BCCS_CHECK_GT(a, b) BCCS_CHECK_OP_(>, a, b)
#define BCCS_CHECK_GE(a, b) BCCS_CHECK_OP_(>=, a, b)

#if BCCS_DCHECK_IS_ON
#define BCCS_DCHECK(condition) BCCS_CHECK(condition)
#define BCCS_DCHECK_EQ(a, b) BCCS_CHECK_EQ(a, b)
#define BCCS_DCHECK_NE(a, b) BCCS_CHECK_NE(a, b)
#define BCCS_DCHECK_LT(a, b) BCCS_CHECK_LT(a, b)
#define BCCS_DCHECK_LE(a, b) BCCS_CHECK_LE(a, b)
#define BCCS_DCHECK_GT(a, b) BCCS_CHECK_GT(a, b)
#define BCCS_DCHECK_GE(a, b) BCCS_CHECK_GE(a, b)
#else
// Compiled out: the condition is type-checked but never evaluated (no side
// effects, no branch). `while (false)` keeps the trailing << legal.
#define BCCS_DCHECK(condition) \
  while (false) BCCS_CHECK(condition)
#define BCCS_DCHECK_EQ(a, b) \
  while (false) BCCS_CHECK_EQ(a, b)
#define BCCS_DCHECK_NE(a, b) \
  while (false) BCCS_CHECK_NE(a, b)
#define BCCS_DCHECK_LT(a, b) \
  while (false) BCCS_CHECK_LT(a, b)
#define BCCS_DCHECK_LE(a, b) \
  while (false) BCCS_CHECK_LE(a, b)
#define BCCS_DCHECK_GT(a, b) \
  while (false) BCCS_CHECK_GT(a, b)
#define BCCS_DCHECK_GE(a, b) \
  while (false) BCCS_CHECK_GE(a, b)
#endif  // BCCS_DCHECK_IS_ON

#endif  // BCCS_COMMON_CHECK_H_
