// Runtime invariant checking for the simulation stack.
//
// VS_INVARIANT(cond, fmt, ...) is the checked-build counterpart of assert(): it
// verifies a scheduler/kernel/sim invariant and reports a formatted, contextual
// message when it fails (docs/CHECKING.md):
//  * when the VSCALE_CHECKED CMake option is OFF (the default), every hook
//    compiles to nothing — arguments are never evaluated, so checked and
//    unchecked builds replay bit-identically;
//  * when ON, a failing condition formats its message and reaches the calling
//    thread's InvariantHandler. The default handler prints to stderr and
//    aborts; tests and the fuzz oracle hold a ViolationCapture to assert that a
//    deliberately corrupted state is detected with a useful message
//    (tests/check_test.cc).
//
// Checks must be read-only: they may inspect simulation state but never mutate
// it and never touch the RNG, so a checked binary that encounters no violation
// produces exactly the results of an unchecked one (the digest harness in
// tools/digest_run verifies this property end to end).
//
// The invariant catalog and its mapping to the paper's algorithms lives in
// docs/CHECKING.md.

#ifndef VSCALE_SRC_BASE_CHECK_H_
#define VSCALE_SRC_BASE_CHECK_H_

#include <functional>
#include <string>
#include <vector>

// Compiled-in default when built outside CMake; the VSCALE_CHECKED option
// controls it.
#ifndef VSCALE_CHECKED
#define VSCALE_CHECKED 0
#endif

namespace vscale {

struct InvariantViolation {
  const char* expr = nullptr;  // the failed condition, stringified
  const char* file = nullptr;
  int line = 0;
  std::string message;  // formatted context ("dom 0 vcpu 2 credit=...")
};

// Receives every invariant violation. Returning (instead of aborting) lets
// tests drive the simulation past a deliberately corrupted state and inspect
// the reports; production handlers should treat a violation as fatal.
using InvariantHandler = std::function<void(const InvariantViolation&)>;

// The handler belongs to the calling thread: a report reaches the handler of
// the thread that raised it, so runs on different threads cannot see each
// other's violations.
//
// Installs `handler` for the calling thread and returns its previous one.
// Passing nullptr restores the default print-and-abort behaviour.
InvariantHandler SetInvariantHandler(InvariantHandler handler);

// Keeps the calling thread's reports instead of aborting, from construction
// until destruction, when the previous handler is restored. Reports raised on
// other threads are not seen.
class ViolationCapture {
 public:
  ViolationCapture();
  ~ViolationCapture();
  ViolationCapture(const ViolationCapture&) = delete;
  ViolationCapture& operator=(const ViolationCapture&) = delete;

  const std::vector<InvariantViolation>& reports() const { return reports_; }

 private:
  std::vector<InvariantViolation> reports_;
  InvariantHandler previous_;  // the thread's handler before this capture
};

namespace check_internal {
// Formats the message and dispatches to the calling thread's handler
// (default: print to stderr, abort).
[[gnu::format(printf, 4, 5)]] void Fail(const char* expr, const char* file,
                                        int line, const char* fmt, ...);
}  // namespace check_internal

// Always-on counterpart of VS_INVARIANT for validating user-supplied
// configuration (DaemonConfig, WatchdogConfig, ...): a nonsensical config is an
// input error, not a simulation-state corruption, so it must be reported in every
// build flavour — silently misbehaving in release while aborting in checked would
// itself be a replay divergence. Dispatches through the same handler machinery, so
// tests capture it exactly like an invariant.
#define VS_REQUIRE(cond_, ...)                                                \
  do {                                                                        \
    if (!(cond_)) {                                                           \
      ::vscale::check_internal::Fail(#cond_, __FILE__, __LINE__,              \
                                     __VA_ARGS__);                            \
    }                                                                         \
  } while (0)

#if VSCALE_CHECKED

// True in builds that compile the invariant hooks; use to gate whole-state scan
// functions whose cost would be unacceptable even as dead branches.
#define VSCALE_CHECKED_ACTIVE() 1

#define VS_INVARIANT(cond_, ...)                                              \
  do {                                                                        \
    if (!(cond_)) {                                                           \
      ::vscale::check_internal::Fail(#cond_, __FILE__, __LINE__,              \
                                     __VA_ARGS__);                            \
    }                                                                         \
  } while (0)

#else  // !VSCALE_CHECKED: hooks compile to nothing; arguments never evaluated.

#define VSCALE_CHECKED_ACTIVE() 0
#define VS_INVARIANT(...) ((void)0)

#endif  // VSCALE_CHECKED

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_CHECK_H_
