#include "src/base/check.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace vscale {

namespace {

thread_local InvariantHandler t_handler;  // empty = default print-and-abort

}  // namespace

InvariantHandler SetInvariantHandler(InvariantHandler handler) {
  return std::exchange(t_handler, std::move(handler));
}

ViolationCapture::ViolationCapture()
    : previous_(SetInvariantHandler(
          [this](const InvariantViolation& v) { reports_.push_back(v); })) {}

ViolationCapture::~ViolationCapture() { SetInvariantHandler(std::move(previous_)); }

namespace check_internal {

void Fail(const char* expr, const char* file, int line, const char* fmt, ...) {
  InvariantViolation v;
  v.expr = expr;
  v.file = file;
  v.line = line;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  v.message = buf;
  if (t_handler) {
    t_handler(v);
    return;
  }
  std::fprintf(stderr, "INVARIANT VIOLATION at %s:%d\n  check:   %s\n  detail:  %s\n",
               file, line, expr, buf);
  std::abort();
}

}  // namespace check_internal

}  // namespace vscale
