// Invariant-checking macros for the GeckoFTL library.
//
// The library does not use C++ exceptions (see docs/DESIGN.md §7). Recoverable
// errors are reported through gecko::Status; violated invariants abort the
// process with a source location and message via these macros.

#ifndef GECKOFTL_UTIL_CHECK_H_
#define GECKOFTL_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace gecko {
namespace internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* condition,
                                     const std::string& message) {
  std::fprintf(stderr, "GECKO_CHECK failed at %s:%d: %s%s%s\n", file, line,
               condition, message.empty() ? "" : " — ", message.c_str());
  std::abort();
}

// Accumulates an optional streamed message for GECKO_CHECK.
class CheckMessageBuilder {
 public:
  CheckMessageBuilder(const char* file, int line, const char* condition)
      : file_(file), line_(line), condition_(condition) {}

  [[noreturn]] ~CheckMessageBuilder() {
    CheckFailed(file_, line_, condition_, stream_.str());
  }

  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* condition_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace gecko

// Aborts with a diagnostic when `condition` is false. Supports streaming
// extra context: GECKO_CHECK(x > 0) << "x=" << x;
#define GECKO_CHECK(condition)                                          \
  if (condition) {                                                     \
  } else                                                               \
    ::gecko::internal::CheckMessageBuilder(__FILE__, __LINE__, #condition)

#define GECKO_CHECK_EQ(a, b) GECKO_CHECK((a) == (b))
#define GECKO_CHECK_NE(a, b) GECKO_CHECK((a) != (b))
#define GECKO_CHECK_LT(a, b) GECKO_CHECK((a) < (b))
#define GECKO_CHECK_LE(a, b) GECKO_CHECK((a) <= (b))
#define GECKO_CHECK_GT(a, b) GECKO_CHECK((a) > (b))
#define GECKO_CHECK_GE(a, b) GECKO_CHECK((a) >= (b))

#endif  // GECKOFTL_UTIL_CHECK_H_
