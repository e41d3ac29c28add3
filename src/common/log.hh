/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * panic() aborts on internal invariant violations (library bugs);
 * fatal() exits on unusable user configuration; warn() prints without
 * stopping the simulation.
 */

#ifndef AMNT_COMMON_LOG_HH
#define AMNT_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace amnt
{

/** Abort with a formatted message; for internal invariant violations. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; for unusable user configuration. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr and continue. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn() output (used by tests). */
void setQuiet(bool quiet);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace amnt

#endif // AMNT_COMMON_LOG_HH
