/**
 * @file
 * Strict unsigned-integer parsing shared by environment knobs and
 * command-line flags.
 *
 * std::strtoull silently returns 0 for garbage and wraps negative
 * input, so a typo like AMNT_BENCH_INSTR=2m would quietly run a
 * 2-instruction benchmark. parseU64 instead rejects anything that is
 * not a complete non-negative decimal integer within the caller's
 * range; envU64 warns on stderr and falls back to the caller's
 * default, flagU64 stops the program.
 */

#ifndef AMNT_COMMON_ENV_HH
#define AMNT_COMMON_ENV_HH

#include <cstdint>
#include <limits>
#include <optional>

namespace amnt
{

/**
 * @p text parsed as an unsigned decimal integer no larger than
 * @p max; nullopt when it is empty, signed, has trailing garbage or
 * lies outside [0, max]. Leading blanks are allowed.
 */
std::optional<std::uint64_t>
parseU64(const char *text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Value of environment variable @p name parsed with parseU64;
 * @p fallback when unset. A malformed value (or overflow past
 * 2^64-1) produces one stderr warning and the fallback.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/**
 * Value of command-line flag @p flag (`--flag=text`) parsed with
 * parseU64; fatal() names the flag and the accepted range when
 * @p text is malformed or above @p max.
 */
std::uint64_t
flagU64(const char *flag, const char *text,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace amnt

#endif // AMNT_COMMON_ENV_HH
