#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace amnt
{

std::optional<std::uint64_t>
parseU64(const char *text, std::uint64_t max)
{
    // Reject signs outright: strtoull accepts "-2" and wraps it.
    const char *p = text;
    while (*p == ' ' || *p == '\t')
        ++p;
    if (*p == '-' || *p == '+' || *p == '\0')
        return std::nullopt;

    errno = 0;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || parsed > max)
        return std::nullopt;
    return parsed;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return fallback;
    const std::optional<std::uint64_t> parsed = parseU64(v);
    if (!parsed) {
        warn("%s=\"%s\" is not a valid unsigned integer; using %llu",
             name, v, static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return *parsed;
}

std::uint64_t
flagU64(const char *flag, const char *text, std::uint64_t max)
{
    const std::optional<std::uint64_t> parsed = parseU64(text, max);
    if (!parsed)
        fatal("%s wants a decimal integer in [0, %llu], got '%s'", flag,
              static_cast<unsigned long long>(max), text);
    return *parsed;
}

} // namespace amnt
