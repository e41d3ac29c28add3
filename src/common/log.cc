#include "common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace amnt
{

namespace
{

bool quietMode = false;

std::string
vformat(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::string out(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

} // namespace

void
setQuiet(bool quiet)
{
    quietMode = quiet;
}

[[noreturn]] void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

[[noreturn]] void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietMode)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    return msg;
}

} // namespace amnt
