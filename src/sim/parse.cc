#include "sim/parse.hh"

#include <cerrno>
#include <cstdlib>

namespace tsoper
{

namespace
{

bool
parseDigits(const std::string &s, const char *digits, int base,
            std::uint64_t *out, std::uint64_t max)
{
    if (s.empty() || s.find_first_not_of(digits) != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, base);
    if (errno == ERANGE || v > max)
        return false;
    *out = v;
    return true;
}

} // namespace

bool
parseUint(const std::string &s, std::uint64_t *out, std::uint64_t max)
{
    return parseDigits(s, "0123456789", 10, out, max);
}

bool
parseHex(const std::string &s, std::uint64_t *out)
{
    return parseDigits(s, "0123456789abcdefABCDEF", 16, out, UINT64_MAX);
}

bool
parseDouble(const std::string &s, double *out)
{
    // A digit or '.' first and no letter but the exponent's: no sign,
    // whitespace, hex, "inf" or "nan" reaches strtod.
    if (s.find_first_of("0123456789.") != 0 ||
        s.find_first_not_of("0123456789.eE+-") != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

} // namespace tsoper
