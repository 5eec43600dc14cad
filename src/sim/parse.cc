#include "sim/parse.hh"

#include <cerrno>
#include <cstdlib>

namespace tsoper
{

bool
parseUint(const std::string &s, std::uint64_t *out, std::uint64_t max)
{
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        return false;
    *out = v;
    return true;
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
