#include "sim/debug.hh"

#include <array>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "sim/log.hh"

namespace tsoper::debug
{

namespace
{

constexpr auto numFlags = static_cast<unsigned>(Flag::NumFlags);

std::array<bool, numFlags> flags_{};
bool initialized_ = false;
std::ostream *stream_ = nullptr;

constexpr const char *names_[numFlags] = {
    "slc", "mesi", "ag", "agb", "bsp", "hwrp", "cpu",
};

/** Read TSOPER_DEBUG on first use.  A function-local static makes
 *  the first use race-free when campaign job threads start
 *  simulations concurrently. */
void
ensureInit()
{
    static const bool once = (initFromEnv(), true);
    (void)once;
}

} // namespace

const char *
flagName(Flag flag)
{
    return names_[static_cast<unsigned>(flag)];
}

void
setFlags(const std::string &csv)
{
    // Parse into a scratch set first so a fatal unknown-flag error
    // leaves the active flags untouched.
    std::array<bool, numFlags> next{};
    std::size_t pos = 0;
    while (pos <= csv.size() && !csv.empty()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        if (tok == "all") {
            next.fill(true);
        } else if (!tok.empty()) {
            bool known = false;
            for (unsigned f = 0; f < numFlags; ++f) {
                if (tok == names_[f]) {
                    next[f] = true;
                    known = true;
                }
            }
            if (!known) {
                std::string valid = "all";
                for (unsigned f = 0; f < numFlags; ++f)
                    valid += std::string(",") + names_[f];
                tsoper_fatal("unknown debug flag '", tok,
                             "' (valid: ", valid, ")");
            }
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    initialized_ = true;
    flags_ = next;
}

std::string
flagsCsv()
{
    ensureInit();
    std::string csv;
    for (unsigned f = 0; f < numFlags; ++f) {
        if (!flags_[f])
            continue;
        if (!csv.empty())
            csv += ',';
        csv += names_[f];
    }
    return csv;
}

std::vector<std::string>
flagNames()
{
    return {names_, names_ + numFlags};
}

void
initFromEnv()
{
    if (initialized_)
        return;
    initialized_ = true;
    if (const char *env = std::getenv("TSOPER_DEBUG"))
        setFlags(env);
}

bool
enabled(Flag flag)
{
    ensureInit();
    return flags_[static_cast<unsigned>(flag)];
}

void
setStream(std::ostream *os)
{
    stream_ = os;
}

void
emit(Flag flag, Cycle when, const std::string &message)
{
    std::ostream &os = stream_ ? *stream_ : std::cerr;
    os << "[" << std::setw(10) << when << "] " << flagName(flag) << ": "
       << message << "\n";
}

} // namespace tsoper::debug
