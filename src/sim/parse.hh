/**
 * @file
 * Strict number parsing for every text input: spec files, trace files
 * and the numeric flags of the command-line tools.  Both
 * parsers fail closed — the whole string must be the number — so
 * "8x", "-1", " 3", "0x10" and "inf" are errors, not 8, a wrapped
 * value, 3, 0 or infinity.
 */

#ifndef TSOPER_SIM_PARSE_HH
#define TSOPER_SIM_PARSE_HH

#include <cstdint>
#include <string>

namespace tsoper
{

/**
 * The whole of @p s must be decimal digits (no sign, no whitespace)
 * and the value at most @p max; callers pass their field's type limit
 * so nothing is narrowed after the check.  Returns false, leaving
 * @p out unchanged, otherwise.
 */
bool parseUint(const std::string &s, std::uint64_t *out,
               std::uint64_t max = UINT64_MAX);

/** parseUint for hexadecimal digits (either case, no "0x" prefix): the
 *  form trace files write addresses in. */
bool parseHex(const std::string &s, std::uint64_t *out);

/**
 * Strict finite decimal ("0.5", ".25", "1e-3"): rejects a sign,
 * whitespace, trailing characters, hex, "inf"/"nan" and values out of
 * double's range.  Returns false, leaving @p out unchanged, otherwise.
 */
bool parseDouble(const std::string &s, double *out);

} // namespace tsoper

#endif // TSOPER_SIM_PARSE_HH
