#!/usr/bin/env python3
"""Generate src/io/pow10_table.hpp, the 128-bit powers of ten of the
shortest-digits number kernel (src/io/number_format.cpp).

Usage (from the repository root; takes no arguments):

    python3 tools/gen_pow10_table.py            # rewrite the header

For every decimal exponent k in [K_MIN, K_MAX] the table holds
g = floor(10^-k * 2^(125 - floor(log2(10^-k)))) + 1, the 126-bit
over-approximation of 10^-k that Schubfach's round-to-odd product needs
(Giulietti, "The Schubfach way to render doubles", 2020), split as
g = g1 * 2^63 + g0 with 0 <= g0 < 2^63.  The arithmetic is exact
(Python integers and fractions), and the script first checks that the
kernel's integer approximations of floor(log10(2^e)) and floor(log2(10^e))
are exact over every exponent the kernel meets.  The header is checked in,
and CI regenerates it and fails on any difference.
"""

import os
import sys
from fractions import Fraction

K_MIN = -324  # the smallest k a double's 17-digit window needs
K_MAX = 292   # the largest

HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.path.join(os.path.dirname(HERE), "src", "io", "pow10_table.hpp")


def floor_log2(x):
    """floor(log2(x)) of a positive Fraction, exactly."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    # 2^(e-1) < x < 2^(e+1): settle which side of 2^e it is on.
    if Fraction(2) ** e > x:
        e -= 1
    return e


def floor_log10(x):
    """floor(log10(x)) of a positive Fraction, exactly."""
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def check_log_approximations():
    """The kernel's integer forms of floor(log10(2^e)), floor(log10(3/4 *
    2^e)) and floor(log2(10^e)) are exact over every exponent it meets."""
    for e in range(-1100, 1100):
        two = Fraction(2) ** e
        assert (e * 661971961083) >> 41 == floor_log10(two), e
        assert (e * 661971961083 - 274743187321) >> 41 == floor_log10(Fraction(3, 4) * two), e
    for e in range(-K_MAX - 1, -K_MIN + 2):
        assert (e * 913124641741) >> 38 == floor_log2(Fraction(10) ** e), e


def entry(k):
    p = Fraction(10) ** -k
    beta = p * Fraction(2) ** (125 - floor_log2(p))
    assert Fraction(2) ** 125 <= beta < Fraction(2) ** 126
    g = beta.numerator // beta.denominator + 1
    return g >> 63, g & ((1 << 63) - 1)


def header():
    lines = [
        "// Generated by tools/gen_pow10_table.py -- do not edit by hand.",
        "#ifndef GREENFPGA_IO_POW10_TABLE_HPP",
        "#define GREENFPGA_IO_POW10_TABLE_HPP",
        "",
        "/// \\file pow10_table.hpp",
        "/// floor(10^-k * 2^(125 - floor(log2(10^-k)))) + 1 as {g1, g0}, g1 * 2^63 + g0,",
        "/// for k in [kPow10MinK, kPow10MaxK] (see tools/gen_pow10_table.py).",
        "",
        "#include <cstdint>",
        "",
        "namespace greenfpga::io::detail {",
        "",
        "inline constexpr int kPow10MinK = %d;" % K_MIN,
        "inline constexpr int kPow10MaxK = %d;" % K_MAX,
        "",
        "inline constexpr std::uint64_t kPow10Table[%d][2] = {" % (K_MAX - K_MIN + 1),
    ]
    for k in range(K_MIN, K_MAX + 1):
        g1, g0 = entry(k)
        lines.append("    {0x%016x, 0x%016x},  // %d" % (g1, g0, k))
    lines += [
        "};",
        "",
        "}  // namespace greenfpga::io::detail",
        "",
        "#endif  // GREENFPGA_IO_POW10_TABLE_HPP",
        "",
    ]
    return "\n".join(lines)


def main():
    if sys.argv[1:]:
        sys.exit(__doc__)
    check_log_approximations()
    with open(TARGET, "w", encoding="ascii", newline="\n") as out:
        out.write(header())


if __name__ == "__main__":
    main()
