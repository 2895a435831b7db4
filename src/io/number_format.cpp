/// \file number_format.cpp
/// The canonical number text (see `detail::format_number_to` in
/// json_detail.hpp): one shortest-digits kernel that writes printf's %g
/// presentation directly, behind a per-thread memo.
///
/// The canonical form is defined by the historical probe loop: integral
/// values below 1e15 in fixed form, otherwise printf %g at the smallest
/// precision in [6, 17] that parses back to the same double.  For a
/// finite double whose shortest round-trip digit string D has L >= 6
/// digits, that precision is L and %.Lg prints D whenever the correctly
/// rounded L digits are D -- the nearest L-digit decimal is in the
/// rounding interval when any is, unless the interval is lopsided (a
/// power of two's reaches half as far below it as above), where the loop
/// may need one digit more (`probe_digits`).  For L < 6 the loop stops at
/// %.6g, the exact value's correctly rounded 6 digits: D padded with
/// zeros for every normal double (its rounding interval is far narrower
/// than one unit in the sixth digit), but not for a subnormal, where
/// 5e-324 prints as 4.94066e-324 -- so those few go to snprintf.
///
/// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
/// render doubles", 2020; the algorithm of Java's Double.toString): one
/// 64x128-bit round-to-odd product for the double and each end of its
/// rounding interval against a table of 126-bit powers of ten
/// (pow10_table.hpp, generated by tools/gen_pow10_table.py), then a
/// choice among four candidates.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "io/json.hpp"
#include "io/json_detail.hpp"
#include "io/pow10_table.hpp"

namespace greenfpga::io {

namespace detail {

namespace {

__extension__ using Uint128 = unsigned __int128;

// -- Schubfach ---------------------------------------------------------------------

constexpr int kSignificandBits = 52;                  ///< stored mantissa bits
constexpr std::uint64_t kHiddenBit = std::uint64_t{1} << kSignificandBits;
constexpr int kMinExponent = -1074;                   ///< q of the subnormals
constexpr std::uint64_t kMask63 = (std::uint64_t{1} << 63) - 1;

// Integer forms of three logarithms, exact over every exponent used here
// (tools/gen_pow10_table.py checks them before it writes the table).

/// floor(e * log10(2)).
constexpr int floor_log10_pow2(int e) {
  return static_cast<int>((std::int64_t{e} * 661'971'961'083) >> 41);
}
/// floor(e * log10(2) + log10(3/4)).
constexpr int floor_log10_three_quarters_pow2(int e) {
  return static_cast<int>((std::int64_t{e} * 661'971'961'083 - 274'743'187'321) >> 41);
}
/// floor(e * log2(10)).
constexpr int floor_log2_pow10(int e) {
  return static_cast<int>((std::int64_t{e} * 913'124'641'741) >> 38);
}

/// g * cp / 2^127 rounded to odd, g = g1 * 2^63 + g0 (Schubfach's r_o').
std::uint64_t round_to_odd(std::uint64_t g1, std::uint64_t g0, std::uint64_t cp) {
  const auto x1 = static_cast<std::uint64_t>((Uint128{g0} * cp) >> 64);
  const Uint128 y = Uint128{g1} * cp;
  const std::uint64_t z = (static_cast<std::uint64_t>(y) >> 1) + x1;
  const std::uint64_t vbp = static_cast<std::uint64_t>(y >> 64) + (z >> 63);
  return vbp | (((z & kMask63) + kMask63) >> 63);
}

/// A decimal f * 10^e.
struct Decimal {
  std::uint64_t f;
  int e;
};

/// The decimal printf's %g probe loop settles on for c * 2^q, c >= 3 (so
/// that s below has at least two digits): the shortest decimal in the
/// double's rounding interval, the closer one when two are, the even one
/// on a tie -- except where a power of two's interval, which reaches half
/// as far below it as above, holds only the upper of two neighbours and
/// the lower one is nearer.  There the correctly rounded digits at that length do not
/// round-trip, and the loop takes the correctly rounded digits one
/// longer, which always do.  `f` may carry trailing zeros.
///
/// `kSymmetric` instantiates the kernel for the doubles nearly every
/// number is, a normal double that is not a power of two: its interval
/// is symmetric and s has 16 or 17 digits, so the checks the other
/// doubles need compile away.
template <bool kSymmetric>
Decimal probe_digits(int q, std::uint64_t c) {
  const std::uint64_t out = c & 1;  // an odd c's interval is open
  const std::uint64_t cb = c << 2;
  const bool regular = kSymmetric || c != kHiddenBit || q == kMinExponent;
  const std::uint64_t cbl = regular ? cb - 2 : cb - 1;
  const int k = regular ? floor_log10_pow2(q) : floor_log10_three_quarters_pow2(q);
  const int h = q + floor_log2_pow10(-k) + 2;
  const std::uint64_t* const g = kPow10Table[k - kPow10MinK];
  const std::uint64_t vb = round_to_odd(g[0], g[1], cb << h);
  const std::uint64_t vbl = round_to_odd(g[0], g[1], cbl << h);
  const std::uint64_t vbr = round_to_odd(g[0], g[1], (cb + 2) << h);
  // s = floor(v / 10^k) has 16 or 17 digits for a normal double, and
  // 4 v / 10^k is about vb.  Which case below applies is a coin flip per
  // number, so the choice is made with masks, not branches.
  const std::uint64_t s = vb >> 2;
  const std::uint64_t t = s + 1;
  // One digit fewer, when exactly one of those neighbours is in.
  const std::uint64_t sp10 = s / 10 * 10;
  const std::uint64_t upin = vbl + out <= sp10 << 2;
  const std::uint64_t wpin = ((sp10 + 10) << 2) + out <= vbr;
  const std::uint64_t coarse = sp10 + 10 - 10 * upin;
  const std::uint64_t use_coarse = 0 - ((upin ^ wpin) & std::uint64_t{kSymmetric || s >= 100});
  // Else s or t: the one in the interval, or the nearer when both are.
  const std::uint64_t uin = vbl + out <= s << 2;
  const std::uint64_t win = (t << 2) + out <= vbr;
  const std::uint64_t mid = (s + t) << 1;
  const std::uint64_t nearer_s = std::uint64_t{vb < mid} | (std::uint64_t{vb == mid} & ~s & 1);
  const std::uint64_t pick_s = (uin & (win ^ 1)) | ((uin ^ win ^ 1) & nearer_s);
  if (!regular) [[unlikely]] {
    // Only the upper neighbour is in, yet the lower one is nearer: the
    // correctly rounded digits at that length miss the interval, so %g
    // takes the nearest with one digit more -- unless the upper one ends
    // in a zero, which makes it the nearest at its own, shorter length.
    const std::uint64_t half = (sp10 + 5) << 2;
    const bool lower_nearer = vb < half || (vb == half && (sp10 / 10 & 1) == 0);
    if (use_coarse != 0 && upin == 0 && lower_nearer && coarse % 100 != 0) {
      return {t - nearer_s, k};
    }
    if (use_coarse == 0 && uin == 0 && win != 0 && nearer_s != 0 && t % 10 != 0) {
      // The nearest with one digit more: 40 c fits the product here,
      // since a power of two's c is 2^52 and h <= 5.
      const std::uint64_t vb10 = round_to_odd(g[0], g[1], (10 * cb) << h);
      const std::uint64_t s10 = vb10 >> 2;
      return {vb10 < ((2 * s10 + 1) << 1) ? s10 : s10 + 1, k - 1};
    }
  }
  return {(coarse & use_coarse) | ((t - pick_s) & ~use_coarse), k};
}

// -- presentation ------------------------------------------------------------------
//
// The digits are written at a fixed width and moved with fixed-size
// copies: the bytes past a form's end are scratch, in the digit buffer as
// in the caller's kNumberBufferSize output.

constexpr char kDigitPairs[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

constexpr std::uint64_t kPow10[18] = {
    1,           10,           100,           1'000,           10'000,           100'000,
    1'000'000,   10'000'000,   100'000'000,   1'000'000'000,   10'000'000'000,   100'000'000'000,
    1'000'000'000'000, 10'000'000'000'000, 100'000'000'000'000, 1'000'000'000'000'000,
    10'000'000'000'000'000, 100'000'000'000'000'000};

/// The digit count of `v` < 10^17 (1 for 0).
int digit_count(std::uint64_t v) {
  v |= 1;  // moves v across no power of ten
  const int bits = 64 - std::countl_zero(v);
  const int n = (bits * 1233) >> 12;  // floor(bits * log10(2)) <= 17
  return n + (v >= kPow10[n] ? 1 : 0);
}

/// The 8 decimal digits of `v` < 10^8 as ASCII bytes, the first digit in
/// the low byte: the two 4-digit halves, then their 2-digit quarters,
/// then the single digits are split in parallel lanes of one register by
/// multiplications that divide exactly in their ranges (x * 10486 >> 20
/// is x / 100 for x < 10^4, x * 103 >> 10 is x / 10 for x < 100).
std::uint64_t eight_digits(std::uint32_t v) {
  const std::uint64_t halves = v / 10'000 | std::uint64_t{v % 10'000} << 32;
  const std::uint64_t high_pairs = ((halves * 10'486) >> 20) & 0x0000'007F'0000'007F;
  const std::uint64_t pairs = (halves - 100 * high_pairs) << 16 | high_pairs;
  const std::uint64_t tens = ((pairs * 103) >> 10) & 0x000F'000F'000F'000F;
  return (tens | (pairs - 10 * tens) << 8) + 0x3030'3030'3030'3030;
}

/// Room for the 17 digits and the fixed-size copies that read past them.
constexpr std::size_t kDigitBuffer = 40;

/// The 17 decimal digits of `v` < 10^17, zero-padded, then eight '0's;
/// returns how many of the 17 digits are trailing zeros (fewer than 17
/// unless v is 0).
int seventeen_digits(char* p, std::uint64_t v) {
  static_assert(std::endian::native == std::endian::little);
  const auto high = static_cast<std::uint32_t>(v / 100'000'000);  // < 10^9
  const std::uint64_t middle = eight_digits(high % 100'000'000);
  const std::uint64_t low = eight_digits(static_cast<std::uint32_t>(v % 100'000'000));
  *p = static_cast<char>('0' + high / 100'000'000);
  std::memcpy(p + 1, &middle, 8);
  std::memcpy(p + 9, &low, 8);
  std::memcpy(p + 17, "00000000", 8);
  // A '0' byte less '0' is zero, and the last digit is the top byte.
  constexpr std::uint64_t kZeros = 0x3030'3030'3030'3030;
  if (low != kZeros) {
    return std::countl_zero(low - kZeros) / 8;
  }
  if (middle != kZeros) {
    return 8 + std::countl_zero(middle - kZeros) / 8;
  }
  return *p == '0' ? 17 : 16;
}

/// The significant digits `d[0, len)` times 10^x at `p`, in printf's %g
/// presentation at precision max(len, 6) with %g's trailing zeros
/// stripped: scientific when x < -4 or x >= the precision, else fixed.
/// `d` points into a `seventeen_digits` buffer, so 17 bytes are readable
/// from any digit and zeros follow the significant ones.  Returns the end.
char* present(char* p, const char* d, int len, int x) {
  const int precision = len > 6 ? len : 6;
  if (x < -4 || x >= precision) {
    p[0] = d[0];
    p[1] = '.';
    std::memcpy(p + 2, d + 1, 16);
    p += len > 1 ? len + 1 : 1;
    p[0] = 'e';
    p[1] = x < 0 ? '-' : '+';
    const unsigned magnitude = static_cast<unsigned>(x < 0 ? -x : x);
    if (magnitude >= 100) {
      p[2] = static_cast<char>('0' + magnitude / 100);
      std::memcpy(p + 3, kDigitPairs + 2 * (magnitude % 100), 2);
      return p + 5;
    }
    std::memcpy(p + 2, kDigitPairs + 2 * magnitude, 2);
    return p + 4;
  }
  if (x < 0) {
    const int zeros = -x - 1;  // <= 3
    std::memcpy(p, "0.000", 5);
    std::memcpy(p + 2 + zeros, d, 17);
    return p + 2 + zeros + len;
  }
  // x < precision <= 17: at most 17 integer digits, which the digit
  // buffer holds (zeros past the significant ones).
  const int integer_digits = x + 1;
  std::memcpy(p, d, 17);
  if (len <= integer_digits) {
    return p + integer_digits;
  }
  p[integer_digits] = '.';
  std::memcpy(p + integer_digits + 1, d + integer_digits, 16);
  return p + len + 1;
}

/// printf's %.6g of `n`: the canonical form of a subnormal whose shortest
/// digits are fewer than 6.
std::size_t print_exact(char* buffer, double n) {
  return static_cast<std::size_t>(std::snprintf(buffer, kNumberBufferSize, "%.6g", n));
}

/// The canonical formatter proper; `format_number_to` memoises it.
std::size_t format_number_uncached(char* buffer, double n) {
  if (!std::isfinite(n)) {
    // The canonical non-finite text tokens (quoted by the JSON writer,
    // bare in CSV); parse back via Json::as_number_total.
    if (std::isnan(n)) {
      std::memcpy(buffer, "nan", 3);
      return 3;
    }
    if (n > 0.0) {
      std::memcpy(buffer, "inf", 3);
      return 3;
    }
    std::memcpy(buffer, "-inf", 4);
    return 4;
  }
  const auto bits = std::bit_cast<std::uint64_t>(n);
  char* p = buffer;
  if ((bits >> 63) != 0) {
    *p++ = '-';
  }
  char digits[kDigitBuffer] = {};
  const double magnitude = std::fabs(n);
  // Integral values print without a fraction for readability ("-0" keeps
  // its sign).  The cast is defined once the magnitude is known small.
  const auto integer = magnitude < 1e15 ? static_cast<std::uint64_t>(magnitude) : 0;
  if (static_cast<double>(integer) == magnitude) {
    const int count = digit_count(integer);
    seventeen_digits(digits, integer);
    std::memcpy(p, digits + 17 - count, 16);
    return static_cast<std::size_t>(p + count - buffer);
  }
  const std::uint64_t t = bits & (kHiddenBit - 1);
  const auto biased = static_cast<int>((bits >> kSignificandBits) & 0x7FF);
  // A subnormal's %.6g digits are those of its exact value, not its
  // shortest digits padded; the two smallest (5e-324 and 1e-323) have one.
  if (biased == 0 && t < 3) {
    return print_exact(buffer, n);
  }
  Decimal decimal{};
  if (biased != 0 && t != 0) [[likely]] {
    decimal = probe_digits<true>(biased + kMinExponent - 1, kHiddenBit | t);
  } else if (biased != 0) {
    decimal = probe_digits<false>(biased + kMinExponent - 1, kHiddenBit);
  } else {
    decimal = probe_digits<false>(kMinExponent, t);
  }
  if (decimal.f >= kPow10[17]) [[unlikely]] {
    decimal.f /= 10;  // t = 10^17 when s = 10^17 - 1
    ++decimal.e;
  }
  const int count = digit_count(decimal.f);
  const int len = count - seventeen_digits(digits, decimal.f);
  const char* const d = digits + 17 - count;
  if (len < 6 && biased == 0) {
    return print_exact(buffer, n);
  }
  return static_cast<std::size_t>(present(p, d, len, decimal.e + count - 1) - buffer);
}

// -- memo -----------------------------------------------------------------------

/// One memo slot: a tag naming the double it holds, and that double's
/// canonical bytes (the bytes past its length are stale).
///
/// The tag is the low kTagBits bits of the double's `number_memo_hash`
/// with the form's length above them.  The hash is a bijection and the
/// slot index is its top bits, so within one slot the low bits alone name the
/// double, and the top bits are free to carry the length: a lookup is one
/// xor and a mask test, with no scan for the end of the bytes.  An empty
/// slot's tag is 0, whose length reads 0: a miss.
struct NumberMemoSlot {
  std::uint64_t tag = 0;
  char text[kMaxNumberBytes] = {};
};
static_assert(sizeof(NumberMemoSlot) == 32);

constexpr int kTagBits = 64 - kNumberMemoBits;
constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagBits) - 1;
static_assert(kMaxNumberBytes < (std::size_t{1} << kNumberMemoBits));

/// Per-thread, so pool workers writing chunks never share a slot.
thread_local NumberMemoSlot number_memo[kNumberMemoSlots];

/// The slot's text length, or 0 when it does not hold the double whose
/// hash is `hash`.
[[nodiscard]] std::size_t memo_hit(const NumberMemoSlot& slot, std::uint64_t hash) {
  const std::uint64_t diff = slot.tag ^ (hash & kTagMask);
  return (diff & kTagMask) == 0 ? static_cast<std::size_t>(diff >> kTagBits) : 0;
}

}  // namespace

std::size_t format_number_to(char* buffer, double n) {
  const std::uint64_t hash = number_memo_hash(std::bit_cast<std::uint64_t>(n));
  NumberMemoSlot& slot = number_memo[hash >> kTagBits];
  if (const std::size_t size = memo_hit(slot, hash)) {
    // One fixed-size copy of the whole text field: the bytes past the
    // length land where `buffer` is scratch.
    std::memcpy(buffer, slot.text, kMaxNumberBytes);
    return size;
  }
  const std::size_t size = format_number_uncached(buffer, n);
  if (size <= kMaxNumberBytes) {
    slot.tag = (hash & kTagMask) | (static_cast<std::uint64_t>(size) << kTagBits);
    std::memcpy(slot.text, buffer, kMaxNumberBytes);  // the tail is scratch
  }
  return size;
}

std::string_view memoised_number(double n) {
  const std::uint64_t hash = number_memo_hash(std::bit_cast<std::uint64_t>(n));
  const NumberMemoSlot& slot = number_memo[hash >> kTagBits];
  return {slot.text, memo_hit(slot, hash)};
}

}  // namespace detail

std::string format_number(double n) {
  char buffer[detail::kNumberBufferSize];
  return std::string(buffer, detail::format_number_to(buffer, n));
}

}  // namespace greenfpga::io
