/* Compiled line parser and row writer for stst.data.

   The parser (stst_parse_lines) reads a whole buffer of lines of a strict
   subset of the sparse labeled text format, or refuses the buffer if one
   line is outside it; the Python per-line parser then reads every line of
   that buffer, under its true line number. The subset: ASCII only, tokens
   separated by spaces and tabs, lines ending in '\n' (or the end of the
   buffer); a label that reads as exactly
   1, -1 or 0; indices [+]?[0-9]+ that ascend strictly from 1 and fit in
   int64; values [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?. Every line in the
   subset reads to the same numbers as in Python: strtod and float() both
   round correctly (a value past the double range reads as inf in both,
   and parse_sparse refuses it after the whole input is read), and
   strtod_l reads in the "C" locale, whatever locale the caller has set.

   The writer (stst_format_rows) writes whole lines, byte for byte as
   serialize_sparse's Python reference does with repr(). Each finite
   double gets its shortest decimal digits that read back to it, the
   nearest such digits when there are several, by Ryu (Adams, "Ryu: fast
   float-to-string conversion", PLDI 2018), and float.__repr__'s layout.
   The algorithm's tables of powers of five are passed in by the caller
   (stst.data builds them from Python's exact integers), so the writer
   keeps no state of its own. It needs a compiler with unsigned
   __int128. */
#define _GNU_SOURCE
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static locale_t c_locale;

__attribute__((constructor)) static void open_c_locale(void)
{
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

static int is_blank(char c) { return c == ' ' || c == '\t'; }

/* The end of the decimal number at s, or s itself if there is none.
   An exponent marker with no digits after it is left unread. */
static const char *decimal_end(const char *s, const char *end)
{
    const char *p = s, *q;
    int whole = 0, frac = 0;
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    for (; p < end && is_digit(*p); p++)
        whole = 1;
    if (p < end && *p == '.')
        for (p++; p < end && is_digit(*p); p++)
            frac = 1;
    if (!whole && !frac)
        return s;
    if (p < end && (*p == 'e' || *p == 'E')) {
        q = p + 1;
        if (q < end && (*q == '+' || *q == '-'))
            q++;
        if (q < end && is_digit(*q)) {
            while (q < end && is_digit(*q))
                q++;
            p = q;
        }
    }
    return p;
}

/* Reads the number at *p into *value and moves *p past it; 0 unless the
   whole token up to a blank, '\n' or the end is one decimal number. The
   buffer ends in a byte that no number continues into, so strtod_l reads
   no further than decimal_end. */
static int read_decimal(const char **p, const char *end, double *value)
{
    const char *e = decimal_end(*p, end);
    char *stop;
    if (e == *p || (e < end && !is_blank(*e) && *e != '\n'))
        return 0;
    *value = strtod_l(*p, &stop, c_locale);
    if (stop != e)
        return 0;
    *p = e;
    return 1;
}

/* Parses the lines of buf[0:len]. Row r gets labels[r] (+1 or -1) and
   ends[r], base plus the entries read so far; entries go to cols (0-based)
   and vals. The caller gives room for one row more than there are '\n' in
   the buffer and for an entry per ':', and buf[len] must exist and end
   every number (a bytes object's trailing NUL does). Returns the rows read
   when every line is in the subset, else -1: the buffer is read whole or
   not at all. */
int64_t stst_parse_lines(const char *buf, int64_t len, int64_t base, int64_t *labels, int64_t *ends, int64_t *cols,
                         double *vals)
{
    const char *p = buf, *end = buf + len;
    int64_t rows = 0, k = 0;
    if (c_locale == (locale_t)0)
        return -1;
    while (p < end) {
        int64_t prev = 0;
        double label;
        while (p < end && is_blank(*p))
            p++;
        if (!read_decimal(&p, end, &label) || !(label == 1.0 || label == -1.0 || label == 0.0))
            return -1;
        for (;;) {
            int64_t index = 0;
            while (p < end && is_blank(*p))
                p++;
            if (p == end || *p == '\n')
                break;
            if (*p == '+')
                p++;
            if (p == end || !is_digit(*p))
                return -1;
            for (; p < end && is_digit(*p); p++) {
                if (index > (INT64_MAX - (*p - '0')) / 10)
                    return -1;
                index = 10 * index + (*p - '0');
            }
            if (p == end || *p != ':' || index <= prev)
                return -1;
            p++;
            if (!read_decimal(&p, end, &vals[k]))
                return -1;
            cols[k++] = index - 1;
            prev = index;
        }
        labels[rows] = label == 1.0 ? 1 : -1;
        ends[rows++] = base + k;
        if (p < end)
            p++;
    }
    return rows;
}

/* ---- the writer ---------------------------------------------------------

   Ryu's d2d, from the paper, with its 125-bit tables of powers of five. A
   finite nonzero double is m2 * 2^e2, and every decimal in the open
   interval between it and its two neighbours' midpoints reads back to it;
   so does a midpoint itself when m2 is even, as strtod rounds ties to
   even. The interval's ends and the double, scaled by 4 to keep them
   integral, are multiplied by a power of five and shifted, which gives
   them in decimal, floored, to about 17 digits (vm, vr, vp). Digits are
   then removed from all three while vp and vm still differ in what is
   left, and the last removed digit of vr rounds the result, half to even
   when the rest of vr was exactly zero.

   The caller passes the tables as pow5, one array of rows {low 64 bits,
   high 64 bits}: row i < POW5_COUNT is floor(5^i * 2^(125 - b)), and row
   POW5_COUNT + q, for q up to 290, is floor(2^(b - 1 + 125) / 5^q) + 1,
   b the bit length of 5^i or 5^q. */

typedef unsigned __int128 uint128;

#define POW5_BITS 125
#define POW5_COUNT 326 /* 5^i for i up to -e2 - q, at most 325 */

/* ceil(log2(5^e)), 1 for e = 0; floor(log10(2^e)); floor(log10(5^e)). */
static int32_t pow5_bits(int32_t e) { return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1); }
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;
    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

static int multiple_of_pow2(uint64_t v, int32_t p) { return (v & ((1ull << p) - 1)) == 0; }

/* floor(m * mul / 2^j), mul a {low, high} table entry; j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    uint128 low = (uint128)m * mul[0], high = (uint128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest round-trip digits of the finite nonzero double with the
   given mantissa and exponent fields: the value is *digits * 10^*exp10. */
static void shortest(const uint64_t *pow5, uint64_t mantissa, uint32_t exponent, uint64_t *digits, int32_t *exp10)
{
    /* 2 extra bits, so that the interval's ends are integral */
    int32_t e2 = (exponent ? (int32_t)exponent : 1) - 1023 - 52 - 2;
    uint64_t m2 = exponent ? mantissa | 1ull << 52 : mantissa;
    int even = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    /* the lower neighbour is half as far at a power of two, but not at the
       least normal exponent */
    uint32_t mm_shift = mantissa != 0 || exponent <= 1;
    uint64_t vr, vp, vm, output;
    int32_t e10, removed = 0;
    int vm_zeros = 0, vr_zeros = 0;
    unsigned last = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *inv = pow5 + 2 * (POW5_COUNT + q);
        e10 = q;
        vr = mul_shift(mv, inv, j);
        vp = mul_shift(mv + 2, inv, j);
        vm = mul_shift(mv - 1 - mm_shift, inv, j);
        if (q <= 21) {
            /* only one of mv, mv + 2 and mv - 1 - mm_shift can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *split = pow5 + 2 * i;
        e10 = q + e2;
        vr = mul_shift(mv, split, j);
        vp = mul_shift(mv + 2, split, j);
        vm = mul_shift(mv - 1 - mm_shift, split, j);
        if (q <= 1) {
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }
    if (vm_zeros || vr_zeros) {
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros)
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = vr % 10;
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* exactly half way: round to even */
        output = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        if (vp / 100 > vm / 100) { /* two digits at once, most of the time */
            last = vr % 100 >= 50 ? 5 : 0;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            last = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || last >= 5);
    }
    *digits = output;
    *exp10 = e10 + removed;
}

/* digit_pairs[2i], digit_pairs[2i + 1] are the two digits of i < 100;
   pow10[i] is 10^i. */
static const char digit_pairs[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";
static const uint64_t pow10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull, 10000000ull, 100000000ull, 1000000000ull,
    10000000000ull, 100000000000ull, 1000000000000ull, 10000000000000ull, 100000000000000ull,
    1000000000000000ull, 10000000000000000ull, 100000000000000000ull, 1000000000000000000ull,
    10000000000000000000ull};

/* The number of decimal digits of v >= 1. */
static int digit_count(uint64_t v)
{
    int t = (64 - __builtin_clzll(v)) * 1233 >> 12; /* floor(log10(v)) or one more */
    return t + (v >= pow10[t]);
}

/* Writes the decimal digits of v so that they end just before end. */
static void put_digits(char *end, uint64_t v)
{
    for (; v >= 100; v /= 100) {
        end -= 2;
        memcpy(end, digit_pairs + 2 * (v % 100), 2);
    }
    if (v >= 10)
        memcpy(end - 2, digit_pairs + 2 * v, 2);
    else
        end[-1] = (char)('0' + v);
}

static char *put(char *p, const char *s, int n)
{
    memcpy(p, s, (size_t)n);
    return p + n;
}

static char *put_zeros(char *p, int n)
{
    memset(p, '0', (size_t)n);
    return p + n;
}

/* repr(value) of a finite nonzero double at p, at most 24 bytes; returns
   its end.
   With the digits d1..dn and value = 0.d1..dn * 10^point, repr is fixed
   point when -4 < point <= 16, with ".0" on an integral value, and
   d1.d2..dn e[+-]XX otherwise, the exponent signed and of two digits or
   more. */
static char *put_double(char *p, double value, const uint64_t *pow5)
{
    uint64_t bits, digits;
    int32_t exp10;
    memcpy(&bits, &value, sizeof bits);
    if (bits >> 63)
        *p++ = '-';
    shortest(pow5, bits & ((1ull << 52) - 1), (uint32_t)(bits >> 52) & 0x7ff, &digits, &exp10);
    int n = digit_count(digits), point = n + exp10;
    if (point > -4 && point <= 16) {
        if (point <= 0) {
            p = put_zeros(put(p, "0.", 2), -point);
            put_digits(p + n, digits);
            return p + n;
        }
        if (point < n) { /* the digits one place on, then the first point of them back */
            put_digits(p + 1 + n, digits);
            memmove(p, p + 1, (size_t)point);
            p[point] = '.';
            return p + 1 + n;
        }
        put_digits(p + n, digits);
        return put(put_zeros(p + n, point - n), ".0", 2);
    }
    int e = point - 1;
    put_digits(p + 1 + n, digits);
    p[0] = p[1];
    if (n > 1)
        p[1] = '.';
    p += n > 1 ? 1 + n : 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    e = e < 0 ? -e : e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    return put(p, digit_pairs + 2 * (e % 100), 2);
}

/* Writes rows lines at out: row r is "+1" or "-1" by the sign of
   labels[r], then " index:value" for each entry k in [indptr[r],
   indptr[r + 1]) whose value is not +-0.0, with index indices[k] + 1 and
   value as repr() writes it, then '\n'. Every value must be finite. The
   caller gives room for 3 bytes a row and, an entry, 26 bytes and the
   digits of the largest index, and gives pow5, the writer's tables of
   powers of five. Returns the bytes written. */
int64_t stst_format_rows(int64_t rows, const int64_t *labels, const int64_t *indptr, const int64_t *indices,
                         const double *values, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        p = put(p, labels[r] > 0 ? "+1" : "-1", 2);
        for (int64_t k = indptr[r]; k < indptr[r + 1]; k++) {
            if (values[k] == 0.0)
                continue;
            uint64_t index = (uint64_t)indices[k] + 1;
            int n = digit_count(index);
            *p = ' ';
            put_digits(p + 1 + n, index);
            p[1 + n] = ':';
            p = put_double(p + 2 + n, values[k], pow5);
        }
        *p++ = '\n';
    }
    return p - out;
}
