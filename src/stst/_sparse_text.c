/* Compiled line parser for stst.data.parse_sparse.

   It reads whole lines of a strict subset of the sparse labeled text
   format and stops at the first line outside it, which the Python
   per-line parser then reads under its true line number. The subset:
   ASCII only, tokens separated by spaces and tabs, lines ending in '\n'
   (or the end of the buffer); a label that reads as exactly 1, -1 or 0;
   indices [+]?[0-9]+ that ascend strictly from 1 and fit in int64; values
   [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?. Every line in the subset reads to the
   same numbers as in Python: strtod and float() both round correctly (a
   value past the double range reads as inf in both, and parse_sparse
   refuses it after the whole input is read), and strtod_l reads in the "C"
   locale, whatever locale the caller has set. */
#define _GNU_SOURCE
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>

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

/* Parses lines of buf[*pos:len]. Row r gets labels[r] (+1 or -1) and
   ends[r], base plus the entries read so far; entries go to cols (0-based)
   and vals. The caller gives room for one row more than there are '\n'
   left in the buffer and for an entry per ':', and buf[len] must exist and
   end every number (a bytes object's trailing NUL does). Returns the rows read; *pos is left at the
   start of the first line not read. */
int64_t stst_parse_lines(const char *buf, int64_t len, int64_t *pos, int64_t base, int64_t *labels,
                         int64_t *ends, int64_t *cols, double *vals)
{
    const char *p = buf + *pos, *end = buf + len;
    int64_t rows = 0, k = 0;
    if (c_locale == (locale_t)0)
        return 0;
    while (p < end) {
        int64_t prev = 0, entries = k;
        double label, value;
        while (p < end && is_blank(*p))
            p++;
        if (!read_decimal(&p, end, &label) || !(label == 1.0 || label == -1.0 || label == 0.0))
            break;
        for (;;) {
            int64_t index = 0;
            while (p < end && is_blank(*p))
                p++;
            if (p == end || *p == '\n')
                break;
            if (*p == '+')
                p++;
            if (p == end || !is_digit(*p))
                goto stop;
            for (; p < end && is_digit(*p); p++) {
                if (index > (INT64_MAX - (*p - '0')) / 10)
                    goto stop;
                index = 10 * index + (*p - '0');
            }
            if (p == end || *p != ':' || index <= prev)
                goto stop;
            p++;
            if (!read_decimal(&p, end, &value))
                goto stop;
            cols[entries] = index - 1;
            vals[entries++] = value;
            prev = index;
        }
        labels[rows] = label == 1.0 ? 1 : -1;
        k = entries;
        ends[rows++] = base + k;
        if (p < end)
            p++;
        *pos = p - buf;
    }
stop:
    return rows;
}
