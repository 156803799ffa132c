/* Compiled RBF distances and the chunk scan of stst.predictor's evaluator.

   The support vectors come packed in panels of eight: rows 8p..8p+7 form
   panel p, and coordinate j of row 8p+q sits at panels[p*8*dim + j*8 + q]
   (the last panel zero-padded). Eight support vectors then share the
   vectors of one broadcast x_j, and each panel is read as one contiguous
   stream at every dim.

   Each distance is the same additions as scipy's cdist "sqeuclidean":
   acc = 0.0, then acc = acc + d*d with d = x_j - s_j for j = 0..dim-1 in
   order, then one division, acc / divisor, as numpy's in-place /= does.
   A lane is one (row, support vector) pair, so a distance does not depend
   on the rows or the terms around it. With -ffp-contract=off every
   product and sum rounds as written, in every body. */
#include <stdint.h>

#define LANES 8

/* Panel p's distances for rows `rows` of x (row r when rows is NULL), its
   lanes lo..hi-1 written to out[r*width + q - lo]. */
#define PANEL_ARGS                                                                                               \
    const double *x, const int64_t *rows, int64_t count, int64_t dim, const double *panel, int64_t lo,          \
        int64_t hi, double divisor, double *out, int64_t width

static inline void put(const double *acc, int64_t lo, int64_t hi, double divisor, double *o)
{
    for (int64_t q = lo; q < hi; q++)
        o[q - lo] = acc[q] / divisor;
}

/* Two-lane vectors: SSE2 on x86-64, NEON on arm64; every accumulator stays
   in a register. */
typedef double v2 __attribute__((vector_size(16), aligned(8)));

static void panel_plain(PANEL_ARGS)
{
    for (int64_t r = 0; r < count; r++) {
        const double *xr = x + (rows ? rows[r] : r) * dim;
        v2 s0 = {0.0, 0.0}, s1 = s0, s2 = s0, s3 = s0;
        for (int64_t j = 0; j < dim; j++) {
            v2 xj = {xr[j], xr[j]};
            const double *pj = panel + j * LANES;
            v2 d0 = xj - *(const v2 *)pj, d1 = xj - *(const v2 *)(pj + 2);
            v2 d2 = xj - *(const v2 *)(pj + 4), d3 = xj - *(const v2 *)(pj + 6);
            s0 = s0 + d0 * d0;
            s1 = s1 + d1 * d1;
            s2 = s2 + d2 * d2;
            s3 = s3 + d3 * d3;
        }
        double acc[LANES] = {s0[0], s0[1], s1[0], s1[1], s2[0], s2[1], s3[0], s3[1]};
        put(acc, lo, hi, divisor, out + r * width);
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
/* Four-lane vectors, where the CPU has AVX2: two per panel. */
typedef double v4 __attribute__((vector_size(32), aligned(8)));

__attribute__((target("avx2"))) static void panel_avx2(PANEL_ARGS)
{
    for (int64_t r = 0; r < count; r++) {
        const double *xr = x + (rows ? rows[r] : r) * dim;
        v4 low = {0.0, 0.0, 0.0, 0.0}, high = low;
        for (int64_t j = 0; j < dim; j++) {
            v4 xj = {xr[j], xr[j], xr[j], xr[j]};
            v4 d0 = xj - *(const v4 *)(panel + j * LANES);
            v4 d1 = xj - *(const v4 *)(panel + j * LANES + 4);
            low = low + d0 * d0;
            high = high + d1 * d1;
        }
        double acc[LANES] = {low[0], low[1], low[2], low[3], high[0], high[1], high[2], high[3]};
        put(acc, lo, hi, divisor, out + r * width);
    }
}
#endif

/* The squared distance of each of `count` rows of x, C-ordered with dim
   coordinates each, to support vectors a..b-1, divided by divisor:
   out[r*(b-a) + i-a] for support vector i. Row r is x's row rows[r], or
   row r when rows is NULL. The bounds need not fall on panel edges. */
void stst_sqeuclidean(const double *x, const int64_t *rows, int64_t count, int64_t dim, const double *panels,
                      int64_t a, int64_t b, double divisor, double *out)
{
    void (*panel)(PANEL_ARGS) = panel_plain;
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        panel = panel_avx2;
#endif
    for (int64_t p = a / LANES; p * LANES < b; p++) {
        int64_t first = p * LANES;
        int64_t lo = a > first ? a - first : 0, hi = b < first + LANES ? b - first : LANES;
        panel(x, rows, count, dim, panels + first * dim, lo, hi, divisor, out + first + lo - a, b - a);
    }
}

/* One chunk of terms a..a+width-1 for the `count` live rows listed in
   rows: row r's raw value of term a+k is raw[r*row_step + k*term_step].
   Row j = rows[r] adds its corrected values to its running sum, in order,
   s = s + (raw - mu[a+k]) * w[a+k], starting from sums[j] (-0.0 before
   its first term), and stops at the first s strictly outside (lo, hi),
   s < lo or s > hi: a sum equal to a bound goes on, and an infinite bound
   is never crossed. sums[j] gets s and terms[j] the count of terms added.
   The rows that did not stop are kept at the front of rows, in order;
   returns their count. With -ffp-contract=off each value and sum rounds
   as numpy's in-place t -= mu; t *= w, the carry into t[0] and np.cumsum
   do. */
int64_t stst_scan(const double *raw, int64_t row_step, int64_t term_step, int64_t width, const double *mu,
                  const double *w, double lo, double hi, int64_t a, int64_t *rows, int64_t count,
                  double *sums, int64_t *terms)
{
    int64_t kept = 0;
    mu += a;
    w += a;
    for (int64_t r = 0; r < count; r++) {
        const double *v = raw + r * row_step;
        int64_t j = rows[r], k = 0;
        double s = sums[j];
        int stop = 0;
        for (; k < width && !stop; k++) {
            s = s + (v[k * term_step] - mu[k]) * w[k];
            stop = s < lo || s > hi;
        }
        sums[j] = s;
        terms[j] = a + k;
        if (!stop)
            rows[kept++] = j;
    }
    return kept;
}
