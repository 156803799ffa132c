/* Compiled squared distances of stst.predictor's RBF terms.

   The support vectors come packed in panels of eight: rows 8p..8p+7 form
   panel p, and coordinate j of row 8p+q sits at panels[p*8*dim + j*8 + q]
   (the last panel zero-padded). Eight support vectors then share one pair
   of 4-lane vectors at each j, and each panel is read as one contiguous
   stream at every dim.

   Each distance is the same additions as scipy's cdist "sqeuclidean":
   acc = 0.0, then acc = acc + d*d with d = x_j - s_j for j = 0..dim-1 in
   order. A lane is one (row, support vector) pair, so a distance does not
   depend on the rows or the terms around it. With -ffp-contract=off every
   product and sum rounds as written, in both clones. */
#include <stdint.h>

/* An AVX2 body beside the default one, picked by the loader on x86-64. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

#define LANES 8

typedef double v4 __attribute__((vector_size(32), aligned(8)));

/* The squared distance of each of `rows` C-ordered rows of x (dim
   coordinates each) to support vectors a..b-1: out[r*(b-a) + i-a] for
   support vector i. The bounds need not fall on panel edges. */
CLONES void stst_sqeuclidean(const double *x, int64_t rows, int64_t dim, const double *panels, int64_t a,
                             int64_t b, double *out)
{
    int64_t width = b - a;
    for (int64_t p = a / LANES; p * LANES < b; p++) {
        int64_t first = p * LANES;
        const double *panel = panels + first * dim;
        int64_t lo = a > first ? a - first : 0, hi = b < first + LANES ? b - first : LANES;
        for (int64_t r = 0; r < rows; r++) {
            const double *xr = x + r * dim;
            v4 low = {0.0, 0.0, 0.0, 0.0}, high = low;
            for (int64_t j = 0; j < dim; j++) {
                v4 xj = {xr[j], xr[j], xr[j], xr[j]};
                v4 d0 = xj - *(const v4 *)(panel + j * LANES);
                v4 d1 = xj - *(const v4 *)(panel + j * LANES + 4);
                low = low + d0 * d0;
                high = high + d1 * d1;
            }
            double acc[LANES] = {low[0], low[1], low[2], low[3], high[0], high[1], high[2], high[3]};
            double *o = out + r * width + first - a;
            for (int64_t q = lo; q < hi; q++)
                o[q] = acc[q];
        }
    }
}
