/* Compiled row kernels of stst.simulator's walk engine.

   Each kernel reads a C-ordered block of `rows` walks of n raw draws and
   reduces every row to one or two numbers. A row's steps are
   raw*scale + drift, where raw is the double draw x[j] or, for a
   rademacher block, (k[j]*2.0 - 1.0) of the int64 draw k[j] (exactly one
   of x and k is given). The prefix sums are S_1 = step_0 and
   S_{i+1} = S_i + step_i, added one after another. With -ffp-contract=off
   every product and sum rounds as written, so each result equals, bit for
   bit, the numpy reference's: the same fill arithmetic in place, then
   np.cumsum along the row, then the same reduction. */
#include <math.h>
#include <stdint.h>

static inline double step(const double *x, const int64_t *k, int64_t j, double scale, double drift)
{
    double raw = k ? (double)k[j] * 2.0 - 1.0 : x[j];
    return raw * scale + drift;
}

/* high = max(S_1..S_{n-1}) (-inf for n = 1) and end = S_n of one row.
   With frac, the maximum is that of the bridge pinned at theta,
   S_i - frac[i-1]*(S_n - theta): the prefix sums are first written over
   the row, which must then be x. */
static inline void high_end_row(double *x, const int64_t *k, int64_t n, double scale, double drift,
                                const double *frac, double theta, double *high, double *end)
{
    double s = step(x, k, 0, scale, drift), h = -INFINITY;
    if (frac) {
        x[0] = s;
        for (int64_t j = 1; j < n; j++)
            x[j] = s = s + step(x, k, j, scale, drift);
        double shift = s - theta;
        for (int64_t j = 0; j < n - 1; j++) {
            double b = x[j] - frac[j] * shift;
            h = b > h ? b : h;
        }
    } else {
        for (int64_t j = 1; j < n; j++) {
            h = s > h ? s : h;
            s = s + step(x, k, j, scale, drift);
        }
    }
    *high = h;
    *end = s;
}

/* The first i with S_i >= tau, and S_i; n and S_n when no sum reaches
   tau. The scan stops at the crossing. */
static inline int64_t first_crossing_row(const double *x, const int64_t *k, int64_t n, double scale,
                                         double drift, double tau, double *stop)
{
    double s = step(x, k, 0, scale, drift);
    int64_t j = 1;
    for (; s < tau && j < n; j++)
        s = s + step(x, k, j, scale, drift);
    *stop = s;
    return s >= tau ? j : n;
}

/* high and end of every row. frac is read only with x (the exact bridge
   walks gaussian steps), whose rows it overwrites with their prefix sums. */
void stst_walk_high_end(double *x, const int64_t *k, int64_t rows, int64_t n, double scale, double drift,
                        const double *frac, double theta, double *high, double *end)
{
    for (int64_t r = 0; r < rows; r++) {
        if (k)
            high_end_row(0, k + r * n, n, scale, drift, 0, theta, high + r, end + r);
        else
            high_end_row(x + r * n, 0, n, scale, drift, frac, theta, high + r, end + r);
    }
}

/* The first-crossing time (1-based) and the sum there of every row. */
void stst_walk_first_crossing(const double *x, const int64_t *k, int64_t rows, int64_t n, double scale,
                              double drift, double tau, int64_t *time, double *stop)
{
    for (int64_t r = 0; r < rows; r++) {
        if (k)
            time[r] = first_crossing_row(0, k + r * n, n, scale, drift, tau, stop + r);
        else
            time[r] = first_crossing_row(x + r * n, 0, n, scale, drift, tau, stop + r);
    }
}
