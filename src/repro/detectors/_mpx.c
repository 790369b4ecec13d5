/* One block of the mpx diagonal sweep, compiled.
 *
 * Sweeps the diagonals [d, d + block) of an m-subsequence self-join with
 * the recurrence and the addition order of the numpy sweep in
 * matrix_profile.py (_diagonal_sweep):
 *
 *     s_0 = c0[d + b]
 *     s_i = s_{i-1} + (dgp[j] * dfp[i] + dfp[j] * dgp[i])    j = i + d + b
 *     corr(i, j) = (s_i * invp[i]) * invp[j]
 *
 * Built with -ffp-contract=off, so no product is fused into an add and
 * every rounding matches numpy's.  The loop runs column-outer and
 * row-inner: the block's running sums are independent of each other,
 * so the only scratch is s[block] (plus the column-side accumulators of
 * the indexed entry).
 *
 * Maxima follow np.maximum: a NaN on either side wins, and a NaN already
 * held is kept.  The indexed entry keeps the numpy sweep's tie rule: an
 * earlier block wins (strict > against best); within a block the row
 * side (neighbour after, best[i]) is merged before the column side
 * (neighbour before, best[j]); within a side the smaller separation
 * wins.  A row or column group of one block that holds a NaN is dropped,
 * as numpy's max/argmax followed by a strict compare drops it.
 */

#include <math.h>
#include <stdint.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* np.maximum(a, c) */
static inline double nan_max(double a, double c)
{
    return (a >= c || a != a) ? a : c;
}

/* Fast path: best[k] = max over every pair of the block touching k. */
void mpx_block_max(const double *dfp, const double *dgp, const double *invp,
                   const double *c0, int64_t m, int64_t d, int64_t block,
                   double *s, double *best)
{
    const int64_t L = m - d;
    for (int64_t i = 0; i < L; i++) {
        const int64_t rows = L - i < block ? L - i : block;
        const double fi = dfp[i], gi = dgp[i], ii = invp[i];
        const double *fj = dfp + i + d, *gj = dgp + i + d, *ij = invp + i + d;
        double *bj = best + i + d;
        double row = -INFINITY;
        int64_t b = 0;
        if (i == 0)
            for (int64_t k = 0; k < rows; k++)
                s[k] = c0[d + k];
#ifdef __SSE2__
        /* four rows per step, the same operations two lanes at a time.
         * maxpd(x, a) is x > a ? x : a, which is np.maximum(a, x) unless
         * x is NaN; a NaN is flagged and the step redone below. */
        const __m128d vf = _mm_set1_pd(fi), vg = _mm_set1_pd(gi);
        const __m128d vi = _mm_set1_pd(ii);
        __m128d r0 = _mm_set1_pd(-INFINITY), r1 = r0;
        __m128d nan = _mm_setzero_pd();
        for (; b + 4 <= rows; b += 4) {
            __m128d t0 = _mm_loadu_pd(s + b), t1 = _mm_loadu_pd(s + b + 2);
            if (i) {
                t0 = _mm_add_pd(t0, _mm_add_pd(
                    _mm_mul_pd(_mm_loadu_pd(gj + b), vf),
                    _mm_mul_pd(_mm_loadu_pd(fj + b), vg)));
                t1 = _mm_add_pd(t1, _mm_add_pd(
                    _mm_mul_pd(_mm_loadu_pd(gj + b + 2), vf),
                    _mm_mul_pd(_mm_loadu_pd(fj + b + 2), vg)));
                _mm_storeu_pd(s + b, t0);
                _mm_storeu_pd(s + b + 2, t1);
            }
            const __m128d x0 = _mm_mul_pd(_mm_mul_pd(t0, vi),
                                          _mm_loadu_pd(ij + b));
            const __m128d x1 = _mm_mul_pd(_mm_mul_pd(t1, vi),
                                          _mm_loadu_pd(ij + b + 2));
            r0 = _mm_max_pd(x0, r0);
            r1 = _mm_max_pd(x1, r1);
            _mm_storeu_pd(bj + b, _mm_max_pd(x0, _mm_loadu_pd(bj + b)));
            _mm_storeu_pd(bj + b + 2,
                          _mm_max_pd(x1, _mm_loadu_pd(bj + b + 2)));
            nan = _mm_or_pd(nan, _mm_cmpunord_pd(x0, x1));
        }
        if (_mm_movemask_pd(nan)) {
            for (int64_t k = 0; k < b; k++) {
                const double x = (s[k] * ii) * ij[k];
                row = nan_max(row, x);
                bj[k] = nan_max(bj[k], x);
            }
        } else {
            double lanes[2];
            _mm_storeu_pd(lanes, _mm_max_pd(r0, r1));
            row = nan_max(lanes[0], lanes[1]);
        }
#endif
        for (; b < rows; b++) {
            const double t = i == 0 ? s[b] : s[b] + (gj[b] * fi + fj[b] * gi);
            const double x = (t * ii) * ij[b];
            s[b] = t;
            row = nan_max(row, x);
            bj[b] = nan_max(bj[b], x);
        }
        best[i] = nan_max(best[i], row);
    }
}

/* Indexed path: also keeps bestj, the neighbour of each best value.
 * colval/colarg (length m - d) hold the column side of this block until
 * every row side has been merged. */
void mpx_block_argmax(const double *dfp, const double *dgp,
                      const double *invp, const double *c0, int64_t m,
                      int64_t d, int64_t block, double *s, double *best,
                      int64_t *bestj, double *colval, int64_t *colarg)
{
    const int64_t L = m - d;
    for (int64_t p = 0; p < L; p++)
        colval[p] = -INFINITY;
    for (int64_t i = 0; i < L; i++) {
        const int64_t rows = L - i < block ? L - i : block;
        const double fi = dfp[i], gi = dgp[i], ii = invp[i];
        const double *fj = dfp + i + d, *gj = dgp + i + d, *ij = invp + i + d;
        double *cv = colval + i;
        int64_t *ca = colarg + i;
        double row = -INFINITY;
        int64_t row_arg = 0;
        int row_nan = 0;
        for (int64_t b = 0; b < rows; b++) {
            s[b] = i == 0 ? c0[d + b] : s[b] + (gj[b] * fi + fj[b] * gi);
            const double x = (s[b] * ii) * ij[b];
            if (x != x) {
                row_nan = 1;
                cv[b] = x; /* drops the whole column group */
                continue;
            }
            if (x > row) {
                row = x;
                row_arg = b;
            }
            /* later columns reach this one with a smaller separation,
             * so >= hands ties to the smaller one */
            if (x >= cv[b]) {
                cv[b] = x;
                ca[b] = b;
            }
        }
        if (!row_nan && row > best[i]) {
            best[i] = row;
            bestj[i] = i + d + row_arg;
        }
    }
    for (int64_t p = 0; p < L; p++) {
        if (colval[p] > best[d + p]) {
            best[d + p] = colval[p];
            bestj[d + p] = p - colarg[p];
        }
    }
}
