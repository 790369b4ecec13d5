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
 * The fast path has three bodies that give the same results: a scalar
 * loop, an SSE2 loop (two lanes) and an AVX2 loop (four lanes).  Each
 * lane does the scalar operations in the scalar order, with no FMA, so
 * the width cannot change a sum or a product; a maximum is exact in any
 * order, up to the sign of a zero.  mpx_block_max picks the widest body
 * this CPU runs, on every call (mpx_simd names it); the two vector
 * bodies exist on x86-64 only.  The vector code is written with GCC
 * vector types and the x86 builtins, not <immintrin.h>, whose parsing
 * alone would take longer than the rest of the build.
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

/* np.maximum(a, c) */
static inline double nan_max(double a, double c)
{
    return (a >= c || a != a) ? a : c;
}

/* Rows [b, rows) of column i, one at a time, merged into row and bj.
 * With advance = 0 the running sums are taken as they stand: column 0
 * of a block, or a vector step redone by the scalar rule. */
static inline double scalar_rows(const double *fj, const double *gj,
                                 const double *ij, double fi, double gi,
                                 double ii, int advance, int64_t b,
                                 int64_t rows, double *s, double *bj,
                                 double row)
{
    for (; b < rows; b++) {
        if (advance)
            s[b] += gj[b] * fi + fj[b] * gi;
        const double x = (s[b] * ii) * ij[b];
        row = nan_max(row, x);
        bj[b] = nan_max(bj[b], x);
    }
    return row;
}

/* Fast path, one row at a time: best[k] = max over every pair of the
 * block touching k. */
void mpx_block_max_scalar(const double *dfp, const double *dgp,
                          const double *invp, const double *c0, int64_t m,
                          int64_t d, int64_t block, double *s, double *best)
{
    const int64_t L = m - d;
    for (int64_t i = 0; i < L; i++) {
        const int64_t rows = L - i < block ? L - i : block;
        if (i == 0)
            for (int64_t k = 0; k < rows; k++)
                s[k] = c0[d + k];
        best[i] = nan_max(best[i], scalar_rows(
            dfp + i + d, dgp + i + d, invp + i + d, dfp[i], dgp[i], invp[i],
            i > 0, 0, rows, s, best + i + d, -INFINITY));
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));
typedef int64_t v2i __attribute__((vector_size(16)));
typedef int64_t v4i __attribute__((vector_size(32)));
/* the same vectors in memory: unaligned, and allowed to alias double */
typedef double v2d_u __attribute__((vector_size(16), aligned(8), may_alias));
typedef double v4d_u __attribute__((vector_size(32), aligned(8), may_alias));
#define AT(type, p) (*(type *)(p))

/* Both vector bodies step two vectors of rows at a time, with a row
 * accumulator each.  maxpd(x, a) is x > a ? x : a, which is
 * np.maximum(a, x) unless x is NaN; a NaN is flagged (cmpunord) and the
 * column's vector steps redone by the scalar rule. */
void mpx_block_max_sse2(const double *dfp, const double *dgp,
                        const double *invp, const double *c0, int64_t m,
                        int64_t d, int64_t block, double *s, double *best)
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
        const v2d vf = {fi, fi}, vg = {gi, gi}, vi = {ii, ii};
        v2d r0 = {-INFINITY, -INFINITY}, r1 = r0;
        v2i nan = {0, 0};
        for (; b + 4 <= rows; b += 4) {
            v2d t0 = AT(v2d_u, s + b), t1 = AT(v2d_u, s + b + 2);
            if (i) {
                t0 += AT(v2d_u, gj + b) * vf + AT(v2d_u, fj + b) * vg;
                t1 += AT(v2d_u, gj + b + 2) * vf + AT(v2d_u, fj + b + 2) * vg;
                AT(v2d_u, s + b) = t0;
                AT(v2d_u, s + b + 2) = t1;
            }
            const v2d x0 = (t0 * vi) * AT(v2d_u, ij + b);
            const v2d x1 = (t1 * vi) * AT(v2d_u, ij + b + 2);
            r0 = __builtin_ia32_maxpd(x0, r0);
            r1 = __builtin_ia32_maxpd(x1, r1);
            AT(v2d_u, bj + b) = __builtin_ia32_maxpd(x0, AT(v2d_u, bj + b));
            AT(v2d_u, bj + b + 2) =
                __builtin_ia32_maxpd(x1, AT(v2d_u, bj + b + 2));
            nan |= (v2i)__builtin_ia32_cmpunordpd(x0, x1);
        }
        if (nan[0] | nan[1]) {
            row = scalar_rows(fj, gj, ij, fi, gi, ii, 0, 0, b, s, bj, row);
        } else {
            const v2d r = __builtin_ia32_maxpd(r0, r1);
            row = nan_max(r[0], r[1]);
        }
        row = scalar_rows(fj, gj, ij, fi, gi, ii, i > 0, b, rows, s, bj, row);
        best[i] = nan_max(best[i], row);
    }
}

/* The SSE2 body at four lanes: eight rows per step.  No "fma" in the
 * target, so no product is fused into an add here either. */
__attribute__((target("avx2")))
void mpx_block_max_avx2(const double *dfp, const double *dgp,
                        const double *invp, const double *c0, int64_t m,
                        int64_t d, int64_t block, double *s, double *best)
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
        const v4d vf = {fi, fi, fi, fi}, vg = {gi, gi, gi, gi};
        const v4d vi = {ii, ii, ii, ii};
        v4d r0 = {-INFINITY, -INFINITY, -INFINITY, -INFINITY}, r1 = r0;
        v4i nan = {0, 0, 0, 0};
        for (; b + 8 <= rows; b += 8) {
            v4d t0 = AT(v4d_u, s + b), t1 = AT(v4d_u, s + b + 4);
            if (i) {
                t0 += AT(v4d_u, gj + b) * vf + AT(v4d_u, fj + b) * vg;
                t1 += AT(v4d_u, gj + b + 4) * vf + AT(v4d_u, fj + b + 4) * vg;
                AT(v4d_u, s + b) = t0;
                AT(v4d_u, s + b + 4) = t1;
            }
            const v4d x0 = (t0 * vi) * AT(v4d_u, ij + b);
            const v4d x1 = (t1 * vi) * AT(v4d_u, ij + b + 4);
            r0 = __builtin_ia32_maxpd256(x0, r0);
            r1 = __builtin_ia32_maxpd256(x1, r1);
            AT(v4d_u, bj + b) = __builtin_ia32_maxpd256(x0, AT(v4d_u, bj + b));
            AT(v4d_u, bj + b + 4) =
                __builtin_ia32_maxpd256(x1, AT(v4d_u, bj + b + 4));
            nan |= (v4i)__builtin_ia32_cmppd256(x0, x1, 3 /* unordered */);
        }
        if (nan[0] | nan[1] | nan[2] | nan[3]) {
            row = scalar_rows(fj, gj, ij, fi, gi, ii, 0, 0, b, s, bj, row);
        } else {
            const v4d r = __builtin_ia32_maxpd256(r0, r1);
            row = nan_max(nan_max(r[0], r[1]), nan_max(r[2], r[3]));
        }
        row = scalar_rows(fj, gj, ij, fi, gi, ii, i > 0, b, rows, s, bj, row);
        best[i] = nan_max(best[i], row);
    }
}
#endif

/* The body mpx_block_max runs on this CPU: "avx2", "sse2" or "scalar". */
const char *mpx_simd(void)
{
#if defined(__x86_64__) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") ? "avx2" : "sse2";
#else
    return "scalar";
#endif
}

/* Fast path on the body mpx_simd names. */
void mpx_block_max(const double *dfp, const double *dgp, const double *invp,
                   const double *c0, int64_t m, int64_t d, int64_t block,
                   double *s, double *best)
{
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        mpx_block_max_avx2(dfp, dgp, invp, c0, m, d, block, s, best);
    else
        mpx_block_max_sse2(dfp, dgp, invp, c0, m, d, block, s, best);
#else
    mpx_block_max_scalar(dfp, dgp, invp, c0, m, d, block, s, best);
#endif
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
