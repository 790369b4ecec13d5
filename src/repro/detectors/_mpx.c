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
 * The fast path takes alive, one byte per subsequence, set for the
 * entries whose maxima the caller still reads (a located sweep's, see
 * matrix_profile.py), or NULL for a profile, where every entry is.  In
 * block [d, d + block) column i pairs entry i with i + d ... i + d +
 * rows - 1; the fast path computes its correlations only when alive[i]
 * or one of alive[i + d ... i + d + block - 1] is set, which it tracks
 * with a running count.  When only the second holds and those alive
 * entries lie within half of the column's rows, it computes the rows
 * from the first of them to the last alone.  The columns in between
 * only advance their running sums (the same additions in the same
 * order, held in registers, right before the next column that
 * computes), and the columns after the last one that computes are not
 * visited.  Every entry alive throughout meets the same pairs in the
 * same order, and keeps its bits.
 *
 * The fast path has bodies that give the same results: a scalar loop,
 * and one vector loop (VECTOR_BODY) at two lanes (SSE2), four (AVX2)
 * and eight (AVX-512F).  Each lane does the scalar operations in the
 * scalar order, with no FMA, so the width cannot change a sum or a
 * product; a maximum is exact in any order, up to the sign of a zero.
 * mpx_block_max picks the widest body this CPU runs, on every call
 * (mpx_simd names it); the vector bodies exist on x86-64 only, and the
 * eight-lane one under GCC only.  The vector code is written with GCC
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
#include <string.h>

/* np.maximum(a, c): c > a ? c : a is one maxsd, and only the NaN test
 * branches, the same way on every number */
static inline double nan_max(double a, double c)
{
    return c != c ? c : (c > a ? c : a);
}

/* Rows [b, rows) of column i, one at a time, merged into row and bj.
 * With advance = 0 the running sums are taken as they stand: column 0
 * of a block, a vector step redone by the scalar rule, or a column
 * advanced with the run before it. */
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

/* Column i's view of the mask: its window, entries i + d ... i + d +
 * block - 1 below m, holds live alive entries, the last of them last;
 * first is the first alive entry at or after i + d, found when asked.
 * Each column updates them from column i - 1's. */
typedef struct {
    int64_t live, first, last;
} window;

/* Whether column i computes correlations: its own entry or one in its
 * window is alive.  Every column does without a mask. */
static inline int computes(const uint8_t *alive, int64_t m, int64_t d,
                           int64_t block, int64_t i, window *win)
{
    if (!alive)
        return 1;
    const int64_t end = i + d + block - 1;
    if (i == 0) {
        *win = (window){0, d, 0};
        for (int64_t k = d; k < end && k < m; k++)
            if (alive[k]) {
                win->live++;
                win->last = k;
            }
    } else
        win->live -= alive[i - 1 + d];
    if (end < m && alive[end]) {
        win->live++;
        win->last = end;
    }
    return win->live || alive[i];
}

/* The rows [*b0, *b1) of column i whose correlations it computes: all
 * of them, unless entry i is dead and its window's alive entries lie
 * within half of its rows; then only from the first to the last, and
 * the column's own running sums are advanced with the run before it (1
 * is returned).  Called for a column that computes, so when entry i is
 * dead the window holds an alive entry, and the search below ends on
 * it: eight dead entries at a time, then one. */
static inline int narrow_rows(const uint8_t *alive, int64_t m, int64_t d,
                              int64_t i, int64_t rows, window *win,
                              int64_t *b0, int64_t *b1)
{
    *b0 = 0;
    *b1 = rows;
    if (!alive || alive[i])
        return 0;
    int64_t k = win->first > i + d ? win->first : i + d;
    for (uint64_t eight; k + 8 <= m; k += 8) {
        memcpy(&eight, alive + k, 8);
        if (eight)
            break;
    }
    while (!alive[k])
        k++;
    win->first = k;
    if (2 * (win->last - k + 1) > rows)
        return 0;
    *b0 = k - i - d;
    *b1 = win->last - i - d + 1;
    return 1;
}

/* Rows [b, rows): the running sums after columns [from, to), to > from,
 * one row at a time in registers; from = 0 starts them at c0. */
static inline void advance_rows(const double *dfp, const double *dgp,
                                const double *c0, int64_t d, int64_t from,
                                int64_t to, int64_t b, int64_t rows,
                                double *s)
{
    for (; b < rows; b++) {
        double t = from ? s[b] : c0[d + b];
        for (int64_t i = from ? from : 1; i < to; i++)
            t += dgp[i + d + b] * dfp[i] + dfp[i + d + b] * dgp[i];
        s[b] = t;
    }
}

/* Fast path, one row at a time: best[k] = max over every pair of the
 * block touching k, for every k alive. */
void mpx_block_max_scalar(const double *dfp, const double *dgp,
                          const double *invp, const double *c0, int64_t m,
                          int64_t d, int64_t block, double *s, double *best,
                          const uint8_t *alive)
{
    const int64_t L = m - d;
    int64_t next = 0, b0, b1;
    window win;
    for (int64_t i = 0; i < L; i++) {
        if (!computes(alive, m, d, block, i, &win))
            continue;
        const int64_t rows = L - i < block ? L - i : block;
        const int narrow = narrow_rows(alive, m, d, i, rows, &win, &b0, &b1);
        const int64_t to = narrow ? i + 1 : i;
        if (next < to)
            advance_rows(dfp, dgp, c0, d, next, to, 0, rows, s);
        else if (i == 0)
            for (int64_t k = 0; k < rows; k++)
                s[k] = c0[d + k];
        next = i + 1;
        const double row = scalar_rows(
            dfp + i + d, dgp + i + d, invp + i + d, dfp[i], dgp[i], invp[i],
            !narrow && i > 0, b0, b1, s, best + i + d, -INFINITY);
        if (!narrow)
            best[i] = nan_max(best[i], row);
    }
}

#if defined(__x86_64__) && defined(__GNUC__)
#if !defined(__clang__)
#define HAVE_AVX512 1
#endif
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));
typedef double v8d __attribute__((vector_size(64)));
/* the same vectors in memory: unaligned, and allowed to alias double */
typedef double v2d_u __attribute__((vector_size(16), aligned(8), may_alias));
typedef double v4d_u __attribute__((vector_size(32), aligned(8), may_alias));
typedef double v8d_u __attribute__((vector_size(64), aligned(8), may_alias));
#define AT(type, p) (*(type *)(p))

/* Per width: max(x, a) is maxpd, x > a ? x : a in each lane, which is
 * np.maximum(a, x) unless x is NaN; unord(x, y) has a bit set for each
 * lane where x or y is NaN; hmax(r) is the largest lane of an r that
 * holds no NaN, by a tree of maxpd. */
#define max2(x, a) __builtin_ia32_maxpd(x, a)
#define unord2(x, y) __builtin_ia32_movmskpd(__builtin_ia32_cmpunordpd(x, y))
static inline double hmax2(v2d r)
{
    return r[1] > r[0] ? r[1] : r[0];
}

#define max4(x, a) __builtin_ia32_maxpd256(x, a)
#define unord4(x, y) \
    __builtin_ia32_movmskpd256(__builtin_ia32_cmppd256(x, y, 3))
__attribute__((target("avx"))) static inline double hmax4(v4d r)
{
    const v2d lo = {r[0], r[1]}, hi = {r[2], r[3]};
    return hmax2(max2(lo, hi));
}

#ifdef HAVE_AVX512
/* GCC's masked builtins (all lanes, current rounding); clang spells
 * them otherwise, so a clang build has no eight-lane body */
#define max8(x, a) __builtin_ia32_maxpd512_mask(x, a, x, 0xff, 4)
#define unord8(x, y) __builtin_ia32_cmppd512_mask(x, y, 3, 0xff, 4)
__attribute__((target("avx512f"))) static inline double hmax8(v8d r)
{
    const v4d lo = {r[0], r[1], r[2], r[3]}, hi = {r[4], r[5], r[6], r[7]};
    return hmax4(max4(lo, hi));
}
#endif

/* The vector fast path at N lanes, mpx_block_max_<isa>, on the helpers
 * of that width: two vectors of rows per step, with a row accumulator
 * each.  A NaN in a step is flagged, and the column's vector steps are
 * redone by the scalar rule; otherwise the column's row maximum is one
 * hmax tree, with no branch on the data.  A run of columns that only
 * advance goes four vectors of rows at a time, each sum in a register;
 * a column that computes some of its rows only (narrow_rows) joins the
 * run before it. */
#define VECTOR_BODY(isa, N)                                                \
    void mpx_block_max_##isa(const double *dfp, const double *dgp,        \
                             const double *invp, const double *c0,        \
                             int64_t m, int64_t d, int64_t block,         \
                             double *s, double *best,                     \
                             const uint8_t *alive)                        \
    {                                                                      \
        typedef v##N##d V;                                                 \
        typedef v##N##d_u VU;                                              \
        const int64_t L = m - d;                                           \
        int64_t next = 0, b0, b1;                                          \
        window win;                                                        \
        for (int64_t i = 0; i < L; i++) {                                  \
            if (!computes(alive, m, d, block, i, &win))                    \
                continue;                                                  \
            const int64_t rows = L - i < block ? L - i : block;            \
            const int narrow =                                             \
                narrow_rows(alive, m, d, i, rows, &win, &b0, &b1);         \
            const int64_t to = narrow ? i + 1 : i;                         \
            int64_t a = 0;                                                 \
            for (; next < to && a + 4 * N <= rows; a += 4 * N) {           \
                const double *from = next ? s + a : c0 + d + a;            \
                V t0 = AT(VU, from), t1 = AT(VU, from + N);                \
                V t2 = AT(VU, from + 2 * N), t3 = AT(VU, from + 3 * N);    \
                for (int64_t k = next ? next : 1; k < to; k++) {           \
                    const double fk = dfp[k], gk = dgp[k];                 \
                    const double *fj = dfp + k + d + a, *gj = dgp + k + d + a; \
                    t0 += AT(VU, gj) * fk + AT(VU, fj) * gk;               \
                    t1 += AT(VU, gj + N) * fk + AT(VU, fj + N) * gk;       \
                    t2 += AT(VU, gj + 2 * N) * fk + AT(VU, fj + 2 * N) * gk; \
                    t3 += AT(VU, gj + 3 * N) * fk + AT(VU, fj + 3 * N) * gk; \
                }                                                          \
                AT(VU, s + a) = t0;                                        \
                AT(VU, s + a + N) = t1;                                    \
                AT(VU, s + a + 2 * N) = t2;                                \
                AT(VU, s + a + 3 * N) = t3;                                \
            }                                                              \
            if (next < to)                                                 \
                advance_rows(dfp, dgp, c0, d, next, to, a, rows, s);       \
            else if (i == 0)                                               \
                for (int64_t k = 0; k < rows; k++)                         \
                    s[k] = c0[d + k];                                      \
            next = i + 1;                                                  \
            const int advance = !narrow && i > 0;                          \
            const double fi = dfp[i], gi = dgp[i], ii = invp[i];           \
            const double *fj = dfp + i + d, *gj = dgp + i + d;             \
            const double *ij = invp + i + d;                               \
            double *bj = best + i + d;                                     \
            V r0 = (V){0} - INFINITY, r1 = r0;                             \
            int nan = 0;                                                   \
            int64_t b = b0;                                                \
            for (; b + 2 * N <= b1; b += 2 * N) {                          \
                V t0 = AT(VU, s + b), t1 = AT(VU, s + b + N);              \
                if (advance) {                                             \
                    t0 += AT(VU, gj + b) * fi + AT(VU, fj + b) * gi;       \
                    t1 += AT(VU, gj + b + N) * fi + AT(VU, fj + b + N) * gi; \
                    AT(VU, s + b) = t0;                                    \
                    AT(VU, s + b + N) = t1;                                \
                }                                                          \
                const V x0 = (t0 * ii) * AT(VU, ij + b);                   \
                const V x1 = (t1 * ii) * AT(VU, ij + b + N);               \
                r0 = max##N(x0, r0);                                       \
                r1 = max##N(x1, r1);                                       \
                AT(VU, bj + b) = max##N(x0, AT(VU, bj + b));               \
                AT(VU, bj + b + N) = max##N(x1, AT(VU, bj + b + N));       \
                nan |= unord##N(x0, x1);                                   \
            }                                                              \
            double row = nan ? scalar_rows(fj, gj, ij, fi, gi, ii, 0, b0,  \
                                           b, s, bj, -INFINITY)            \
                             : hmax##N(max##N(r0, r1));                    \
            row = scalar_rows(fj, gj, ij, fi, gi, ii, advance, b, b1, s,   \
                              bj, row);                                    \
            if (!narrow)                                                   \
                best[i] = nan_max(best[i], row);                           \
        }                                                                  \
    }

VECTOR_BODY(sse2, 2)
/* no "fma" in a target, so no product is fused into an add here either */
__attribute__((target("avx2"))) VECTOR_BODY(avx2, 4)
#ifdef HAVE_AVX512
__attribute__((target("avx512f"))) VECTOR_BODY(avx512, 8)
#endif
#endif

/* The body mpx_block_max runs on this CPU: "avx512", "avx2", "sse2" or
 * "scalar". */
const char *mpx_simd(void)
{
#ifdef HAVE_AVX512
    if (__builtin_cpu_supports("avx512f"))
        return "avx512";
#endif
#if defined(__x86_64__) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") ? "avx2" : "sse2";
#else
    return "scalar";
#endif
}

/* Fast path on the body mpx_simd names. */
void mpx_block_max(const double *dfp, const double *dgp, const double *invp,
                   const double *c0, int64_t m, int64_t d, int64_t block,
                   double *s, double *best, const uint8_t *alive)
{
#ifdef HAVE_AVX512
    if (__builtin_cpu_supports("avx512f"))
        mpx_block_max_avx512(dfp, dgp, invp, c0, m, d, block, s, best, alive);
    else
#endif
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
        mpx_block_max_avx2(dfp, dgp, invp, c0, m, d, block, s, best, alive);
    else
        mpx_block_max_sse2(dfp, dgp, invp, c0, m, d, block, s, best, alive);
#else
    mpx_block_max_scalar(dfp, dgp, invp, c0, m, d, block, s, best, alive);
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
