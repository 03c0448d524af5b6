/* Algorithm 1's temporal-cut sweep and cut replay, the ``c`` tier of
 * repro.core.kernels.
 *
 * The per-cell two-pass recurrence of ``temporal_cuts_numpy``, node by node
 * over an (N, T, T) slab of C-contiguous tables.  Pass 1 takes the exact
 * maximum of the candidate cuts and notes any NaN among them (``ndarray.max``
 * would return NaN, which leaves no cut eligible); pass 2 finds the first
 * minimal count among the epsilon-eligible cuts (the ``argmin`` of the
 * masked counts, ``no_eligible`` standing for an ineligible cut).  Cells run
 * row by row from the bottom, each row left to right, so a cell reads only
 * final cells (shorter intervals) and the row being built stays in cache.
 * The right operand ``best[i + k + 1][j]`` is read through per-node
 * transposed mirrors (``best_t[j][i + k + 1]``), so both operands are
 * row-contiguous; the mirrors are kept exact on every update.
 *
 * Each sweep comes as two loops around one node loop: ``sweep_<int>_scalar``,
 * the portable loop, and ``sweep_<int>_avx2``, compiled for AVX2 through a
 * function attribute and bound only where ``sweep_cpu_avx2`` says the CPU
 * runs it (never ``-march=native``: the library cache is keyed by source,
 * flags and compiler, not by CPU, so a cached library must load on any
 * x86-64 host).  On cells of four candidates or more the AVX2 loop keeps
 * two 4-lane running maxima (each lane keeps its maximum exactly as the
 * scalar ternary does, an unordered compare tracks NaN) and screens pass 2
 * by blocks against ``top - epsilon``, one movemask per block, visiting only
 * the eligible candidates, in index order, through the scalar count
 * comparison (a cell whose first eight candidates are all eligible is
 * screened one candidate at a time).  Shorter cells run the scalar cell.  The order of comparisons
 * cannot change an exact maximum, except for the sign of a zero one, and
 * ``top`` only feeds the ``>=`` threshold, where both zeros compare alike;
 * the stored value is still ``lb[k] + rb[k]`` at the chosen ``k``: both
 * loops store the same bits.  Off x86-64 the ``_avx2`` symbols are the
 * scalar loop and ``sweep_cpu_avx2`` answers 0.
 *
 * Build with -ffp-contract=off and without -ffast-math: every float is the
 * same IEEE operation on the same operands as in the numpy tier.  Counts are
 * added in unsigned arithmetic, which wraps like numpy's integer add.
 */
#include <stdint.h>

#if defined(__x86_64__)
#include <immintrin.h>
#define HAVE_AVX2 1
#else
#define HAVE_AVX2 0
#endif

/* Pass 2, one eligible candidate: keep the first minimal count. */
#define VISIT(K, INT, UINT)                                                   \
    do {                                                                      \
        INT total = (INT)((UINT)lc[K] + (UINT)rc[K]);                         \
        if (total < best_count) {                                             \
            best_count = total;                                               \
            best_k = (K);                                                     \
        }                                                                     \
    } while (0)

/* Pass 2 one candidate at a time: visit the eligible ones in index order. */
#define SCREEN(INT, UINT)                                                     \
    {                                                                         \
        for (int64_t k = 0; k < length; k++)                                  \
            if (lb[k] + rb[k] >= threshold)                                   \
                VISIT(k, INT, UINT);                                          \
    }

/* The scalar cell: both passes one candidate at a time. */
#define SCALAR_CELL(INT, UINT)                                                \
    double top = lb[0] + rb[0];                                               \
    int nan = top != top;                                                     \
    for (int64_t k = 1; k < length; k++) {                                    \
        double v = lb[k] + rb[k];                                             \
        nan |= v != v;                                                        \
        top = v > top ? v : top;                                              \
    }                                                                         \
    double threshold = top - epsilon;                                         \
    if (!nan)                                                                 \
        SCREEN(INT, UINT)

#if HAVE_AVX2
/* The four candidates from ``at`` on, as one vector. */
#define BLOCK(AT) _mm256_add_pd(_mm256_loadu_pd(lb + (AT)), _mm256_loadu_pd(rb + (AT)))

/* Where the block of candidate ``k`` is read: from ``k``, or from ``last``
 * (the last four candidates) when it would run past the end. */
#define CLIP(K) ((K) < last ? (K) : last)

/* The eligible candidates among the four from ``k`` on, as bits (bit b for
 * candidate k + b): the clipped block's lanes before ``k`` are dropped, and
 * a block wholly past the end yields no bits. */
#define ELIGIBLE(K)                                                           \
    ((unsigned)_mm256_movemask_pd(                                            \
         _mm256_cmp_pd(BLOCK(CLIP(K)), limit, _CMP_GE_OQ)) >> ((K) - CLIP(K)))

/* The AVX2 cell, for four candidates or more.  Pass 1 runs two running
 * maxima over blocks of four: the first block, the last one (overlapping the
 * one before when ``length`` is not a multiple of four) and the blocks
 * between, two at a time, the second clipped.  ``_mm256_max_pd(v, t)`` is
 * ``v > t ? v : t`` per lane, the scalar ternary, and a candidate read twice
 * cannot change a maximum.  An unordered compare of each pair of blocks
 * flags any NaN.  Pass 2 screens eight candidates at a time against the
 * threshold and visits the set bits in index order.  A cell whose first
 * eight candidates are all eligible (the tie-dense tables of a homogeneous
 * trace) screens one candidate at a time instead: there nearly every bit is
 * set, and the bit loop's varying trip count mispredicts where the scalar
 * screen's branches do not. */
#define AVX2_CELL(INT, UINT)                                                  \
    if (length >= 4) {                                                        \
        int64_t last = length - 4;                                            \
        __m256d t0 = BLOCK(0), t1 = BLOCK(last);                              \
        __m256d bad = _mm256_cmp_pd(t0, t1, _CMP_UNORD_Q);                    \
        for (int64_t k = 4; k < last; k += 8) {                               \
            __m256d v0 = BLOCK(k), v1 = BLOCK(CLIP(k + 4));                   \
            bad = _mm256_or_pd(bad, _mm256_cmp_pd(v0, v1, _CMP_UNORD_Q));    \
            t0 = _mm256_max_pd(v0, t0);                                       \
            t1 = _mm256_max_pd(v1, t1);                                       \
        }                                                                     \
        t0 = _mm256_max_pd(t0, t1);                                           \
        __m128d half = _mm_max_pd(_mm256_castpd256_pd128(t0),                 \
                                  _mm256_extractf128_pd(t0, 1));              \
        double top = _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half))); \
        double threshold = top - epsilon;                                     \
        __m256d limit = _mm256_set1_pd(threshold);                            \
        unsigned first = ELIGIBLE(0) | ELIGIBLE(4) << 4;                      \
        if (!_mm256_movemask_pd(bad)) {                                       \
            if (first == (length < 8 ? (1u << length) - 1 : 0xFFu))           \
                SCREEN(INT, UINT)                                             \
            else                                                              \
                for (int64_t k = 0; k < length; k += 8)                       \
                    for (unsigned mask = k ? ELIGIBLE(k) | ELIGIBLE(k + 4) << 4 \
                                           : first;                           \
                         mask; mask &= mask - 1)                              \
                        VISIT(k + __builtin_ctz(mask), INT, UINT);            \
        }                                                                     \
    } else {                                                                  \
        SCALAR_CELL(INT, UINT)                                                \
    }
#define AVX2_TARGET __attribute__((target("avx2")))
#else
#define AVX2_CELL SCALAR_CELL
#define AVX2_TARGET
#endif

/* One sweep: the node loop around a cell body (SCALAR_CELL or AVX2_CELL). */
#define DEFINE_SWEEP(NAME, ATTRIBUTE, CELL, INT, UINT)                         \
ATTRIBUTE void NAME(int64_t n_nodes, int64_t n, double *best, INT *cut,       \
                    INT *count, double *best_t, INT *count_t, double epsilon, \
                    INT no_eligible)                                          \
{                                                                             \
    for (int64_t node = 0; node < n_nodes; node++) {                          \
        double *b = best + node * n * n;                                      \
        INT *c = count + node * n * n, *u = cut + node * n * n;               \
        for (int64_t r = 0; r < n; r++)                                       \
            for (int64_t s = r; s < n; s++) {                                 \
                best_t[s * n + r] = b[r * n + s];                             \
                count_t[s * n + r] = c[r * n + s];                            \
            }                                                                 \
        for (int64_t i = n - 2; i >= 0; i--)                                  \
            for (int64_t j = i + 1; j < n; j++) {                             \
                int64_t length = j - i;                                       \
                const double *lb = b + i * n + i, *rb = best_t + j * n + i + 1; \
                const INT *lc = c + i * n + i, *rc = count_t + j * n + i + 1; \
                /* A NaN maximum makes no cut eligible: the argmin is 0. */   \
                int64_t best_k = 0;                                           \
                INT best_count = no_eligible;                                 \
                CELL(INT, UINT)                                               \
                double value = lb[best_k] + rb[best_k];                       \
                INT total = (INT)((UINT)lc[best_k] + (UINT)rc[best_k]);       \
                double current = b[i * n + j];                                \
                if (value > current + epsilon                                 \
                    || (value > current - epsilon && total < c[i * n + j])) { \
                    b[i * n + j] = best_t[j * n + i] = value;                 \
                    c[i * n + j] = count_t[j * n + i] = total;                \
                    u[i * n + j] = (INT)(i + best_k);                         \
                }                                                             \
            }                                                                 \
    }                                                                         \
}

DEFINE_SWEEP(sweep_int32_scalar, , SCALAR_CELL, int32_t, uint32_t)
DEFINE_SWEEP(sweep_int64_scalar, , SCALAR_CELL, int64_t, uint64_t)
DEFINE_SWEEP(sweep_int32_avx2, AVX2_TARGET, AVX2_CELL, int32_t, uint32_t)
DEFINE_SWEEP(sweep_int64_avx2, AVX2_TARGET, AVX2_CELL, int64_t, uint64_t)

/* 1 when this CPU (and its operating system) runs the ``_avx2`` loops. */
int sweep_cpu_avx2(void)
{
#if HAVE_AVX2
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 1 : 0;
#else
    return 0;
#endif
}

/* The cut replay of ``SpatiotemporalAggregator._walk``: every value's
 * aggregates, in the Python walk's pop order.  ``cuts[h]`` is height h's
 * C-contiguous (n_ps, rows[h], n, n) int32 cut slab.  ``index`` packs the
 * hierarchy: ``rows`` (n_heights entries), then per node ``height`` and
 * ``slot`` (node k is row slot[k] of height height[k]), then the children
 * as CSR arrays, ``child_start`` (n_nodes + 1 entries) and ``child`` (node
 * k's children are child[child_start[k]:child_start[k + 1]], in order).
 *
 * For each value q the walk starts from (root, 0, n - 1) on a stack of
 * (node, i, j) areas: a cut equal to j keeps the area as an aggregate, -1
 * pushes the children in order and a temporal cut c pushes (node, i, c)
 * then (node, c + 1, j).  ``found`` has room for ``capacity`` aggregates of
 * four entries (value, node, i, j), filled from the start, and ``stack`` for
 * ``stack_capacity`` areas.  Returns the number of aggregates, -1 after an
 * invalid cut (its value, node, i, j and cut are then the first five
 * entries of ``found``) or -2 when a buffer is too small or a node's slot
 * lies outside its slab.
 */
int64_t walk_int32(int64_t n_ps, int64_t n, int64_t root, int64_t n_heights,
                   int64_t n_nodes, const int32_t *const *cuts,
                   const intptr_t *index, intptr_t *found, int64_t capacity,
                   intptr_t *stack, int64_t stack_capacity)
{
    const intptr_t *rows = index, *height = rows + n_heights;
    const intptr_t *slot = height + n_nodes, *child_start = slot + n_nodes;
    const intptr_t *child = child_start + n_nodes + 1;
    int64_t size = 0;
    if (stack_capacity < 1)
        return -2;
    for (int64_t q = 0; q < n_ps; q++) {
        int64_t top = 1;
        stack[0] = root;
        stack[1] = 0;
        stack[2] = n - 1;
        while (top > 0) {
            top--;
            intptr_t node = stack[3 * top], i = stack[3 * top + 1], j = stack[3 * top + 2];
            intptr_t h = height[node];
            if (slot[node] >= rows[h])
                return -2;
            int64_t cut = cuts[h][((q * rows[h] + slot[node]) * n + i) * n + j];
            if (cut == j) {
                if (size == capacity)
                    return -2;
                found[4 * size] = q;
                found[4 * size + 1] = node;
                found[4 * size + 2] = i;
                found[4 * size + 3] = j;
                size++;
            } else if (cut == -1) {
                intptr_t first = child_start[node], last = child_start[node + 1];
                if (top + (last - first) > stack_capacity)
                    return -2;
                for (intptr_t c = first; c < last; c++, top++) {
                    stack[3 * top] = child[c];
                    stack[3 * top + 1] = i;
                    stack[3 * top + 2] = j;
                }
            } else if (i <= cut && cut < j) {
                if (top + 2 > stack_capacity)
                    return -2;
                stack[3 * top] = node;
                stack[3 * top + 1] = i;
                stack[3 * top + 2] = cut;
                stack[3 * top + 3] = node;
                stack[3 * top + 4] = cut + 1;
                stack[3 * top + 5] = j;
                top += 2;
            } else {
                if (capacity < 2)
                    return -2;
                found[0] = q;
                found[1] = node;
                found[2] = i;
                found[3] = j;
                found[4] = cut;
                return -1;
            }
        }
    }
    return size;
}
