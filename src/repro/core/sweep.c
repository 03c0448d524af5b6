/* Algorithm 1's temporal-cut sweep, cut replay, the ``mean`` operator's
 * gain/loss table fill and the CSV scan, the ``c`` tier of
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
 * The table fill (``fill_mean_macro``, ``fill_mean_gain_loss``) is the
 * arithmetic of ``IntervalStatistics``' fill for the ``mean`` operator
 * (Eq. 1-3) as two passes around numpy's ``log2``, which stays in numpy:
 * numpy's vectorized float64 ``log2`` does not round like the C library's
 * on every input, and the numpy tier takes its logarithms from numpy.
 *
 * The CSV scan (``csv_scan``, at the end) reads ``repro.trace.io``'s row
 * blocks: fields, interned names and the timestamps on the exact path.
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

/* The ``mean`` operator's gain/loss table fill, for one chunk of ``n_nodes``
 * nodes and the start rows [lo, hi) of ``n`` slices over ``n_states`` states.
 * The chunk's cells are the intervals (i, j) with lo <= i < hi and
 * i <= j < n, packed row by row (``fill_cells`` of them per node).  Every
 * per-state array is state-major: ``prefix[(x * n_nodes + node) * (n + 1)
 * + t]`` is a time prefix (the sum over the node's slices before t), and
 * ``macro[(x * n_nodes + node) * cells + cell]`` a packed cell. */
static int64_t fill_cells(int64_t n, int64_t lo, int64_t hi)
{
    return (hi - lo) * n - (lo + hi - 1) * (hi - lo) / 2;
}

/* Pass 1, Eq. 1: macro = (pd[j + 1] - pd[i]) / den per state and cell, with
 * den = leaves[node] * durations[i * n + j] (the node's leaf count times the
 * interval's duration) replaced by 1.0 unless it is > 0. */
void fill_mean_macro(int64_t n_states, int64_t n_nodes, int64_t n, int64_t lo, int64_t hi,
                     const double *prefix_durations, const double *durations,
                     const double *leaves, double *macro)
{
    int64_t cells = fill_cells(n, lo, hi);
    for (int64_t s = 0; s < n_states * n_nodes; s++) {
        const double *pd = prefix_durations + s * (n + 1);
        double count = leaves[s % n_nodes];
        double *out = macro + s * cells;
        for (int64_t i = lo; i < hi; i++) {
            const double *duration = durations + i * n;
            for (int64_t j = i; j < n; j++) {
                double den = count * duration[j];
                *out++ = (pd[j + 1] - pd[i]) / (den > 0 ? den : 1.0);
            }
        }
    }
}

/* ``operators._pairwise_sum``: numpy's contiguous pairwise order. */
static double pairwise_sum(const double *v, int64_t n)
{
    if (n > 128) {
        int64_t half = n / 2;
        half -= half % 8;
        return pairwise_sum(v, half) + pairwise_sum(v + half, n - half);
    }
    double total = 0.0;
    int64_t stop = 0;
    if (n >= 8) {
        double p[8];
        stop = n - n % 8;
        for (int k = 0; k < 8; k++)
            p[k] = v[k];
        for (int64_t x = 8; x < stop; x += 8)
            for (int k = 0; k < 8; k++)
                p[k] += v[x + k];
        total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
    }
    for (int64_t x = stop; x < n; x++)
        total += v[x];
    return total;
}

/* Pass 2, Eq. 2-3: each cell's gain and loss, in the operations of
 * ``operators._representative_gain_loss`` state by state (``log_macro`` is
 * numpy's log2 of ``macro`` where it is > 0, else 0), summed over states as
 * ``operators.state_sum`` does.  ``gain`` and ``loss`` are
 * (n_nodes, hi - lo, n - lo): the end columns j >= lo of the rows, zero
 * where j < i.  ``scratch`` holds 2 * n_states doubles. */
void fill_mean_gain_loss(int64_t n_states, int64_t n_nodes, int64_t n, int64_t lo, int64_t hi,
                         const double *prefix_rho, const double *prefix_rho_log_rho,
                         const double *macro, const double *log_macro,
                         double *gain, double *loss, double *scratch)
{
    int64_t cells = fill_cells(n, lo, hi), rows = hi - lo, cols = n - lo;
    int64_t plane = n_nodes * cells, prefix_plane = n_nodes * (n + 1);
    double *g = scratch, *l = scratch + n_states;
    for (int64_t node = 0; node < n_nodes; node++) {
        int64_t cell = node * cells;
        const double *rho = prefix_rho + node * (n + 1);
        const double *rlr = prefix_rho_log_rho + node * (n + 1);
        for (int64_t i = lo; i < hi; i++) {
            double *gain_row = gain + (node * rows + i - lo) * cols;
            double *loss_row = loss + (node * rows + i - lo) * cols;
            for (int64_t j = lo; j < i; j++)
                gain_row[j - lo] = loss_row[j - lo] = 0.0;
            for (int64_t j = i; j < n; j++, cell++) {
                /* Below 8 states the sum is sequential from +0.0: it runs
                 * as the states come, with no scratch. */
                double gain_sum = 0.0, loss_sum = 0.0;
                for (int64_t x = 0; x < n_states; x++) {
                    const double *rho_x = rho + x * prefix_plane, *rlr_x = rlr + x * prefix_plane;
                    double m = macro[x * plane + cell], lm = log_macro[x * plane + cell];
                    double srho = rho_x[j + 1] - rho_x[i], srlr = rlr_x[j + 1] - rlr_x[i];
                    double gx = m > 0 ? m * lm : 0.0;
                    gx = gx - srlr;
                    double lx = srlr - srho * lm;
                    if (m <= 0 && srho <= 0)
                        gx = lx = 0.0;
                    if (n_states < 8) {
                        gain_sum += gx;
                        loss_sum += lx;
                    } else {
                        g[x] = gx;
                        l[x] = lx;
                    }
                }
                if (n_states >= 8) {
                    gain_sum = pairwise_sum(g, n_states);
                    loss_sum = pairwise_sum(l, n_states);
                }
                gain_row[j - lo] = 0.0 + gain_sum;
                loss_row[j - lo] = 0.0 + loss_sum;
            }
        }
    }
}

/* The CSV scan of ``repro.trace.io``: one block of CSV rows (the header
 * already taken off), each row up to ``\n`` (or ``\r\n``) split into four
 * fields at ``,``.  The scan is stateless, allocates nothing, reads only
 * ``data[0:size)`` and does not depend on the locale.  It declines the
 * block (returns CSV_DECLINED, ``counts[0]`` then naming the row) on a
 * quote, a NUL, a bare ``\r``, a blank line, a row of other than four
 * fields, a field of more than ``field_limit`` bytes, or more rows than
 * ``capacity``: ``csv.reader`` might read such a block otherwise, so it is
 * left to the Python parser.
 *
 * Paths and states are interned as they come: each goes into its own
 * open-addressing table (FNV-1a, linear probing, every hit verified with
 * memcmp), reset on entry.  A table starts at CSV_TABLE_START slots and
 * doubles, rehashing its names, whenever it gets half full; ``table_size``
 * slots, a power of two of at least twice ``capacity``, are room for every
 * row's name at that load.  Row r gets block-local codes ``paths[r]`` and
 * ``states[r]`` in order of first appearance, and ``path_keys`` /
 * ``state_keys`` hold the (offset, length) of each distinct name.
 *
 * Timestamps are computed only on Clinger's exact path: a text of the form
 * [+-]digits[.digits][(e|E)[+-]digits] (``.5`` and ``5.`` included) whose
 * digits make an integer m <= 2^53 and whose decimal exponent k has
 * |k| <= 22.  Both m and 10^|k| are exact doubles, so the one product or
 * quotient is the correctly rounded value of the text, the value Python's
 * ``float()`` gives.  Any other text is flagged in ``flags[r]`` (bit 0 the
 * start, bit 1 the end) and left to ``float()``; ``row_starts[r]`` is the
 * row's offset, for reading it.  That needs every double operation to round
 * once, to double: without FLT_EVAL_METHOD == 0 the scan answers
 * CSV_UNAVAILABLE.  ``counts`` receives the rows, distinct paths and
 * distinct states. */
#include <float.h>
#include <string.h>

#define CSV_DONE 0
#define CSV_DECLINED 1
#define CSV_UNAVAILABLE 2

#define CSV_TABLE_START 256

typedef struct {
    int32_t *slots;
    uint64_t mask, limit;
    int64_t *keys;
    int32_t size;
} csv_table;

static uint64_t csv_hash(const unsigned char *text, int64_t length)
{
    uint64_t hash = 14695981039346656037ULL;
    for (int64_t i = 0; i < length; i++)
        hash = (hash ^ text[i]) * 1099511628211ULL;
    return hash;
}

/* An empty table of ``slots`` slots (a power of two) within ``limit``. */
static csv_table csv_table_new(int32_t *slots, int64_t *keys, uint64_t limit)
{
    csv_table table = {slots, (limit < CSV_TABLE_START ? limit : CSV_TABLE_START) - 1,
                       limit, keys, 0};
    memset(slots, 0xff, (table.mask + 1) * sizeof(int32_t));
    return table;
}

/* Double the table and put its names back (code order). */
static void csv_grow(csv_table *table, const unsigned char *data)
{
    table->mask = 2 * table->mask + 1;
    memset(table->slots, 0xff, (table->mask + 1) * sizeof(int32_t));
    for (int32_t code = 0; code < table->size; code++) {
        const int64_t *key = table->keys + 2 * (int64_t)code;
        uint64_t slot = csv_hash(data + key[0], key[1]) & table->mask;
        while (table->slots[slot] >= 0)
            slot = (slot + 1) & table->mask;
        table->slots[slot] = code;
    }
}

/* The block-local code of ``data[offset:offset + length)``, added if new. */
static int32_t csv_intern(csv_table *table, const unsigned char *data, int64_t offset,
                          int64_t length)
{
    uint64_t slot = csv_hash(data + offset, length) & table->mask;
    for (;; slot = (slot + 1) & table->mask) {
        int32_t code = table->slots[slot];
        if (code >= 0) {
            const int64_t *key = table->keys + 2 * (int64_t)code;
            if (key[1] == length && memcmp(data + key[0], data + offset, (size_t)length) == 0)
                return code;
            continue;
        }
        code = table->size++;
        table->keys[2 * (int64_t)code] = offset;
        table->keys[2 * (int64_t)code + 1] = length;
        table->slots[slot] = code;
        if (2 * (uint64_t)table->size > table->mask && table->mask + 1 < table->limit)
            csv_grow(table, data);
        return code;
    }
}

static const double csv_powers[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* 1 and the value of ``text`` in ``*value`` when it is on the exact path. */
static int csv_float(const unsigned char *text, int64_t length, double *value)
{
    int64_t i = 0, digits = 0, scale = 0, exponent = 0;
    uint64_t mantissa = 0;
    int negative = 0, exact = 1;
    if (i < length && (text[i] == '+' || text[i] == '-'))
        negative = text[i++] == '-';
    for (int point = 0;; i++) {
        if (i < length && text[i] == '.' && !point) {
            point = 1;
            continue;
        }
        if (i == length || (unsigned)(text[i] - '0') > 9)
            break;
        digits++;
        scale -= point;
        /* Past 2^53 / 10 one more digit may leave the exact range. */
        if (mantissa > 900719925474099ULL)
            exact = 0;
        else
            mantissa = 10 * mantissa + (uint64_t)(text[i] - '0');
    }
    if (digits == 0)
        return 0;
    if (i < length && (text[i] == 'e' || text[i] == 'E')) {
        int minus = 0;
        if (++i < length && (text[i] == '+' || text[i] == '-'))
            minus = text[i++] == '-';
        if (i == length)
            return 0;
        for (; i < length && (unsigned)(text[i] - '0') <= 9; i++)
            if (exponent < 100000)
                exponent = 10 * exponent + (text[i] - '0');
        scale += minus ? -exponent : exponent;
    }
    if (i != length || !exact || mantissa > (1ULL << 53) || scale < -22 || scale > 22)
        return 0;
    double result = (double)mantissa;
    result = scale < 0 ? result / csv_powers[-scale] : result * csv_powers[scale];
    *value = negative ? -result : result;
    return 1;
}

int64_t csv_scan(const char *text, int64_t size, int64_t field_limit, int64_t capacity,
                 double *starts, double *ends, uint8_t *flags, int64_t *row_starts,
                 int32_t *paths, int32_t *states, int64_t *path_keys, int64_t *state_keys,
                 int32_t *table_slots, int64_t table_size, int64_t *counts)
{
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
    return CSV_UNAVAILABLE;
#endif
    const unsigned char *data = (const unsigned char *)text;
    csv_table path_table = csv_table_new(table_slots, path_keys, (uint64_t)table_size);
    csv_table state_table = csv_table_new(table_slots + table_size, state_keys,
                                          (uint64_t)table_size);
    int64_t row = 0, pos = 0;
    for (; pos < size; row++) {
        int64_t offset[4], length[4];
        int n_fields = 0;
        if (row == capacity)
            goto decline;
        row_starts[row] = pos;
        for (int64_t field = pos;; pos++) {
            unsigned char c = pos < size ? data[pos] : '\n';
            int64_t end = pos;
            if (c == '\r') {
                if (pos + 1 >= size || data[pos + 1] != '\n')
                    goto decline;
                c = data[++pos];
            } else if (c == '"' || c == '\0') {
                goto decline;
            }
            if (c != ',' && c != '\n')
                continue;
            if (n_fields == 4 || end - field > field_limit)
                goto decline;
            offset[n_fields] = field;
            length[n_fields++] = end - field;
            field = pos + 1;
            if (c == '\n')
                break;
        }
        pos++;
        if (n_fields != 4)
            goto decline;
        paths[row] = csv_intern(&path_table, data, offset[0], length[0]);
        states[row] = csv_intern(&state_table, data, offset[1], length[1]);
        uint8_t flag = 0;
        if (!csv_float(data + offset[2], length[2], starts + row))
            flag |= 1;
        if (!csv_float(data + offset[3], length[3], ends + row))
            flag |= 2;
        flags[row] = flag;
    }
    counts[0] = row;
    counts[1] = path_table.size;
    counts[2] = state_table.size;
    return CSV_DONE;
decline:
    counts[0] = row;
    return CSV_DECLINED;
}
