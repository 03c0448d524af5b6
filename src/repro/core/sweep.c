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
 * Build with -ffp-contract=off and without -ffast-math: every float is the
 * same IEEE operation on the same operands as in the numpy tier.  Counts are
 * added in unsigned arithmetic, which wraps like numpy's integer add.
 */
#include <stdint.h>

#define DEFINE_SWEEP(NAME, INT, UINT)                                          \
void NAME(int64_t n_nodes, int64_t n, double *best, INT *cut, INT *count,     \
          double *best_t, INT *count_t, double epsilon, INT no_eligible)      \
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
                double top = lb[0] + rb[0];                                   \
                int nan = top != top;                                         \
                for (int64_t k = 1; k < length; k++) {                        \
                    double v = lb[k] + rb[k];                                 \
                    nan |= v != v;                                            \
                    top = v > top ? v : top;                                  \
                }                                                             \
                /* A NaN maximum makes no cut eligible: the argmin is 0. */   \
                int64_t best_k = 0;                                           \
                INT best_count = no_eligible;                                 \
                double threshold = top - epsilon;                             \
                for (int64_t k = 0; k < (nan ? 0 : length); k++) {            \
                    if (lb[k] + rb[k] >= threshold) {                         \
                        INT total = (INT)((UINT)lc[k] + (UINT)rc[k]);         \
                        if (total < best_count) {                             \
                            best_count = total;                               \
                            best_k = k;                                       \
                        }                                                     \
                    }                                                         \
                }                                                             \
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

DEFINE_SWEEP(sweep_int32, int32_t, uint32_t)
DEFINE_SWEEP(sweep_int64, int64_t, uint64_t)

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
