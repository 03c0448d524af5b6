/* Algorithm 1's temporal-cut sweep, the ``c`` tier of repro.core.kernels.
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
