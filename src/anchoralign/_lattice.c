/* Lattice fill and backtrack walk for anchoralign.trellis.
 *
 * trellis.py compiles this file on first use and calls it through ctypes;
 * it validates every argument before the call. All arrays are C-contiguous:
 * window is n_frames x n_symbols, k is (n_frames + 1) x width, tokens are
 * vocabulary indices. Each sum and comparison is the one the numpy kernel
 * makes, so the two write the same bits; build with -ffp-contract=off and
 * without -ffast-math to keep it so.
 */
#include <math.h>
#include <stdint.h>

/* Fill k for width - 1 tokens: row 0 is 0 then -inf, column 0 is 0, and
 * k[t][j] = max(k[t-1][j] + blank[t-1], k[t-1][j-1] + w[t-1][tokens[j-1]]),
 * keeping the stay value on a tie as np.maximum(stay, advance) does. */
void fill(const double *window, int64_t n_frames, int64_t n_symbols,
          const int64_t *tokens, int64_t blank, double *k, int64_t width)
{
    k[0] = 0.0;
    for (int64_t j = 1; j < width; j++)
        k[j] = -INFINITY;
    for (int64_t t = 1; t <= n_frames; t++) {
        const double *w = window + (t - 1) * n_symbols;
        const double *prev = k + (t - 1) * width;
        double *row = k + t * width;
        const double stay_cost = w[blank];
        row[0] = 0.0;
        for (int64_t j = 1; j < width; j++) {
            const double advance = prev[j - 1] + w[tokens[j - 1]];
            const double stay = prev[j] + stay_cost;
            row[j] = stay >= advance ? stay : advance;
        }
    }
}

/* Walk back from cell (t, j) until column first_token is reached, advancing
 * where k[t-1][j-1] + w[t-1][tokens[j-1]] >= k[t-1][j] + blank[t-1], and
 * record in advance_row[j] the row where the path advanced into column j.
 * Returns 0, or -1 if the walk runs past row 0 first. */
int64_t walk(const double *k, int64_t width, const double *window, int64_t n_symbols,
             const int64_t *tokens, int64_t blank, int64_t t, int64_t j,
             int64_t first_token, int64_t *advance_row)
{
    while (j > first_token) {
        if (t < 1)
            return -1;
        const double *w = window + (t - 1) * n_symbols;
        const double *prev = k + (t - 1) * width;
        if (prev[j - 1] + w[tokens[j - 1]] >= prev[j] + w[blank]) {
            advance_row[j] = t;
            j--;
        }
        t--;
    }
    return 0;
}
