/* Lattice fill and backtrack walk for anchoralign.trellis.
 *
 * trellis.py compiles this file on first use and calls it through ctypes;
 * it validates every argument before the call. All arrays are C-contiguous:
 * window is n_frames x n_symbols, k is (n_frames + 1) x width bytes, ends is
 * n_frames x n_ends, tokens are vocabulary indices. The fill keeps two
 * rolling score rows and stores one advance decision per cell; each sum and
 * comparison is the one the numpy kernel makes, so the two write the same
 * bits. Build with -ffp-contract=off and without -ffast-math to keep it so.
 */
#include <math.h>
#include <stdint.h>

/* Fill the decisions k for width - 1 tokens. The score row before any frame
 * is 0 then -inf; column 0 scores 0 on every row; and row t scores
 * max(stay, advance) with stay = prev[j] + blank[t-1] and
 * advance = prev[j-1] + w[t-1][tokens[j-1]], keeping stay on a tie as
 * np.maximum(stay, advance) does. k[t][j] = advance >= stay, the walk's rule,
 * under which ties advance; the caller zeroes row 0 and column 0 of k.
 * Before row t is scored, ends[t-1][e] takes row t - 1's score in column
 * end_columns[e]. scratch holds 2 x width doubles. */
void fill(const double *window, int64_t n_frames, int64_t n_symbols,
          const int64_t *tokens, int64_t blank, uint8_t *k, int64_t width,
          const int64_t *end_columns, int64_t n_ends, double *ends, double *scratch)
{
    double *prev = scratch, *row = scratch + width;
    prev[0] = 0.0;
    for (int64_t j = 1; j < width; j++)
        prev[j] = -INFINITY;
    for (int64_t t = 1; t <= n_frames; t++) {
        const double *w = window + (t - 1) * n_symbols;
        const double stay_cost = w[blank];
        uint8_t *advances = k + t * width;
        for (int64_t e = 0; e < n_ends; e++)
            ends[(t - 1) * n_ends + e] = prev[end_columns[e]];
        row[0] = 0.0;
        for (int64_t j = 1; j < width; j++) {
            const double advance = prev[j - 1] + w[tokens[j - 1]];
            const double stay = prev[j] + stay_cost;
            advances[j] = advance >= stay;
            row[j] = stay >= advance ? stay : advance;
        }
        double *swap = prev;
        prev = row;
        row = swap;
    }
}

/* Walk back from cell (t, j) until column first_token is reached, advancing
 * where k[t][j] is set, and record in advance_row[j] the row where the path
 * advanced into column j. Returns 0, or -1 if the walk runs past row 0 first. */
int64_t walk(const uint8_t *k, int64_t width, int64_t t, int64_t j, int64_t first_token,
             int64_t *advance_row)
{
    while (j > first_token) {
        if (t < 1)
            return -1;
        if (k[t * width + j]) {
            advance_row[j] = t;
            j--;
        }
        t--;
    }
    return 0;
}
