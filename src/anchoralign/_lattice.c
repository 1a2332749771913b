/* Lattice fill and path trace for anchoralign.trellis: one fill per window
 * and one trace per backtrack, each the C twin of a numpy kernel function.
 *
 * trellis.py compiles this file on first use and calls it through ctypes,
 * and allocates every buffer before the call, so nothing here calls malloc.
 * No argument is checked here: trellis.Trellis's constructor is the one
 * place that checks what these loops index (the shapes of window, k and
 * ends, the token and blank values, the sorted end columns), and backtrack
 * passes a j below width. All arrays are C-contiguous: window is
 * n_frames x n_symbols, k is (n_frames + 1) x width bytes, ends is
 * n_frames x n_ends, tokens are vocabulary indices. The fill runs on the
 * calling thread, keeps two rolling score rows and stores one advance
 * decision per cell; each sum and comparison is the one the numpy kernel
 * makes, so the two write the same bits in every clone of the row loop.
 * Column j needs j frames: on row t the columns past t are out of a path's
 * reach, and the fill writes their decision, 1, as the numpy kernel computes
 * it (-inf >= -inf), without scoring them. A float32 window of at most
 * TABLE_SYMBOLS symbols may be passed as well; on a CPU with AVX-512 its rows
 * are scored by score_row_table, which makes the same sums and comparisons.
 * The trace walks k back from a path's end and writes the path's emission
 * frames and its per-frame score rho in the same pass, choosing each rho
 * value by the comparison the numpy kernel's _trace makes.
 * Build with -ffp-contract=off and without -ffast-math to keep the bits.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* gcc vectorises score_row in each clone: with 64-byte vectors and mask
 * registers in the x86-64-v4 (AVX-512 F/BW/DQ/VL) clone, 32-byte vectors in
 * the AVX2 one. Adding, comparing and blending are exact in every lane, so
 * every clone writes the same bits. gcc on x86-64 Linux builds the AVX2 and
 * default clones, and from gcc 11 on, the x86-64-v4 clone and
 * score_row_table, which fill runs on a CPU with AVX-512 F/BW/DQ/VL where the
 * caller passes a float32 window. Elsewhere only the default is built. A
 * build may define ROW_CLONES itself, as the tests do to check one target
 * alone. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define GCC_X86_64 1
#else
#define GCC_X86_64 0
#endif
#define TABLE_ROWS (GCC_X86_64 && __GNUC__ >= 11)

#ifndef ROW_CLONES
#if TABLE_ROWS
#define ROW_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#elif GCC_X86_64
#define ROW_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ROW_CLONES
#endif
#endif

#if TABLE_ROWS
#include <immintrin.h>
#endif

/* The most symbols score_row_table holds: four registers of 16 float32. */
#define TABLE_SYMBOLS 64

/* Score one row of n columns from the previous one, on frame w: advance =
 * prev[i] + w[tokens[i]] and stay = prev[i + 1] + stay_cost, row[i + 1] =
 * max(stay, advance) keeping stay on a tie as np.maximum(stay, advance)
 * does, and advances[i] = advance >= stay, the trace's rule, under which
 * ties advance. */
ROW_CLONES static void score_row(int64_t n, const double *restrict prev,
                                 const double *restrict w, const int64_t *restrict tokens,
                                 double stay_cost, double *restrict row,
                                 uint8_t *restrict advances)
{
    for (int64_t i = 0; i < n; i++) {
        const double advance = prev[i] + w[tokens[i]];
        const double stay = prev[i + 1] + stay_cost;
        advances[i] = advance >= stay;
        row[i + 1] = stay >= advance ? stay : advance;
    }
}

#if TABLE_ROWS
#define TABLE_TARGET __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

/* score_row on the columns [i, i + 8) where mask is set, for their
 * emissions emit; returns the advance decisions as mask bits. max_pd(a, b)
 * is a > b ? a : b, which is score_row's stay >= advance ? stay : advance
 * for any two values but NaN, and the Trellis constructor rejects a window
 * holding NaN or +inf, so no sum here is NaN. */
TABLE_TARGET static inline __attribute__((always_inline)) __mmask8
score_8(int64_t i, __mmask8 mask, __m512d emit, const double *restrict prev, __m512d stay_cost,
        double *restrict row)
{
    const __m512d advance = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, prev + i), emit);
    const __m512d stay = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, prev + i + 1), stay_cost);
    _mm512_mask_storeu_pd(row + i + 1, mask, _mm512_max_pd(advance, stay));
    return _mm512_cmp_pd_mask(advance, stay, _CMP_GE_OQ);
}

/* score_row on the columns [i, i + 16) where mask is set: the emissions are
 * picked from the row's table by token, bits 0-4 selecting among table[0]
 * and table[1] or table[2] and table[3] and bit 5 between the pairs, then
 * widened to float64, which is exact. */
TABLE_TARGET static inline __attribute__((always_inline)) void
score_16(int64_t i, __mmask16 mask, const __m512 table[4], const double *restrict prev,
         const int32_t *restrict tokens, __m512d stay_cost, double *restrict row,
         uint8_t *restrict advances)
{
    const __m512i token = _mm512_maskz_loadu_epi32(mask, tokens + i);
    const __m512 low = _mm512_permutex2var_ps(table[0], token, table[1]);
    const __m512 high = _mm512_permutex2var_ps(table[2], token, table[3]);
    const __m512 emit = _mm512_mask_blend_ps(
        _mm512_test_epi32_mask(token, _mm512_set1_epi32(32)), low, high);
    const __m512d low_emit = _mm512_cvtps_pd(_mm512_castps512_ps256(emit));
    const __m512d high_emit = _mm512_cvtps_pd(_mm512_extractf32x8_ps(emit, 1));
    const __mmask8 first = score_8(i, (__mmask8)mask, low_emit, prev, stay_cost, row);
    const __mmask8 second = score_8(i + 8, (__mmask8)(mask >> 8), high_emit, prev, stay_cost, row);
    const __mmask16 advanced = _mm512_kunpackb(second, first);
    _mm_mask_storeu_epi8(advances + i, mask, _mm_maskz_mov_epi8(advanced, _mm_set1_epi8(1)));
}

/* score_row for a float32 window row w of n_symbols <= TABLE_SYMBOLS values
 * and int32 tokens: the row's emissions are a table in four registers, loaded
 * with masks, and each column's is picked from it by its token in place of a
 * load from w[tokens[i]]. Each column makes score_row's adds, comparisons and
 * stores, on the same float64 values. */
TABLE_TARGET static void score_row_table(int64_t n, const double *restrict prev,
                                         const float *restrict w, int64_t n_symbols,
                                         const int32_t *restrict tokens, double stay_cost,
                                         double *restrict row, uint8_t *restrict advances)
{
    __m512 table[4];
    for (int64_t q = 0; q < 4; q++) {
        const int64_t left = n_symbols - 16 * q;
        table[q] = left <= 0 ? _mm512_setzero_ps()
                             : _mm512_maskz_loadu_ps(left < 16 ? (__mmask16)((1u << left) - 1)
                                                               : (__mmask16)0xffff,
                                                     w + 16 * q);
    }
    const __m512d stay = _mm512_set1_pd(stay_cost);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        score_16(i, 0xffff, table, prev, tokens, stay, row, advances);
    if (i < n)
        score_16(i, (__mmask16)((1u << (n - i)) - 1), table, prev, tokens, stay, row, advances);
}

#endif

/* 1 where fill may run score_row_table: it is built and the CPU has
 * AVX-512 F/BW/DQ/VL. */
static int table_rows(void)
{
#if TABLE_ROWS
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
#else
    return 0;
#endif
}

/* Fill the decisions k for width - 1 tokens, row by row on the calling
 * thread. The score row before any frame is 0 then -inf; column 0 scores 0
 * on every row; and row t scores max(stay, advance) with
 * stay = prev[j] + blank[t-1] and advance = prev[j-1] + w[t-1][tokens[j-1]]
 * as score_row does; the caller zeroes row 0 and column 0 of k. Before row t
 * is scored, ends[t-1][e] takes row t - 1's score in column end_columns[e],
 * or -inf for an end column past width - 1, which no path reaches.
 * Column j needs j frames, so on row t only columns 1 .. min(width - 1, t)
 * are scored. Every later column scores -inf on both of its candidates, and
 * -inf >= -inf advances, so its decision is 1 and its score stays the -inf
 * both rows start with. scratch holds 2 x width doubles for the two score
 * rows, then width / 2 that hold the tokens as int32. window32 is the window
 * as float32 values, or NULL; where it is given, n_symbols <= TABLE_SYMBOLS
 * and table_rows() is 1, the rows are scored with score_row_table. */
void fill(const double *window, const float *window32, int64_t n_frames, int64_t n_symbols,
          const int64_t *tokens, int64_t blank, uint8_t *k, int64_t width,
          const int64_t *end_columns, int64_t n_ends, double *ends, double *scratch)
{
    const int64_t n = width - 1;
    double *prev = scratch, *row = scratch + width;
    int32_t *tokens32 = (int32_t *)(scratch + 2 * width);
    if (window32 && n_symbols <= TABLE_SYMBOLS && table_rows())
        for (int64_t j = 0; j < n; j++)
            tokens32[j] = (int32_t)tokens[j];
    else
        window32 = NULL;
    for (int64_t j = 0; j < width; j++)
        prev[j] = row[j] = -INFINITY;
    prev[0] = row[0] = 0.0;
    for (int64_t t = 1; t <= n_frames; t++) {
        const double *w = window + (t - 1) * n_symbols;
        uint8_t *advances = k + t * width + 1;
        const int64_t m = t < n ? t : n; /* columns 1 .. m are in a path's reach */
        for (int64_t e = 0; e < n_ends; e++) {
            const int64_t c = end_columns[e];
            ends[(t - 1) * n_ends + e] = c < width ? prev[c] : (double)-INFINITY;
        }
#if TABLE_ROWS
        if (window32)
            score_row_table(m, prev, window32 + (t - 1) * n_symbols, n_symbols, tokens32,
                            w[blank], row, advances);
        else
#endif
            score_row(m, prev, w, tokens, w[blank], row, advances);
        memset(advances + m, 1, (size_t)(n - m));
        double *swap = prev;
        prev = row;
        row = swap;
    }
}

/* Trace the best path of j tokens back from cell (t, j), whose trailing
 * blank is emitted on frame t, to column 0, advancing where k[t][j] is set.
 * frames[j] = t, and frames[i] is the frame on which the path emits token i;
 * it holds that token up to frame frames[i + 1] - 1. Every frame f the path
 * passes gets rho[f] = a > b || isnan(a) ? a : b, a being the log
 * probability of the symbol held on f and b the blank's: row t - 1 holds
 * tokens[j - 1], and frame t the blank. So a tie, a zero against a zero of
 * the other sign too, gives the blank's value, and a NaN propagates; the
 * numpy kernel's _trace writes the same rule. Returns 0, or -1 if the walk
 * runs past row 0 first. */
int64_t trace(const uint8_t *k, int64_t width, const double *window, int64_t n_symbols,
              const int64_t *tokens, int64_t blank, int64_t t, int64_t j, int64_t *frames,
              double *rho)
{
    frames[j] = t;
    rho[t] = window[t * n_symbols + blank];
    while (j > 0) {
        if (t < 1)
            return -1;
        const double a = window[(t - 1) * n_symbols + tokens[j - 1]];
        const double b = window[(t - 1) * n_symbols + blank];
        rho[t - 1] = a > b || isnan(a) ? a : b;
        if (k[t * width + j])
            frames[--j] = t - 1;
        t--;
    }
    return 0;
}
