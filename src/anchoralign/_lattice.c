/* Lattice fill and path trace for anchoralign.trellis: one fill per window
 * and one trace per backtrack, each the C twin of a numpy kernel function.
 *
 * trellis.py compiles this file on first use and calls it through ctypes
 * with a Trellis's own arrays and buffers it allocates itself, so nothing
 * here calls malloc. No argument is checked here: trellis.Trellis's
 * constructor is the one place that checks what these loops index (the
 * shapes of window, k and ends, the token and blank values, the sorted end
 * columns), and backtrack passes a j below width. All arrays are
 * C-contiguous: window is n_frames x n_symbols values of value_bytes bytes,
 * float (4) or double (8), each widened to double as it is read, which is
 * exact; ends is n_frames x n_ends, tokens are int32 vocabulary indices, and
 * k holds the advance decisions packed eight to a byte, n_frames x
 * (width + 6) / 8 bytes: the decision for column j on frame t is bit
 * (j - 1) % 8 of byte (j - 1) / 8 of row t - 1, numpy's
 * packbits(..., bitorder="little") order, and the padding bits past column
 * width - 1 are 0. Row 0 and column
 * 0, the free start, have no bits: the trace never reads them. The fill runs
 * on the calling thread, keeps two rolling score rows and stores one advance
 * decision per cell; each sum and comparison is the one the numpy kernel
 * makes, so the two write the same bits in every clone of the row loop.
 * Column j needs j frames: on row t the columns past t are out of a path's
 * reach, and the fill sets their decision, 1, as the numpy kernel computes
 * it (-inf >= -inf), without scoring them. On a CPU with AVX-512, the rows
 * of a float window of at most TABLE_SYMBOLS symbols are scored by
 * score_row_table, which reads the window and tokens in place and stores its
 * decisions as the mask bits it computes them in. The row clones read a
 * double row in place or a float row widened once, write a row's decisions
 * one to a byte and pack them in one pass. The trace walks k back from a
 * path's end and writes the path's emission frames and its per-frame score
 * rho in the same pass, choosing each rho value by the comparison the numpy
 * kernel's _trace makes.
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
 * score_row_table, which fill runs on a CPU with AVX-512 F/BW/DQ/VL for a
 * float32 window. Elsewhere only the default is built. A
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
 * does, and the decision advance >= stay, the trace's rule, under which ties
 * advance. The decisions go one to a byte into bytes, which has room for n
 * rounded up to a multiple of 8, and are then packed eight to a byte into
 * the (n + 7) / 8 bytes of bits, with 0s past column n: eight bytes of 0 or
 * 1 read as a little-endian word, times 0x0102040810204080, carry byte q's
 * bit to bit 56 + q, and no two of the product's terms share a bit, so
 * nothing else reaches the top byte. */
ROW_CLONES static void score_row(int64_t n, const double *restrict prev,
                                 const double *restrict w, const int32_t *restrict tokens,
                                 double stay_cost, double *restrict row,
                                 uint8_t *restrict bytes, uint8_t *restrict bits)
{
    for (int64_t i = 0; i < n; i++) {
        const double advance = prev[i] + w[tokens[i]];
        const double stay = prev[i + 1] + stay_cost;
        bytes[i] = advance >= stay;
        row[i + 1] = stay >= advance ? stay : advance;
    }
    const int64_t n_bytes = (n + 7) / 8;
    memset(bytes + n, 0, (size_t)(8 * n_bytes - n));
    for (int64_t b = 0; b < n_bytes; b++) {
        uint64_t word;
        memcpy(&word, bytes + 8 * b, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        word = __builtin_bswap64(word); /* byte q at bits 8q .. 8q + 7 */
#endif
        bits[b] = (uint8_t)((word * UINT64_C(0x0102040810204080)) >> 56);
    }
}

#if TABLE_ROWS
#define TABLE_TARGET __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

/* score_row on the columns [i, i + 8) where mask is set, for their
 * emissions emit; returns the advance decisions as mask bits, 0 where mask
 * is not set. max_pd(a, b) is a > b ? a : b, which is score_row's
 * stay >= advance ? stay : advance for any two values but NaN, and the
 * Trellis constructor rejects a window holding NaN or +inf, so no sum here
 * is NaN. */
TABLE_TARGET static inline __attribute__((always_inline)) __mmask8
score_8(int64_t i, __mmask8 mask, __m512d emit, const double *restrict prev, __m512d stay_cost,
        double *restrict row)
{
    const __m512d advance = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, prev + i), emit);
    const __m512d stay = _mm512_add_pd(_mm512_maskz_loadu_pd(mask, prev + i + 1), stay_cost);
    _mm512_mask_storeu_pd(row + i + 1, mask, _mm512_max_pd(advance, stay));
    return _mm512_mask_cmp_pd_mask(mask, advance, stay, _CMP_GE_OQ);
}

/* score_row on the columns [i, i + 16) where mask is set: the emissions are
 * picked from the row's table by token, bits 0-4 selecting among table[0]
 * and table[1] or table[2] and table[3] and bit 5 between the pairs, then
 * widened to float64, which is exact. The 16 decisions are stored as the
 * mask's two bytes at bits[i / 8], i being a multiple of 16, or as its low
 * byte alone where mask holds 8 columns or fewer, so no store passes the
 * last column's byte. */
TABLE_TARGET static inline __attribute__((always_inline)) void
score_16(int64_t i, __mmask16 mask, const __m512 table[4], const double *restrict prev,
         const int32_t *restrict tokens, __m512d stay_cost, double *restrict row,
         uint8_t *restrict bits)
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
    bits[i / 8] = (uint8_t)advanced;
    if (mask > 0xff)
        bits[i / 8 + 1] = (uint8_t)(advanced >> 8);
}

/* score_row for a float32 window row w of n_symbols <= TABLE_SYMBOLS values
 * and int32 tokens: the row's emissions are a table in four registers, loaded
 * with masks, and each column's is picked from it by its token in place of a
 * load from w[tokens[i]]. Each column makes score_row's adds, comparisons and
 * stores, on the same float64 values, and bits gets score_row's packed
 * bytes. */
TABLE_TARGET static void score_row_table(int64_t n, const double *restrict prev,
                                         const float *restrict w, int64_t n_symbols,
                                         const int32_t *restrict tokens, double stay_cost,
                                         double *restrict row, uint8_t *restrict bits)
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
        score_16(i, 0xffff, table, prev, tokens, stay, row, bits);
    if (i < n)
        score_16(i, (__mmask16)((1u << (n - i)) - 1), table, prev, tokens, stay, row, bits);
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

/* Columns m .. n - 1 (from 0) of a packed row of n are out of a path's
 * reach, so their decision is 1: set their bits, after the m decisions in
 * the row's first (m + 7) / 8 bytes, whose bits past m are 0, and write
 * every later byte, keeping the padding bits past n at 0. */
static void out_of_reach(int64_t m, int64_t n, uint8_t *bits)
{
    if (m == n)
        return;
    int64_t b = m / 8;
    if (m % 8)
        bits[b++] |= (uint8_t)(0xff << (m % 8));
    memset(bits + b, 0xff, (size_t)((n + 7) / 8 - b));
    if (n % 8)
        bits[(n - 1) / 8] &= (uint8_t)(0xff >> (8 - n % 8));
}

/* Window value i, widened to double, which is exact. */
static double value(const void *window, int64_t value_bytes, int64_t i)
{
    return value_bytes == 4 ? (double)((const float *)window)[i] : ((const double *)window)[i];
}

/* Fill the decisions k for width - 1 tokens, row by row on the calling
 * thread. The score row before any frame is 0 then -inf; column 0 scores 0
 * on every row; and row t scores max(stay, advance) with
 * stay = prev[j] + blank[t-1] and advance = prev[j-1] + w[t-1][tokens[j-1]]
 * as score_row does, its decisions packed into row t - 1 of k. Before row t
 * is scored, ends[t-1][e] takes row t - 1's score in column end_columns[e],
 * or -inf for an end column past width - 1, which no path reaches.
 * Column j needs j frames, so on row t only columns 1 .. min(width - 1, t)
 * are scored. Every later column scores -inf on both of its candidates, and
 * -inf >= -inf advances, so its bit is 1 and its score stays the -inf both
 * rows start with. Every byte of k is written, so k need not be zeroed.
 * scratch holds 2 x width doubles for the two score rows, n_symbols for a
 * float32 row widened for the row clones, then (width + 6) / 8 for a row's
 * decisions one to a byte. Where table_rows() is 1, the rows of a float32
 * window of at most TABLE_SYMBOLS symbols are scored with score_row_table
 * instead, which needs neither. */
void fill(const void *window, int64_t value_bytes, int64_t n_frames, int64_t n_symbols,
          const int32_t *tokens, int64_t blank, uint8_t *k, int64_t width,
          const int64_t *end_columns, int64_t n_ends, double *ends, double *scratch)
{
    const int64_t n = width - 1, row_bytes = (n + 7) / 8;
    double *prev = scratch, *row = scratch + width, *widened = scratch + 2 * width;
    uint8_t *bytes = (uint8_t *)(widened + n_symbols);
    const int table = value_bytes == 4 && n_symbols <= TABLE_SYMBOLS && table_rows();
    for (int64_t j = 0; j < width; j++)
        prev[j] = row[j] = -INFINITY;
    prev[0] = row[0] = 0.0;
    for (int64_t t = 1; t <= n_frames; t++) {
        const int64_t first = (t - 1) * n_symbols; /* the row's first value */
        const double stay_cost = value(window, value_bytes, first + blank);
        uint8_t *bits = k + (t - 1) * row_bytes;
        const int64_t m = t < n ? t : n; /* columns 1 .. m are in a path's reach */
        for (int64_t e = 0; e < n_ends; e++) {
            const int64_t c = end_columns[e];
            ends[(t - 1) * n_ends + e] = c < width ? prev[c] : (double)-INFINITY;
        }
        if (!table) {
            if (value_bytes == 4)
                for (int64_t v = 0; v < n_symbols; v++)
                    widened[v] = value(window, value_bytes, first + v);
            const double *w = value_bytes == 4 ? widened : (const double *)window + first;
            score_row(m, prev, w, tokens, stay_cost, row, bytes, bits);
        }
#if TABLE_ROWS
        else
            score_row_table(m, prev, (const float *)window + first, n_symbols, tokens, stay_cost,
                            row, bits);
#endif
        out_of_reach(m, n, bits);
        double *swap = prev;
        prev = row;
        row = swap;
    }
}

/* Trace the best path of j tokens back from cell (t, j), whose trailing
 * blank is emitted on frame t, to column 0, advancing where the decision
 * for column j on frame t, bit (j - 1) % 8 of byte (j - 1) / 8 of k's row
 * t - 1, is set.
 * frames[j] = t, and frames[i] is the frame on which the path emits token i;
 * it holds that token up to frame frames[i + 1] - 1. Every frame f the path
 * passes gets rho[f] = a > b || isnan(a) ? a : b, a being the log
 * probability of the symbol held on f and b the blank's: row t - 1 holds
 * tokens[j - 1], and frame t the blank. So a tie, a zero against a zero of
 * the other sign too, gives the blank's value, and a NaN propagates; the
 * numpy kernel's _trace writes the same rule. Returns 0, or -1 if the walk
 * runs past row 0 first. */
int64_t trace(const uint8_t *k, int64_t width, const void *window, int64_t value_bytes,
              int64_t n_symbols, const int32_t *tokens, int64_t blank, int64_t t, int64_t j,
              int64_t *frames, double *rho)
{
    const int64_t row_bytes = (width + 6) / 8;
    frames[j] = t;
    rho[t] = value(window, value_bytes, t * n_symbols + blank);
    while (j > 0) {
        if (t < 1)
            return -1;
        const double a = value(window, value_bytes, (t - 1) * n_symbols + tokens[j - 1]);
        const double b = value(window, value_bytes, (t - 1) * n_symbols + blank);
        rho[t - 1] = a > b || isnan(a) ? a : b;
        if (k[(t - 1) * row_bytes + (j - 1) / 8] >> ((j - 1) % 8) & 1)
            frames[--j] = t - 1;
        t--;
    }
    return 0;
}
