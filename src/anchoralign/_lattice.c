/* Lattice fill and backtrack walk for anchoralign.trellis.
 *
 * trellis.py compiles this file on first use and calls it through ctypes;
 * it validates every argument and allocates every buffer before the call,
 * so nothing here calls malloc. All arrays are C-contiguous: window is
 * n_frames x n_symbols, k is (n_frames + 1) x width bytes, ends is
 * n_frames x n_ends, tokens are vocabulary indices. The fill keeps two
 * rolling score rows and stores one advance decision per cell; each sum and
 * comparison is the one the numpy kernel makes, so the two write the same
 * bits for any slab count and in every clone of the row loop. Column j needs
 * j frames: on row t the columns past t are out of a path's reach, and the
 * fill writes their decision, 1, as the numpy kernel computes it (-inf >=
 * -inf), without scoring them. A float32 window of at most TABLE_SYMBOLS
 * symbols may be passed as well; on a CPU with AVX-512 its rows are scored by
 * score_row_table, which makes the same sums and comparisons. Build with
 * -ffp-contract=off and without -ffast-math to keep the bits.
 */
#define _POSIX_C_SOURCE 200809L
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

/* polls of the left slab's row count between sched_yield calls */
#define SPINS_PER_YIELD 256
/* Rows a slab lets its left neighbour run ahead when it has to wait, so that
 * it reads the neighbour's row count about once per LAG_ROWS rows, not once
 * per row. On a 6000 x 683 window on a 2-core x86-64 VM with the AVX-512
 * row loop, two slabs took 0.53-0.60 ns a cell waiting for 1 row and
 * 0.47-0.52 waiting for 16; 4 and 64 were no faster than 16. */
#define LAG_ROWS 16

/* gcc vectorises score_row in each clone: with 64-byte vectors and mask
 * registers in the x86-64-v4 (AVX-512 F/BW/DQ/VL) clone, 32-byte vectors in
 * the AVX2 one. Adding, comparing and blending are exact in every lane, so
 * every clone writes the same bits. gcc before 11 has no x86-64-v4 and builds
 * the AVX2 and default clones; elsewhere only the default is built. A build
 * may define ROW_CLONES itself, as the tests do to check one target alone. */
#ifndef ROW_CLONES
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#if __GNUC__ >= 11
#define ROW_CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define ROW_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#else
#define ROW_CLONES
#endif
#endif

/* gcc on x86-64 also builds score_row_table, which fill runs on a CPU with
 * AVX-512 F/BW/DQ/VL where the caller passes a float32 window: under the
 * guards that give ROW_CLONES its x86-64-v4 clone. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__) && \
    __GNUC__ >= 11
#define TABLE_ROWS 1
#include <immintrin.h>
#else
#define TABLE_ROWS 0
#endif

/* The most symbols score_row_table holds: four registers of 16 float32. */
#define TABLE_SYMBOLS 64

struct lattice {
    const double *window;
    const float *table; /* the float32 window score_row_table reads, or NULL */
    int64_t n_frames, n_symbols;
    const int64_t *tokens;
    const int32_t *tokens32; /* tokens as int32, for score_row_table */
    int64_t blank;
    uint8_t *k;
    int64_t width;
    const int64_t *end_columns;
    int64_t n_ends;
    double *ends;
};

/* The lattice columns [lo, hi), filled row by row by one thread. prev and
 * row hold hi - lo + 1 scores, entry 0 being column lo - 1. Unless it is the
 * last slab, the slab writes its score in column hi - 1 on row t to right[t]
 * and then stores t in rows_done (release), which the slab to its right
 * loads (acquire). It writes ends for end_columns[end_lo .. end_hi), the end
 * columns in its range, column 0 being the first slab's. */
struct slab {
    _Alignas(64) _Atomic int64_t rows_done;
    const struct lattice *lat;
    int64_t lo, hi, end_lo, end_hi;
    double *prev, *row, *right;
    struct slab *left; /* NULL for the first slab, whose column lo - 1 is column 0 */
};

/* Score one row of n columns from the previous one, on frame w: advance =
 * prev[i] + w[tokens[i]] and stay = prev[i + 1] + stay_cost, row[i + 1] =
 * max(stay, advance) keeping stay on a tie as np.maximum(stay, advance)
 * does, and advances[i] = advance >= stay, the walk's rule, under which
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
 * for any two values but NaN, and trellis.py rejects a window holding NaN
 * or +inf, so no sum here is NaN. */
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

/* 1 where fill may run score_row_table: it is built and the CPU has
 * AVX-512 F/BW/DQ/VL. */
int64_t table_rows(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
}
#else
int64_t table_rows(void)
{
    return 0;
}
#endif

/* Wait until the slab s has published at least `rows` rows; return the
 * count it has published. */
static int64_t wait_rows(struct slab *s, int64_t rows)
{
    int64_t done;
    for (int spins = 0;
         (done = atomic_load_explicit(&s->rows_done, memory_order_acquire)) < rows;)
        if (++spins == SPINS_PER_YIELD) {
            sched_yield();
            spins = 0;
        }
    return done;
}

/* Fill one slab's columns on every row. Row t of column j reads row t - 1
 * at columns j - 1 and j only, so a slab may fill row t once the slab to
 * its left has published row t - 1; the first slab never waits. Column j
 * needs j frames, so on row t only columns lo .. min(hi - 1, t) are scored.
 * Every later column scores -inf on both of its candidates, and -inf >= -inf
 * advances, so its decision is 1 and its score stays the -inf both rows
 * start with; a slab that lies wholly past row t waits for nothing. */
static void *fill_slab(void *arg)
{
    struct slab *s = arg;
    const struct lattice *lat = s->lat;
    const int64_t n = s->hi - s->lo;
    const int64_t *tokens = lat->tokens + s->lo - 1;
    double *prev = s->prev, *row = s->row;
    int64_t left_rows = 0; /* rows the left slab is known to have published */
    for (int64_t i = 0; i <= n; i++)
        prev[i] = row[i] = -INFINITY;
    if (!s->left)
        prev[0] = row[0] = 0.0;
    for (int64_t t = 1; t <= lat->n_frames; t++) {
        const double *w = lat->window + (t - 1) * lat->n_symbols;
        uint8_t *k = lat->k + t * lat->width + s->lo;
        const int64_t reached = t - s->lo + 1; /* columns lo .. t */
        const int64_t m = reached < 0 ? 0 : reached < n ? reached : n;
        if (s->left && m > 0) { /* m > 0 puts t at lo >= 2 */
            if (left_rows < t - 1)
                left_rows = wait_rows(s->left, t - 1 + LAG_ROWS < lat->n_frames
                                                   ? t - 1 + LAG_ROWS
                                                   : lat->n_frames);
            prev[0] = s->left->right[t - 1];
        }
        for (int64_t e = s->end_lo; e < s->end_hi; e++)
            lat->ends[(t - 1) * lat->n_ends + e] = prev[lat->end_columns[e] - s->lo + 1];
#if TABLE_ROWS
        if (lat->table)
            score_row_table(m, prev, lat->table + (t - 1) * lat->n_symbols, lat->n_symbols,
                            lat->tokens32 + s->lo - 1, w[lat->blank], row, k);
        else
#endif
            score_row(m, prev, w, tokens, w[lat->blank], row, k);
        memset(k + m, 1, (size_t)(n - m));
        if (s->right) {
            s->right[t] = row[n];
            atomic_store_explicit(&s->rows_done, t, memory_order_release);
        }
        double *swap = prev;
        prev = row;
        row = swap;
    }
    return NULL;
}

/* Fill the decisions k for width - 1 tokens in n_slabs column slabs, one
 * thread each. The score row before any frame is 0 then -inf; column 0
 * scores 0 on every row; and row t scores max(stay, advance) with
 * stay = prev[j] + blank[t-1] and advance = prev[j-1] + w[t-1][tokens[j-1]]
 * as score_row does; the caller zeroes row 0 and column 0 of k. Before row t
 * is scored, ends[t-1][e] takes row t - 1's score in column end_columns[e].
 * scratch holds 2 x (width - 1) + 2 x n_slabs doubles for the slabs' rows,
 * then n_frames + 1 for each slab but the last, then width / 2 that hold the
 * tokens as int32. window32 is the window as float32 values, or NULL; where
 * it is given, n_symbols <= TABLE_SYMBOLS and table_rows() is 1, every slab
 * scores its rows with score_row_table. A slab whose thread does not start
 * runs on the calling thread after the slabs to its left, so no thread
 * outlives the call and the bits never depend on it. */
void fill(const double *window, const float *window32, int64_t n_frames, int64_t n_symbols,
          const int64_t *tokens, int64_t blank, uint8_t *k, int64_t width,
          const int64_t *end_columns, int64_t n_ends, double *ends, int64_t n_slabs,
          double *scratch)
{
    struct lattice lat = {window, NULL,  n_frames,    n_symbols, tokens, NULL, blank,
                          k,      width, end_columns, n_ends,    ends};
    struct slab slabs[n_slabs];
    pthread_t threads[n_slabs];
    int started[n_slabs];
    int64_t e = 0;
    for (int64_t i = 0; i < n_slabs; i++) {
        struct slab *s = &slabs[i];
        atomic_init(&s->rows_done, 0);
        s->lat = &lat;
        s->lo = 1 + (width - 1) * i / n_slabs;
        s->hi = 1 + (width - 1) * (i + 1) / n_slabs;
        s->end_lo = e;
        while (e < n_ends && end_columns[e] < s->hi)
            e++;
        s->end_hi = e;
        s->prev = scratch;
        s->row = s->prev + (s->hi - s->lo + 1);
        s->right = i + 1 < n_slabs ? s->row + (s->hi - s->lo + 1) : NULL;
        scratch = s->row + (s->hi - s->lo + 1) + (s->right ? n_frames + 1 : 0);
        s->left = i ? &slabs[i - 1] : NULL;
    }
    if (window32 && n_symbols <= TABLE_SYMBOLS && table_rows()) {
        int32_t *tokens32 = (int32_t *)scratch;
        for (int64_t j = 0; j < width - 1; j++)
            tokens32[j] = (int32_t)tokens[j];
        lat.table = window32;
        lat.tokens32 = tokens32;
    }
    for (int64_t i = 1; i < n_slabs; i++)
        started[i] = pthread_create(&threads[i], NULL, fill_slab, &slabs[i]) == 0;
    fill_slab(&slabs[0]);
    for (int64_t i = 1; i < n_slabs; i++)
        if (!started[i])
            fill_slab(&slabs[i]);
    for (int64_t i = 1; i < n_slabs; i++)
        if (started[i])
            pthread_join(threads[i], NULL);
}

/* Walk back from cell (t, j) to column 0, advancing where k[t][j] is set,
 * and record in advance_row[j] the row where the path advanced into column
 * j. Returns 0, or -1 if the walk runs past row 0 first. */
int64_t walk(const uint8_t *k, int64_t width, int64_t t, int64_t j, int64_t *advance_row)
{
    while (j > 0) {
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

/* Write out[f] = max(window[f][symbol], window[f][blank]) on the frames a
 * path of n tokens holds: token i on frames frames[i] .. frames[i + 1] - 1,
 * and the trailing blank on frame frames[n] alone. As with np.maximum, NaNs
 * propagate; the sign of a zero against a zero of the other sign is
 * unspecified, as np.maximum's differs between CPUs. */
void rho(const double *window, int64_t n_symbols, const int64_t *tokens, int64_t blank,
         const int64_t *frames, int64_t n, double *out)
{
    for (int64_t i = 0; i <= n; i++) {
        const int64_t symbol = i < n ? tokens[i] : blank;
        const int64_t end = i < n ? frames[i + 1] : frames[n] + 1;
        for (int64_t f = frames[i]; f < end; f++) {
            const double a = window[f * n_symbols + symbol], b = window[f * n_symbols + blank];
            out[f] = a > b || isnan(a) ? a : b;
        }
    }
}
