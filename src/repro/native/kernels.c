/*
 * Compiled stage kernels of the walk engine.
 *
 * Each entry point is the one implementation of its stage:
 *
 *   philox_span     Philox4x32-10 draws for one step of a vector of walks
 *                   (repro.rng.WalkStreams.draws).
 *   grid_query      capped nearest-conductor queries on the uniform grid
 *                   (repro.geometry.GridIndex.query).
 *   sample_cells,   the cube transition table's inverse-CDF cell draw and
 *   unit_positions  its unit-cube point (repro.greens.CubeTransitionTable).
 *   surface_sample  a Gaussian surface's area-uniform point
 *                   (repro.geometry.GaussianSurface.sample).
 *   hemisphere_directions
 *                   the two-medium hemisphere direction
 *                   (repro.greens.interface_hemisphere_direction).
 *   launch          the walk step's launch,
 *   locate          its query and absorption test,
 *   retire          its result banking and slot compaction,
 *   cube_hop        its cube hop and hemisphere step, and
 *   advance         the loop that runs them from one batch boundary to
 *                   the next (repro.frw.engine.WalkPipeline), all over one
 *                   arena_t descriptor of the slot arena.
 *   team_size       the size of the process's thread team.
 *   draw_path       the draw path dispatched at load (AVX2 or scalar).
 *   fold_batch      a finished batch folded into a row's compensated
 *                   registers (repro.frw.RowAccumulator), in its one
 *                   fixed order per mode.
 *
 * launch, locate and cube_hop split a call over SPLIT_MIN slots or more
 * into contiguous chunks that the threads of the team run (split).  Every
 * slot's arithmetic is its own, each chunk writes only its own slots and
 * result rows, and the only outputs chunks share are integer counts,
 * summed, so a call's bits do not depend on the team's size or on which
 * thread runs which chunk.
 *
 * launch and cube_hop compute the draws they consume, per slot, from the
 * draw descriptor of the slot's lane: Philox at the walk's counter
 * (walk_counter, the one definition of the counter layout), the
 * antithetic partner's step-1 reflection (repro.rng.MirroredDraws), or
 * the walk's own MT19937 stream (repro.rng.MTWalkStreams), whose state
 * lives in the arena.
 *
 * On an x86-64 host with AVX2 (__builtin_cpu_supports, read once at
 * load), a full group of LANES slots whose lanes are all Philox takes
 * the AVX2 draw path: the counters built in registers from the slots'
 * UID and step words, both blocks' rounds eight lanes at a time, the
 * uniforms converted four at a time, and cube_hop's cell draw as one
 * gathered guide lookup and bisection.  philox_span and philox4x32_block
 * run the same rounds.  Partial groups, MT lanes, the unit-cube point,
 * the move, the first-hop weight and the hemisphere step stay scalar, as
 * does every other host and any build with REPRO_SCALAR_DRAWS.  The path
 * is integer arithmetic, exact conversions, one IEEE multiply for the
 * bucket and the same <= probes, so both paths give the same bits.
 *
 * All produce the bits of their NumPy references exactly.  Philox and
 * MT19937 are integer arithmetic modulo 2^32 (2^64 for splitmix64); the
 * word-pair-to-double conversion is an exact integer-to-double cast, one
 * exact scale by 2^26, an exact add (the sum is an integer below 2^53)
 * and an exact scale by 2^-53.  The other kernels use IEEE + - * / and
 * sqrt, comparisons, minima, maxima, fabs and floor, each rounded once
 * and in NumPy's order.  A minimum or maximum
 * of equal arguments returns the second one, as np.minimum and np.maximum
 * do, which decides the sign of a zero result.  The one libm dependency
 * is the hemisphere direction's sin and cos (gcc merges the pair into
 * sincos), whose bits are glibc's and equal NumPy's np.sin and np.cos
 * (docs/DETERMINISM.md).  The build passes -ffp-contract=off, so no
 * multiply-add is fused, and -fno-math-errno, so sqrt is the sqrtsd
 * instruction.
 */

#define _GNU_SOURCE
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stddef.h>
#include <stdint.h>
#include <time.h>

/* The AVX2 draw path: x86-64 builds only, and none built with
 * REPRO_SCALAR_DRAWS, which pins the scalar path on any host.  Its
 * functions carry their own target attribute, so the library builds
 * without -mavx2 and runs on any x86-64 host. */
#if defined(__x86_64__) && !defined(REPRO_SCALAR_DRAWS)
#define DRAWS_AVX2 1
#include <immintrin.h>
#define AVX2_FN static __attribute__((target("avx2"), noinline))
#define AVX2_INLINE static inline __attribute__((target("avx2"), always_inline))
#else
#define DRAWS_AVX2 0
#endif

#define PHILOX_ROUNDS 10
#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u

/* Counter layout of repro.rng.counter_stream. */
#define BLOCKS_PER_STEP 4
#define DOMAIN_TAG 0x46525752u

/* MT19937 (repro.rng.MTWalkStreams, numpy.random.RandomState). */
#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908B0DFu
#define MT_UPPER 0x80000000u
#define MT_LOWER 0x7FFFFFFFu

/* Draw kind bits of a lane (repro.native.DRAW_MIRRORED, DRAW_MT). */
#define DRAW_MIRRORED 1u
#define DRAW_MT 2u

/* Walks per interleaved group of philox_span: independent lanes let the
 * ten dependent rounds of one block overlap with the other lanes'. */
#define LANES 8

/* Philox4x32-10 on LANES independent blocks: counters (x0..x3) in,
 * random words out; keys (k0, k1) are consumed. */
static inline void philox_lanes(uint32_t x0[LANES], uint32_t x1[LANES],
                                uint32_t x2[LANES], uint32_t x3[LANES],
                                uint32_t k0[LANES], uint32_t k1[LANES])
{
    for (int r = 0; r < PHILOX_ROUNDS; r++) {
        for (int l = 0; l < LANES; l++) {
            uint64_t p0 = (uint64_t)PHILOX_M0 * x0[l];
            uint64_t p1 = (uint64_t)PHILOX_M1 * x2[l];
            uint32_t y0 = (uint32_t)(p1 >> 32) ^ x1[l] ^ k0[l];
            uint32_t y2 = (uint32_t)(p0 >> 32) ^ x3[l] ^ k1[l];
            x1[l] = (uint32_t)p1;
            x3[l] = (uint32_t)p0;
            x0[l] = y0;
            x2[l] = y2;
            k0[l] += PHILOX_W0;
            k1[l] += PHILOX_W1;
        }
    }
}

/* Whether the host runs the AVX2 draw path, set once at load. */
static int use_avx2;

static void __attribute__((constructor)) pick_draw_path(void)
{
#if DRAWS_AVX2
    __builtin_cpu_init();
    use_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
}

/* The draw path this library dispatched to: 1 for AVX2, 0 for scalar. */
int64_t draw_path(void)
{
    return use_avx2;
}

#if DRAWS_AVX2
/* The high and low words of the eight products m * x[l] (m in every
 * word of `m`): even words multiply in place, odd ones shifted down. */
AVX2_INLINE void mul_hilo8(__m256i x, __m256i m, __m256i *hi, __m256i *lo)
{
    __m256i even = _mm256_mul_epu32(x, m);
    __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
    *hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
    *lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
}

/* One Philox round of philox_lanes on eight lanes x[0..3]. */
AVX2_INLINE void philox_round8(__m256i x[4], __m256i k0, __m256i k1)
{
    __m256i hi0, lo0, hi2, lo2;
    mul_hilo8(x[0], _mm256_set1_epi32((int)PHILOX_M0), &hi0, &lo0);
    mul_hilo8(x[2], _mm256_set1_epi32((int)PHILOX_M1), &hi2, &lo2);
    __m256i y0 = _mm256_xor_si256(_mm256_xor_si256(hi2, x[1]), k0);
    __m256i y2 = _mm256_xor_si256(_mm256_xor_si256(hi0, x[3]), k1);
    x[1] = lo2;
    x[3] = lo0;
    x[0] = y0;
    x[2] = y2;
}

/* Philox4x32-10 on `nb` blocks x[b] of eight lanes under the same keys,
 * their rounds interleaved. */
AVX2_INLINE void philox8(__m256i x[][4], int nb, __m256i k0, __m256i k1)
{
    for (int r = 0; r < PHILOX_ROUNDS; r++) {
        for (int b = 0; b < nb; b++)
            philox_round8(x[b], k0, k1);
        k0 = _mm256_add_epi32(k0, _mm256_set1_epi32((int)PHILOX_W0));
        k1 = _mm256_add_epi32(k1, _mm256_set1_epi32((int)PHILOX_W1));
    }
}

/* philox_lanes on eight lanes at once. */
AVX2_FN void philox_lanes_avx2(uint32_t x0[LANES], uint32_t x1[LANES],
                               uint32_t x2[LANES], uint32_t x3[LANES],
                               uint32_t k0[LANES], uint32_t k1[LANES])
{
    uint32_t *w[4] = {x0, x1, x2, x3};
    __m256i x[1][4];
    for (int d = 0; d < 4; d++)
        x[0][d] = _mm256_loadu_si256((const __m256i *)w[d]);
    philox8(x, 1, _mm256_loadu_si256((const __m256i *)k0),
            _mm256_loadu_si256((const __m256i *)k1));
    for (int d = 0; d < 4; d++)
        _mm256_storeu_si256((__m256i *)w[d], x[0][d]);
}
#endif

/* philox_lanes on the host's draw path. */
static void philox_rounds(uint32_t x0[LANES], uint32_t x1[LANES],
                          uint32_t x2[LANES], uint32_t x3[LANES],
                          uint32_t k0[LANES], uint32_t k1[LANES])
{
#if DRAWS_AVX2
    if (use_avx2) {
        philox_lanes_avx2(x0, x1, x2, x3, k0, k1);
        return;
    }
#endif
    philox_lanes(x0, x1, x2, x3, k0, k1);
}

/* One raw Philox4x32-10 block, out = philox(ctr, key), through the
 * rounds philox_span runs. */
void philox4x32_block(const uint32_t *ctr, const uint32_t *key,
                      uint32_t *out)
{
    uint32_t x0[LANES], x1[LANES], x2[LANES], x3[LANES];
    uint32_t k0[LANES], k1[LANES];
    for (int l = 0; l < LANES; l++) {
        x0[l] = ctr[0];
        x1[l] = ctr[1];
        x2[l] = ctr[2];
        x3[l] = ctr[3];
        k0[l] = key[0];
        k1[l] = key[1];
    }
    philox_rounds(x0, x1, x2, x3, k0, k1);
    out[0] = x0[0];
    out[1] = x1[0];
    out[2] = x2[0];
    out[3] = x3[0];
}

/* The Philox counter of draw block `block` of step `step` of walk `uid`:
 * c0 = step * BLOCKS_PER_STEP + block, c1 and c2 the uid's low and high
 * words, c3 = DOMAIN_TAG. */
static inline void walk_counter(uint64_t uid, uint64_t step, uint64_t block,
                                uint32_t *c0, uint32_t *c1, uint32_t *c2,
                                uint32_t *c3)
{
    *c0 = (uint32_t)(step * BLOCKS_PER_STEP + block);
    *c1 = (uint32_t)uid;
    *c2 = (uint32_t)(uid >> 32);
    *c3 = DOMAIN_TAG;
}

/* The 53-bit uniform in [0, 1) of the word pair (hi, lo). */
static inline double unit_double(uint32_t hi, uint32_t lo)
{
    double a = (double)(hi >> 5);
    double b = (double)(lo >> 6);
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/*
 * out[i*count + d] = draw slot d of step steps[i * per_walk] of walk
 * uids[i] under the key (k0, k1), for i < n, d < count.  per_walk is 1
 * for one step per walk, or 0 to give every walk the step steps[0].
 */
void philox_span(int64_t n, int64_t count, const uint64_t *uids,
                 const uint64_t *steps, int64_t per_walk,
                 uint64_t k0, uint64_t k1, double *out)
{
    int64_t blocks = (count + 1) / 2;
    for (int64_t a = 0; a < n; a += LANES) {
        int m = n - a < LANES ? (int)(n - a) : LANES;
        for (int64_t j = 0; j < blocks; j++) {
            uint32_t x0[LANES], x1[LANES], x2[LANES], x3[LANES];
            uint32_t c0[LANES], c1[LANES];
            for (int l = 0; l < LANES; l++) {
                /* Lanes past the end repeat the last walk and are not
                 * stored. */
                int64_t i = a + (l < m ? l : m - 1);
                walk_counter(uids[i], steps[i * per_walk], (uint64_t)j,
                             &x0[l], &x1[l], &x2[l], &x3[l]);
                c0[l] = (uint32_t)k0;
                c1[l] = (uint32_t)k1;
            }
            philox_rounds(x0, x1, x2, x3, c0, c1);
            double *slot = out + a * count + 2 * j;
            for (int l = 0; l < m; l++) {
                slot[l * count] = unit_double(x0[l], x1[l]);
                if (2 * j + 1 < count)
                    slot[l * count + 1] = unit_double(x2[l], x3[l]);
            }
        }
    }
}

/* One splitmix64 output step (repro.rng.splitmix64). */
static inline uint64_t splitmix64(uint64_t x)
{
    uint64_t z = x + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/* One walk's MT19937 state: the 624 words and the next word's index
 * (repro.native.MT_WORDS words in all). */
typedef struct {
    uint32_t mt[MT_N];
    uint32_t pos;
} mt_t;

/* init_genrand(seed), as numpy.random.RandomState(seed) seeds. */
static void mt_seed(mt_t *s, uint32_t seed)
{
    s->mt[0] = seed;
    for (uint32_t i = 1; i < MT_N; i++)
        s->mt[i] = 1812433253u * (s->mt[i - 1] ^ (s->mt[i - 1] >> 30)) + i;
    s->pos = MT_N;
}

static inline uint32_t mt_mix(uint32_t hi, uint32_t lo, uint32_t far)
{
    uint32_t y = (hi & MT_UPPER) | (lo & MT_LOWER);
    return far ^ (y >> 1) ^ ((y & 1u) ? MT_MATRIX_A : 0u);
}

/* genrand_int32: the next tempered word, regenerating all 624 words
 * once they are used up. */
static uint32_t mt_next(mt_t *s)
{
    if (s->pos >= MT_N) {
        uint32_t *w = s->mt;
        int k = 0;
        for (; k < MT_N - MT_M; k++)
            w[k] = mt_mix(w[k], w[k + 1], w[k + MT_M]);
        for (; k < MT_N - 1; k++)
            w[k] = mt_mix(w[k], w[k + 1], w[k + MT_M - MT_N]);
        w[MT_N - 1] = mt_mix(w[MT_N - 1], w[0], w[MT_M - 1]);
        s->pos = 0;
    }
    uint32_t y = s->mt[s->pos++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    y ^= y >> 18;
    return y;
}

/* genrand_res53, RandomState.random_sample's uniform. */
static inline double mt_uniform(mt_t *s)
{
    uint32_t a = mt_next(s);
    return unit_double(a, mt_next(s));
}

/* floor(x) for |x| < 2^52 without libm: the truncation, less one below
 * a negative non-integer.  Exact, as every such double's truncation is;
 * -0.0 gives +0.0, which no caller below ever passes. */
static inline double floor_small(double x)
{
    double t = (double)(int64_t)x;
    return t > x ? t - 1.0 : t;
}

/* repro.rng.mirror_uniform at reflect 1: (u * -1 + 1) - floor of it. */
static inline double mirror_draw(double u)
{
    double w = u * -1.0 + 1.0;
    return w - floor_small(w);
}

/* repro.rng.antipodal_uniform at reflect 1: u reflected within its third
 * of [0, 1), in NumPy's operation order. */
static inline double antipodal_draw(double u)
{
    double third = floor_small(u * 3.0);
    third = third < 2.0 ? third : 2.0;
    third = third / 3.0;
    double w = u - third;
    w = w * -1.0;
    w = w + 1.0 / 3.0;
    w = w - floor_small(w * 3.0) / 3.0;
    return w + third;
}

/* A GridIndex's query state; field order matches repro.native.Grid. */
typedef struct {
    double h_cap;
    double origin[3];
    double inv_cell[3];
    int64_t n_cells[3];
    int64_t cell_max[3];
    const uint8_t *near;     /* per cell: lower bound below h_cap */
    const int64_t *indptr;   /* CSR candidate lists, ascending box */
    const int64_t *indices;
    const double *lo;        /* (m, 3) row-major box bounds */
    const double *hi;
    const int64_t *owner;    /* box -> conductor */
} grid_t;

/*
 * The cell coordinate of a scaled offset: truncation clipped to
 * [0, cell_max], as int64 truncation then np.clip.  The clamp happens in
 * double first, so offsets outside the int64 range (and NaN, which goes
 * to cell 0) never reach the undefined cast.
 */
static inline int64_t axis_cell(double rel, int64_t cell_max)
{
    if (!(rel > 0.0))
        return 0;
    if (rel >= (double)cell_max)
        return cell_max;
    return (int64_t)rel;
}

/* max(a, b) returning b on ties, as NumPy's np.maximum. */
static inline double max_tie_b(double a, double b)
{
    return a > b ? a : b;
}

/* min(a, b) returning b on ties, as NumPy's np.minimum. */
static inline double min_tie_b(double a, double b)
{
    return a < b ? a : b;
}

/*
 * Capped Chebyshev distance and conductor (*cond) of the point (px, py,
 * pz); *near += 1 for a near-field point, *visited += its candidates.  A
 * far-field cell answers (h_cap, -1) outright; a near one scans its
 * candidates in ascending box order and keeps the first strictly lowest
 * distance below h_cap.  Always inlined, so the counters stay in
 * registers in both callers.
 */
static inline __attribute__((always_inline)) double query_one(const grid_t *g, double px, double py,
                               double pz, int64_t *cond, int64_t *near,
                               int64_t *visited)
{
    int64_t cx = axis_cell((px - g->origin[0]) * g->inv_cell[0],
                           g->cell_max[0]);
    int64_t cy = axis_cell((py - g->origin[1]) * g->inv_cell[1],
                           g->cell_max[1]);
    int64_t cz = axis_cell((pz - g->origin[2]) * g->inv_cell[2],
                           g->cell_max[2]);
    int64_t cell = (cz * g->n_cells[1] + cy) * g->n_cells[0] + cx;
    double best = g->h_cap;
    int64_t winner = -1;
    if (g->near[cell]) {
        int64_t a = g->indptr[cell], b = g->indptr[cell + 1];
        *near += 1;
        *visited += b - a;
        for (int64_t c = a; c < b; c++) {
            int64_t box = g->indices[c];
            const double *lo = g->lo + 3 * box;
            const double *hi = g->hi + 3 * box;
            double d = max_tie_b(lo[0] - px, px - hi[0]);
            d = max_tie_b(d, max_tie_b(lo[1] - py, py - hi[1]));
            d = max_tie_b(d, max_tie_b(lo[2] - pz, pz - hi[2]));
            d = max_tie_b(d, 0.0);
            if (d < best) {
                best = d;
                winner = box;
            }
        }
    }
    *cond = winner < 0 ? -1 : g->owner[winner];
    return best;
}

/*
 * Capped Chebyshev distance and conductor of each of the n points
 * (row-major (n, 3)); counts[0] += near points, counts[1] += candidates
 * visited.
 */
void grid_query(const grid_t *g, int64_t n, const double *pts,
                double *dist, int64_t *cond, int64_t *counts)
{
    int64_t near_points = 0, visited = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *p = pts + 3 * i;
        dist[i] = query_one(g, p[0], p[1], p[2], cond + i, &near_points,
                            &visited);
    }
    counts[0] += near_points;
    counts[1] += visited;
}

/* A CubeTransitionTable's sampling state; field order matches
 * repro.native.Table. */
typedef struct {
    int64_t nf;
    int64_t n_cells;
    int64_t buckets;          /* guide buckets M */
    int64_t width;            /* bisection width, a power of two */
    int64_t n_last;           /* M + 1 */
    int64_t n_pad;            /* n_cells + width */
    const int64_t *last_le;   /* per bucket: last cdf index <= its edge */
    const double *cdf_pad;    /* cdf, then width entries of +inf */
    const int64_t *face_axis; /* per cell */
    const int64_t *face_side;
    const int64_t *cell_i;
    const int64_t *cell_j;
    const double *grad_ratio; /* (3, n_cells) row-major */
} table_t;

static inline int64_t clip_index(int64_t k, int64_t len)
{
    return k < 0 ? 0 : (k >= len ? len - 1 : k);
}

/*
 * The cell of uniform u: clip(searchsorted(cdf, u, "right"), 0, N-1),
 * through the guide bucket of u and a fixed-width bisection (the bracket
 * argument is in CubeTransitionTable.sample_cells).  Probes read the
 * padded cdf at their clipped index but keep the unclipped value, as
 * the NumPy take(mode="clip") version did.
 */
static inline int64_t sample_cell(const table_t *t, double u)
{
    int64_t k = clip_index((int64_t)(u * (double)t->buckets), t->n_last);
    int64_t p = t->last_le[k];
    for (int64_t step = t->width >> 1; step; step >>= 1) {
        int64_t probe = p + step;
        if (t->cdf_pad[clip_index(probe, t->n_pad)] <= u)
            p = probe;
    }
    p += 1;
    return p < t->n_cells - 1 ? p : t->n_cells - 1;
}

#if DRAWS_AVX2
/* Whether cells_avx2's 32-bit bucket, guide and probe indices hold every
 * index of t: the probes stay below n_pad, and the guide's entries, from
 * -1 to n_cells - 1, below it too. */
static inline int cells_fit_32(const table_t *t)
{
    return t->n_pad <= INT32_MAX && t->n_last <= INT32_MAX;
}

/* The low (high = 0) or high (high = 1) words of the eight 64-bit lanes
 * of (a, b), in order. */
AVX2_INLINE __m256i words8(__m256i a, __m256i b, int high)
{
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    a = _mm256_permutevar8x32_epi32(a, pick);
    b = _mm256_permutevar8x32_epi32(b, pick);
    return high ? _mm256_permute2x128_si256(a, b, 0x31)
                : _mm256_permute2x128_si256(a, b, 0x20);
}

/*
 * cell[l] = sample_cell(t, u[l]) for l < LANES, t within cells_fit_32.
 * The bucket is the same product, clamped to n_last - 1 in double
 * (min(cap, x) keeps a NaN x, which truncates to INT32_MIN as the scalar
 * cast gives INT64_MIN) before the truncation and the floor at 0, which
 * is clip_index of the truncation; each bisection step gathers the eight
 * clipped probes' cdf entries and takes the probe where cdf <= u.
 */
AVX2_FN void cells_avx2(const table_t *t, const double u[LANES],
                        int64_t cell[LANES])
{
    __m256d u0 = _mm256_loadu_pd(u), u1 = _mm256_loadu_pd(u + 4);
    __m256d m = _mm256_set1_pd((double)t->buckets);
    __m256d cap = _mm256_set1_pd((double)(t->n_last - 1));
    __m256i zero = _mm256_setzero_si256();
    __m256i k = _mm256_set_m128i(
        _mm256_cvttpd_epi32(_mm256_min_pd(cap, _mm256_mul_pd(u1, m))),
        _mm256_cvttpd_epi32(_mm256_min_pd(cap, _mm256_mul_pd(u0, m))));
    k = _mm256_max_epi32(k, zero);
    /* The low words of last_le[k], which hold the entries whole. */
    __m256i p = _mm256_i32gather_epi32((const int *)t->last_le, k, 8);
    __m256i pad_max = _mm256_set1_epi32((int)(t->n_pad - 1));
    for (int64_t step = t->width >> 1; step; step >>= 1) {
        __m256i probe = _mm256_add_epi32(p, _mm256_set1_epi32((int)step));
        __m256i at = _mm256_min_epi32(_mm256_max_epi32(probe, zero), pad_max);
        __m256d c0 = _mm256_i32gather_pd(t->cdf_pad,
                                         _mm256_castsi256_si128(at), 8);
        __m256d c1 = _mm256_i32gather_pd(t->cdf_pad,
                                         _mm256_extracti128_si256(at, 1), 8);
        __m256i le = words8(
            _mm256_castpd_si256(_mm256_cmp_pd(c0, u0, _CMP_LE_OQ)),
            _mm256_castpd_si256(_mm256_cmp_pd(c1, u1, _CMP_LE_OQ)), 0);
        p = _mm256_blendv_epi8(p, probe, le);
    }
    p = _mm256_add_epi32(p, _mm256_set1_epi32(1));
    p = _mm256_min_epi32(p, _mm256_set1_epi32((int)(t->n_cells - 1)));
    _mm256_storeu_si256((__m256i *)cell,
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p)));
    _mm256_storeu_si256((__m256i *)(cell + 4),
                        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p, 1)));
}
#endif

/* cell[l] = sample_cell(t, u[l]) for l < m <= LANES, on the AVX2 path
 * when the host, the group and the table allow it. */
static inline void sample_cells8(const table_t *t, const double u[LANES],
                                 int m, int64_t cell[LANES])
{
#if DRAWS_AVX2
    if (m == LANES && use_avx2 && cells_fit_32(t)) {
        cells_avx2(t, u, cell);
        return;
    }
#endif
    for (int l = 0; l < m; l++)
        cell[l] = sample_cell(t, u[l]);
}

/* The point of an `axis`-normal face at `plane`: the face axis takes
 * `plane`, the transverse axes (in sorted order) take a then b. */
static inline void face_point(int64_t axis, double plane, double a, double b,
                              double out[3])
{
    out[0] = axis == 0 ? plane : a;
    out[1] = axis == 1 ? plane : (axis == 0 ? a : b);
    out[2] = axis == 2 ? plane : b;
}

/* The unit-cube point of `cell` with in-cell jitters (ja, jb): the face
 * side, then (cell_i + ja) / nf and (cell_j + jb) / nf. */
static inline void unit_position(const table_t *t, int64_t cell, double ja,
                                 double jb, double out[3])
{
    double a = ((double)t->cell_i[cell] + ja) / (double)t->nf;
    double b = ((double)t->cell_j[cell] + jb) / (double)t->nf;
    face_point(t->face_axis[cell], (double)t->face_side[cell], a, b, out);
}

void sample_cells(const table_t *t, int64_t n, const double *u,
                  int64_t u_stride, int64_t *out)
{
    for (int64_t i0 = 0; i0 < n; i0 += LANES) {
        int m = n - i0 < LANES ? (int)(n - i0) : LANES;
        double v[LANES];
        const double *w = u + i0;
        if (u_stride != 1) {
            for (int l = 0; l < m; l++)
                v[l] = u[(i0 + l) * u_stride];
            w = v;
        }
        sample_cells8(t, w, m, out + i0);
    }
}

void unit_positions(const table_t *t, int64_t n,
                    const int64_t *cells, int64_t c_stride,
                    const double *ja, int64_t ja_stride,
                    const double *jb, int64_t jb_stride, double *out)
{
    for (int64_t i = 0; i < n; i++)
        unit_position(t, cells[i * c_stride], ja[i * ja_stride],
                      jb[i * jb_stride], out + 3 * i);
}

/* The count of entries of the ascending x[0..n) that are <= v:
 * searchsorted(x, v, "right"). */
static inline int64_t count_le(const double *x, int64_t n, double v)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (x[mid] <= v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* A GaussianSurface's sampling state; field order matches
 * repro.native.Surface.  Patch p has the outward normal sign[p] along
 * axis[p], lies in the plane coord[p] and spans [x0, x1] x [y0, y1] of
 * its transverse axes; cum is the cumulative patch area. */
typedef struct {
    int64_t n_patches;
    double total_area;
    const double *cum;
    const int64_t *axis;
    const int64_t *sign;
    const double *coord;
    const double *x0;
    const double *x1;
    const double *y0;
    const double *y1;
} surface_t;

/* The surface point of uniforms (u0, u1, u2): u0 picks the patch by
 * cumulative area, clipped to the last patch, and (u1, u2) place the
 * point in it.  Returns the patch. */
static inline int64_t surface_point(const surface_t *s, double u0, double u1,
                                    double u2, double out[3])
{
    int64_t p = count_le(s->cum, s->n_patches, u0 * s->total_area);
    if (p > s->n_patches - 1)
        p = s->n_patches - 1;
    double a = s->x0[p] + u1 * (s->x1[p] - s->x0[p]);
    double b = s->y0[p] + u2 * (s->y1[p] - s->y0[p]);
    face_point(s->axis[p], s->coord[p], a, b, out);
    return p;
}

/* points[i] (row-major (n, 3)), axis[i] and sign[i] of the uniforms
 * u[i * u_s0 + d * u_s1], d < 3. */
void surface_sample(const surface_t *s, int64_t n, const double *u,
                    int64_t u_s0, int64_t u_s1, double *points,
                    int64_t *axis, int64_t *sign)
{
    for (int64_t i = 0; i < n; i++) {
        const double *v = u + i * u_s0;
        int64_t p = surface_point(s, v[0], v[u_s1], v[2 * u_s1],
                                  points + 3 * i);
        axis[i] = s->axis[p];
        sign[i] = s->sign[p];
    }
}

/*
 * The unit direction of a walk leaving an interface between permittivities
 * eb (below) and ea (above): the upper hemisphere when u_side <
 * ea / (eb + ea), |z| = u1 and the azimuth 2 pi u2.
 */
static inline void hemisphere_direction(double u_side, double u1, double u2,
                                        double eb, double ea, double out[3])
{
    double p_up = ea / (eb + ea);
    double rr = sqrt(max_tie_b(1.0 - u1 * u1, 0.0));
    /* 2.0 * np.pi, folded first as Python does. */
    double phi = 6.283185307179586 * u2;
    out[0] = rr * cos(phi);
    out[1] = rr * sin(phi);
    out[2] = u_side < p_up ? u1 : -u1;
}

/* out[i] (row-major (n, 3)) = the direction of in[k * n + i] for the
 * five inputs k = u_side, u1, u2, eps below, eps above. */
void hemisphere_directions(int64_t n, const double *in, double *out)
{
    for (int64_t i = 0; i < n; i++)
        hemisphere_direction(in[i], in[n + i], in[2 * n + i], in[3 * n + i],
                             in[4 * n + i], out + 3 * i);
}

/* A lane's draw descriptor, a uint64 row (kind, key0, key1) of
 * WalkPipeline._lane_draws (repro.frw.engine.lane_draws).  kind holds
 * DRAW_MIRRORED and DRAW_MT bits: none for plain Philox
 * streams (repro.rng.WalkStreams), DRAW_MIRRORED for the antithetic view
 * over them, DRAW_MT for per-walk MT19937 streams.  key is the Philox key
 * (k0, k1); an MT lane keeps its stream's base in key[0]. */
typedef struct {
    uint64_t kind;
    uint64_t key[2];
} lane_draw_t;

/* Live-width buckets of arena_t's step profile. */
#define WIDTH_BUCKETS 32

/*
 * A WalkPipeline's slot arena and walk space; field order matches
 * repro.native.Arena.  The active walks are slots [0, n).  Slot arrays
 * hold `capacity` entries (pos: (capacity, 3) row-major).  Slot i's MT
 * stream is mt[mt_slot[i]]; mt_slot is a permutation of [0, capacity)
 * that compaction swaps along with the walks, and both are NULL unless
 * the vector has an MT lane.
 */
typedef struct {
    /* Slot state. */
    uint64_t *uid;
    int64_t *lane;
    double *tol;
    int64_t *grow;            /* global row */
    uint64_t *step_no;
    double *pos;
    double *eps;
    uint8_t *first;
    int64_t *naxis;
    double *nsign;
    /* Step scratch. */
    double *dist;             /* conductor distance */
    double *dist_e;           /* wall distance */
    uint8_t *done;
    int64_t *dest;
    int64_t capacity;
    mt_t *mt;
    int64_t *mt_slot;
    /* Result window over the launched, unemitted batches. */
    double *res_omega;
    int64_t *res_dest;
    int64_t *res_steps;
    const int64_t *win_starts;
    int64_t *win_remaining;
    int64_t *win_truncated;
    int64_t n_win;
    int64_t win_base_g;
    /* Per lane. */
    const double *lane_flux;
    const lane_draw_t *lane_draws;
    /* Walk space. */
    const grid_t *grid;
    const table_t *table;
    const double *interfaces; /* ascending layer interfaces */
    int64_t n_interfaces;
    const double *layer_eps;  /* n_interfaces + 1, bottom to top */
    double enc_lo[3];
    double enc_hi[3];
    int64_t enc_index;
    double h_cap;
    double snap_fraction;
    double first_floor;
    /* locate's query counts: near points, candidates visited. */
    int64_t counts[2];
    /* advance's inputs: the pending run (UIDs run[run_off..run_n) not yet
     * launched, of lane run_lane, launched from run_surface with tolerance
     * run_tol, run[j] at global row run_row + j), whether more batches
     * are queued, the vector's width, the step cap, and whether to stop
     * for a trace frame and to read the clock. */
    const uint64_t *run;
    int64_t run_n;
    int64_t run_off;
    int64_t run_lane;
    int64_t run_row;
    const surface_t *run_surface;
    double run_tol;
    int64_t queued;
    int64_t width;
    int64_t max_steps;
    int64_t trace;
    int64_t timed;
    /* The live walks, slots [0, n), and whether walks launched since the
     * last trace frame. */
    int64_t n;
    int64_t refilled;
    /* advance's outputs, per call: steps, locate calls, points queried,
     * near points, candidates visited, walks launched, walks snapped, and
     * the nanoseconds and kernel calls of each STAGE_*. */
    int64_t steps;
    int64_t locates;
    int64_t points;
    int64_t near;
    int64_t visited;
    int64_t launched;
    int64_t snapped;
    int64_t stage_ns[4];
    int64_t stage_calls[4];
    /* Over the arena's life: steps, and walks they stepped, by live width,
     * bucket b holding widths [2^b, 2^(b+1)). */
    int64_t width_steps[WIDTH_BUCKETS];
    int64_t width_walks[WIDTH_BUCKETS];
} arena_t;

/*
 * The thread team: one per process, `size` threads with the caller, whose
 * helpers start on the first split call and wait for work by spinning for
 * SPIN_NS, then sleeping.  A split call cuts its slots into contiguous,
 * LANES-aligned chunks that the caller and the awake helpers claim from
 * one atomic ticket, so a helper that is slow to wake or to run never
 * holds up the others.  A caller takes the team with a try-lock and runs
 * alone when another thread holds it, so concurrent callers never
 * oversubscribe the CPUs.  Before fork() the helpers are parked (joined);
 * they restart on the next split call, so a child, and the parent at the
 * fork, holds one thread.
 */
#define TEAM_MAX 64
#define SPLIT_MIN 1024
#define CHUNK_MIN 256
#define CHUNKS_PER_THREAD 8
#define SPIN_NS 100000
/* A helper's thread name (/proc/<pid>/task/<tid>/comm). */
#define TEAM_NAME "repro-team"

/* One chunk of a split call: slots [lo, hi), its counts added to out. */
typedef void (*chunk_fn)(arena_t *a, const void *args, int64_t lo,
                         int64_t hi, int64_t out[4]);

static struct {
    pthread_mutex_t lock;       /* held by the caller that owns the team */
    pthread_mutex_t sleep_lock;
    pthread_cond_t wake;
    int64_t size;               /* threads of a split call, caller included */
    int64_t helpers;            /* running helpers */
    int quit;
    pthread_t tid[TEAM_MAX];
    /* The posted call: ticket = generation << 32 | next chunk << 16 |
     * chunks; the fields below stay put until every chunk is done. */
    uint64_t ticket;
    chunk_fn fn;
    arena_t *a;
    const void *args;
    int64_t n, chunk;
    int64_t done;               /* chunks finished */
    int64_t sum[4];
} team = {.lock = PTHREAD_MUTEX_INITIALIZER,
          .sleep_lock = PTHREAD_MUTEX_INITIALIZER,
          .wake = PTHREAD_COND_INITIALIZER,
          .size = 1};

static inline void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
}

static int64_t since_ns(const struct timespec *t0)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)(t.tv_sec - t0->tv_sec) * 1000000000
           + (t.tv_nsec - t0->tv_nsec);
}

static inline uint32_t ticket_gen(uint64_t t)
{
    return (uint32_t)(t >> 32);
}

/* Claim and run chunks of call `gen` until none is left. */
static void work(uint32_t gen)
{
    uint64_t t = __atomic_load_n(&team.ticket, __ATOMIC_ACQUIRE);
    for (;;) {
        if (ticket_gen(t) != gen || (t >> 16 & 0xFFFF) >= (t & 0xFFFF))
            return;
        if (!__atomic_compare_exchange_n(&team.ticket, &t, t + 0x10000, 1,
                                         __ATOMIC_ACQUIRE, __ATOMIC_ACQUIRE))
            continue;
        int64_t lo = (int64_t)(t >> 16 & 0xFFFF) * team.chunk;
        int64_t hi = lo + team.chunk < team.n ? lo + team.chunk : team.n;
        int64_t out[4] = {0, 0, 0, 0};
        team.fn(team.a, team.args, lo, hi, out);
        for (int d = 0; d < 4; d++)
            if (out[d])
                __atomic_fetch_add(&team.sum[d], out[d], __ATOMIC_RELAXED);
        __atomic_fetch_add(&team.done, 1, __ATOMIC_RELEASE);
        t = __atomic_load_n(&team.ticket, __ATOMIC_ACQUIRE);
    }
}

static void *helper(void *arg)
{
    uint32_t seen = (uint32_t)(uintptr_t)arg;
    for (;;) {
        struct timespec t0;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        uint32_t gen;
        for (unsigned spin = 1;; spin++) {
            gen = ticket_gen(__atomic_load_n(&team.ticket, __ATOMIC_ACQUIRE));
            if (gen != seen || (spin % 256 == 0 && since_ns(&t0) > SPIN_NS))
                break;
            cpu_relax();
        }
        if (gen == seen) {
            pthread_mutex_lock(&team.sleep_lock);
            while ((gen = ticket_gen(__atomic_load_n(&team.ticket,
                                                     __ATOMIC_ACQUIRE)))
                   == seen)
                pthread_cond_wait(&team.wake, &team.sleep_lock);
            pthread_mutex_unlock(&team.sleep_lock);
        }
        seen = gen;
        if (__atomic_load_n(&team.quit, __ATOMIC_ACQUIRE))
            return NULL;
        work(gen);
    }
}

/* Post a call of `chunks` chunks and wake the helpers (the caller holds
 * team.lock); returns its generation. */
static uint32_t post(int64_t chunks)
{
    uint32_t gen = ticket_gen(team.ticket) + 1;
    __atomic_store_n(&team.ticket, (uint64_t)gen << 32 | (uint64_t)chunks,
                     __ATOMIC_RELEASE);
    pthread_mutex_lock(&team.sleep_lock);
    pthread_cond_broadcast(&team.wake);
    pthread_mutex_unlock(&team.sleep_lock);
    return gen;
}

/* Stop and join the helpers (the caller holds team.lock). */
static void park(void)
{
    if (!team.helpers)
        return;
    __atomic_store_n(&team.quit, 1, __ATOMIC_RELAXED);
    post(0);
    for (int64_t k = 0; k < team.helpers; k++)
        pthread_join(team.tid[k], NULL);
    team.helpers = 0;
    __atomic_store_n(&team.quit, 0, __ATOMIC_RELAXED);
}

static void fork_prepare(void)
{
    pthread_mutex_lock(&team.lock);
    park();
}

static void fork_done(void)
{
    pthread_mutex_unlock(&team.lock);
}

static void __attribute__((constructor)) hook_forks(void)
{
    pthread_atfork(fork_prepare, fork_done, fork_done);
}

/* Start helpers up to size - 1 (the caller holds team.lock); a failed
 * start shrinks the team to the threads running. */
static void start_helpers(void)
{
    void *seen = (void *)(uintptr_t)ticket_gen(team.ticket);
    while (team.helpers + 1 < team.size) {
        if (pthread_create(&team.tid[team.helpers], NULL, helper, seen)) {
            __atomic_store_n(&team.size, team.helpers + 1, __ATOMIC_RELAXED);
            break;
        }
        pthread_setname_np(team.tid[team.helpers++], TEAM_NAME);
    }
}

/*
 * Set the team's size to `threads` (clamped to [1, TEAM_MAX]) when it is
 * positive, parking helpers it no longer has; returns the size.
 */
int64_t team_size(int64_t threads)
{
    if (threads > 0) {
        pthread_mutex_lock(&team.lock);
        threads = threads < TEAM_MAX ? threads : TEAM_MAX;
        if (threads < team.helpers + 1)
            park();
        __atomic_store_n(&team.size, threads, __ATOMIC_RELAXED);
        pthread_mutex_unlock(&team.lock);
    }
    return __atomic_load_n(&team.size, __ATOMIC_RELAXED);
}

/*
 * fn over slots [0, n), with the chunks' counts summed into out: on the
 * caller alone below SPLIT_MIN slots, on a team of one or when another
 * caller holds the team, and otherwise in up to CHUNKS_PER_THREAD
 * LANES-aligned chunks of at least CHUNK_MIN slots per thread.
 */
static void split(chunk_fn fn, arena_t *a, const void *args, int64_t n,
                  int64_t out[4])
{
    for (int d = 0; d < 4; d++)
        out[d] = 0;
    if (n < SPLIT_MIN || __atomic_load_n(&team.size, __ATOMIC_RELAXED) < 2
        || pthread_mutex_trylock(&team.lock)) {
        fn(a, args, 0, n, out);
        return;
    }
    if (team.helpers + 1 < team.size)
        start_helpers();
    int64_t chunks = (n + CHUNK_MIN - 1) / CHUNK_MIN;
    if (chunks > CHUNKS_PER_THREAD * (team.helpers + 1))
        chunks = CHUNKS_PER_THREAD * (team.helpers + 1);
    team.chunk = ((n + chunks - 1) / chunks + LANES - 1) / LANES * LANES;
    team.fn = fn;
    team.a = a;
    team.args = args;
    team.n = n;
    team.done = 0;
    for (int d = 0; d < 4; d++)
        team.sum[d] = 0;
    chunks = (n + team.chunk - 1) / team.chunk;
    work(post(chunks));
    for (unsigned spin = 1;
         __atomic_load_n(&team.done, __ATOMIC_ACQUIRE) < chunks; spin++) {
        if (spin < 4096)
            cpu_relax();
        else
            sched_yield();
    }
    for (int d = 0; d < 4; d++)
        out[d] = team.sum[d];
    pthread_mutex_unlock(&team.lock);
}

#if DRAWS_AVX2
/* out[l] = unit_double(hi[l], lo[l]) for the eight lanes: the same exact
 * conversions, scale, add and scale, four lanes at a time. */
AVX2_INLINE void unit_doubles8(__m256i hi, __m256i lo, double out[LANES])
{
    __m256i a = _mm256_srli_epi32(hi, 5), b = _mm256_srli_epi32(lo, 6);
    __m128i ah[2] = {_mm256_castsi256_si128(a), _mm256_extracti128_si256(a, 1)};
    __m128i bh[2] = {_mm256_castsi256_si128(b), _mm256_extracti128_si256(b, 1)};
    for (int h = 0; h < 2; h++) {
        __m256d v = _mm256_mul_pd(_mm256_cvtepi32_pd(ah[h]),
                                  _mm256_set1_pd(67108864.0));
        v = _mm256_add_pd(v, _mm256_cvtepi32_pd(bh[h]));
        v = _mm256_mul_pd(v, _mm256_set1_pd(1.0 / 9007199254740992.0));
        _mm256_storeu_pd(out + 4 * h, v);
    }
}

/* The 32-bit word at field `field` of the descriptors of lanes l0 (lanes
 * 0-3) and l1 (lanes 4-7): the low words of kind, key[0] and key[1]. */
AVX2_INLINE __m256i gather_lane_word(const lane_draw_t *d, __m256i l0,
                                     __m256i l1, int field)
{
    const int *base = (const int *)((const uint64_t *)d + field);
    __m256i r0 = _mm256_add_epi64(_mm256_slli_epi64(l0, 1), l0);
    __m256i r1 = _mm256_add_epi64(_mm256_slli_epi64(l1, 1), l1);
    return _mm256_set_m128i(_mm256_i64gather_epi32(base, r1, 8),
                            _mm256_i64gather_epi32(base, r0, 8));
}

/*
 * slot_draws of the full group of slots [i0, i0 + LANES) when every lane
 * in it is Philox (returns 1), else nothing (returns 0).  The counters
 * come from the slots' UID and step words, the keys from one descriptor
 * or, when the group mixes lanes, from a gather of each slot's; both
 * blocks run eight lanes at a time, and a mirrored odd UID at step 1
 * takes its reflections per slot.
 */
AVX2_FN int slot_draws_avx2(arena_t *a, int64_t i0, double u[3][LANES])
{
    const int64_t *lane = a->lane + i0;
    __m256i l0 = _mm256_loadu_si256((const __m256i *)lane);
    __m256i l1 = _mm256_loadu_si256((const __m256i *)(lane + 4));
    __m256i first = _mm256_set1_epi64x(lane[0]);
    __m256i same = _mm256_and_si256(_mm256_cmpeq_epi64(l0, first),
                                    _mm256_cmpeq_epi64(l1, first));
    __m256i kind, k0, k1;
    if (_mm256_movemask_epi8(same) == -1) {
        const lane_draw_t *d = a->lane_draws + lane[0];
        kind = _mm256_set1_epi32((int)(uint32_t)d->kind);
        k0 = _mm256_set1_epi32((int)(uint32_t)d->key[0]);
        k1 = _mm256_set1_epi32((int)(uint32_t)d->key[1]);
    } else {
        kind = gather_lane_word(a->lane_draws, l0, l1, 0);
        k0 = gather_lane_word(a->lane_draws, l0, l1, 1);
        k1 = gather_lane_word(a->lane_draws, l0, l1, 2);
    }
    if (!_mm256_testz_si256(kind, _mm256_set1_epi32(DRAW_MT)))
        return 0;
    const __m256i *uid = (const __m256i *)(a->uid + i0);
    const __m256i *step = (const __m256i *)(a->step_no + i0);
    __m256i uid0 = _mm256_loadu_si256(uid), uid1 = _mm256_loadu_si256(uid + 1);
    __m256i st0 = _mm256_loadu_si256(step), st1 = _mm256_loadu_si256(step + 1);
    __m256i mirrored = _mm256_and_si256(kind, _mm256_set1_epi32(DRAW_MIRRORED));
    __m256i uid_lo = words8(uid0, uid1, 0);
    /* Blocks 0 and 1; a mirrored lane's UID is its primary's, uid & ~1. */
    __m256i x[2][4] = {{
        _mm256_slli_epi32(words8(st0, st1, 0), 2),
        _mm256_andnot_si256(mirrored, uid_lo),
        words8(uid0, uid1, 1),
        _mm256_set1_epi32((int)DOMAIN_TAG),
    }};
    x[1][0] = _mm256_add_epi32(x[0][0], _mm256_set1_epi32(1));
    for (int d = 1; d < 4; d++)
        x[1][d] = x[0][d];
    philox8(x, 2, k0, k1);
    unit_doubles8(x[0][0], x[0][1], u[0]);
    unit_doubles8(x[0][2], x[0][3], u[1]);
    unit_doubles8(x[1][0], x[1][1], u[2]);
    /* Bit 0 set in the lanes of mirrored odd UIDs at step 1 (all 64
     * bits of it). */
    __m256i at1 = words8(_mm256_cmpeq_epi64(st0, _mm256_set1_epi64x(1)),
                         _mm256_cmpeq_epi64(st1, _mm256_set1_epi64x(1)), 0);
    __m256i fix = _mm256_and_si256(_mm256_and_si256(mirrored, uid_lo), at1);
    int lanes = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_slli_epi32(fix, 31)));
    for (int l = 0; l < LANES; l++)
        if (lanes >> l & 1) {
            u[0][l] = antipodal_draw(u[0][l]);
            u[1][l] = mirror_draw(u[1][l]);
            u[2][l] = mirror_draw(u[2][l]);
        }
    return 1;
}
#endif

/*
 * u[d][l] = draw slot d < 3 of step step_no[i0 + l] of the walk in slot
 * i0 + l, for l < m <= LANES, by its lane's kind: Philox at the walk's
 * counter (a mirrored lane's odd UID reads its primary's, uid - 1), an
 * MT lane's next three uniforms of the walk's stream, and, for an odd UID
 * of a mirrored lane at step 1, the antipodal slot 0 and mirrored slots
 * 1 and 2.  A full group of Philox lanes takes the AVX2 path on a host
 * that has it; returns whether it did.
 */
static inline int slot_draws(arena_t *a, int64_t i0, int m,
                             double u[3][LANES])
{
#if DRAWS_AVX2
    if (m == LANES && use_avx2 && slot_draws_avx2(a, i0, u))
        return 1;
#endif
    uint64_t uid[LANES], step[LANES], kind[LANES];
    uint64_t kinds = 0, all_mt = DRAW_MT;
    uint32_t key0[LANES], key1[LANES];
    for (int l = 0; l < LANES; l++) {
        /* Lanes past the end repeat the last walk and are not stored. */
        int64_t i = i0 + (l < m ? l : m - 1);
        const lane_draw_t *d = a->lane_draws + a->lane[i];
        kind[l] = d->kind;
        kinds |= d->kind;
        all_mt &= d->kind;
        uid[l] = d->kind & DRAW_MIRRORED ? a->uid[i] & ~(uint64_t)1
                                          : a->uid[i];
        step[l] = a->step_no[i];
        key0[l] = (uint32_t)d->key[0];
        key1[l] = (uint32_t)d->key[1];
    }
    if (!all_mt) {
        /* Draw slots 0 and 1 from block 0, slot 2 from block 1. */
        for (uint64_t j = 0; j < 2; j++) {
            uint32_t x0[LANES], x1[LANES], x2[LANES], x3[LANES];
            uint32_t k0[LANES], k1[LANES];
            for (int l = 0; l < LANES; l++) {
                walk_counter(uid[l], step[l], j, &x0[l], &x1[l], &x2[l],
                             &x3[l]);
                k0[l] = key0[l];
                k1[l] = key1[l];
            }
            philox_rounds(x0, x1, x2, x3, k0, k1);
            for (int l = 0; l < LANES; l++)
                u[2 * j][l] = unit_double(x0[l], x1[l]);
            if (j == 0)
                for (int l = 0; l < LANES; l++)
                    u[1][l] = unit_double(x2[l], x3[l]);
        }
    }
    if (!(kinds & (DRAW_MIRRORED | DRAW_MT)))
        return 0;
    for (int l = 0; l < m; l++) {
        if (kind[l] & DRAW_MT) {
            mt_t *s = a->mt + a->mt_slot[i0 + l];
            for (int d = 0; d < 3; d++)
                u[d][l] = mt_uniform(s);
        }
        if ((kind[l] & DRAW_MIRRORED) && (a->uid[i0 + l] & 1u)
            && step[l] == 1) {
            u[0][l] = antipodal_draw(u[0][l]);
            u[1][l] = mirror_draw(u[1][l]);
            u[2][l] = mirror_draw(u[2][l]);
        }
    }
    return 0;
}

/* launch's arguments, less the arena. */
typedef struct {
    const surface_t *s;
    int64_t n;
    const uint64_t *uids;
    int64_t lane;
    double tol;
    int64_t first_row;
} launch_args_t;

/* launch of walks [lo, hi) of the call. */
static void launch_chunk(arena_t *a, const void *args, int64_t lo,
                         int64_t hi, int64_t out[4])
{
    const launch_args_t *c = args;
    const surface_t *s = c->s;
    const lane_draw_t *d = a->lane_draws + c->lane;
    (void)out;
    for (int64_t j0 = lo; j0 < hi; j0 += LANES) {
        int m = hi - j0 < LANES ? (int)(hi - j0) : LANES;
        for (int l = 0; l < m; l++) {
            int64_t i = c->n + j0 + l;
            a->uid[i] = c->uids[j0 + l];
            a->lane[i] = c->lane;
            a->step_no[i] = 0;
            if (d->kind & DRAW_MT) {
                uint64_t h = splitmix64(d->key[0] ^ splitmix64(a->uid[i]));
                mt_seed(a->mt + a->mt_slot[i], (uint32_t)h);
            }
        }
        double u[3][LANES];
        slot_draws(a, c->n + j0, m, u);
        for (int l = 0; l < m; l++) {
            int64_t i = c->n + j0 + l;
            double *pos = a->pos + 3 * i;
            int64_t p = surface_point(s, u[0][l], u[1][l], u[2][l], pos);
            a->tol[i] = c->tol;
            a->grow[i] = c->first_row + j0 + l;
            a->step_no[i] = 1;
            a->eps[i] = a->layer_eps[count_le(a->interfaces,
                                              a->n_interfaces, pos[2])];
            a->first[i] = 1;
            a->naxis[i] = s->axis[p];
            a->nsign[i] = (double)s->sign[p];
        }
    }
}

/*
 * Launch walks uids[0..k) of lane `lane` (tolerance `tol`, global rows
 * first_row + j) from surface `s` into slots [n, n + k), with their step-0
 * draws (an MT lane seeds each walk's stream first, as
 * MTWalkStreams.walk_seed): the surface point, its normal, the
 * permittivity of its layer (a point on an interface takes the upper
 * layer) and a first step of 1.
 */
void launch(arena_t *a, const surface_t *s, int64_t n, int64_t k,
            const uint64_t *uids, int64_t lane, double tol,
            int64_t first_row)
{
    launch_args_t args = {s, n, uids, lane, tol, first_row};
    int64_t out[4];
    split(launch_chunk, a, &args, k, out);
}

/* locate of slots [lo, hi): out = absorbed, early, near points and
 * candidates visited. */
static void locate_chunk(arena_t *a, const void *args, int64_t lo,
                         int64_t hi, int64_t out[4])
{
    const double *elo = a->enc_lo, *ehi = a->enc_hi;
    int64_t absorbed = 0, early = 0, near = 0, visited = 0;
    (void)args;
    for (int64_t i = lo; i < hi; i++) {
        const double *p = a->pos + 3 * i;
        int64_t cond;
        double dc = query_one(a->grid, p[0], p[1], p[2], &cond, &near,
                              &visited);
        double de = p[0] - elo[0];
        de = min_tie_b(de, ehi[0] - p[0]);
        de = min_tie_b(de, p[1] - elo[1]);
        de = min_tie_b(de, ehi[1] - p[1]);
        de = min_tie_b(de, p[2] - elo[2]);
        de = min_tie_b(de, ehi[2] - p[2]);
        double tol = a->tol[i];
        int wall = de < tol;
        int hit = wall || (dc < tol && cond >= 0);
        a->dist[i] = dc;
        a->dist_e[i] = de;
        a->done[i] = (uint8_t)hit;
        if (hit) {
            a->dest[i] = wall ? a->enc_index : cond;
            absorbed++;
            early |= a->first[i];
        }
    }
    out[0] += absorbed;
    out[1] += early;
    out[2] += near;
    out[3] += visited;
}

/*
 * Query and absorption test of slots [0, n).  Per slot: dist = capped
 * conductor distance, dist_e = wall distance (a running minimum over the
 * six wall gaps in Structure.enclosure_distance's order), done = absorbed
 * (wall within tol first, then a conductor within tol) and, if so, dest =
 * the absorbing conductor.  Returns the absorbed count, or -1 when a
 * walk absorbed before its first hop.
 */
int64_t locate(arena_t *a, int64_t n)
{
    int64_t out[4];
    split(locate_chunk, a, NULL, n, out);
    a->counts[0] = out[2];
    a->counts[1] = out[3];
    return out[1] ? -1 : out[0];
}

/* Move walk `from` into slot `to`, swapping their MT streams. */
static inline void move_slot(arena_t *a, int64_t to, int64_t from)
{
    a->uid[to] = a->uid[from];
    a->lane[to] = a->lane[from];
    a->tol[to] = a->tol[from];
    a->grow[to] = a->grow[from];
    a->step_no[to] = a->step_no[from];
    a->eps[to] = a->eps[from];
    a->first[to] = a->first[from];
    a->naxis[to] = a->naxis[from];
    a->nsign[to] = a->nsign[from];
    for (int d = 0; d < 3; d++)
        a->pos[3 * to + d] = a->pos[3 * from + d];
    a->dist[to] = a->dist[from];
    a->dist_e[to] = a->dist_e[from];
    if (a->mt_slot) {
        int64_t held = a->mt_slot[to];
        a->mt_slot[to] = a->mt_slot[from];
        a->mt_slot[from] = held;
    }
}

/*
 * Retire the `done` slots of [0, n): bank each one's dest and step count
 * at its global row, take it off its batch's remaining count (and add it
 * to the batch's truncated count if `truncated`), then move the kept
 * walks of the tail [n - retired, n) into the holes of the head, both in
 * ascending slot order.  Returns the new active count.
 */
int64_t retire(arena_t *a, int64_t n, int64_t truncated)
{
    int64_t retired = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!a->done[i])
            continue;
        int64_t g = a->grow[i];
        a->res_dest[g - a->win_base_g] = a->dest[i];
        a->res_steps[g - a->win_base_g] = (int64_t)a->step_no[i];
        /* The batch holding row g: the last start <= g. */
        int64_t lo = 0, hi = a->n_win;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (a->win_starts[mid] <= g)
                lo = mid + 1;
            else
                hi = mid;
        }
        a->win_remaining[lo - 1] -= 1;
        if (truncated)
            a->win_truncated[lo - 1] += 1;
        retired++;
    }
    int64_t kept = n - retired, hole = 0;
    for (int64_t m = kept; m < n; m++) {
        if (a->done[m])
            continue;
        while (!a->done[hole])
            hole++;
        move_slot(a, hole++, m);
    }
    return kept;
}

/*
 * The exact two-medium hemisphere step of slot i, snapped onto the
 * interface nearest to it (the lower one on a tie), di away, with free
 * space `allow`: a sphere of radius min(allow - di, the gap to the
 * neighbouring interfaces), floored at tol / 2, centred on the interface
 * below the walk, and a direction drawn from (u0, u1, u2).  Kept out of
 * line: every xmm register is caller-saved across the sin/cos call, which
 * would otherwise cost cube_hop's loop its registers.
 */
static __attribute__((noinline)) void hemisphere_step(
    arena_t *a, int64_t i, double allow, double di, double u0, double u1,
    double u2)
{
    double *p = a->pos + 3 * i;
    const double *z = a->interfaces;
    int64_t m = a->n_interfaces, k = 0;
    double best = fabs(p[2] - z[0]);
    for (int64_t j = 1; j < m; j++) {
        double d = fabs(p[2] - z[j]);
        if (d < best) {
            best = d;
            k = j;
        }
    }
    double below = k > 0 ? z[k] - z[k - 1] : INFINITY;
    double above = k < m - 1 ? z[k + 1] - z[k] : INFINITY;
    double r = min_tie_b(allow - di, min_tie_b(below, above));
    r = max_tie_b(r, 0.5 * a->tol[i]);
    double dir[3];
    hemisphere_direction(u0, u1, u2, a->layer_eps[k], a->layer_eps[k + 1],
                         dir);
    p[0] = p[0] + r * dir[0];
    p[1] = p[1] + r * dir[1];
    p[2] = z[k] + r * dir[2];
}

/* cube_hop of slots [lo, hi): out[0] = the snapped count. */
static void cube_hop_chunk(arena_t *a, const void *args, int64_t lo,
                           int64_t hi, int64_t out[4])
{
    const table_t *t = a->table;
    int64_t n_snap = 0;
    (void)args;
    for (int64_t i0 = lo; i0 < hi; i0 += LANES) {
        int m = hi - i0 < LANES ? (int)(hi - i0) : LANES;
        double u[3][LANES];
        int64_t cells[LANES];
        int vec = slot_draws(a, i0, m, u);
        if (vec)
            sample_cells8(t, u[0], m, cells);
        for (int l = 0; l < m; l++) {
            int64_t i = i0 + l;
            double *p = a->pos + 3 * i;
            double allow = min_tie_b(min_tie_b(a->dist[i], a->dist_e[i]),
                                     a->h_cap);
            double h = allow;
            int first = a->first[i];
            a->first[i] = 0;
            a->step_no[i] += 1;
            if (a->n_interfaces) {
                double di = fabs(p[2] - a->interfaces[0]);
                for (int64_t k = 1; k < a->n_interfaces; k++)
                    di = min_tie_b(di, fabs(p[2] - a->interfaces[k]));
                h = min_tie_b(allow, di);
                if (!first && di < a->snap_fraction * allow) {
                    hemisphere_step(a, i, allow, di, u[0][l], u[1][l],
                                    u[2][l]);
                    n_snap++;
                    continue;
                }
            }
            if (first && a->first_floor > 0.0)
                h = max_tie_b(h, a->first_floor * allow);
            int64_t cell = vec ? cells[l] : sample_cell(t, u[0][l]);
            double unit[3];
            unit_position(t, cell, u[1][l], u[2][l], unit);
            double h2 = 2.0 * h;
            for (int d = 0; d < 3; d++)
                p[d] = (p[d] - h) + unit[d] * h2;
            if (first) {
                double ratio = t->grad_ratio[a->naxis[i] * t->n_cells + cell];
                double w = -a->lane_flux[a->lane[i]];
                w = w * a->eps[i];
                w = w * a->nsign[i];
                w = w * ratio;
                a->res_omega[a->grow[i] - a->win_base_g] = w / (2.0 * h);
            }
        }
    }
    out[0] += n_snap;
}

/*
 * The hop of slots [0, n) with the draws of their step step_no.  Per
 * slot: allow = min(dist, dist_e, h_cap); on a stratified stack the
 * interface distance di caps the cube, and a walk past its first hop
 * that lies within snap_fraction of allow of an interface takes the
 * hemisphere step instead.  Every other walk floors a first-hop cube at
 * first_floor * allow, draws a cell and its unit-cube point, moves to
 * pos - h + unit * 2h and, on its first hop, banks its weight
 * -flux * eps * nsign * grad_ratio / (2h).  Every slot then leaves its
 * first hop and advances its step count.  Returns the snapped count.
 */
int64_t cube_hop(arena_t *a, int64_t n)
{
    int64_t out[4];
    split(cube_hop_chunk, a, NULL, n, out);
    return out[0];
}

/* advance's stages (repro.frw.engine.StageTimers): locate, then launch and
 * cube_hop, then retire, then the loop's own over-cap scan. */
enum { STAGE_INDEX, STAGE_SAMPLE, STAGE_RETIRE, STAGE_BOOKKEEPING };

/* advance's returns (repro.native.ADVANCE_*). */
enum { ADVANCE_FRONT, ADVANCE_RUN, ADVANCE_EARLY, ADVANCE_FRAME };

/* With a->timed, charge the time since *t and one call to `stage`. */
static inline void lap(arena_t *a, int stage, struct timespec *t)
{
    if (!a->timed)
        return;
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    a->stage_ns[stage] += (int64_t)(now.tv_sec - t->tv_sec) * 1000000000
                          + (now.tv_nsec - t->tv_nsec);
    a->stage_calls[stage] += 1;
    *t = now;
}

/*
 * Step the vector until the front batch of the window (win_remaining[0])
 * has no walk left.  Each round first launches the pending run into the
 * free slots [n, width), then, unless the front batch is done, takes one
 * step of the live walks: it retires walks past max_steps as truncated
 * (absorbed by the enclosure), locates, retires the absorbed walks and
 * hops the rest.  Returns ADVANCE_FRONT when the front batch is done,
 * ADVANCE_RUN when the free slots need the next queued batch's run,
 * ADVANCE_EARLY when a walk absorbed before its first hop (after that
 * locate's counts), and, with a->trace, ADVANCE_FRAME after each round's
 * launches and after each hop.  A later call picks up where one returned.
 */
int64_t advance(arena_t *a)
{
    struct timespec t = {0, 0};
    if (a->timed)
        clock_gettime(CLOCK_MONOTONIC, &t);
    a->steps = a->locates = a->points = a->near = a->visited = 0;
    a->launched = a->snapped = 0;
    for (int s = 0; s < 4; s++)
        a->stage_ns[s] = a->stage_calls[s] = 0;
    for (;;) {
        while (a->n < a->width) {
            if (a->run_off == a->run_n) {
                if (a->queued)
                    return ADVANCE_RUN;
                break;
            }
            int64_t k = a->width - a->n;
            if (k > a->run_n - a->run_off)
                k = a->run_n - a->run_off;
            launch(a, a->run_surface, a->n, k, a->run + a->run_off,
                   a->run_lane, a->run_tol, a->run_row + a->run_off);
            a->n += k;
            a->run_off += k;
            a->launched += k;
            a->refilled = 1;
            lap(a, STAGE_SAMPLE, &t);
        }
        if (a->refilled) {
            a->refilled = 0;
            if (a->trace)
                return ADVANCE_FRAME;
        }
        if (!a->win_remaining[0])
            return ADVANCE_FRONT;
        int64_t n = a->n;
        a->steps++;
        int b = 63 - __builtin_clzll((uint64_t)n);
        b = b < WIDTH_BUCKETS ? b : WIDTH_BUCKETS - 1;
        a->width_steps[b]++;
        a->width_walks[b] += n;
        int64_t over = 0;
        for (int64_t i = 0; i < n; i++) {
            uint8_t o = a->step_no[i] > (uint64_t)a->max_steps;
            a->done[i] = o;
            if (o)
                a->dest[i] = a->enc_index;
            over += o;
        }
        lap(a, STAGE_BOOKKEEPING, &t);
        if (over) {
            n = a->n = retire(a, n, 1);
            lap(a, STAGE_RETIRE, &t);
            if (!n)
                continue;
        }
        int64_t absorbed = locate(a, n);
        a->locates++;
        a->points += n;
        a->near += a->counts[0];
        a->visited += a->counts[1];
        lap(a, STAGE_INDEX, &t);
        if (absorbed < 0)
            return ADVANCE_EARLY;
        if (absorbed) {
            n = a->n = retire(a, n, 0);
            lap(a, STAGE_RETIRE, &t);
            if (!n)
                continue;
        }
        a->snapped += cube_hop(a, n);
        lap(a, STAGE_SAMPLE, &t);
        if (a->trace)
            return ADVANCE_FRAME;
    }
}

/*
 * A RowAccumulator's registers (repro.native.Row): per destination
 * conductor, the sums of weights w and of squared weights w2 with their
 * Neumaier compensations w_c and w2_c (both NULL under naive summation),
 * and the hits; the walks and their steps; and 4 * n_cond doubles of
 * scratch, zero between calls.
 */
typedef struct {
    double *w;
    double *w_c;
    double *w2;
    double *w2_c;
    int64_t *hits;
    double *scratch;
    int64_t n_cond;
    int64_t walks;
    int64_t total_steps;
} row_t;

/* x into *total: Neumaier's compensated add into (*total, *comp)
 * (repro.numerics.KahanVector.add_at), or a plain add when comp is NULL
 * (NaiveVector.add_at). */
static inline void fold_add(double *total, double *comp, double x)
{
    double s = *total;
    double t = s + x;
    if (comp)
        *comp += fabs(s) >= fabs(x) ? (s - t) + x : (x - t) + s;
    *total = t;
}

/* Add every slot of the fresh registers (f, f_c) into (w, w_c), as
 * KahanVector.merge and NaiveVector.merge do, and zero them again. */
static void fold_merge(int64_t n_cond, double *w, double *w_c, double *f,
                       double *f_c)
{
    for (int64_t j = 0; j < n_cond; j++) {
        fold_add(w + j, w_c ? w_c + j : NULL, f[j]);
        if (w_c)
            w_c[j] += f_c[j];
        f[j] = 0.0;
        f_c[j] = 0.0;
    }
}

/* Walks order[lo..hi) (positions lo..hi without an order), one by one,
 * into the registers (w, w_c) and (w2, w2_c), each counted in hits. */
static void fold_walks(double *w, double *w_c, double *w2, double *w2_c,
                       int64_t *hits, const double *omega,
                       const int64_t *dest, const int64_t *order, int64_t lo,
                       int64_t hi)
{
    for (int64_t k = lo; k < hi; k++) {
        int64_t i = order ? order[k] : k;
        int64_t d = dest[i];
        double x = omega[i];
        hits[d] += 1;
        fold_add(w + d, w_c ? w_c + d : NULL, x);
        fold_add(w2 + d, w2_c ? w2_c + d : NULL, x * x);
    }
}

/*
 * One observation per sample of `group` (1 or 2) consecutive walks: the
 * sample's mean weight on each destination, ((0.0 + w_2k) + w_2k+1) / 2
 * on a pair's shared destination, (0.0 + w) / group on any other (the
 * zero-filled sample-by-conductor matrix np.add.at wrote), summed with
 * its square into per-conductor columns in sample order from 0.0, then
 * each column added once into the registers.
 */
static void fold_means(row_t *r, int64_t n, const double *omega,
                       const int64_t *dest, int64_t group)
{
    double *s1 = r->scratch, *s2 = r->scratch + r->n_cond;
    for (int64_t k = 0; k < n; k += group) {
        int64_t d = dest[k];
        double m = 0.0 + omega[k];
        r->hits[d] += 1;
        if (group == 2) {
            int64_t d1 = dest[k + 1];
            r->hits[d1] += 1;
            if (d1 == d) {
                m = (m + omega[k + 1]) / 2.0;
            } else {
                double m1 = (0.0 + omega[k + 1]) / 2.0;
                s1[d1] += m1;
                s2[d1] += m1 * m1;
                m = m / 2.0;
            }
        }
        s1[d] += m;
        s2[d] += m * m;
    }
    for (int64_t j = 0; j < r->n_cond; j++) {
        fold_add(r->w + j, r->w_c ? r->w_c + j : NULL, s1[j]);
        fold_add(r->w2 + j, r->w2_c ? r->w2_c + j : NULL, s2[j]);
        s1[j] = 0.0;
        s2[j] = 0.0;
    }
}

/*
 * Fold a finished batch of n walks (omega, dest, steps; steps may be
 * NULL) into the row: every walk counts in hits, walks and total_steps.
 * With group > 0 each sample of `group` walks enters the sums once as
 * its mean (fold_means).  With group 0 the walks enter one by one in
 * `order` (a permutation of [0, n), or NULL for 0..n-1; hits count the
 * walks it lists): straight into
 * the registers when n_seg is 0, else cut at bounds[0..n_seg] into the
 * virtual threads' segments, each folded into fresh registers that are
 * then merged in.  Returns 0, or before any write -1 for a dest outside
 * [0, n_cond) and -2 for an order or bounds outside [0, n].
 */
int64_t fold_batch(row_t *r, int64_t n, const double *omega,
                   const int64_t *dest, const int64_t *steps, int64_t group,
                   const int64_t *order, const int64_t *bounds,
                   int64_t n_seg)
{
    int64_t total_steps = 0;
    for (int64_t i = 0; i < n; i++) {
        if (dest[i] < 0 || dest[i] >= r->n_cond)
            return -1;
        if (steps)
            total_steps += steps[i];
    }
    if (order)
        for (int64_t k = 0; k < n; k++)
            if (order[k] < 0 || order[k] >= n)
                return -2;
    if (n_seg) {
        if (bounds[0] != 0 || bounds[n_seg] != n)
            return -2;
        for (int64_t t = 0; t < n_seg; t++)
            if (bounds[t] > bounds[t + 1])
                return -2;
    }
    r->walks += n;
    r->total_steps += total_steps;
    if (group) {
        fold_means(r, n, omega, dest, group);
        return 0;
    }
    if (!n_seg) {
        fold_walks(r->w, r->w_c, r->w2, r->w2_c, r->hits, omega, dest, order,
                   0, n);
        return 0;
    }
    double *f = r->scratch, *f_c = f + r->n_cond;
    double *f2 = f_c + r->n_cond, *f2_c = f2 + r->n_cond;
    for (int64_t t = 0; t < n_seg; t++) {
        fold_walks(f, r->w_c ? f_c : NULL, f2, r->w2_c ? f2_c : NULL,
                   r->hits, omega, dest, order, bounds[t], bounds[t + 1]);
        fold_merge(r->n_cond, r->w, r->w_c, f, f_c);
        fold_merge(r->n_cond, r->w2, r->w2_c, f2, f2_c);
    }
    return 0;
}
