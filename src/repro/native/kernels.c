/*
 * Compiled stage kernels of the walk engine.
 *
 * Two entry points, each the one implementation of its stage:
 *
 *   philox_span  Philox4x32-10 draws for `depth` consecutive steps of a
 *                vector of walks (repro.rng.WalkStreams.draws_span).
 *   grid_query   capped nearest-conductor queries on the uniform grid
 *                (repro.geometry.GridIndex.query_into).
 *
 * Both produce the bits of their Python references exactly.  Philox is
 * integer arithmetic modulo 2^32; the word-pair-to-double conversion is
 * an exact integer-to-double cast, one exact scale by 2^26, an exact add
 * (the sum is an integer below 2^53) and an exact scale by 2^-53.  The
 * grid query uses only IEEE subtraction, multiplication, comparisons and
 * maxima, each rounded once.  No libm function is called, and the build
 * passes -ffp-contract=off, so no multiply-add is fused.
 */

#include <stddef.h>
#include <stdint.h>

#define PHILOX_ROUNDS 10
#define PHILOX_M0 0xD2511F53u
#define PHILOX_M1 0xCD9E8D57u
#define PHILOX_W0 0x9E3779B9u
#define PHILOX_W1 0xBB67AE85u

/* Counter layout of repro.rng.counter_stream. */
#define BLOCKS_PER_STEP 4
#define DOMAIN_TAG 0x46525752u

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
    philox_lanes(x0, x1, x2, x3, k0, k1);
    out[0] = x0[0];
    out[1] = x1[0];
    out[2] = x2[0];
    out[3] = x3[0];
}

/* The 53-bit uniform in [0, 1) of the word pair (hi, lo). */
static inline double unit_double(uint32_t hi, uint32_t lo)
{
    double a = (double)(hi >> 5);
    double b = (double)(lo >> 6);
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/*
 * out[k*s_k + i*s_i + d*s_d] = draw slot d of step steps[i] + k of walk
 * uids[i], for k < depth, i < n, d < count.  All strides count elements;
 * a stride of 0 broadcasts one step or one key to every walk.
 */
void philox_span(int64_t n, int64_t depth, int64_t count,
                 const uint64_t *uids, int64_t uid_stride,
                 const uint64_t *steps, int64_t step_stride,
                 const uint64_t *k0s, const uint64_t *k1s,
                 int64_t key_stride,
                 double *out, int64_t s_k, int64_t s_i, int64_t s_d)
{
    int64_t blocks = (count + 1) / 2;
    for (int64_t a = 0; a < n; a += LANES) {
        int m = n - a < LANES ? (int)(n - a) : LANES;
        uint64_t step[LANES];
        uint32_t uid_lo[LANES], uid_hi[LANES], key0[LANES], key1[LANES];
        for (int l = 0; l < LANES; l++) {
            /* Lanes past the end repeat the last walk and are not stored. */
            int64_t i = a + (l < m ? l : m - 1);
            uint64_t uid = uids[i * uid_stride];
            step[l] = steps[i * step_stride];
            uid_lo[l] = (uint32_t)uid;
            uid_hi[l] = (uint32_t)(uid >> 32);
            key0[l] = (uint32_t)k0s[i * key_stride];
            key1[l] = (uint32_t)k1s[i * key_stride];
        }
        for (int64_t k = 0; k < depth; k++) {
            for (int64_t j = 0; j < blocks; j++) {
                uint32_t x0[LANES], x1[LANES], x2[LANES], x3[LANES];
                uint32_t c0[LANES], c1[LANES];
                for (int l = 0; l < LANES; l++) {
                    x0[l] = (uint32_t)((step[l] + (uint64_t)k)
                                       * BLOCKS_PER_STEP + (uint64_t)j);
                    x1[l] = uid_lo[l];
                    x2[l] = uid_hi[l];
                    x3[l] = DOMAIN_TAG;
                    c0[l] = key0[l];
                    c1[l] = key1[l];
                }
                philox_lanes(x0, x1, x2, x3, c0, c1);
                double *lo_slot = out + k * s_k + 2 * j * s_d + a * s_i;
                for (int l = 0; l < m; l++)
                    lo_slot[l * s_i] = unit_double(x0[l], x1[l]);
                if (2 * j + 1 < count) {
                    double *hi_slot = lo_slot + s_d;
                    for (int l = 0; l < m; l++)
                        hi_slot[l * s_i] = unit_double(x2[l], x3[l]);
                }
            }
        }
    }
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

/*
 * Capped Chebyshev distance and conductor per point; counts[0] += near
 * points, counts[1] += candidates visited.  A far-field cell answers
 * (h_cap, -1) outright; a near one scans its candidates in ascending box
 * order and keeps the first strictly lowest distance below h_cap.
 */
void grid_query(const grid_t *g, int64_t n,
                const double *pts, int64_t p_s0, int64_t p_s1,
                double *dist, int64_t dist_stride,
                int64_t *cond, int64_t cond_stride,
                int64_t *counts)
{
    int64_t near_points = 0, visited = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *p = pts + i * p_s0;
        double px = p[0], py = p[p_s1], pz = p[2 * p_s1];
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
            near_points++;
            visited += b - a;
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
        dist[i * dist_stride] = best;
        cond[i * cond_stride] = winner < 0 ? -1 : g->owner[winner];
    }
    counts[0] += near_points;
    counts[1] += visited;
}
