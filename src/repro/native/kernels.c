/*
 * Compiled stage kernels of the walk engine.
 *
 * Each entry point is the one implementation of its stage:
 *
 *   philox_span     Philox4x32-10 draws for `depth` consecutive steps of a
 *                   vector of walks (repro.rng.WalkStreams.draws_span).
 *   grid_query      capped nearest-conductor queries on the uniform grid
 *                   (repro.geometry.GridIndex.query_into).
 *   sample_cells,   the cube transition table's inverse-CDF cell draw and
 *   unit_positions  its unit-cube point (repro.greens.CubeTransitionTable).
 *   locate          the walk step's query and absorption test,
 *   retire          its result banking and slot compaction, and
 *   cube_hop        its cube hop (repro.frw.engine.WalkPipeline), all
 *                   over one arena_t descriptor of the slot arena.
 *
 * All produce the bits of their NumPy references exactly.  Philox is
 * integer arithmetic modulo 2^32; the word-pair-to-double conversion is
 * an exact integer-to-double cast, one exact scale by 2^26, an exact add
 * (the sum is an integer below 2^53) and an exact scale by 2^-53.  The
 * other kernels use only IEEE + - * /, comparisons, minima, maxima and
 * fabs, each rounded once and in NumPy's order.  A minimum or maximum of
 * equal arguments returns the second one, as np.minimum and np.maximum
 * do, which decides the sign of a zero result.  No libm function is
 * called, and the build passes -ffp-contract=off, so no multiply-add is
 * fused.
 */

#include <math.h>
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
 * Capped Chebyshev distance and conductor per point; counts[0] += near
 * points, counts[1] += candidates visited.
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
        dist[i * dist_stride] = query_one(g, p[0], p[p_s1], p[2 * p_s1],
                                          cond + i * cond_stride,
                                          &near_points, &visited);
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

/* The unit-cube point of `cell` with in-cell jitters (ja, jb): the face
 * axis takes the face side, the transverse axes (in sorted order) take
 * (cell_i + ja) / nf and (cell_j + jb) / nf. */
static inline void unit_position(const table_t *t, int64_t cell, double ja,
                                 double jb, double out[3])
{
    double a = ((double)t->cell_i[cell] + ja) / (double)t->nf;
    double b = ((double)t->cell_j[cell] + jb) / (double)t->nf;
    int64_t axis = t->face_axis[cell];
    double side = (double)t->face_side[cell];
    out[0] = axis == 0 ? side : a;
    out[1] = axis == 1 ? side : (axis == 0 ? a : b);
    out[2] = axis == 2 ? side : b;
}

void sample_cells(const table_t *t, int64_t n, const double *u,
                  int64_t u_stride, int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = sample_cell(t, u[i * u_stride]);
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

/*
 * A WalkPipeline's slot arena and walk space; field order matches
 * repro.native.Arena.  The active walks are slots [0, n).  Slot arrays
 * hold `capacity` entries (pos: (capacity, 3) row-major); the prefetch
 * ring is ring[k][d][slot], planes of 3 * capacity doubles.
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
    double *dist;             /* conductor distance, then the hop's allow */
    double *dist_e;           /* wall distance */
    double *dist_i;           /* interface distance */
    uint8_t *done;
    int64_t *dest;
    int64_t *snapped;
    int64_t capacity;
    double *ring;
    /* Result window over the launched, unemitted batches. */
    double *res_omega;
    int64_t *res_dest;
    int64_t *res_steps;
    const int64_t *win_starts;
    int64_t *win_remaining;
    int64_t *win_truncated;
    int64_t n_win;
    int64_t win_base_g;
    const double *lane_flux;
    /* Walk space. */
    const grid_t *grid;
    const table_t *table;
    const double *interfaces;
    int64_t n_interfaces;
    double enc_lo[3];
    double enc_hi[3];
    int64_t enc_index;
    double h_cap;
    double snap_fraction;
    double first_floor;
    /* locate's query counts: near points, candidates visited. */
    int64_t counts[2];
} arena_t;

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
    const double *lo = a->enc_lo, *hi = a->enc_hi;
    int64_t absorbed = 0, early = 0, near = 0, visited = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *p = a->pos + 3 * i;
        int64_t cond;
        double dc = query_one(a->grid, p[0], p[1], p[2], &cond, &near,
                              &visited);
        double de = p[0] - lo[0];
        de = min_tie_b(de, hi[0] - p[0]);
        de = min_tie_b(de, p[1] - lo[1]);
        de = min_tie_b(de, hi[1] - p[1]);
        de = min_tie_b(de, p[2] - lo[2]);
        de = min_tie_b(de, hi[2] - p[2]);
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
    a->counts[0] = near;
    a->counts[1] = visited;
    return early ? -1 : absorbed;
}

/* Move walk `from` into slot `to`, with its ring planes [cursor, depth). */
static inline void move_slot(arena_t *a, int64_t to, int64_t from,
                             int64_t cursor, int64_t depth)
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
    for (int64_t k = cursor; k < depth; k++) {
        double *plane = a->ring + k * 3 * a->capacity;
        for (int d = 0; d < 3; d++)
            plane[d * a->capacity + to] = plane[d * a->capacity + from];
    }
}

/*
 * Retire the `done` slots of [0, n): bank each one's dest and step count
 * at its global row, take it off its batch's remaining count (and add it
 * to the batch's truncated count if `truncated`), then move the kept
 * walks of the tail [n - retired, n) into the holes of the head, both in
 * ascending slot order.  Returns the new active count.
 */
int64_t retire(arena_t *a, int64_t n, int64_t truncated, int64_t cursor,
               int64_t depth)
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
        move_slot(a, hole++, m, cursor, depth);
    }
    return kept;
}

/*
 * The hop of slots [0, n) with the draws of ring plane `plane`.  Per
 * slot: allow = min(dist, dist_e, h_cap) (stored back in dist); on a
 * stratified stack the interface distance (stored in dist_i) caps the
 * cube, and a walk past its first hop that lies within snap_fraction of
 * allow of an interface is listed in `snapped` and left in place for the
 * hemisphere step.  Every other walk floors a first-hop cube at
 * first_floor * allow, draws a cell and its unit-cube point, moves to
 * pos - h + unit * 2h and, on its first hop, banks its weight
 * -flux * eps * nsign * grad_ratio / (2h).  Every slot then leaves its
 * first hop and advances its step count.  Returns the snapped count.
 */
int64_t cube_hop(arena_t *a, int64_t n, int64_t plane)
{
    const table_t *t = a->table;
    const double *u0 = a->ring + plane * 3 * a->capacity;
    const double *u1 = u0 + a->capacity, *u2 = u1 + a->capacity;
    int64_t n_snap = 0;
    for (int64_t i = 0; i < n; i++) {
        double *p = a->pos + 3 * i;
        double allow = min_tie_b(min_tie_b(a->dist[i], a->dist_e[i]),
                                 a->h_cap);
        double h = allow;
        a->dist[i] = allow;
        if (a->n_interfaces) {
            double di = fabs(p[2] - a->interfaces[0]);
            for (int64_t k = 1; k < a->n_interfaces; k++)
                di = min_tie_b(di, fabs(p[2] - a->interfaces[k]));
            a->dist_i[i] = di;
            h = min_tie_b(allow, di);
            if (!a->first[i] && di < a->snap_fraction * allow) {
                a->snapped[n_snap++] = i;
                a->first[i] = 0;
                a->step_no[i] += 1;
                continue;
            }
        }
        if (a->first[i] && a->first_floor > 0.0)
            h = max_tie_b(h, a->first_floor * allow);
        int64_t cell = sample_cell(t, u0[i]);
        double unit[3];
        unit_position(t, cell, u1[i], u2[i], unit);
        double h2 = 2.0 * h;
        for (int d = 0; d < 3; d++)
            p[d] = (p[d] - h) + unit[d] * h2;
        if (a->first[i]) {
            double ratio = t->grad_ratio[a->naxis[i] * t->n_cells + cell];
            double w = -a->lane_flux[a->lane[i]];
            w = w * a->eps[i];
            w = w * a->nsign[i];
            w = w * ratio;
            a->res_omega[a->grow[i] - a->win_base_g] = w / (2.0 * h);
        }
        a->first[i] = 0;
        a->step_no[i] += 1;
    }
    return n_snap;
}
