/* The four entries of the simulation, bound in gossipwatch.protocol, and
 * at the end of the file the three of gossipwatch.neural's network step.
 * Every instance, and every dataset row, owns one numpy PCG64 generator,
 * kept as a row of a (B, 6) uint64 states array that the entries advance
 * in place.  seed_states: each row from its SeedSequence entropy words, as
 * PCG64(SeedSequence(...)) seeds itself.  draw_rows: each dataset row's
 * monitored agent and insider placement, drawn as Generator.integers and
 * Generator.choice draw them, with the trustworthy agents' connectivity
 * checked by a BFS.  draw_problems: each instance's least-squares problem
 * and injection target, drawn before its run (phi = theta x* stays in
 * numpy, whose BLAS product the C build does not reproduce).  gossip_loop,
 * one call of run_batch: each instance's draws, then its t = 1..T loop,
 * one instance after another on the calling thread, keeping the time sums
 * of the agents that run_batch's summed mask names (NaN elsewhere).  Built
 * with -O3 -ffp-contract=off, every expression rounds exactly as the numpy
 * reference in tests/oracles.py does, operation for operation (no
 * reduction is reassociated and no multiply-add fused), and every draw is
 * PCG64's own output, through numpy's buffered 32-bit and double
 * conversions, in the frozen stream order that the reference writes out,
 * so both return the same bits and leave the generators in the same state.
 * An instance reads and writes only its own states row and its own slices
 * of the outputs, so its bits do not depend on the batch it runs in.
 * Arrays are C-contiguous; the Python callers check shapes and dtypes
 * before the call. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Each instance's generator is numpy's PCG64, kept as one row of six
 * uint64 words: state high and low, increment high and low, has_uint32 and
 * uinteger (the buffered upper half of a 64-bit output).  An instance loads
 * its row into a pcg64_t, draws from it and stores it back, so its row ends
 * as numpy's bit_generator.state would after the same draws. */
typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64_t;

#define PCG_MULT (((u128)2549297995355413924ULL << 64) + 4865540595714422341ULL)

static inline pcg64_t load_pcg64(const uint64_t *row)
{
    return (pcg64_t){((u128)row[0] << 64) | row[1], ((u128)row[2] << 64) | row[3], row[4], row[5]};
}

static inline void store_pcg64(uint64_t *row, const pcg64_t *g)
{
    row[0] = (uint64_t)(g->state >> 64);
    row[1] = (uint64_t)g->state;
    row[2] = (uint64_t)(g->inc >> 64);
    row[3] = (uint64_t)g->inc;
    row[4] = g->has_uint32;
    row[5] = g->uinteger;
}

/* One LCG step, then the XSL-RR output of the new state. */
static inline uint64_t next_uint64(pcg64_t *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    const uint64_t v = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (v >> rot) | (v << ((-rot) & 63));
}

/* The low half of a fresh 64-bit output, keeping the high half for the
 * next call, as numpy's pcg64_next32. */
static inline uint32_t next_uint32(pcg64_t *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    const uint64_t next = next_uint64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

static inline double next_double(pcg64_t *g)
{
    return (double)(next_uint64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* Generator.uniform(low, high): low + (high - low) * u. */
static inline double uniform(pcg64_t *g, double low, double range)
{
    return low + range * next_double(g);
}

/* Generator.integers(0, rng + 1) for rng < 2^32 - 1: Lemire's bounded draw
 * on 32-bit outputs, as numpy's buffered_bounded_lemire_uint32. */
static inline uint32_t bounded_uint32(pcg64_t *g, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)next_uint32(g) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)next_uint32(g) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* numpy's SeedSequence hash (pool of 4 words) over E entropy words. */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* Row b of states (N, 6) becomes PCG64(SeedSequence(...)) of the entropy
 * words words[b * E .. b * E + E): numpy's coercion of the run entropy and
 * spawn key, done by protocol.entropy_words.  The pool mixes the words,
 * generate_state(4, uint64) draws the seed and the increment from it, and
 * PCG64's set-seed takes two LCG steps, as numpy does. */
void seed_states(int64_t N, int64_t E, const uint32_t *words, uint64_t *states)
{
    for (int64_t b = 0; b < N; b++) {
        const uint32_t *w = words + b * E;
        uint32_t pool[4], hash_const = 0x43b0d7e5u, out[8];
        for (int i = 0; i < 4; i++)
            pool[i] = hashmix(i < E ? w[i] : 0, &hash_const);
        for (int src = 0; src < 4; src++)
            for (int dst = 0; dst < 4; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
        for (int64_t src = 4; src < E; src++)
            for (int dst = 0; dst < 4; dst++)
                pool[dst] = mix(pool[dst], hashmix(w[src], &hash_const));
        hash_const = 0x8b51f9ddu;
        for (int i = 0; i < 8; i++) {
            uint32_t v = pool[i % 4] ^ hash_const;
            hash_const *= 0x58f38dedu;
            v *= hash_const;
            out[i] = v ^ (v >> 16);
        }
        uint64_t seed[4];
        for (int i = 0; i < 4; i++)
            seed[i] = (uint64_t)out[2 * i] | (uint64_t)out[2 * i + 1] << 32;
        pcg64_t g = {0, (((u128)seed[2] << 64) | seed[3]) << 1 | 1, 0, 0};
        g.state = g.inc;
        g.state += ((u128)seed[0] << 64) | seed[1];
        g.state = g.state * PCG_MULT + g.inc;
        store_pcg64(states + b * 6, &g);
    }
}

/* numpy's pairwise summation (add.reduce over a contiguous axis). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t k = 0; k < n; k++)
            res += a[k];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t k;
        memcpy(r, a, sizeof r);
        for (k = 8; k < n - n % 8; k += 8)
            for (int q = 0; q < 8; q++)
                r[q] += a[k + q];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; k < n; k++)
            res += a[k];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* pairwise_sum with its n < 8 branch inline, so that a constant n unrolls. */
static inline double reduce_sum(const double *a, int64_t n)
{
    if (n >= 8)
        return pairwise_sum(a, n);
    double res = -0.0;
    for (int64_t k = 0; k < n; k++)
        res += a[k];
    return res;
}

/* The arguments of one gossip_loop call. */
typedef struct {
    int64_t B, n, d, T, width;
    uint64_t *states;
    double *first, *x, *sums, *traj;
    const uint8_t *flags, *summed;
    const int64_t *degrees, *nbr_table;
    const double *thetas, *phis, *alphas, *powers, *sched;
    double init_low, init_range, lo, hi;
} job_t;

#define SUM_REGS 10 /* the doubles of a running sum that registers hold */

/* The n agents' d-vectors of src, stored by position, into dst by id. */
static inline void by_id(double *dst, const double *src, const int64_t *pos, int64_t n, int64_t d)
{
    for (int64_t v = 0; v < n; v++)
        memcpy(dst + v * d, src + pos[v] * d, d * sizeof *dst);
}

/* Instance b: its draws from states row b, then its t = 1..T loop in buf.
 * pos (n entries, buf's head) relabels its agents: the S that summed[b]
 * flags take positions 0..S-1 and the rest follow, each part in id order.
 * Then buf holds wake and pull (T positions each) and, by position, the
 * running state x and sum (n * d + SUM_REGS each; x's tail stays calloc's
 * zeros), thetas (n * d), phis (n), xbar and prod (d each), flags (n
 * bytes).  The draws keep their stream order, each drawn id mapped to its
 * position.  The states at t = 0 and t = T and the S agents' sums over
 * t = 0..T go to first, x and sums by id, the other sums as NaN.  With
 * regs, the sum covers x's first SUM_REGS doubles, in a local array.
 * Agent i's neighbors are nbr_table[i * width .. i * width + degrees[i]).
 * An attacker member's noise row is drawn at its event, in (t,
 * waking-then-pulled) order, which continues the stream where the pair
 * draws end.  Unless traj is NULL, its (B, T + 1, n, d) slice of instance
 * b receives the states of every iteration. */
static inline __attribute__((always_inline)) void run_instance_d(
    const job_t *j, int64_t b, int64_t *pos, const int64_t d, const int64_t S, const int regs)
{
    const int64_t n = j->n, T = j->T, nd = n * d;
    int64_t *wake = pos + n, *pull = wake + T;
    double *xb = (double *)(pull + T), *sb = xb + nd + SUM_REGS, *th = sb + nd + SUM_REGS;
    double *ph = th + nd, *xbar = ph + n, *prod = xbar + d, acc[SUM_REGS], *sum = regs ? acc : sb;
    const int64_t span = regs ? SUM_REGS : S * d;
    uint8_t *fb = (uint8_t *)(prod + d);
    pcg64_t gen = load_pcg64(j->states + b * 6), *g = &gen;
    const double *ab = j->alphas + b * d, *powers = j->powers, *sched = j->sched, lo = j->lo;
    const double hi = j->hi;
    double *tb = j->traj == NULL ? NULL : j->traj + b * (T + 1) * nd;
    for (int64_t v = 0; v < n; v++) {
        fb[pos[v]] = j->flags[b * n + v];
        ph[pos[v]] = j->phis[b * n + v];
        memcpy(th + pos[v] * d, j->thetas + (b * n + v) * d, d * sizeof *th);
        for (int64_t k = 0; k < d; k++)
            xb[pos[v] * d + k] = uniform(g, j->init_low, j->init_range);
    }
    for (int64_t v = 0; v < n; v++)
        if (fb[pos[v]])
            for (int64_t k = 0; k < d; k++)
                xb[pos[v] * d + k] = ab[k] + 1.0 * uniform(g, -1.0, 2.0);
    for (int64_t t = 0; t < T; t++)
        wake[t] = bounded_uint32(g, (uint32_t)(n - 1));
    for (int64_t t = 0; t < T; t++) {
        const double u = next_double(g);
        const int64_t w = wake[t];
        pull[t] = pos[j->nbr_table[w * j->width + (int64_t)(u * (double)j->degrees[w])]];
        wake[t] = pos[w];
    }
    by_id(j->first + b * nd, xb, pos, n, d);
    memcpy(sum, xb, span * sizeof *xb);
    if (tb != NULL)
        by_id(tb, xb, pos, n, d);
    for (int64_t t = 1; t <= T; t++) {
        const int64_t pair[2] = {wake[t - 1], pull[t - 1]};
        const double gam = sched[t - 1];
        for (int64_t k = 0; k < d; k++)
            xbar[k] = 0.5 * (xb[pair[0] * d + k] + xb[pair[1] * d + k]);
        for (int p = 0; p < 2; p++) {
            const int64_t v = pair[p];
            double *xv = xb + v * d;
            if (fb[v]) {
                for (int64_t k = 0; k < d; k++)
                    xv[k] = ab[k] + powers[t] * uniform(g, -1.0, 2.0);
                continue;
            }
            const double *tv = th + v * d;
            for (int64_t k = 0; k < d; k++)
                prod[k] = tv[k] * xbar[k];
            const double resid = (0.0 + reduce_sum(prod, d)) - ph[v];
            for (int64_t k = 0; k < d; k++) {
                const double u = xbar[k] - gam * (2.0 * tv[k] * resid);
                xv[k] = u < lo ? lo : (u > hi ? hi : u);
            }
        }
        for (int64_t k = 0; k < span; k++)
            sum[k] += xb[k];
        if (tb != NULL)
            by_id(tb + t * nd, xb, pos, n, d);
    }
    if (regs)
        memcpy(sb, acc, sizeof acc);
    for (int64_t k = S * d; k < nd; k++)
        sb[k] = NAN;
    by_id(j->x + b * nd, xb, pos, n, d);
    by_id(j->sums + b * nd, sb, pos, n, d);
    store_pcg64(j->states + b * 6, g);
}

/* Instance b's positions into pos, then run_instance_d inlined with d = 1
 * and d = 2 as constants, so that the compiler unrolls the d loops, and
 * with regs, a constant there too, where the kept sums fit SUM_REGS. */
static void run_instance(const job_t *j, int64_t b, int64_t *pos)
{
    const int64_t n = j->n, d = j->d;
    int64_t S = 0;
    for (int64_t v = 0; v < n; v++)
        S += j->summed[b * n + v] != 0;
    for (int64_t v = 0, in = 0, out = S; v < n; v++)
        pos[v] = j->summed[b * n + v] ? in++ : out++;
    const int regs = S * d <= SUM_REGS;
    if (d == 1)
        regs ? run_instance_d(j, b, pos, 1, S, 1) : run_instance_d(j, b, pos, 1, S, 0);
    else if (d == 2)
        regs ? run_instance_d(j, b, pos, 2, S, 1) : run_instance_d(j, b, pos, 2, S, 0);
    else
        run_instance_d(j, b, pos, d, S, regs);
}

/* Every instance, one after another, in the one work buffer buf.  Kept out
 * of line: inlined into gossip_loop, the loop ran 12% or more slower per
 * pair update (one CPU of a 2-vCPU x86-64 host). */
static __attribute__((noinline)) void run_instances(const job_t *j, int64_t *buf)
{
    for (int64_t b = 0; b < j->B; b++)
        run_instance(j, b, buf);
}

/* states (B, 6) holds each instance's PCG64, advanced in place; summed (B,
 * n) flags the agents whose sums are kept.  See run_instance_d for the
 * arrays.  Returns 0, or -1 when out of memory. */
int gossip_loop(int64_t B, int64_t n, int64_t d, int64_t T, uint64_t *states, double *first,
                double *x, double *sums, const uint8_t *flags, const uint8_t *summed,
                const int64_t *degrees, const int64_t *nbr_table, int64_t width,
                const double *thetas, const double *phis, const double *alphas,
                const double *powers, const double *sched, double init_low, double init_high,
                double lo, double hi, double *traj)
{
    const job_t job = {B, n, d, T, width, states, first, x, sums, traj, flags, summed, degrees,
                       nbr_table, thetas, phis, alphas, powers, sched,
                       init_low, init_high - init_low, lo, hi};
    int64_t *buf = calloc(2 * T + 3 * n + 3 * n * d + 2 * d + 2 * SUM_REGS, sizeof *buf);
    if (buf == NULL)
        return -1;
    run_instances(&job, buf);
    free(buf);
    return 0;
}

/* Instance b's least-squares problem and injection target from states row
 * b, advanced in place, in
 * the frozen stream order: thetas[b] ~ U[0.5, 2.5]^(n x d), then x_stars[b] ~
 * U[0, 1]^d, then alphas[b] ~ U[-0.5, 0.5]^d where attacked[b] (left as it is
 * elsewhere), as Generator.uniform draws them. */
void draw_problems(int64_t B, int64_t n, int64_t d, uint64_t *states,
                   const uint8_t *attacked, double *thetas, double *x_stars, double *alphas)
{
    for (int64_t b = 0; b < B; b++) {
        pcg64_t gen = load_pcg64(states + b * 6), *g = &gen;
        for (int64_t k = 0; k < n * d; k++)
            thetas[b * n * d + k] = uniform(g, 0.5, 2.0);
        for (int64_t k = 0; k < d; k++)
            x_stars[b * d + k] = uniform(g, 0.0, 1.0);
        if (attacked[b])
            for (int64_t k = 0; k < d; k++)
                alphas[b * d + k] = uniform(g, -0.5, 1.0);
        store_pcg64(states + b * 6, g);
    }
}

/* numpy's random_bounded_uint64(g, 0, rng, 0, 0) for rng < 2^32 - 1: a
 * uniform draw from 0..rng, which consumes nothing where rng is 0. */
static inline int64_t bounded(pcg64_t *g, int64_t rng)
{
    return rng ? (int64_t)bounded_uint32(g, (uint32_t)rng) : 0;
}

/* Generator.choice(pop, size, replace=False) into out, in numpy's draws:
 * for a population above 10,000 from which more than a 50th is taken, the
 * tail of arange(pop) shuffled down to pop - size (in idx, pop entries);
 * otherwise Floyd's algorithm (taken, pop bytes, zero on entry and on
 * return), then the sample shuffled from its last entry down to its second. */
static void choose(pcg64_t *g, int64_t pop, int64_t size, int64_t *out, int64_t *idx,
                   uint8_t *taken)
{
    if (pop > 10000 && size > pop / 50) {
        for (int64_t i = 0; i < pop; i++)
            idx[i] = i;
        for (int64_t i = pop - 1, stop = pop - size > 1 ? pop - size : 1; i >= stop; i--) {
            const int64_t j = bounded(g, i), t = idx[j];
            idx[j] = idx[i];
            idx[i] = t;
        }
        memcpy(out, idx + pop - size, size * sizeof *out);
        return;
    }
    for (int64_t j = pop - size; j < pop; j++) {
        const int64_t val = bounded(g, j), pick = taken[val] ? j : val;
        taken[pick] = 1;
        out[j - pop + size] = pick;
    }
    for (int64_t k = 0; k < size; k++)
        taken[out[k]] = 0;
    for (int64_t i = size - 1; i >= 1; i--) {
        const int64_t j = bounded(g, i), t = out[j];
        out[j] = out[i];
        out[i] = t;
    }
}

/* Whether the agents not flagged in attacked (n bytes) induce a connected
 * subgraph, by a BFS from start, one of them, in queue (n entries). */
static int trustworthy_connected(int64_t n, const int64_t *degrees, const int64_t *nbr_table,
                                 int64_t width, const uint8_t *attacked, int64_t start,
                                 int64_t *queue, uint8_t *seen)
{
    int64_t head = 0, tail = 0, keep = 0;
    for (int64_t v = 0; v < n; v++) {
        seen[v] = attacked[v];
        keep += !attacked[v];
    }
    seen[start] = 1;
    queue[tail++] = start;
    while (head < tail) {
        const int64_t v = queue[head++];
        for (int64_t k = 0; k < degrees[v]; k++) {
            const int64_t w = nbr_table[v * width + k];
            if (!seen[w]) {
                seen[w] = 1;
                queue[tail++] = w;
            }
        }
    }
    return tail == keep;
}

/* The monitor and attackers of each of R dataset rows from its generator,
 * states row r, advanced in place: monitors[r] = pool[integers(npool)],
 * then, where m > 0, up to tries placements, each choice(nbrs, c) then
 * choice(outside, m - c) without replacement, until the agents left
 * trustworthy are connected.  nbrs are the monitor's neighbors in
 * nbr_table order, outside the agents neither the monitor nor one of
 * them, ascending; attacked (R, n) flags each row's attackers.  Returns
 * -1, or the first row that has no placement, with *reason 1 where c
 * exceeds its monitor's degree, 2 where m - c exceed the agents outside,
 * 3 where no try was connected; -2 when out of memory. */
int64_t draw_rows(int64_t R, int64_t n, uint64_t *states, const int64_t *degrees,
                  const int64_t *nbr_table, int64_t width, const int64_t *pool, int64_t npool,
                  int64_t m, int64_t c, int64_t tries, int64_t *monitors, uint8_t *attacked,
                  int64_t *reason)
{
    int64_t *buf = malloc(4 * n * sizeof *buf);
    uint8_t *flags = calloc(2 * n, 1);
    int64_t failed = buf && flags ? -1 : -2;
    int64_t *outside = buf, *picks = buf + n, *idx = buf + 2 * n, *queue = buf + 3 * n;
    uint8_t *taken = flags, *seen = flags + n;
    for (int64_t r = 0; r < R && failed == -1; r++) {
        pcg64_t gen = load_pcg64(states + r * 6), *g = &gen;
        const int64_t mon = pool[bounded(g, npool - 1)], deg = degrees[mon];
        const int64_t *nbrs = nbr_table + mon * width;
        uint8_t *row = attacked + r * n;
        monitors[r] = mon;
        if (m > 0) {
            int64_t nout = 0;
            for (int64_t k = 0; k < deg; k++)
                taken[nbrs[k]] = 1;
            taken[mon] = 1;
            for (int64_t v = 0; v < n; v++) {
                if (!taken[v])
                    outside[nout++] = v;
                taken[v] = 0;
            }
            *reason = c > deg ? 1 : m - c > nout ? 2 : 3;
            for (int64_t t = 0; t < tries && *reason == 3; t++) {
                choose(g, deg, c, picks, idx, taken);
                choose(g, nout, m - c, picks + c, idx, taken);
                for (int64_t k = 0; k < m; k++)
                    row[k < c ? nbrs[picks[k]] : outside[picks[k]]] = 1;
                if (trustworthy_connected(n, degrees, nbr_table, width, row, mon, queue, seen))
                    *reason = 0;
                else
                    memset(row, 0, n);
            }
            if (*reason)
                failed = r;
        }
        store_pcg64(states + r * 6, g);
    }
    free(buf);
    free(flags);
    return failed;
}

/* ------------------------------------------------------------------------
 * The SGD step and forward pass of gossipwatch.neural's networks: ReLU
 * hidden layers, a sigmoid output, mean binary cross-entropy and a plain
 * update, as the numpy reference in tests/oracles.py computes them.  Every
 * matrix product calls numpy's bundled OpenBLAS (its addresses are passed
 * in by neural.py) with the routine, transposes and leading dimensions
 * that numpy's 2-D matmul picks for the operands, and every reduction sums
 * in numpy's order, so the bits are numpy's.  The three transcendental
 * calls, exp for the sigmoid and the two logs of the loss, stay in numpy:
 * net_forward leaves -|z| in e for np.exp, and net_output leaves the
 * clipped probabilities in lp and lq for np.log. */

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

/* OpenBLAS's cblas entries, built with 64-bit integers. */
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double, const double *,
                         int64_t, const double *, int64_t, double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *, int64_t,
                         const double *, int64_t, double, double *, int64_t);
typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);

/* The layer widths of a network shape and the work buffers of one step on
 * up to neural.Step's cap rows, laid out as neural._Net; the parameters
 * of the network at hand come with each call.  params and grad hold W (out
 * x in, C order) then b for each layer; acts holds the rows x sizes[h]
 * activations of hidden layers h = 1 .. layers - 1, one after another; z,
 * e, p, lp, lq and w are rows x sizes[layers]; delta and back are rows x
 * the widest layer but the input. */
typedef struct {
    void *gemm, *gemv, *dot;
    int64_t layers;
    const int64_t *sizes;
    double *grad, *acts, *z, *e, *p, *lp, *lq, *w, *delta, *back;
    double loss;
} net_t;

#define CLIP 1e-12 /* probability clip for the loss value; keeps BCE finite */

/* numpy's is_blasable2d, on strides counted in elements. */
static inline int blasable(int64_t s1, int64_t s2, int64_t d2)
{
    return s2 == 1 && s1 >= d2;
}

/* numpy's matmul loop without BLAS: each entry from 0, products added in
 * order. */
static void matmul_noblas(const double *A, int64_t am, int64_t an, const double *B, int64_t bn,
                          int64_t bp, double *C, int64_t cm, int64_t cp, int64_t m, int64_t n,
                          int64_t p)
{
    for (int64_t i = 0; i < m; i++)
        for (int64_t k = 0; k < p; k++) {
            double s = 0.0;
            for (int64_t j = 0; j < n; j++)
                s += A[i * am + j * an] * B[j * bn + k * bp];
            C[i * cm + k * cp] = s;
        }
}

/* numpy's gemv: y (m) = A (m x n) @ x (n). */
static void matmul_gemv(const net_t *net, const double *A, int64_t am, int64_t an,
                        const double *x, int64_t incx, double *y, int64_t incy, int64_t m,
                        int64_t n)
{
    const int col = blasable(am, an, n);
    ((dgemv_fn)net->gemv)(col ? COL_MAJOR : ROW_MAJOR, TRANS, n, m, 1.0, A, col ? am : an, x,
                          incx, 0.0, y, incy);
}

/* numpy's matrix-matrix product: C (m x p, rows cm apart) = A @ B. */
static void matmul_gemm(const net_t *net, const double *A, int64_t am, int64_t an,
                        const double *B, int64_t bn, int64_t bp, double *C, int64_t cm,
                        int64_t m, int64_t n, int64_t p)
{
    const int ta = blasable(am, an, n), tb = blasable(bn, bp, p);
    ((dgemm_fn)net->gemm)(ROW_MAJOR, ta ? NO_TRANS : TRANS, tb ? NO_TRANS : TRANS, m, p, n, 1.0,
                          A, ta ? am : an, B, tb ? bn : bp, 0.0, C, cm);
}

/* C (m x p) = A (m x n) @ B (n x p), strides in elements, by the routine
 * numpy's DOUBLE_matmul picks for C-order operands and their transposes
 * into a C-order C: its own loop for an empty or an outer (n == 1)
 * product, ddot for a 1 x 1 result, gemv when a row count or the output
 * width is 1, gemm otherwise (never syrk: no product here is A @ A.T). */
static void matmul(const net_t *net, const double *A, int64_t am, int64_t an, const double *B,
                   int64_t bn, int64_t bp, double *C, int64_t cm, int64_t cp, int64_t m,
                   int64_t n, int64_t p)
{
    if (m == 0 || n == 0 || p == 0)
        matmul_noblas(A, am, an, B, bn, bp, C, cm, cp, m, n, p);
    else if (m == 1 && p == 1)
        C[0] = 0.0 + ((ddot_fn)net->dot)(n, A, an, B, bn);
    else if (n == 1) /* the constant lets the compiler drop the inner loop */
        matmul_noblas(A, am, an, B, bn, bp, C, cm, cp, m, 1, p);
    else if (m == 1)
        matmul_gemv(net, B, bp, bn, A, an, C, cp, p, n);
    else if (p == 1)
        matmul_gemv(net, A, am, an, B, bn, C, cm, m, n);
    else
        matmul_gemm(net, A, am, an, B, bn, bp, C, cm, m, n, p);
}

/* np.add.reduce of n contiguous values: pairwise, from +0.0. */
static double sum_row(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* np.add.reduce(a, axis=0) of a rows x cols C-order array: from +0.0,
 * pairwise down a single column, row after row across several. */
static void sum_columns(const double *a, int64_t rows, int64_t cols, double *out)
{
    if (cols == 1) {
        out[0] = sum_row(a, rows);
        return;
    }
    for (int64_t j = 0; j < cols; j++)
        out[j] = 0.0;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++)
            out[j] += a[i * cols + j];
}

/* out (rows x cols) += b by rows, then with relu np.maximum(out, 0.0) as
 * numpy's SIMD loop gives it: NaN kept, -0.0 and below to +0.0.  Written
 * without a branch, so that the loop vectorizes. */
static void add_bias(double *restrict out, const double *restrict b, int64_t rows, int64_t cols,
                     int relu)
{
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++)
            out[i * cols + j] += b[j];
    if (relu)
        for (int64_t k = 0; k < rows * cols; k++)
            out[k] = !(out[k] <= 0.0) ? out[k] : 0.0;
}

/* back *= (a > 0), the bool taken as 1.0 or 0.0 as numpy casts it: a
 * product, so that -0.0 and NaN come out as numpy's, and no branch, which
 * the signs of a would mispredict. */
static void relu_gate(double *restrict back, const double *restrict a, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        const double g = a[k] > 0.0;
        back[k] = back[k] * g;
    }
}

/* Hidden layers, then the output layer's z and -|z| for np.exp, on rows
 * contiguous rows of X. */
void net_forward(net_t *net, const double *params, const double *X, int64_t rows)
{
    const int64_t L = net->layers, *s = net->sizes;
    const double *in = X, *W = params;
    double *acts = net->acts;
    for (int64_t h = 0; h < L; h++) {
        const int64_t fi = s[h], fo = s[h + 1];
        const double *b = W + fo * fi;
        double *out = h == L - 1 ? net->z : acts;
        /* in (rows x fi) @ W.T (fi x fo) */
        matmul(net, in, fi, 1, W, 1, fi, out, fo, 1, rows, fi, fo);
        add_bias(out, b, rows, fo, h < L - 1);
        in = out;
        acts += rows * fo;
        W = b + fo;
    }
    const int64_t n = rows * s[L];
    for (int64_t k = 0; k < n; k++)
        net->e[k] = -fabs(net->z[k]);
}

/* The sigmoid from z and e = exp(-|z|); with clip, also the clipped
 * probabilities and their complements for np.log. */
void net_output(net_t *net, int64_t rows, int64_t clip)
{
    const int64_t n = rows * net->sizes[net->layers];
    for (int64_t k = 0; k < n; k++) {
        const double e = net->e[k], d = 1.0 + e;
        const double p = net->z[k] >= 0.0 ? 1.0 / d : e / d;
        net->p[k] = p;
        if (clip) {
            const double lo = p > CLIP || p != p ? p : CLIP;
            const double c = lo < 1.0 - CLIP || lo != lo ? lo : 1.0 - CLIP;
            net->lp[k] = c;
            net->lq[k] = 1.0 - c;
        }
    }
}

/* The batch loss into net->loss (lp and lq hold the logs), the gradient
 * into grad, then params -= eta * grad.  mask (rows x out, or NULL)
 * weights each row's output slots by mask / (the row's mask sum).  Returns
 * 1, before any change to params, where a row's mask sums to 0. */
int64_t net_backward(net_t *net, double *params, const double *X, const double *Y,
                     const double *mask, int64_t rows, double eta)
{
    const int64_t L = net->layers, *s = net->sizes, out = s[L], n = rows * out;
    double *w = net->w, *lp = net->lp, *delta = net->delta, *back = net->back;
    if (mask) {
        for (int64_t i = 0; i < rows; i++) {
            const double valid = sum_row(mask + i * out, out);
            if (valid == 0.0)
                return 1;
            for (int64_t j = 0; j < out; j++)
                w[i * out + j] = mask[i * out + j] / valid;
        }
    } else {
        for (int64_t k = 0; k < n; k++)
            w[k] = 1.0 / (double)out;
    }
    for (int64_t k = 0; k < n; k++) {
        lp[k] = w[k] * -(Y[k] * lp[k] + (1.0 - Y[k]) * net->lq[k]);
        delta[k] = w[k] * (net->p[k] - Y[k]) / (double)rows;
    }
    net->loss = sum_row(lp, n) / (double)rows;

    int64_t P = 0, hidden = 0;
    for (int64_t h = 0; h < L; h++)
        P += s[h + 1] * s[h] + s[h + 1];
    int64_t at = P;
    for (int64_t h = 1; h < L; h++)
        hidden += rows * s[h];
    for (int64_t h = L - 1; h >= 0; h--) {
        const int64_t fi = s[h], fo = s[h + 1];
        at -= fo * fi + fo;
        hidden -= h > 0 ? rows * fi : 0;
        const double *a = h > 0 ? net->acts + hidden : X;
        /* delta.T (fo x rows) @ a (rows x fi), then delta's column sums */
        matmul(net, delta, 1, fo, a, fi, 1, net->grad + at, fi, 1, fo, rows, fi);
        sum_columns(delta, rows, fo, net->grad + at + fo * fi);
        if (h > 0) {
            /* (delta @ W) * (a > 0) */
            matmul(net, delta, fo, 1, params + at, fi, 1, back, fi, 1, rows, fo, fi);
            relu_gate(back, a, rows * fi);
            double *t = delta;
            delta = back;
            back = t;
        }
    }
    for (int64_t k = 0; k < P; k++)
        params[k] -= net->grad[k] * eta;
    return 0;
}
