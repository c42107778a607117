/* One call of gossipwatch.protocol.run_batch, one instance at a time: the
 * instance's draws from its own numpy bit generator, then the t = 1..T loop.
 * Built with -ffp-contract=off, every expression rounds exactly as the numpy
 * path in protocol.py does, operation for operation, and every draw goes
 * through the generator's own C interface in the order of
 * _draw_instance_randomness, so both paths return the same bits and leave
 * the generators in the same state.  Arrays are C-contiguous; protocol.py
 * checks shapes and dtypes before the call. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), the struct behind the
 * "BitGenerator" capsule of every numpy bit generator. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Generator.uniform(low, high): low + (high - low) * u. */
static double uniform(bitgen_t *g, double low, double range)
{
    return low + range * g->next_double(g->state);
}

/* Generator.integers(0, rng + 1) for rng < 2^32 - 1: Lemire's bounded draw
 * on 32-bit outputs, as numpy's buffered_bounded_lemire_uint32. */
static uint32_t bounded_uint32(bitgen_t *g, uint32_t rng)
{
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)g->next_uint32(g->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
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

/* gens[b] is instance b's bitgen_t.  first, x and sums receive the (B, n, d)
 * states at t = 0, the states at t = T and the sum over t = 0..T.  Agent i's
 * neighbors are nbr_table[i * width .. i * width + degrees[i]).  An attacker
 * member's noise row is drawn at its event, in (t, waking-then-pulled) order,
 * which continues the stream where the pair draws end.  snap_of[t] is the
 * slot of iteration t in snaps (slot, B, n, d), or -1.  Returns 0, or -1
 * when out of memory. */
int gossip_loop(int64_t B, int64_t n, int64_t d, int64_t T, bitgen_t *const *gens,
                double *first, double *x, double *sums, const uint8_t *flags,
                const int64_t *degrees, const int64_t *nbr_table, int64_t width,
                const double *thetas, const double *phis, const double *alphas,
                const double *powers, const double *sched, double init_low,
                double init_high, double lo, double hi, const int64_t *snap_of,
                double *snaps)
{
    const int64_t nd = n * d;
    const double init_range = init_high - init_low;
    int64_t *wake = malloc(2 * T * sizeof *wake);
    double *xbar = malloc(2 * d * sizeof *xbar);
    if (wake == NULL || xbar == NULL) {
        free(wake);
        free(xbar);
        return -1;
    }
    int64_t *pull = wake + T;
    double *prod = xbar + d;
    for (int64_t b = 0; b < B; b++) {
        bitgen_t *g = gens[b];
        double *xb = x + b * nd, *sb = sums + b * nd;
        const double *ab = alphas + b * d;
        const uint8_t *fb = flags + b * n;
        for (int64_t k = 0; k < nd; k++)
            xb[k] = uniform(g, init_low, init_range);
        for (int64_t v = 0; v < n; v++)
            if (fb[v])
                for (int64_t k = 0; k < d; k++)
                    xb[v * d + k] = ab[k] + 1.0 * uniform(g, -1.0, 2.0);
        for (int64_t t = 0; t < T; t++)
            wake[t] = bounded_uint32(g, (uint32_t)(n - 1));
        for (int64_t t = 0; t < T; t++) {
            const double u = g->next_double(g->state);
            pull[t] = nbr_table[wake[t] * width + (int64_t)(u * (double)degrees[wake[t]])];
        }
        memcpy(first + b * nd, xb, nd * sizeof *xb);
        memcpy(sb, xb, nd * sizeof *xb);
        if (snap_of[0] >= 0)
            memcpy(snaps + (snap_of[0] * B + b) * nd, xb, nd * sizeof *xb);
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
                const double *th = thetas + (b * n + v) * d;
                for (int64_t k = 0; k < d; k++)
                    prod[k] = th[k] * xbar[k];
                const double resid = (0.0 + pairwise_sum(prod, d)) - phis[b * n + v];
                for (int64_t k = 0; k < d; k++) {
                    const double u = xbar[k] - gam * (2.0 * th[k] * resid);
                    xv[k] = u < lo ? lo : (u > hi ? hi : u);
                }
            }
            for (int64_t k = 0; k < nd; k++)
                sb[k] += xb[k];
            if (snap_of[t] >= 0)
                memcpy(snaps + (snap_of[t] * B + b) * nd, xb, nd * sizeof *xb);
        }
    }
    free(wake);
    free(xbar);
    return 0;
}
