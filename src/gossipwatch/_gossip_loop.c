/* The t = 1..T loop of gossipwatch.protocol.run_batch, one instance at a
 * time.  Built with -ffp-contract=off, every expression rounds exactly as the
 * numpy loop in protocol.py does, operation for operation, so both loops
 * return the same bits.  Arrays are C-contiguous; protocol.py checks shapes
 * and dtypes before the call. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* x holds the (B, n, d) states at t = 0 and receives them at t = T; sums
 * holds x and receives the sum over t = 0..T.  Instance b's attack-noise rows
 * start at noise[noise_start[b] * d], one per attacker pair-membership event
 * in (t, waking-then-pulled) order.  snap_of[t] is the slot of iteration t in
 * snaps (slot, B, n, d), or -1.  Returns 0, or -1 when out of memory. */
int gossip_loop(int64_t B, int64_t n, int64_t d, int64_t T, double *x, double *sums,
                const int64_t *i_seq, const int64_t *j_seq, const uint8_t *flags,
                const double *thetas, const double *phis, const double *alphas,
                const double *powers, const double *noise, const int64_t *noise_start,
                const double *sched, double lo, double hi, const int64_t *snap_of,
                double *snaps)
{
    const int64_t nd = n * d;
    double *xbar = malloc(2 * d * sizeof *xbar);
    if (xbar == NULL)
        return -1;
    double *prod = xbar + d;
    for (int64_t b = 0; b < B; b++) {
        double *xb = x + b * nd, *sb = sums + b * nd;
        const double *ab = alphas + b * d, *row = noise + noise_start[b] * d;
        const uint8_t *fb = flags + b * n;
        if (snap_of[0] >= 0)
            memcpy(snaps + (snap_of[0] * B + b) * nd, xb, nd * sizeof *xb);
        for (int64_t t = 1; t <= T; t++) {
            const int64_t pair[2] = {i_seq[b * T + t - 1], j_seq[b * T + t - 1]};
            const double gam = sched[t - 1];
            for (int64_t k = 0; k < d; k++)
                xbar[k] = 0.5 * (xb[pair[0] * d + k] + xb[pair[1] * d + k]);
            for (int p = 0; p < 2; p++) {
                const int64_t v = pair[p];
                double *xv = xb + v * d;
                if (fb[v]) {
                    for (int64_t k = 0; k < d; k++)
                        xv[k] = ab[k] + powers[t] * row[k];
                    row += d;
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
    free(xbar);
    return 0;
}
