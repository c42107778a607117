/* The two entries of gossipwatch.protocol.  draw_problems: each instance's
 * least-squares problem and injection target, drawn from its own numpy bit
 * generator before its run (phi = theta x* stays in numpy, whose BLAS
 * product the C build does not reproduce).  gossip_loop, one call of
 * run_batch: each instance's draws from its generator, then its t = 1..T
 * loop, on up to nthreads threads.  Built with -ffp-contract=off, every
 * expression rounds exactly as the numpy reference in tests/oracles.py does,
 * operation for operation, and every draw goes through the generator's own C
 * interface in the frozen stream order that the reference writes out, so
 * both return the same bits and leave the generators in the same state.  An
 * instance reads only its own generator and writes only its own slices of
 * the outputs, so the bits do not depend on the number of threads or on
 * which thread ran it.  Arrays are C-contiguous; protocol.py checks shapes
 * and dtypes before the call. */
#define _GNU_SOURCE /* sched_getcpu, CPU_SET, pthread_attr_setaffinity_np */
#include <pthread.h>
#include <sched.h>
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

/* The arguments of one gossip_loop call, shared read-only by its threads
 * except for next, the index of the next instance not yet taken. */
typedef struct {
    int64_t B, n, d, T, width, next;
    bitgen_t *const *gens;
    double *first, *x, *sums, *snaps;
    const uint8_t *flags;
    const int64_t *degrees, *nbr_table, *snap_of;
    const double *thetas, *phis, *alphas, *powers, *sched;
    double init_low, init_range, lo, hi;
} job_t;

/* One thread: its job and its work buffer, which holds wake and pull (T
 * entries each), the running state x and sum (n * d each), then xbar and
 * prod (d each).  Each buffer starts on its own 64-byte cache line, so that
 * the threads' per-step writes do not contend for a line. */
typedef struct {
    job_t *job;
    pthread_t tid;
    double *buf;
} worker_t;

#define LINE 64

static size_t round_up(size_t bytes)
{
    return (bytes + LINE - 1) / LINE * LINE;
}

/* Instance b: its draws from gens[b], then its t = 1..T loop in buf, whose
 * states at t = 0 and t = T and sum over t = 0..T go to first, x and sums.
 * Agent i's neighbors are nbr_table[i * width .. i * width + degrees[i]).
 * An attacker member's noise row is drawn at its event, in (t,
 * waking-then-pulled) order, which continues the stream where the pair
 * draws end.  snap_of[t] is the slot of iteration t in snaps (slot, B, n,
 * d), or -1. */
static void run_instance(const job_t *j, int64_t b, double *buf)
{
    const int64_t n = j->n, d = j->d, T = j->T, nd = n * d, B = j->B;
    int64_t *wake = (int64_t *)buf, *pull = wake + T;
    double *xb = (double *)(pull + T), *sb = xb + nd, *xbar = sb + nd, *prod = xbar + d;
    bitgen_t *g = j->gens[b];
    const double *ab = j->alphas + b * d, *powers = j->powers, *sched = j->sched;
    const double *thetas = j->thetas + b * nd, *phis = j->phis + b * n, lo = j->lo, hi = j->hi;
    const uint8_t *fb = j->flags + b * n;
    const int64_t *snap_of = j->snap_of;
    for (int64_t k = 0; k < nd; k++)
        xb[k] = uniform(g, j->init_low, j->init_range);
    for (int64_t v = 0; v < n; v++)
        if (fb[v])
            for (int64_t k = 0; k < d; k++)
                xb[v * d + k] = ab[k] + 1.0 * uniform(g, -1.0, 2.0);
    for (int64_t t = 0; t < T; t++)
        wake[t] = bounded_uint32(g, (uint32_t)(n - 1));
    for (int64_t t = 0; t < T; t++) {
        const double u = g->next_double(g->state);
        pull[t] = j->nbr_table[wake[t] * j->width + (int64_t)(u * (double)j->degrees[wake[t]])];
    }
    memcpy(j->first + b * nd, xb, nd * sizeof *xb);
    memcpy(sb, xb, nd * sizeof *xb);
    if (snap_of[0] >= 0)
        memcpy(j->snaps + (snap_of[0] * B + b) * nd, xb, nd * sizeof *xb);
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
            const double *th = thetas + v * d;
            for (int64_t k = 0; k < d; k++)
                prod[k] = th[k] * xbar[k];
            const double resid = (0.0 + pairwise_sum(prod, d)) - phis[v];
            for (int64_t k = 0; k < d; k++) {
                const double u = xbar[k] - gam * (2.0 * th[k] * resid);
                xv[k] = u < lo ? lo : (u > hi ? hi : u);
            }
        }
        for (int64_t k = 0; k < nd; k++)
            sb[k] += xb[k];
        if (snap_of[t] >= 0)
            memcpy(j->snaps + (snap_of[t] * B + b) * nd, xb, nd * sizeof *xb);
    }
    memcpy(j->x + b * nd, xb, nd * sizeof *xb);
    memcpy(j->sums + b * nd, sb, nd * sizeof *sb);
}

/* Run instances until none is left, each taken from the shared counter. */
static void *work(void *arg)
{
    worker_t *w = arg;
    job_t *j = w->job;
    for (int64_t b; (b = __atomic_fetch_add(&j->next, 1, __ATOMIC_RELAXED)) < j->B;)
        run_instance(j, b, w->buf);
    return NULL;
}

/* Start workers 1 .. nthreads - 1 and return how many threads run, the
 * caller included; a worker that cannot be started is left out.  On Linux
 * each worker is bound to its own CPU of the caller's affinity set, other
 * than the one the caller is on: in a cpuset without load balancing the
 * scheduler would otherwise keep every new thread on the caller's CPU.  A
 * worker for which no CPU is left runs unbound. */
static int64_t start_workers(worker_t *w, int64_t nthreads)
{
    int64_t started = 1;
#ifdef __linux__
    cpu_set_t allowed;
    const int here = sched_getcpu();
    int cpu = -1;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        CPU_ZERO(&allowed);
#endif
    for (; started < nthreads; started++) {
        pthread_attr_t attr;
        if (pthread_attr_init(&attr) != 0)
            break;
#ifdef __linux__
        do
            cpu++;
        while (cpu < CPU_SETSIZE && (cpu == here || !CPU_ISSET(cpu, &allowed)));
        if (cpu < CPU_SETSIZE) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_attr_setaffinity_np(&attr, sizeof one, &one);
        }
#endif
        const int failed = pthread_create(&w[started].tid, &attr, work, &w[started]);
        pthread_attr_destroy(&attr);
        if (failed)
            break;
    }
    return started;
}

/* gens[b] is instance b's bitgen_t; no two may be the same generator.  The
 * B instances run on min(nthreads, B) threads, the calling one included;
 * when a thread cannot be started, the others do its share.  See
 * run_instance for the arrays.  Returns 0, or -1 when out of memory. */
int gossip_loop(int64_t nthreads, int64_t B, int64_t n, int64_t d, int64_t T,
                bitgen_t *const *gens, double *first, double *x, double *sums,
                const uint8_t *flags, const int64_t *degrees, const int64_t *nbr_table,
                int64_t width, const double *thetas, const double *phis,
                const double *alphas, const double *powers, const double *sched,
                double init_low, double init_high, double lo, double hi,
                const int64_t *snap_of, double *snaps)
{
    job_t job = {B, n, d, T, width, 0, gens, first, x, sums, snaps, flags, degrees,
                 nbr_table, snap_of, thetas, phis, alphas, powers, sched,
                 init_low, init_high - init_low, lo, hi};
    if (nthreads > B)
        nthreads = B;
    if (nthreads < 1)
        nthreads = 1;
    /* The workers, then each one's work buffer, in one block. */
    const size_t head = round_up(nthreads * sizeof(worker_t));
    const size_t stride = round_up((2 * T + 2 * n * d + 2 * d) * sizeof(double));
    worker_t *w = aligned_alloc(LINE, head + nthreads * stride);
    if (w == NULL)
        return -1;
    for (int64_t k = 0; k < nthreads; k++)
        w[k] = (worker_t){&job, 0, (double *)((char *)w + head + k * stride)};
    const int64_t started = start_workers(w, nthreads);
    work(&w[0]);
    for (int64_t k = 1; k < started; k++)
        pthread_join(w[k].tid, NULL);
    free(w);
    return 0;
}

/* Instance b's least-squares problem and injection target from gens[b], in
 * the frozen stream order: thetas[b] ~ U[0.5, 2.5]^(n x d), then x_stars[b] ~
 * U[0, 1]^d, then alphas[b] ~ U[-0.5, 0.5]^d where attacked[b] (left as it is
 * elsewhere), as Generator.uniform draws them. */
void draw_problems(int64_t B, int64_t n, int64_t d, bitgen_t *const *gens,
                   const uint8_t *attacked, double *thetas, double *x_stars, double *alphas)
{
    for (int64_t b = 0; b < B; b++) {
        bitgen_t *g = gens[b];
        for (int64_t k = 0; k < n * d; k++)
            thetas[b * n * d + k] = uniform(g, 0.5, 2.0);
        for (int64_t k = 0; k < d; k++)
            x_stars[b * d + k] = uniform(g, 0.0, 1.0);
        if (attacked[b])
            for (int64_t k = 0; k < d; k++)
                alphas[b * d + k] = uniform(g, -0.5, 1.0);
    }
}
