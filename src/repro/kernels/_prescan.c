/* Trace packing and the pre-scan — the compiled twins of the numpy paths
 * in repro/workloads/sampling.py (_pack_numpy) and
 * repro/kernels/prescan.py (_prescan_numpy).
 *
 * The pack is a stable counting sort of a trace's mapped columns by item
 * id, in two passes over the rows:
 *
 *   - repro_pack_count counts the kept rows of each item and flags how
 *     each kept item's times run in row order: strictly rising, with a
 *     tie, or with a fall (a NaN compares as a fall); the profiler's
 *     compiled scan (_profile.c) runs it too, with every item kept;
 *   - repro_pack_rows writes each kept row to the item's next slot, so
 *     the rows of an item keep their row order.
 *
 * When no kept item falls, row order within an item is its stable time
 * order, ties included, so the result equals the numpy path's lexsort by
 * (item, time) and its gathers; the caller takes the numpy path
 * otherwise.  The caller lays the items out with one open slot before
 * each (the boundary request r_0) and fills those itself.
 *
 * repro_prescan is the proof of Theorem 2 over one instance's columns:
 * one pass with a per-server last-index scratch writes the predecessor p
 * (-1 for a server's first request), sigma = t[i] - t[p] (inf without a
 * predecessor), b = min(lam, mu * sigma) with np.minimum's rule (lam
 * unless lam <= x fails, so a NaN x wins), b = 0 at r_0, and B as the
 * sequential sum np.cumsum computes.  It runs every check of the numpy
 * path (prescan.check_columns) and returns PRESCAN_REFUSED at the first
 * failure; the caller then runs the numpy path, which raises the
 * message.  It refuses a NaN or sign-bit mu or lam as well: with
 * mu >= +0 and sigma > 0, x is +0 or above, or the default NaN of
 * 0 * inf, so np.minimum's pick between equal or NaN operands never
 * shows in the bits; with other operands the numpy path computes b.
 * The DP sweep itself reads none of these columns: it keeps the same
 * values in per-server registers (_batch_sweep.c).
 *
 * Pure C99 + stdint; compiled on demand with the other kernels by
 * repro/kernels/batch.py, whose _addr checks every array first.  The
 * build's -ffp-contract=off keeps every rounding the same as numpy's.
 */

#include <math.h>
#include <stdint.h>

/* Order flags of repro_pack_count — must match _TIE/_FALL in
 * repro/kernels/batch.py. */
#define ORDER_TIE 1
#define ORDER_FALL 2

/* Return codes of repro_prescan. */
#define PRESCAN_OK 0
#define PRESCAN_REFUSED 1

/* Count and flag the kept rows of each item; -1, or the first row whose
 * item id lies outside [0, ntab). */
int64_t repro_pack_count(
    int64_t rows,
    const double *times,  /* [rows] */
    const int32_t *ids,   /* [rows] item ids */
    const uint8_t *keep,  /* [ntab] nonzero: the item is packed */
    int64_t ntab,
    int64_t *counts,      /* [ntab] out, zeroed by the caller */
    uint8_t *order,       /* [ntab] out, zeroed by the caller: ORDER_* */
    double *last)         /* [ntab] scratch: the item's last time */
{
    for (int64_t i = 0; i < rows; i++) {
        const int64_t k = ids[i];
        if (k < 0 || k >= ntab)
            return i;
        if (!keep[k])
            continue;
        const double x = times[i];
        if (counts[k] && !(x > last[k]))
            order[k] |= x == last[k] ? ORDER_TIE : ORDER_FALL;
        last[k] = x;
        counts[k]++;
    }
    return -1;
}

/* Write each kept row to its item's next slot; -1, or the first row the
 * counts of repro_pack_count do not cover (the columns changed). */
int64_t repro_pack_rows(
    int64_t rows,
    const double *times,    /* [rows] */
    const int32_t *servers, /* [rows] */
    const int32_t *ids,     /* [rows] */
    const uint8_t *keep,    /* [ntab] */
    int64_t ntab,
    int64_t *cursor,        /* [ntab] in: each kept item's first slot */
    const int64_t *end,     /* [ntab] one past each kept item's last slot */
    double *t_out,          /* [total] out */
    int64_t *srv_out)       /* [total] out */
{
    for (int64_t i = 0; i < rows; i++) {
        const int64_t k = ids[i];
        if (k < 0 || k >= ntab)
            return i;
        if (!keep[k])
            continue;
        const int64_t j = cursor[k]++;
        if (j >= end[k])
            return i;
        t_out[j] = times[i];
        srv_out[j] = servers[i];
    }
    return -1;
}

int64_t repro_prescan(
    int64_t total,
    int64_t m,
    double mu,
    double lam,
    const double *t,      /* [total] */
    const int64_t *srv,   /* [total] */
    int64_t *p,           /* [total] out */
    double *sigma,        /* [total] out */
    double *b,            /* [total] out */
    double *B,            /* [total] out */
    int64_t *last)        /* [m] scratch: a server's last row */
{
    if (m < 1 || !(mu >= 0) || !(lam >= 0) || signbit(mu) || signbit(lam))
        return PRESCAN_REFUSED;
    for (int64_t s = 0; s < m; s++)
        last[s] = -1;
    double acc = 0.0;
    for (int64_t i = 0; i < total; i++) {
        const int64_t s = srv[i];
        const double ti = t[i];
        if (s < 0 || s >= m || !isfinite(ti) || (i > 0 && !(ti > t[i - 1])))
            return PRESCAN_REFUSED;
        const int64_t q = last[s];
        double gap = INFINITY;
        if (q >= 0)
            gap = ti - t[q];
        p[i] = q;
        last[s] = i;
        sigma[i] = gap;
        double bi = 0.0;
        if (i > 0) {
            const double x = mu * gap;
            bi = lam <= x ? lam : x;
        }
        b[i] = bi;
        acc += bi;
        B[i] = acc;
    }
    return PRESCAN_OK;
}
