/* Trace packing — the compiled twin of the numpy path in
 * repro/workloads/sampling.py (_pack_numpy).
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
 * Pure C99 + stdint; compiled on demand with the other kernels by
 * repro/kernels/batch.py, whose _addr checks every array first.
 */

#include <stdint.h>

/* Order flags of repro_pack_count — must match _TIE/_FALL in
 * repro/kernels/batch.py. */
#define ORDER_TIE 1
#define ORDER_FALL 2

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
