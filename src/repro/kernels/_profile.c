/* The workload profiler's passes — the compiled twins of the numpy paths
 * in repro/workloads/profiler.py (_scan_numpy) and
 * repro/workloads/predictability.py (_lpnf).
 *
 * repro_profile_gaps runs after repro_pack_count (_prescan.c) has counted
 * each item's rows and found no item whose times fall in row order.  Row
 * order within an item is then its stable time order, so the gap between
 * an item's consecutive rows is the numpy path's masked diff after its
 * lexsort by (item, time).  The scan writes each gap to the item's next
 * slot of an item-major array, adds the item's gap sum and sum of squares
 * in time order (the order np.bincount(weights=) adds them, from 0.0),
 * copies the first servers of each profiled item, and finds the smallest
 * positive and the largest gap, where the histogram's edges run.
 *
 * repro_profile_bins bins the gaps over np.geomspace edges: a log estimate
 * from the float's exponent and mantissa bits, then an exact fix-up
 * against the edges, so each bin is searchsorted(edges, d, "right") - 1
 * clipped to [0, bins) for any non-decreasing edges.
 *
 * repro_lpnf is the longest previous non-overlapping factor
 * L_i = max_{j<i} min(lcp(i, j), i - j) of every position: a suffix array
 * by prefix doubling with counting sorts, the LCP array by Kasai's
 * algorithm, then, on each side of every rank, the chain of nearest ranks
 * holding earlier text positions, walked to the node where lcp stops
 * exceeding i - j (see _lpnf for why the best j lies there): node by node
 * for up to log n steps, then by binary lifting.  O(n log n) time and
 * words.
 *
 * Pure C99 + stdint; compiled on demand with the other kernels by
 * repro/kernels/batch.py, whose _addr checks every array first.  The
 * build's -ffp-contract=off keeps every rounding the same as numpy's.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Gaps, sums and server copies; -1, or the first row the counts do not
 * cover (the columns changed since the count). */
int64_t repro_profile_gaps(
    int64_t rows,
    const double *times,    /* [rows] */
    const int32_t *servers, /* [rows] */
    const int32_t *ids,     /* [rows] item ids */
    int64_t ntab,
    const int64_t *counts,  /* [ntab] each item's rows */
    const int64_t *goff,    /* [ntab] each item's first gap slot */
    const int64_t *soff,    /* [ntab] each item's first server slot */
    const int64_t *scap,    /* [ntab] servers to copy, at most counts */
    int64_t *seen,          /* [ntab] scratch, zeroed by the caller */
    double *last,           /* [ntab] scratch: the item's last time */
    double *gaps,           /* [sum of counts - 1] out, item-major */
    double *gsum,           /* [ntab] out, zeroed by the caller */
    double *gsq,            /* [ntab] out, zeroed by the caller */
    int32_t *seq,           /* [sum of scap] out */
    double *range)          /* [2] out: the smallest positive gap (inf if
                             * none) and the largest gap (-inf if none) */
{
    double small = INFINITY, large = -INFINITY;
    range[0] = small;
    range[1] = large;
    for (int64_t i = 0; i < rows; i++) {
        const int64_t k = ids[i];
        if (k < 0 || k >= ntab)
            return i;
        const int64_t q = seen[k]++;
        if (q >= counts[k])
            return i;
        const double x = times[i];
        if (q > 0) {
            const double d = x - last[k];
            gaps[goff[k] + q - 1] = d;
            gsum[k] += d;
            gsq[k] += d * d;
            if (d > 0 && d < small)
                small = d;
            if (d > large)
                large = d;
        }
        if (q < scap[k])
            seq[soff[k] + q] = servers[i];
        last[k] = x;
    }
    range[0] = small;
    range[1] = large;
    return -1;
}

/* log2(x) within 0.09 for a positive normal x: the exponent plus the
 * mantissa m - 1 for m in [1, 2).  Only a starting guess; the caller
 * fixes it. */
static double approx_log2(double x)
{
    uint64_t u;
    double m;
    memcpy(&u, &x, sizeof u);
    const int64_t e = (int64_t)((u >> 52) & 0x7ff) - 1023;
    u = (u & ((UINT64_C(1) << 52) - 1)) | UINT64_C(0x3ff0000000000000);
    memcpy(&m, &u, sizeof m);
    return (double)e + (m - 1.0);
}

/* hist[k] counts the gaps d with clip(searchsorted(edges, d, "right") - 1,
 * 0, bins - 1) == k; edges must be finite and non-decreasing. */
void repro_profile_bins(
    int64_t ngaps,
    const double *gaps,  /* [ngaps] finite */
    int64_t bins,
    const double *edges, /* [bins + 1] */
    int64_t *hist)       /* [bins] out, zeroed by the caller */
{
    const double lo = edges[0], hi = edges[bins];
    const double base = lo > 0 && isfinite(lo) ? approx_log2(lo) : 0.0;
    const double span = lo > 0 && hi > lo ? approx_log2(hi) - base : 0.0;
    const double scale = span > 0 ? (double)bins / span : 0.0;
    for (int64_t j = 0; j < ngaps; j++) {
        const double d = gaps[j];
        /* pos: the number of edges <= d, guessed and then made exact. */
        int64_t pos = 0;
        if (d > 0 && scale > 0) {
            const double x = (approx_log2(d) - base) * scale; /* ~ log_r(d / lo) */
            pos = x >= 0 ? (x < (double)bins ? (int64_t)x + 1 : bins + 1) : 0;
        }
        while (pos <= bins && edges[pos] <= d)
            pos++;
        while (pos > 0 && edges[pos - 1] > d)
            pos--;
        int64_t k = pos - 1;
        k = k < 0 ? 0 : (k >= bins ? bins - 1 : k);
        hist[k]++;
    }
}

/* The bit length of n: the lifting levels a chain of n - 1 steps needs. */
static int64_t bit_length(int64_t n)
{
    int64_t b = 0;
    while (b < 63 && (INT64_C(1) << b) <= n)
        b++;
    return b;
}

/* One step along a chain of ranks whose text positions fall: from cur to
 * up[cur], taken (returning 1) while the lcp with the walk's rank, l
 * folded with mn[cur], still exceeds i - pos.  Along a chain lcp never
 * grows and i - pos strictly grows, so the steps taken are a prefix.  l
 * starts at n, standing for the rank's lcp with itself. */
static int chain_step(const int64_t *up, const int64_t *mn, const int64_t *sa,
                      int64_t n, int64_t i, int64_t *cur, int64_t *l)
{
    const int64_t nx = up[*cur], c = *l < mn[*cur] ? *l : mn[*cur];
    if (nx == n || c <= i - sa[nx])
        return 0;
    *cur = nx;
    *l = c;
    return 1;
}

/* Fold rank r's chain into best[r]: the last node with lcp > i - pos is
 * worth i - pos, the next one its lcp; no other node beats both (see
 * _lpnf).  cur and l are where chain_step stopped. */
static void settle(const int64_t *up, const int64_t *mn, const int64_t *sa,
                   int64_t n, int64_t r, int64_t cur, int64_t l, int64_t *best)
{
    int64_t b = best[r];
    if (sa[r] - sa[cur] > b)
        b = sa[r] - sa[cur];
    if (up[cur] != n) {
        const int64_t c = l < mn[cur] ? l : mn[cur];
        if (c > b)
            b = c;
    }
    best[r] = b;
}

/* Words of scratch repro_lpnf needs for n symbols. */
int64_t repro_lpnf_work(int64_t n)
{
    return 5 * n + 1 + 2 * bit_length(n) * (n + 1);
}

/* L_i for every i into out; returns their sum, or -1 for a symbol outside
 * [0, n).  sym holds ranks of the symbols' values (any order-preserving
 * map into [0, n)); work holds repro_lpnf_work(n) words. */
int64_t repro_lpnf(int64_t n, const int64_t *sym, int64_t *out, int64_t *work)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = 0;
        if (sym[i] < 0 || sym[i] >= n)
            return -1;
    }
    if (n < 2)
        return 0;
    const int64_t levels = bit_length(n), stride = n + 1;
    int64_t *sa = work, *rank = sa + n, *tmp = rank + n, *cnt = tmp + n;
    int64_t *lcp = cnt + n, *up = lcp + stride, *mn = up + levels * stride;

    /* Suffix array by prefix doubling: sa sorted by the length-h prefixes
     * (a shorter suffix before its extensions) and rank their dense ranks,
     * until the ranks all differ. */
    memset(cnt, 0, (size_t)n * sizeof *cnt);
    for (int64_t i = 0; i < n; i++)
        cnt[sym[i]]++;
    for (int64_t r = 1; r < n; r++)
        cnt[r] += cnt[r - 1];
    for (int64_t i = n - 1; i >= 0; i--)
        sa[--cnt[sym[i]]] = i;
    int64_t top = 0;
    rank[sa[0]] = 0;
    for (int64_t j = 1; j < n; j++) {
        top += sym[sa[j]] != sym[sa[j - 1]];
        rank[sa[j]] = top;
    }
    for (int64_t h = 1; top < n - 1; h *= 2) {
        /* Order by the second half: suffixes without one first. */
        int64_t p = 0;
        for (int64_t i = n - h; i < n; i++)
            tmp[p++] = i;
        for (int64_t j = 0; j < n; j++)
            if (sa[j] >= h)
                tmp[p++] = sa[j] - h;
        /* Then a stable counting sort by the first half. */
        memset(cnt, 0, (size_t)(top + 1) * sizeof *cnt);
        for (int64_t i = 0; i < n; i++)
            cnt[rank[i]]++;
        for (int64_t r = 1; r <= top; r++)
            cnt[r] += cnt[r - 1];
        for (int64_t j = n - 1; j >= 0; j--)
            sa[--cnt[rank[tmp[j]]]] = tmp[j];
        top = 0;
        tmp[sa[0]] = 0;
        for (int64_t j = 1; j < n; j++) {
            const int64_t a = sa[j - 1], b = sa[j];
            const int64_t a2 = a + h < n ? rank[a + h] : -1;
            const int64_t b2 = b + h < n ? rank[b + h] : -1;
            top += rank[a] != rank[b] || a2 != b2;
            tmp[b] = top;
        }
        int64_t *swap = rank;
        rank = tmp;
        tmp = swap;
    }

    /* Kasai: lcp[r] = lcp(sa[r - 1], sa[r]); lcp[0] and lcp[n] are 0. */
    lcp[0] = lcp[n] = 0;
    for (int64_t i = 0, h = 0; i < n; i++) {
        const int64_t r = rank[i];
        if (r == 0) {
            h = 0;
            continue;
        }
        const int64_t j = sa[r - 1];
        while (i + h < n && j + h < n && sym[i + h] == sym[j + h])
            h++;
        lcp[r] = h;
        if (h > 0)
            h--;
    }

    /* best[r] in tmp.  Per side, level 0 of up/mn is each rank's nearest
     * rank on that side holding an earlier text position (n: none) and
     * its lcp with the rank.  A walk that has not crossed after `levels`
     * steps is left to binary lifting: level k of up/mn jumps 2^k nodes
     * with the smallest lcp on the way, built only when some walk needs
     * it.  The ranks left over queue in cnt. */
    for (int64_t r = 0; r < n; r++)
        tmp[r] = 0;
    for (int side = 0; side < 2; side++) {
        const int64_t dir = side ? 1 : -1;
        for (int64_t s = 0; s < n; s++) {
            const int64_t r = side ? n - 1 - s : s;
            int64_t q = r + dir, l = side ? lcp[r + 1] : lcp[r];
            while (q >= 0 && q < n && sa[q] > sa[r]) {
                l = l < mn[q] ? l : mn[q];
                q = up[q];
            }
            const int none = q < 0 || q >= n;
            up[r] = none ? n : q;
            mn[r] = none ? 0 : l;
        }
        up[n] = n;
        mn[n] = 0;
        int64_t queued = 0;
        for (int64_t r = 0; r < n; r++) {
            int64_t cur = r, l = n, steps = 0;
            while (steps < levels && chain_step(up, mn, sa, n, sa[r], &cur, &l))
                steps++;
            if (steps == levels)
                cnt[queued++] = r;
            else
                settle(up, mn, sa, n, r, cur, l, tmp);
        }
        if (!queued)
            continue;
        for (int64_t k = 1; k < levels; k++) {
            const int64_t *u0 = up + (k - 1) * stride, *m0 = mn + (k - 1) * stride;
            int64_t *u1 = up + k * stride, *m1 = mn + k * stride;
            for (int64_t q = 0; q <= n; q++) {
                const int64_t u = u0[q];
                u1[q] = u0[u];
                m1[q] = m0[q] < m0[u] ? m0[q] : m0[u];
            }
        }
        for (int64_t t = 0; t < queued; t++) {
            const int64_t r = cnt[t];
            int64_t cur = r, l = n;
            for (int64_t k = levels - 1; k >= 0; k--)
                chain_step(up + k * stride, mn + k * stride, sa, n, sa[r], &cur, &l);
            settle(up, mn, sa, n, r, cur, l, tmp);
        }
    }
    int64_t total = 0;
    for (int64_t r = 0; r < n; r++) {
        out[sa[r]] = tmp[r];
        total += tmp[r];
    }
    return total;
}
