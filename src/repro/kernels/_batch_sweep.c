/* Batched instance-major frontier sweep — C twin of
 * StreamingSolver.extend in repro/offline/streaming.py, the one Python
 * frontier loop, whose class notes document the algorithm.
 *
 * One call sweeps EVERY item of a packed batch: the per-item request
 * columns (t / srv, each of length n_k + 1 including the boundary
 * request r_0) live back to back in flat arrays, with per-item offsets,
 * and the per-server registers are one scratch arena of max m_k slots
 * that each item initialises before it reads them.  Within an item the
 * step is the Python loop's, register for register: q = p(i) is the
 * server's open_q, sigma_i is t_i minus its last_t, C(p(i)) - B_{p(i)}
 * is its last_cb, and B is a running sum.  Across items the sweep
 * advances the base pointers: each item touches a contiguous block,
 * with no per-item Python orchestration.
 *
 * Bit-identity contract (asserted by tests/offline/test_batch_kernel.py
 * and gated by benchmarks/bench_dp_kernels.py):
 *
 *   - every floating-point expression keeps the Python operand order
 *     (`acc + mu_sigma + B_prev` associates left to right in both
 *     languages), and the build deliberately passes -ffp-contract=off so
 *     no fused multiply-add can reassociate a rounding;
 *   - the argmin tie-break is the same lexicographic (value, server-id)
 *     rule, including the IEEE `inf == inf` tie case;
 *   - D(i)/C(i) tie toward the cache branch (`d_i <= via_transfer`).
 *
 * The function is pure C99 + stdint and is compiled on demand by
 * repro/kernels/batch.py with the system toolchain; when no compiler is
 * available batch.py's _sweep_python runs one StreamingSolver per item
 * instead.  It takes raw addresses (like repro_sc_step): batch.py checks
 * every array's dtype, shape, contiguity and length, and every offset,
 * origin and server id, before the call.  Every
 * solve_offline(kernel="auto") call runs it, on a one-item layout.
 */

#include <math.h>
#include <stdint.h>

/* choice_d_tag values — must match repro.offline.result.FROM_C/FROM_D. */
#define FROM_C 0
#define FROM_D 1

void repro_batch_sweep(
    int64_t n_items,
    const int64_t *off,     /* [n_items] start of item's column block   */
    const int64_t *nreq,    /* [n_items] request count n_k (excl. r_0)  */
    const int64_t *mserv,   /* [n_items] fleet size m_k                 */
    const int64_t *origin,  /* [n_items] server holding the item at t_0 */
    const double *mu_arr,   /* [n_items] caching cost per time unit     */
    const double *lam_arr,  /* [n_items] transfer cost                  */
    const double *t,        /* [N1] request times (r_0 first per item)  */
    const int64_t *srv,     /* [N1] request servers                     */
    double *C,              /* [N1] out: optimal prefix costs           */
    double *D,              /* [N1] out: cache-branch costs             */
    uint8_t *served,        /* [N1] out: served_by_cache                */
    int64_t *tag,           /* [N1] out: choice_d_tag                   */
    int64_t *karg,          /* [N1] out: choice_d_k (item-local)        */
    int64_t *oq,            /* [max m_k] scratch: open_q (latest index) */
    double *lt,             /* [max m_k] scratch: last_t                */
    double *lcb,            /* [max m_k] scratch: last_cb (C - B)       */
    double *rmin,           /* [max m_k] scratch: run_min               */
    int64_t *rarg,          /* [max m_k] scratch: run_arg               */
    int64_t *rsrv,          /* [max m_k] scratch: run_srv               */
    int64_t *fw,            /* [max m_k] scratch: fwd                   */
    int64_t *bw)            /* [max m_k] scratch: bwd                   */
{
    for (int64_t item = 0; item < n_items; item++) {
        const int64_t base = off[item];
        const int64_t n = nreq[item];
        const int64_t m = mserv[item];
        const int64_t org = origin[item];
        const double mu = mu_arr[item];
        const double lam = lam_arr[item];

        const double *pt = t + base;
        const int64_t *psrv = srv + base;
        double *pC = C + base;
        double *pD = D + base;
        uint8_t *pserved = served + base;
        int64_t *ptag = tag + base;
        int64_t *pkarg = karg + base;

        /* Empty registers (-1 = none; last_t and last_cb are read only
         * once open_q is set); r_0 opens the origin's window.  A server
         * is on the recency list iff its open_q is set. */
        for (int64_t j = 0; j < m; j++) {
            oq[j] = -1;
            rmin[j] = INFINITY;
            rarg[j] = -1;
            rsrv[j] = m;
            fw[j] = -1;
            bw[j] = -1;
        }
        int64_t head = org;
        oq[org] = 0;
        lt[org] = pt[0];
        lcb[org] = 0.0;
        rarg[org] = 0;
        rsrv[org] = org;

        pC[0] = 0.0;
        pD[0] = INFINITY;
        pserved[0] = 0;
        ptag[0] = -1;
        pkarg[0] = -1;

        double t_prev = pt[0];
        double c_prev = 0.0;
        double B_prev = 0.0;
        for (int64_t i = 1; i <= n; i++) {
            const int64_t s = psrv[i];
            const int64_t q = oq[s];
            const double t_i = pt[i];
            double d_i, B_i;
            if (q >= 0) {
                const double mu_sigma = mu * (t_i - lt[s]);
                B_i = B_prev + (lam <= mu_sigma ? lam : mu_sigma);
                /* Boundary case of Recurrence (5) vs accumulated pivots. */
                const double best = lcb[s];
                const double acc = rmin[s];
                if (acc < best) {
                    /* Same expression, same operand order as Python. */
                    d_i = acc + mu_sigma + B_prev;
                    ptag[i] = FROM_D;
                    pkarg[i] = rarg[s];
                } else {
                    d_i = best + mu_sigma + B_prev;
                    ptag[i] = FROM_C;
                    pkarg[i] = q;
                }
                pD[i] = d_i;
                const double via = c_prev + mu * (t_i - t_prev) + lam;
                if (d_i <= via) {
                    c_prev = d_i;
                    pserved[i] = 1;
                } else {
                    c_prev = via;
                    pserved[i] = 0;
                }
            } else {
                B_i = B_prev + lam;
                d_i = INFINITY;
                pD[i] = INFINITY;
                ptag[i] = -1;
                pkarg[i] = -1;
                pserved[i] = 0;
                c_prev = c_prev + mu * (t_i - t_prev) + lam;
            }
            pC[i] = c_prev;
            const double value = d_i - B_i;
            /* push: offer D(i) - B_i to every server whose open window
             * covers i — a prefix of the recency list. */
            int64_t w = head;
            while (w >= 0 && oq[w] > q) {
                const double cur = rmin[w];
                if (value < cur || (value == cur && s < rsrv[w])) {
                    rmin[w] = value;
                    rarg[w] = i;
                    rsrv[w] = s;
                }
                w = fw[w];
            }
            /* reopen: reset s's window at its own request and move s to
             * the recency-list front. */
            oq[s] = i;
            lt[s] = t_i;
            lcb[s] = c_prev - B_i;
            rmin[s] = value;
            rarg[s] = i;
            rsrv[s] = s;
            if (head != s) {
                if (q >= 0) { /* already listed: unlink */
                    const int64_t nxt = fw[s], prv = bw[s];
                    fw[prv] = nxt;
                    if (nxt >= 0)
                        bw[nxt] = prv;
                }
                fw[s] = head;
                bw[head] = s;
                bw[s] = -1;
                head = s;
            }
            t_prev = t_i;
            B_prev = B_i;
        }
    }
}
