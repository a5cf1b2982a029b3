/* Speculative Caching block step — C twin of _step_python in
 * repro/kernels/online.py.
 *
 * One call advances ONE item's SC/TTL(γ) state over a whole block of
 * requests tb/sb[0, nblk).  The state lives in arrays the caller owns
 * (this file never allocates), so a state can be copied, checkpointed
 * and resumed between calls:
 *
 *   - per server: expiry, refresh cause (kind code + time) and the ledger
 *     row of its open lifetime (-1 when it holds no copy);
 *   - the expiration queue qt/qs[head, qlen), in the heap's pop order;
 *   - the lifetimes ledger: row 0 is the initial copy, row k >= 1 the copy
 *     transfer k - 1 created;
 *   - the scalars in iv[] (slots below).
 *
 * Room: a request pushes at most 2 entries, and an advance re-arms at
 * most one copy, always into a drained queue, which restarts at slot 0.
 * So the room the caller reserves for the block (2 * nblk + m + 2 queue
 * slots, nblk ledger rows) always suffices.  The room checks before each
 * expiration group and each request only guard the raw-pointer writes:
 * running out is the defensive error ERR_NO_ROOM, not a resume point.
 *
 * Bit-identity contract (asserted by tests/online/test_online_kernels.py
 * against the per-event SpeculativeCaching run):
 *
 *   - strict `<` pops, `expiry >= t` hits, the `expiry == e` staleness
 *     rule, and same-time groups deduplicated in first-occurrence order;
 *   - the survivor tie rule: the first "dst" cause in group order, else
 *     the first of the latest causes (Python's max()); one copy survives,
 *     as the group that extends is every live copy;
 *   - extension re-arms are the chained sum e + W, never e + k*W, and the
 *     build passes -ffp-contract=off so no fused multiply-add rounds
 *     differently from Python;
 *   - every push is at least every pending entry (W >= 0, times
 *     non-decreasing), so appending keeps the heap's pop order;
 *   - the fallback source is the lowest server id among the freshest
 *     live copies (Python's max() again).
 *
 * A lone-copy re-arm that does not move the expiry past e (W below the
 * clock's resolution at e) would pop the same group forever; it is the
 * error ERR_WINDOW instead, and a re-arm more than MAX_CHAIN windows
 * short of the request time t (a chain that would not finish) ERR_CHAIN.
 *
 * The function is pure C99 + stdint and is compiled on demand, together
 * with _batch_sweep.c, by repro/kernels/batch.py; when no compiler is
 * available the Python step in online.py runs the same program.
 */

#include <math.h>
#include <stdint.h>

/* Refresh-cause codes — must match CAUSE_* in repro/kernels/online.py. */
#define CAUSE_NONE 0
#define CAUSE_LOCAL 2
#define CAUSE_DST 3
#define CAUSE_SRC 4

/* Lifetime end codes — must match END_* in online.py. */
#define END_OPEN 0
#define END_EXPIRE 1
#define END_EPOCH_RESET 2

/* Slots of iv[] — must match _IV_FIELDS in online.py. */
enum {
    IV_N,           /* requests consumed so far (request index of r_0 is 0) */
    IV_HEAD,        /* first unconsumed queue entry                         */
    IV_QLEN,        /* queue entries in use                                 */
    IV_C,           /* live copies                                          */
    IV_R,           /* transfers in the current epoch                       */
    IV_LAST,        /* server of the previous request                       */
    IV_NLIFE,       /* ledger rows in use                                   */
    IV_HITS,
    IV_EXPIRATIONS,
    IV_EXTENSIONS,
    IV_EPOCHS,
    IV_FALLBACKS
};

/* Error returns — must match _ERR_* in online.py. */
#define ERR_NO_LIVE_COPY (-1)
#define ERR_ALREADY_HOLDS (-2)
#define ERR_NO_ROOM (-3)
#define ERR_WINDOW (-4)
#define ERR_CHAIN (-5)
#define MAX_CHAIN 4294967296.0 /* windows; must match _MAX_CHAIN in online.py */

typedef struct {
    double *qt;
    int64_t *qs;
    int64_t head;
    int64_t qlen;
} Queue;

/* Schedule an expiration: append, restarting a drained queue at slot 0. */
static void push(Queue *q, double time, int64_t server)
{
    if (q->head == q->qlen)
        q->head = q->qlen = 0;
    q->qt[q->qlen] = time;
    q->qs[q->qlen] = server;
    q->qlen++;
}

/* Step 4's deletion: drop s's copy and close its lifetime at e. */
static void expire(int64_t s, double e, double *expiry, int64_t *open_life,
                   double *lt_end, int64_t *lt_ended)
{
    const int64_t li = open_life[s];
    expiry[s] = -INFINITY;
    open_life[s] = -1;
    lt_end[li] = e;
    lt_ended[li] = END_EXPIRE;
}

/* max() key of the tie rule: the cause time, -inf for "no cause". */
static double cause_key(const int64_t *cause_kind, const double *cause_time,
                        int64_t s)
{
    return cause_kind[s] != CAUSE_NONE ? cause_time[s] : -INFINITY;
}

int64_t repro_sc_step(
    int64_t m,              /* fleet size                                  */
    double W,               /* speculative window window_factor*(lam/mu)   */
    int64_t epoch_size,     /* transfers per epoch; <= 0: one epoch        */
    int64_t nblk,           /* block length                                */
    const double *tb,       /* [nblk] request times                        */
    const int64_t *sb,      /* [nblk] request servers, in [0, m)           */
    int64_t *iv,            /* [12] scalar state, in/out                   */
    double *expiry,         /* [m] expiry instant, -inf when no copy       */
    int64_t *cause_kind,    /* [m] refresh-cause code                      */
    double *cause_time,     /* [m] refresh-cause time                      */
    int64_t *open_life,     /* [m] ledger row of the open lifetime or -1   */
    int64_t *group,         /* [m] scratch: one expiration group           */
    double *qt,             /* [qcap] queue times                          */
    int64_t *qs,            /* [qcap] queue servers                        */
    int64_t qcap,
    int64_t *lt_srv,        /* [lcap] ledger: server holding the copy      */
    int64_t *lt_src,        /*        transfer source (-1: initial copy)   */
    int64_t *lt_req,        /*        request index that created it        */
    double *lt_start,       /*        creation time                        */
    double *lt_end,         /*        end time (NaN while open)            */
    double *lt_last,        /*        last useful instant                  */
    int64_t *lt_ended,      /*        end code                             */
    int64_t *lt_reset,      /*        1 if its transfer closed an epoch    */
    int64_t lcap)
{
    Queue q = {qt, qs, iv[IV_HEAD], iv[IV_QLEN]};
    int64_t n = iv[IV_N], c = iv[IV_C], r = iv[IV_R], last = iv[IV_LAST];
    int64_t nlife = iv[IV_NLIFE];
    int64_t hits = iv[IV_HITS], expirations = iv[IV_EXPIRATIONS];
    int64_t extensions = iv[IV_EXTENSIONS], epochs = iv[IV_EPOCHS];
    int64_t fallbacks = iv[IV_FALLBACKS];
    int64_t status;

    for (int64_t j = 0; j < nblk; j++) {
        const double t = tb[j];
        const int64_t server = sb[j];

        /* advance(t): expiration groups due strictly before t. */
        while (q.head < q.qlen && q.qt[q.head] < t) {
            if (q.qlen + m > qcap) {
                status = ERR_NO_ROOM;
                goto save;
            }
            /* pop_group: discard stale entries up to the earliest valid
             * one, then gather every valid entry due at the same time. */
            double e = 0.0;
            int64_t s = -1;
            int found = 0;
            while (q.head < q.qlen && q.qt[q.head] < t) {
                e = q.qt[q.head];
                s = q.qs[q.head];
                q.head++;
                if (expiry[s] == e) {
                    found = 1;
                    break;
                }
            }
            if (!found)
                break;
            int64_t glen = 0;
            group[glen++] = s;
            while (q.head < q.qlen && q.qt[q.head] == e) {
                const int64_t s2 = q.qs[q.head];
                q.head++;
                if (expiry[s2] == e) {
                    int64_t k = 0;
                    while (k < glen && group[k] != s2)
                        k++;
                    if (k == glen)
                        group[glen++] = s2;
                }
            }
            /* Delete the group while the floor holds; otherwise it is
             * every live copy (invariant 1 in online.py) and one copy
             * survives, by the tie rule. */
            int64_t w = -1;
            if (c - 1 < glen) {
                for (int64_t k = 0; k < glen && w < 0; k++)
                    if (cause_kind[group[k]] == CAUSE_DST)
                        w = k;
                if (w < 0) {
                    w = 0;
                    double best = cause_key(cause_kind, cause_time, group[0]);
                    for (int64_t k = 1; k < glen; k++) {
                        const double ct =
                            cause_key(cause_kind, cause_time, group[k]);
                        if (ct > best) {
                            best = ct;
                            w = k;
                        }
                    }
                }
            }
            for (int64_t k = 0; k < glen; k++) {
                if (k != w) {
                    expire(group[k], e, expiry, open_life, lt_end, lt_ended);
                    c--;
                    expirations++;
                }
            }
            if (w >= 0) {
                const double e2 = e + W;
                extensions++;
                if (!(e2 > e)) {
                    status = ERR_WINDOW;
                    goto save;
                }
                if (t - e > W * MAX_CHAIN) {
                    status = ERR_CHAIN;
                    goto save;
                }
                expiry[group[w]] = e2;
                push(&q, e2, group[w]);
            }
        }

        /* Step 3: serve r_j. */
        if (q.qlen + 2 > qcap || nlife + 1 > lcap) {
            status = ERR_NO_ROOM;
            goto save;
        }
        if (expiry[server] >= t) {
            hits++;
            lt_last[open_life[server]] = t;
            cause_kind[server] = CAUSE_LOCAL;
            cause_time[server] = t;
            const double e2 = t + W;
            expiry[server] = e2;
            push(&q, e2, server);
        } else {
            int64_t src = last;
            if (!(expiry[src] >= t && src != server)) {
                fallbacks++;
                src = -1;
                double best = 0.0;
                for (int64_t s2 = 0; s2 < m; s2++) {
                    if (s2 != server && expiry[s2] >= t &&
                        (src < 0 || expiry[s2] > best)) {
                        src = s2;
                        best = expiry[s2];
                    }
                }
                if (src < 0) {
                    status = ERR_NO_LIVE_COPY;
                    goto save;
                }
            }
            if (open_life[server] >= 0) {
                status = ERR_ALREADY_HOLDS;
                goto save;
            }
            const int64_t li = nlife++;
            open_life[server] = li;
            lt_srv[li] = server;
            lt_src[li] = src;
            lt_req[li] = n + 1;
            lt_start[li] = t;
            lt_end[li] = NAN;
            lt_last[li] = t;
            lt_ended[li] = END_OPEN;
            lt_reset[li] = 0;
            c++;
            cause_kind[server] = CAUSE_DST;
            cause_time[server] = t;
            const double e2 = t + W;
            expiry[server] = e2;
            push(&q, e2, server);
            /* Source refresh. */
            lt_last[open_life[src]] = t;
            cause_kind[src] = CAUSE_SRC;
            cause_time[src] = t;
            expiry[src] = e2;
            push(&q, e2, src);
            r++;
            if (epoch_size > 0 && r >= epoch_size) {
                /* Epoch reset: only the requester's copy survives. */
                for (int64_t s2 = 0; s2 < m; s2++) {
                    if (s2 != server && expiry[s2] > -INFINITY) {
                        expiry[s2] = -INFINITY;
                        c--;
                        const int64_t lj = open_life[s2];
                        open_life[s2] = -1;
                        lt_end[lj] = t;
                        lt_ended[lj] = END_EPOCH_RESET;
                    }
                }
                r = 0;
                epochs++;
                lt_reset[li] = 1;
            }
        }
        last = server;
        n++;
    }
    status = 0;
save:
    iv[IV_N] = n;
    iv[IV_HEAD] = q.head;
    iv[IV_QLEN] = q.qlen;
    iv[IV_C] = c;
    iv[IV_R] = r;
    iv[IV_LAST] = last;
    iv[IV_NLIFE] = nlife;
    iv[IV_HITS] = hits;
    iv[IV_EXPIRATIONS] = expirations;
    iv[IV_EXTENSIONS] = extensions;
    iv[IV_EPOCHS] = epochs;
    iv[IV_FALLBACKS] = fallbacks;
    return status;
}
