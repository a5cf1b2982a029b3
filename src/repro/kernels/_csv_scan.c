/* CSV block scanner — the compiled front of _csv_chunks in
 * repro/workloads/traces.py.
 *
 * One call parses the lines of buf[pos, len) into the row columns
 * times/servers/users/ids[row, cap).  It takes only lines whose parse it
 * can prove equal to the row loop's (csv.reader, float(), int()), and
 * stops at the first line it cannot; the caller hands that line and the
 * rest of the log to the row loop.  A line is taken only if:
 *
 *   - it ends in "\n" or "\r\n" and holds no other "\r", no '"' and no
 *     NUL (so csv.reader splits it at every ',' and nowhere else);
 *   - it is blank ("\n" or "\r\n" alone: skipped, but counted), or has at
 *     least `width` fields (extra fields are ignored);
 *   - no field is longer than the csv module's field size limit;
 *   - the time field matches [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?, strtod
 *     consumes all of it and the value is finite: glibc's strtod and
 *     Python's float() both round such strings correctly, and the grammar
 *     leaves out every spelling they read differently (hex, inf/nan,
 *     whitespace, '_', non-ASCII digits); under a locale whose decimal
 *     point is not '.', strtod stops early and the line is refused;
 *   - the server field, and the user field when it is not empty, match
 *     [+-]?d{1,10} and fit in 32 bits (an empty user reads -1; longer
 *     digit strings go to int(), whose digit limit then applies).
 *
 * Item names are interned per call into block-local ids, in order of
 * first appearance: an open-addressing table of local ids, each name
 * compared by memcmp against its id's first occurrence, whose offset and
 * length go to first[2k], first[2k + 1] for the caller to decode.  The
 * caller supplies the table (a power of two) as scratch; the call stops
 * before a line once half of it is used.
 *
 * st[] carries the position: in, ST_POS is the offset to start at and
 * ST_ROW the first row to write; out, the offset and row reached, the
 * physical lines consumed and the names interned.  The return value says
 * why the call stopped (SCAN_* below).  Pure C99 + stdint; compiled on
 * demand with the other kernels by repro/kernels/batch.py.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Stop reasons — must match _SCAN_* in repro/workloads/traces.py. */
#define SCAN_END 0     /* every line of buf[pos, len) was taken */
#define SCAN_FULL 1    /* rows reached cap */
#define SCAN_NAMES 2   /* half of the name table is used */
#define SCAN_REFUSED 3 /* the line at ST_POS is left to the row loop */

/* Slots of st[]. */
enum { ST_POS, ST_ROW, ST_LINES, ST_NAMES };

/* Slots of cols[]: the header's column positions (-1 when absent). */
enum { C_WIDTH, C_TIME, C_SERVER, C_USER, C_ITEM, C_LIMIT };

static int is_digit(unsigned char c) { return c >= '0' && c <= '9'; }

/* Bytes that end an unquoted field, or make the line the row loop's. */
static const unsigned char STOP[256] = {
    [0] = 1, ['\n'] = 1, ['\r'] = 1, ['"'] = 1, [','] = 1};

/* Exact powers of ten for Clinger's fast path. */
static const double POW10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int parse_time(const unsigned char *s, const unsigned char *e,
                      double *out)
{
    const unsigned char *p = s, *d;
    uint64_t w = 0;          /* the digits as an integer, while exact */
    int64_t nd = 0, sig = 0; /* digits, and digits from the first non-0 */
    int64_t q = 0, x = 0;    /* decimal exponent of w; the written one */
    int neg = 0, xneg = 0;
    char *stop;
    double v;
    if (p < e && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    for (d = p; p < e && is_digit(*p); p++) {
        sig += sig || *p != '0';
        w = w * 10 + (*p - '0');
    }
    nd = p - d;
    if (p < e && *p == '.') {
        for (d = ++p; p < e && is_digit(*p); p++) {
            sig += sig || *p != '0';
            w = w * 10 + (*p - '0');
        }
        nd += p - d;
        q = -(p - d);
    }
    if (nd == 0)
        return 0;
    if (p < e && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < e && (*p == '+' || *p == '-'))
            xneg = *p++ == '-';
        for (d = p; p < e && is_digit(*p); p++)
            x = x < 100000 ? x * 10 + (*p - '0') : x;
        if (p == d)
            return 0;
        q += xneg ? -x : x;
    }
    if (p != e)
        return 0;
#if FLT_EVAL_METHOD == 0
    /* Clinger: w and 10^|q| are exact doubles, so one IEEE operation
     * rounds the quotient or product correctly, as strtod does. */
    if (sig <= 19 && w <= (UINT64_C(1) << 53) && q >= -22 && q <= 22) {
        v = q < 0 ? (double)w / POW10[-q] : (double)w * POW10[q];
        *out = neg ? -v : v;
        return 1;
    }
#endif
    /* The field is followed by ',', '\r' or '\n', none of which can
     * extend a number, so strtod stops at e unless the locale differs. */
    v = strtod((const char *)s, &stop);
    if ((const unsigned char *)stop != e || !isfinite(v))
        return 0;
    *out = v;
    return 1;
}

static int parse_int32(const unsigned char *s, const unsigned char *e,
                       int32_t *out)
{
    const unsigned char *p = s;
    int64_t v = 0;
    int neg = 0;
    if (p < e && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    if (p == e || e - p > 10)
        return 0;
    for (; p < e; p++) {
        if (!is_digit(*p))
            return 0;
        v = v * 10 + (*p - '0');
    }
    if (neg)
        v = -v;
    if (v < INT32_MIN || v > INT32_MAX)
        return 0;
    *out = (int32_t)v;
    return 1;
}

int64_t repro_csv_scan(const unsigned char *buf, int64_t len,
                       const int64_t *cols, int64_t cap, double *times,
                       int32_t *servers, int32_t *users, int32_t *ids,
                       int32_t *table, int64_t tsize, int64_t *first,
                       int64_t *st)
{
    const int64_t width = cols[C_WIDTH], limit = cols[C_LIMIT];
    const int64_t i_time = cols[C_TIME], i_server = cols[C_SERVER];
    const int64_t i_user = cols[C_USER], i_item = cols[C_ITEM];
    const uint64_t mask = (uint64_t)tsize - 1;
    const unsigned char *end = buf + len;
    int64_t pos = st[ST_POS], row = st[ST_ROW], lines = 0, names = 0;
    int64_t why = SCAN_END;

    memset(table, 0xff, (size_t)tsize * sizeof *table); /* all -1 */
    while (pos < len) {
        const unsigned char *p = buf + pos, *f = p;
        const unsigned char *ts = NULL, *te = NULL, *ss = NULL, *se = NULL;
        const unsigned char *us = p, *ue = p, *is = p, *ie = p;
        int64_t nf = 0, k;
        uint64_t h = 1469598103934665603ULL; /* FNV-1a */
        double t;
        int32_t s, u = -1;

        if (row >= cap) {
            why = SCAN_FULL;
            break;
        }
        if (2 * names >= tsize) {
            why = SCAN_NAMES;
            break;
        }
        if (*p == '\n' || (*p == '\r' && p + 1 < end && p[1] == '\n')) {
            pos += *p == '\n' ? 1 : 2; /* blank line */
            lines++;
            continue;
        }
        for (;;) { /* one field per pass: [f, p) */
            unsigned char c = 0;
            while (p < end && !STOP[c = *p])
                p++;
            if (p == end || c == '"' || c == 0 || p - f > limit)
                goto refuse;
            if (c == '\r' && (p + 1 == end || p[1] != '\n'))
                goto refuse;
            if (nf == i_time) {
                ts = f;
                te = p;
            } else if (nf == i_server) {
                ss = f;
                se = p;
            } else if (nf == i_user) {
                us = f;
                ue = p;
            } else if (nf == i_item) {
                is = f;
                ie = p;
            }
            nf++;
            if (c != ',')
                break;
            f = ++p;
        }
        if (nf < width || !parse_time(ts, te, &t) || !parse_int32(ss, se, &s))
            goto refuse;
        if (ue > us && !parse_int32(us, ue, &u))
            goto refuse;
        p += *p == '\r' ? 2 : 1; /* past the line end */

        for (const unsigned char *q = is; q < ie; q++)
            h = (h ^ *q) * 1099511628211ULL;
        for (k = (int64_t)(h & mask);; k = (int64_t)((k + 1) & mask)) {
            int32_t id = table[k];
            if (id < 0) {
                id = table[k] = (int32_t)names++;
                first[2 * id] = is - buf;
                first[2 * id + 1] = ie - is;
            } else if (first[2 * id + 1] != ie - is ||
                       memcmp(buf + first[2 * id], is, (size_t)(ie - is))) {
                continue;
            }
            ids[row] = id;
            break;
        }
        times[row] = t;
        servers[row] = s;
        users[row] = u;
        row++;
        lines++;
        pos = p - buf;
    }
    goto done;
refuse:
    why = SCAN_REFUSED;
done:
    st[ST_POS] = pos;
    st[ST_ROW] = row;
    st[ST_LINES] = lines;
    st[ST_NAMES] = names;
    return why;
}
