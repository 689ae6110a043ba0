/* The readers' fast path: the edge-list and matrix bodies read into
 * preallocated columns, the compiled body of btas.graph_io's fast readers,
 * built with fw_relax.c and write_table.c into one library (btas._compiled)
 * and called through ctypes.
 *
 * Both functions read text[start .. end) as rows of a known number of
 * tokens and return the number of rows read, or -1 as soon as the text
 * leaves this grammar:
 *   - tokens are separated by ASCII spaces and tabs;
 *   - lines end in \n, \r\n or \r, and blank lines are skipped;
 *   - an integer is [+-]?[0-9]+ of magnitude below 2^63;
 *   - a real is [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? or [+-]?inf;
 *   - a row of the wrong length, or more rows than asked for, is refused.
 * Every other byte is refused: #, _, x, \v, \f, \x1c-\x1f, the n of nan,
 * Infinity and anything not ASCII.  A refusal is never a verdict: the
 * caller then runs its per-line reader, which alone refuses input and
 * names the line.
 *
 * A real has the bits of Python's float() by construction.  With at most
 * 19 significant digits, a mantissa m below 2^53 and a decimal exponent k
 * in [-22, 0], it is (double)m / 10^-k: one correctly rounded IEEE
 * division of two exact operands (Clinger's fast path).  Any other real is
 * read by strtod from a NUL-terminated copy and refused unless strtod
 * reads all of it, so a caller's LC_NUMERIC can only cause a refusal,
 * never another value.  Built without -ffast-math, which could round the
 * division otherwise.
 *
 * btas_read_edges reads rows `src dst weight` into two int64 columns and
 * a float64 one, each with room for rows entries.  btas_read_grid reads
 * rows of cols reals into out, row-major, with room for rows * cols.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TOKEN_MAX 512 /* longer reals are refused, not cut */

static const double POWERS_OF_TEN[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                       1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                                       1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_blank(char c) { return c == ' ' || c == '\t'; }

static int is_line_end(char c) { return c == '\n' || c == '\r'; }

static int is_digit(char c) { return c >= '0' && c <= '9'; }

static int token_ends(const char *p, const char *end)
{
    return p == end || is_blank(*p) || is_line_end(*p);
}

/* The start of the next row: past blanks and line ends. */
static const char *next_row(const char *p, const char *end)
{
    while (p < end && (is_blank(*p) || is_line_end(*p)))
        p++;
    return p;
}

/* Past the blanks between two tokens: 0 where there are none. */
static int skip_separator(const char **at, const char *end)
{
    const char *p = *at;
    while (p < end && is_blank(*p))
        p++;
    if (p == *at)
        return 0;
    *at = p;
    return 1;
}

/* Past the blanks that end a row: 0 where the line goes on. */
static int skip_row_end(const char **at, const char *end)
{
    const char *p = *at;
    while (p < end && is_blank(*p))
        p++;
    *at = p;
    return p == end || is_line_end(*p);
}

static int read_integer(const char **at, const char *end, int64_t *value)
{
    const char *p = *at;
    const int negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    const char *digits = p;
    uint64_t m = 0;
    for (; p < end && is_digit(*p); p++) {
        const unsigned d = (unsigned)(*p - '0');
        if (m > ((uint64_t)INT64_MAX - d) / 10)
            return 0;
        m = 10 * m + d;
    }
    if (p == digits || !token_ends(p, end))
        return 0;
    *value = negative ? -(int64_t)m : (int64_t)m;
    *at = p;
    return 1;
}

static int read_real(const char **at, const char *end, double *value)
{
    const char *start = *at, *p = start;
    const int negative = p < end && *p == '-';
    if (p < end && (*p == '+' || *p == '-'))
        p++;
    if (end - p >= 3 && memcmp(p, "inf", 3) == 0 && token_ends(p + 3, end)) {
        *value = negative ? -HUGE_VAL : HUGE_VAL;
        *at = p + 3;
        return 1;
    }
    uint64_t m = 0;
    int significant = 0, seen = 0; /* significant digits, counted from the first nonzero one */
    long k = 0;                    /* the value is m * 10^k while significant <= 19 */
    for (int fraction = 0;; p++) {
        if (p < end && *p == '.' && !fraction) {
            fraction = 1;
            continue;
        }
        if (p == end || !is_digit(*p))
            break;
        seen = 1;
        k -= fraction;
        if (m == 0 && *p == '0')
            continue;
        if (++significant <= 19)
            m = 10 * m + (uint64_t)(*p - '0');
    }
    if (!seen)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        const int down = p < end && *p == '-';
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        const char *digits = p;
        long exponent = 0;
        for (; p < end && is_digit(*p); p++)
            if (exponent < 100000) /* far past any double; strtod reads the rest */
                exponent = 10 * exponent + (*p - '0');
        if (p == digits)
            return 0;
        k += down ? -exponent : exponent;
    }
    if (!token_ends(p, end))
        return 0;
    if (significant == 0) {
        *value = negative ? -0.0 : 0.0;
    } else if (significant <= 19 && m < (1ULL << 53) && k >= -22 && k <= 0) {
        const double quotient = (double)m / POWERS_OF_TEN[-k];
        *value = negative ? -quotient : quotient;
    } else {
        char token[TOKEN_MAX];
        char *stop;
        const long length = p - start;
        if (length >= TOKEN_MAX)
            return 0;
        memcpy(token, start, (size_t)length);
        token[length] = '\0';
        *value = strtod(token, &stop);
        if (stop != token + length)
            return 0;
    }
    *at = p;
    return 1;
}

long btas_read_edges(const char *text, long start, long end, long rows, int64_t *src, int64_t *dst,
                     double *weight)
{
    const char *p = text + start, *const stop = text + end;
    long r = 0;
    while ((p = next_row(p, stop)) < stop) {
        if (r == rows || !read_integer(&p, stop, src + r) || !skip_separator(&p, stop) ||
            !read_integer(&p, stop, dst + r) || !skip_separator(&p, stop) ||
            !read_real(&p, stop, weight + r) || !skip_row_end(&p, stop))
            return -1;
        r++;
    }
    return r;
}

long btas_read_grid(const char *text, long start, long end, long rows, long cols, double *out)
{
    const char *p = text + start, *const stop = text + end;
    long r = 0;
    while ((p = next_row(p, stop)) < stop) {
        if (r == rows)
            return -1;
        for (long c = 0; c < cols; c++)
            if ((c > 0 && !skip_separator(&p, stop)) || !read_real(&p, stop, out++))
                return -1;
        if (!skip_row_end(&p, stop))
            return -1;
        r++;
    }
    return r;
}
