/* Floyd-Warshall's rounds on one strip of rows: the compiled body of
 * btas.apsp._relax, built with write_table.c into one library
 * (btas._compiled) and called through ctypes.  It gives the bits of the numpy
 * loop, so its arithmetic is one IEEE add and one compare per entry:
 * no -ffast-math, which would let the compiler change both.
 *
 * btas_relax_f32 and btas_relax_f64 take a strip of r rows of length n and
 * run it through the b rounds k0 .. k0+b-1, round by round.  pivots holds
 * b rows of length n; pivots[j] reads as row k0+j at the start of round
 * k0+j: a row of the strip itself (the panel) or a snapshot of it.  A
 * pivot that is a row of the strip changes within its own round when
 * d(k,k) < 0, so that row is relaxed after all the others.  snapshot, when
 * not NULL, receives pivots[j] as round k0+j starts.
 *
 * limit (NaN for none) masks every finite+finite sum at or past ±limit to
 * +inf, and the strip counts as saturated in each round where, as in
 * matrix._reaches, the least finite d(i,k) plus the least finite pivot
 * entry is at or below -limit, or the greatest plus the greatest at or
 * above limit.  floor (NaN for none) is read after every round k with
 * k+1 a multiple of FLOOR_ROUNDS, as apsp._FLOOR_ROUNDS: an entry not above
 * it stops the strip.  limit and floor are compared in the strip's type,
 * as numpy compares a Python float with a float32 array.
 *
 * Returns 1 if the strip saturated, 0 if not, and -1 when it stopped at
 * the floor.
 *
 * An entry takes a sum only where the sum is less, so the NaN of
 * inf + -inf, which np.minimum would keep, never replaces one.  Such a NaN
 * needs a -inf, which only an unmasked pass makes and which no later sum
 * replaces, so that pass still ends below its floor and is dropped; it may
 * stop at a later check than the numpy loop, never an earlier one.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define FLOOR_ROUNDS 16

#define DEFINE_RELAX(NAME, T)                                                      \
    static void NAME##_row(T *row, const T *pivot, long n, T a, int masks, T limit) \
    {                                                                              \
        if (masks) {                                                               \
            for (long c = 0; c < n; c++) {                                         \
                T v = a + pivot[c];                                                \
                if (v <= -limit || v >= limit)                                     \
                    v = (T)INFINITY;                                               \
                row[c] = v < row[c] ? v : row[c];                                  \
            }                                                                      \
        } else {                                                                   \
            _Pragma("GCC unroll 4")                                                \
            for (long c = 0; c < n; c++) {                                         \
                T v = a + pivot[c];                                                \
                row[c] = v < row[c] ? v : row[c];                                  \
            }                                                                      \
        }                                                                          \
    }                                                                              \
                                                                                   \
    /* whether a finite+finite sum of an x and a y reaches -limit or limit */      \
    static int NAME##_reaches(const T *x, long nx, long sx, const T *y, long ny,   \
                              T limit)                                             \
    {                                                                              \
        T xlo = (T)INFINITY, xhi = -(T)INFINITY, ylo = xlo, yhi = xhi;            \
        for (long i = 0; i < nx; i++) {                                            \
            T v = x[i * sx];                                                       \
            if (isfinite(v)) {                                                     \
                xlo = v < xlo ? v : xlo;                                           \
                xhi = v > xhi ? v : xhi;                                           \
            }                                                                      \
        }                                                                          \
        for (long i = 0; i < ny; i++) {                                            \
            T v = y[i];                                                            \
            if (isfinite(v)) {                                                     \
                ylo = v < ylo ? v : ylo;                                           \
                yhi = v > yhi ? v : yhi;                                           \
            }                                                                      \
        }                                                                          \
        return (T)(xlo + ylo) <= -limit || (T)(xhi + yhi) >= limit;                \
    }                                                                              \
                                                                                   \
    int NAME(T *rows, const T *pivots, T *snapshot, long r, long b, long n,       \
             long k0, double limit_, double floor_)                                \
    {                                                                              \
        const int masks = !isnan(limit_), floors = !isnan(floor_);                 \
        const T limit = (T)limit_, floor = (T)floor_;                              \
        int saturated = 0;                                                         \
        for (long j = 0; j < b; j++) {                                             \
            const long k = k0 + j;                                                 \
            const T *pivot = pivots + j * n;                                       \
            /* the strip's row that is the pivot, or -1; the addresses are */     \
            /* compared as integers, as pivots may lie in another buffer */        \
            const uintptr_t offset = (uintptr_t)pivot - (uintptr_t)rows;           \
            const long live = offset < (uintptr_t)(r * n) * sizeof(T)              \
                                  ? (long)(offset / sizeof(T)) / n : -1;           \
            if (snapshot)                                                          \
                memcpy(snapshot + j * n, pivot, n * sizeof(T));                    \
            if (masks)                                                             \
                saturated |= NAME##_reaches(rows + k, r, n, pivot, n, limit);      \
            for (long i = 0; i < r; i++)                                           \
                if (i != live)                                                     \
                    NAME##_row(rows + i * n, pivot, n, rows[i * n + k], masks,     \
                               limit);                                             \
            if (live >= 0)                                                         \
                NAME##_row(rows + live * n, pivot, n, pivot[k], masks, limit);     \
            if (floors && (k + 1) % FLOOR_ROUNDS == 0)                             \
                for (long e = 0; e < r * n; e++)                                   \
                    if (!(rows[e] > floor))                                        \
                        return -1;                                                 \
        }                                                                          \
        return saturated;                                                          \
    }

DEFINE_RELAX(btas_relax_f32, float)
DEFINE_RELAX(btas_relax_f64, double)
