/* The result writer's distinct-value table and its rows: the compiled body
 * of btas.graph_io's few-distinct branch, built with fw_relax.c into one
 * library (btas._compiled) and called through ctypes.
 *
 * btas_distinct reads size float64 entries as their 64 bits.  It writes
 * inverse[i], the index of entry i's value among the block's distinct
 * values in order of first appearance, and first[d], the position where
 * distinct value d first appears.  Equal bits mean equal values, as the
 * writer's entries hold no NaN and no -0.0, and different bits print
 * alike only for the two infinities, which both print `inf`.  It returns
 * the number of distinct values, or -1 as soon as more than half the
 * entries are distinct (first then needs room for size / 2 + 1 values),
 * when size is past what an int32 inverse indexes, or when the table cannot
 * be allocated; the writer then formats the block row by row, on the same
 * bytes.
 *
 * The table is open addressing over a power-of-two number of slots, kept at
 * most half full, so it grows with the distinct values, not with the block:
 * a distance matrix's 1,300 values per 131,072 entries take 4,096 slots (48 KiB).
 *
 * btas_write_rows writes rows x cols entries through inverse: token d is
 * text[offsets[d] .. offsets[d+1]), entries of a row are joined by ' ' and
 * each row ends in '\n'.  With out NULL it writes nothing; either way it
 * returns the number of bytes the rows take.  Tokens are copied in 8-byte
 * words, so text must hold 8 bytes past its last token, and out 8 bytes
 * past the length returned.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WORD 8

static uint64_t slot_of(uint64_t bits, int shift)
{
    bits ^= bits >> 29;
    return (bits * 0xBF58476D1CE4E5B9ULL) >> shift;
}

long btas_distinct(const uint64_t *bits, long size, int32_t *inverse, int64_t *first)
{
    int shift = 64 - 6;
    uint64_t mask = (1ULL << (64 - shift)) - 1;
    uint64_t *keys = malloc((mask + 1) * sizeof *keys);
    int32_t *ids = malloc((mask + 1) * sizeof *ids);
    long count = 0;
    if (!keys || !ids || size > INT32_MAX)
        goto failed;
    memset(ids, -1, (mask + 1) * sizeof *ids);
    for (long i = 0; i < size; i++) {
        const uint64_t v = bits[i];
        uint64_t s = slot_of(v, shift);
        while (ids[s] >= 0 && keys[s] != v)
            s = (s + 1) & mask;
        if (ids[s] >= 0) {
            inverse[i] = ids[s];
            continue;
        }
        if (2 * (count + 1) > size)
            goto failed;
        keys[s] = v;
        ids[s] = (int32_t)count;
        inverse[i] = (int32_t)count;
        first[count++] = i;
        if (2 * (uint64_t)count > mask + 1) { /* double the table, which stays at most half full */
            shift--;
            mask = 2 * mask + 1;
            free(keys);
            free(ids);
            keys = malloc((mask + 1) * sizeof *keys);
            ids = malloc((mask + 1) * sizeof *ids);
            if (!keys || !ids)
                goto failed;
            memset(ids, -1, (mask + 1) * sizeof *ids);
            for (long d = 0; d < count; d++) {
                const uint64_t w = bits[first[d]];
                uint64_t t = slot_of(w, shift);
                while (ids[t] >= 0)
                    t = (t + 1) & mask;
                keys[t] = w;
                ids[t] = (int32_t)d;
            }
        }
    }
    free(keys);
    free(ids);
    return count;
failed:
    free(keys);
    free(ids);
    return -1;
}

long btas_write_rows(const int32_t *inverse, long rows, long cols, const char *text,
                     const int64_t *offsets, char *out)
{
    const long size = rows * cols;
    long length = size; /* one separator or newline per entry */
    if (!out) {
        for (long e = 0; e < size; e++)
            length += offsets[inverse[e] + 1] - offsets[inverse[e]];
        return length;
    }
    char *p = out;
    for (long r = 0; r < rows; r++) {
        const int32_t *row = inverse + r * cols;
        for (long c = 0; c < cols; c++) {
            const int64_t start = offsets[row[c]], end = offsets[row[c] + 1];
            for (int64_t k = start; k < end; k += WORD) /* whole words: a byte loop took three times as long */
                memcpy(p + (k - start), text + k, WORD);
            p += end - start;
            *p++ = ' ';
        }
        p[-1] = '\n';
    }
    return p - out;
}
