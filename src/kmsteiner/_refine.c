/* Partition refinement for the canonizer in designs.py.
 *
 * A partition of the vertices 0..n-1 is one int32 array of 4n entries:
 *   lab[i]    (i < n)   the vertex at position i,
 *   pos[u]    (n + u)   the position of vertex u,
 *   start[i]  (2n + i)  the first position of the cell holding position i,
 *   end[i]    (3n + i)  one past its last position.
 * Cells are contiguous ranges of positions named by their start; splitting
 * a cell never moves another cell.  The graph is in CSR form: the
 * neighbours of u are adj[indptr[u] .. indptr[u+1]-1].
 *
 * work holds 2(n / 64 + 1) + 7n int32 entries, 8-byte aligned, and must be
 * zero on the first call; every call leaves its bit set, counters and
 * flags (the first 2(n / 64 + 1) + 3n entries) zero again.
 */

#include <stdint.h>
#include <string.h>

/* Refine to a fixpoint against the queued cells.  queue holds qlen cell
 * starts.  A FIFO worklist: each splitter cell counts, for every vertex,
 * its neighbours in the splitter; every touched cell, in position order,
 * splits into fragments of equal count, in ascending count order, with
 * members keeping their relative order.  If the split cell was queued,
 * every fragment after the first is queued; otherwise every fragment but
 * the first largest one.  Returns 0, or -1 if qlen exceeds n. */
int kms_refine(int n, const int32_t *indptr, const int32_t *adj, int32_t *part,
               const int32_t *queue, int qlen, int32_t *work) {
    int32_t *lab = part, *pos = part + n, *start = part + 2 * n, *end = part + 3 * n;
    uint64_t *marked = (uint64_t *)work;      /* bit set: touched cell starts */
    int32_t *cnt = work + 2 * (n / 64 + 1);   /* neighbours in the splitter */
    int32_t *hist = cnt + n;                  /* count -> fragment offset */
    int32_t *queued = cnt + 2 * n;            /* cell start is queued */
    int32_t *touched = cnt + 3 * n;           /* vertices with cnt > 0 */
    int32_t *tmp = cnt + 4 * n;               /* members of one cell */
    int32_t *fifo = cnt + 5 * n;              /* 2n: initial + at most n pushes */
    int head = 0, tail = 0;

    if (qlen > n)
        return -1;
    for (int i = 0; i < qlen; i++) {
        queued[queue[i]] = 1;
        fifo[tail++] = queue[i];
    }
    while (head < tail) {
        int ws = fifo[head++];
        if (!queued[ws])
            continue;
        queued[ws] = 0;
        int n_touched = 0, lo = n, hi = 0;
        for (int i = ws; i < end[ws]; i++) {
            int w = lab[i];
            for (int j = indptr[w]; j < indptr[w + 1]; j++) {
                int x = adj[j];
                if (cnt[x]++ == 0) {
                    touched[n_touched++] = x;
                    int cs = start[pos[x]];
                    marked[cs >> 6] |= (uint64_t)1 << (cs & 63);
                    lo = cs < lo ? cs : lo;
                    hi = cs > hi ? cs : hi;
                }
            }
        }
        for (int word = lo >> 6; word <= hi >> 6; word++) {
            uint64_t bits = marked[word];
            marked[word] = 0;
            for (; bits; bits &= bits - 1) {
                int cs = (word << 6) + __builtin_ctzll(bits), ce = end[cs];
                if (ce - cs == 1)
                    continue;
                int minc = cnt[lab[cs]], maxc = minc;
                for (int i = cs + 1; i < ce; i++) {
                    int c = cnt[lab[i]];
                    minc = c < minc ? c : minc;
                    maxc = c > maxc ? c : maxc;
                }
                if (minc == maxc)
                    continue;
                /* counting sort: stable, fragments in ascending count */
                int range = maxc - minc + 1;
                for (int i = cs; i < ce; i++)
                    hist[cnt[lab[i]] - minc]++;
                for (int r = 0, acc = cs; r < range; r++) {
                    int h = hist[r];
                    hist[r] = acc;
                    acc += h;
                }
                for (int i = cs; i < ce; i++)
                    tmp[hist[cnt[lab[i]] - minc]++ - cs] = lab[i];
                int largest = cs, largest_size = 0, fs = cs;
                for (int r = 0; r < range; r++) {
                    int fe = hist[r];
                    hist[r] = 0;
                    if (fe == fs)
                        continue;
                    for (int p = fs; p < fe; p++) {
                        int u = tmp[p - cs];
                        lab[p] = u;
                        pos[u] = p;
                        start[p] = fs;
                        end[p] = fe;
                    }
                    if (fe - fs > largest_size) {
                        largest = fs;
                        largest_size = fe - fs;
                    }
                    fs = fe;
                }
                int was_queued = queued[cs];
                for (int s = cs; s < ce; s = end[s]) {
                    if (was_queued ? s == cs : s == largest)
                        continue;
                    if (!queued[s]) {
                        queued[s] = 1;
                        fifo[tail++] = s;
                    }
                }
            }
        }
        for (int i = 0; i < n_touched; i++)
            cnt[touched[i]] = 0;
    }
    return 0;
}

/* Start of the first smallest non-singleton cell, or -1 if every cell is
 * a singleton. */
int kms_target_cell(int n, const int32_t *part) {
    const int32_t *end = part + 3 * n;
    int best = -1, best_size = n + 1;
    for (int s = 0; s < n; s = end[s]) {
        int size = end[s] - s;
        if (size > 1 && size < best_size) {
            best = s;
            best_size = size;
        }
    }
    return best;
}

/* Copy src to dst, split vertex y off the front of its cell ts (the other
 * members keep their order), refine against both fragments and return the
 * target cell of the result (kms_target_cell). */
int kms_individualize(int n, const int32_t *indptr, const int32_t *adj,
                      const int32_t *src, int32_t *dst, int ts, int y, int32_t *work) {
    int32_t *lab = dst, *pos = dst + n, *start = dst + 2 * n, *end = dst + 3 * n;
    memcpy(dst, src, 4 * (size_t)n * sizeof(int32_t));
    int py = pos[y], te = end[ts];
    for (int i = py; i > ts; i--) {
        lab[i] = lab[i - 1];
        pos[lab[i]] = i;
    }
    lab[ts] = y;
    pos[y] = ts;
    end[ts] = ts + 1;
    for (int i = ts + 1; i < te; i++)
        start[i] = ts + 1;
    int32_t queue[2] = {ts, ts + 1};
    kms_refine(n, indptr, adj, dst, queue, 2, work);
    return kms_target_cell(n, dst);
}
