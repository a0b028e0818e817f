/* The work designs.py does per design.  Most of it is the canonizer: the
 * individualization-refinement search over a design's point/block
 * incidence graph (kms_canon) and the partition refinement it runs at
 * every node (kms_refine, kms_individualize, kms_target_cell).  The Python
 * side builds the graph, checks the known automorphisms and keeps the
 * stabilizer chain of the automorphisms found; the walk over the tree, the
 * leaf certificates, the node budget and the orbit pruning are here.  At
 * the end of the file are the expansion of chosen orbits into a design
 * (kms_expand) and the Steiner check (kms_steiner_count).
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
#include <stdlib.h>
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

/* ------------------------------------------------------------------------
 * The search.  The graph is a design's incidence graph: vertices 0..v-1
 * are the points, v..n-1 the blocks, each block adjacent to its k points
 * in ascending order.  Points hold positions 0..v-1 of every partition,
 * since refinement never moves a vertex out of its cell.
 *
 * A node is counted when it is entered; the root is the partition
 * {points, blocks} refined.  A node with a discrete partition is a leaf.
 * Otherwise it branches on its target cell (kms_target_cell), trying the
 * members in cell order, and skips a member y after the first when y lies
 * in the explored orbit: the closure of the members before y under the
 * known automorphisms that fix every vertex individualized on the path.
 * The closure is recomputed when automorphisms were found since it was
 * built, and otherwise grown by each member searched.
 *
 * The certificate of a leaf labels point p with its position, sorts every
 * block's labels, sorts the blocks in lex order and writes the labels as
 * big-endian 16-bit integers.  The least certificate is the answer.  A
 * leaf whose certificate equals the first leaf's gives an automorphism:
 * the point at position i goes to the first leaf's point at position i,
 * and the block of the j-th row to the first leaf's block of the j-th row.
 * It is dropped when it sifts to the identity through the stabilizer chain
 * of the automorphisms kept so far.  Otherwise it is passed to the
 * callback, which returns 1 to keep it as a generator (after pointing the
 * chain at the grown group), 0 to drop it and -1 to stop the search.
 */

typedef int (*kms_aut_cb)(const int32_t *perm);

/* A stabilizer chain of a group on the points: base[0..levels-1]; at level
 * j, trans[j*v + p] is the row of inv (v entries each) holding the inverse
 * of the transversal element that maps base[j] to p, or -1 when p is not
 * in the orbit of base[j] under the stabilizer of base[0..j-1]. */
typedef struct {
    int levels;
    const int32_t *base, *trans, *inv;
} KmsChain;

enum { CANON_DONE = 0, CANON_BUDGET = 1, CANON_STOPPED = 2, CANON_NOMEM = -1 };

typedef struct {
    int n, v, b, k;
    const int32_t *indptr, *adj;
    int32_t *work;
    int64_t budget, nodes;
    kms_aut_cb cb;
    const KmsChain *chain;
    int32_t **part;          /* per depth: the partition (4n), then n orbit flags */
    int32_t **pgens;         /* per depth: generators fixing the path */
    int *pgens_cap;
    int32_t *path, *queue;   /* n each */
    int32_t *gens;           /* n_gens vertex permutations of n entries */
    int n_gens, gens_cap;
    int32_t *rows, *order, *order_tmp, *count, *perm, *sift, *first_lab, *first_order;
    uint8_t *cert, *first, *best;
    int have_first;
} Canon;

/* Labels, rows and certificate of a discrete partition: rows[i*k..] are
 * block i's sorted labels, order lists the blocks in certificate order. */
static void leaf_cert(Canon *c, const int32_t *part) {
    int v = c->v, b = c->b, k = c->k;
    const int32_t *pos = part + c->n, *pts = c->adj + c->indptr[v];
    for (int i = 0; i < b; i++) {
        int32_t *row = c->rows + (size_t)i * k;
        for (int j = 0; j < k; j++) {
            int x = pos[pts[(size_t)i * k + j]], m = j;
            for (; m > 0 && row[m - 1] > x; m--)
                row[m] = row[m - 1];
            row[m] = x;
        }
        c->order[i] = i;
    }
    /* least significant column first: counting sorts, stable, labels < v */
    for (int j = k - 1; j >= 0; j--) {
        memset(c->count, 0, (size_t)(v + 1) * sizeof(int32_t));
        for (int i = 0; i < b; i++)
            c->count[c->rows[(size_t)i * k + j] + 1]++;
        for (int x = 0; x < v; x++)
            c->count[x + 1] += c->count[x];
        for (int i = 0; i < b; i++) {
            int r = c->order[i];
            c->order_tmp[c->count[c->rows[(size_t)r * k + j]]++] = r;
        }
        int32_t *t = c->order;
        c->order = c->order_tmp;
        c->order_tmp = t;
    }
    uint8_t *out = c->cert;
    for (int i = 0; i < b; i++) {
        const int32_t *row = c->rows + (size_t)c->order[i] * k;
        for (int j = 0; j < k; j++) {
            *out++ = (uint8_t)(row[j] >> 8);
            *out++ = (uint8_t)row[j];
        }
    }
}

static int add_gen(Canon *c) {
    if (c->n_gens == c->gens_cap) {
        int cap = c->gens_cap ? 2 * c->gens_cap : 8;
        int32_t *g = realloc(c->gens, (size_t)cap * c->n * sizeof(int32_t));
        if (!g)
            return CANON_NOMEM;
        c->gens = g;
        c->gens_cap = cap;
    }
    memcpy(c->gens + (size_t)c->n_gens++ * c->n, c->perm, (size_t)c->n * sizeof(int32_t));
    return 0;
}

/* Whether the points part of perm lies in the chain's group. */
static int in_group(Canon *c) {
    const KmsChain *ch = c->chain;
    int v = c->v;
    int32_t *g = c->sift;
    memcpy(g, c->perm, (size_t)v * sizeof(int32_t));
    for (int j = 0; j < ch->levels; j++) {
        int row = ch->trans[(size_t)j * v + g[ch->base[j]]];
        if (row < 0)
            return 0;
        const int32_t *u = ch->inv + (size_t)row * v;
        for (int x = 0; x < v; x++)
            g[x] = u[g[x]];
    }
    for (int x = 0; x < v; x++)
        if (g[x] != x)
            return 0;
    return 1;
}

static int leaf(Canon *c, const int32_t *part) {
    int n = c->n, v = c->v, b = c->b;
    size_t bytes = 2 * (size_t)b * c->k;
    leaf_cert(c, part);
    if (!c->have_first) {
        c->have_first = 1;
        memcpy(c->best, c->cert, bytes);
        memcpy(c->first, c->cert, bytes);
        memcpy(c->first_lab, part, (size_t)n * sizeof(int32_t));
        memcpy(c->first_order, c->order, (size_t)b * sizeof(int32_t));
        return 0;
    }
    if (memcmp(c->cert, c->best, bytes) < 0)
        memcpy(c->best, c->cert, bytes);
    if (memcmp(c->cert, c->first, bytes))
        return 0;
    for (int i = 0; i < v; i++)
        c->perm[part[i]] = c->first_lab[i];
    for (int j = 0; j < b; j++)
        c->perm[v + c->order[j]] = v + c->first_order[j];
    if (in_group(c))
        return 0;
    int keep = c->cb(c->perm);
    if (keep < 0)
        return CANON_STOPPED;
    return keep ? add_gen(c) : 0;
}

/* Indices of the generators fixing path[0..depth-1], into pgens[depth]. */
static int path_gens(Canon *c, int depth) {
    if (c->pgens_cap[depth] < c->n_gens) {
        int32_t *p = realloc(c->pgens[depth], (size_t)c->gens_cap * sizeof(int32_t));
        if (!p)
            return -1;
        c->pgens[depth] = p;
        c->pgens_cap[depth] = c->gens_cap;
    }
    int count = 0;
    for (int g = 0; g < c->n_gens; g++) {
        const int32_t *gen = c->gens + (size_t)g * c->n;
        int d = 0;
        while (d < depth && gen[c->path[d]] == c->path[d])
            d++;
        if (d == depth)
            c->pgens[depth][count++] = g;
    }
    return count;
}

/* Add the orbit of y under the listed generators to the flags. */
static void grow(Canon *c, uint8_t *orbit, int y, const int32_t *gens, int n_gens) {
    if (orbit[y])
        return;
    int tail = 0;
    orbit[y] = 1;
    c->queue[tail++] = y;
    while (tail) {
        int x = c->queue[--tail];
        for (int g = 0; g < n_gens; g++) {
            int z = c->gens[(size_t)gens[g] * c->n + x];
            if (!orbit[z]) {
                orbit[z] = 1;
                c->queue[tail++] = z;
            }
        }
    }
}

#define LEVEL_BYTES(n) (4 * (size_t)(n) * sizeof(int32_t) + (size_t)(n))

static int search(Canon *c, int depth, int ts) {
    if (++c->nodes > c->budget)
        return CANON_BUDGET;
    int n = c->n;
    int32_t *part = c->part[depth];
    if (ts < 0)
        return leaf(c, part);
    if (!c->part[depth + 1] && !(c->part[depth + 1] = malloc(LEVEL_BYTES(n))))
        return CANON_NOMEM;
    uint8_t *orbit = (uint8_t *)(part + 4 * n);
    int te = part[3 * n + ts], epoch = -1, n_pgens = 0;
    for (int i = ts; i < te; i++) {
        int y = part[i];
        if (i > ts) {
            if (epoch != c->n_gens) {
                n_pgens = path_gens(c, depth);
                if (n_pgens < 0)
                    return CANON_NOMEM;
                memset(orbit, 0, (size_t)n);
                for (int j = ts; j < i; j++)
                    grow(c, orbit, part[j], c->pgens[depth], n_pgens);
                epoch = c->n_gens;
            }
            if (orbit[y])
                continue;
        }
        int cts = kms_individualize(n, c->indptr, c->adj, part, c->part[depth + 1], ts, y, c->work);
        c->path[depth] = y;
        int r = search(c, depth + 1, cts);
        if (r)
            return r;
        if (epoch == c->n_gens)
            grow(c, orbit, y, c->pgens[depth], n_pgens);
    }
    return 0;
}

/* Canonical certificate of the design whose incidence graph has n vertices,
 * v of them points.  gens holds n_gens known automorphisms as vertex
 * permutations, chain the stabilizer chain of the group they generate; the
 * callback's kept automorphisms are added to gens.
 * Writes the least certificate (2bk bytes) to best and the nodes visited
 * to *nodes.  Returns 0, 1 when the node count passes budget (nothing in
 * best is then final), 2 when the callback stopped the search, -1 when
 * out of memory. */
int kms_canon(int n, int v, const int32_t *indptr, const int32_t *adj,
              const int32_t *gens, int n_gens, const KmsChain *chain,
              int64_t budget, kms_aut_cb cb,
              uint8_t *best, int64_t *nodes, int32_t *work) {
    Canon c = {0};
    int b = n - v, k = indptr[v + 1] - indptr[v], r = CANON_NOMEM;
    size_t bytes = 2 * (size_t)b * k;
    c.n = n, c.v = v, c.b = b, c.k = k;
    c.indptr = indptr, c.adj = adj, c.work = work, c.budget = budget, c.cb = cb, c.best = best;
    c.chain = chain;
    /* path, queue, perm, first_lab (n each), sift (v), count (v + 1),
     * rows (bk), order, order_tmp, first_order (b each), cert, first */
    int32_t *arena = malloc((4 * (size_t)n + 2 * (size_t)v + 1 + (size_t)b * k + 3 * (size_t)b)
                            * sizeof(int32_t) + 2 * bytes);
    c.part = calloc((size_t)n + 1, sizeof *c.part);
    c.pgens = calloc((size_t)n + 1, sizeof *c.pgens);
    c.pgens_cap = calloc((size_t)n + 1, sizeof *c.pgens_cap);
    if (arena && c.part && c.pgens && c.pgens_cap && (c.part[0] = malloc(LEVEL_BYTES(n)))) {
        c.path = arena, c.queue = c.path + n, c.perm = c.queue + n, c.first_lab = c.perm + n;
        c.sift = c.first_lab + n, c.count = c.sift + v, c.rows = c.count + v + 1;
        c.order = c.rows + (size_t)b * k, c.order_tmp = c.order + b, c.first_order = c.order_tmp + b;
        c.cert = (uint8_t *)(c.first_order + b), c.first = c.cert + bytes;
        r = 0;
        for (int g = 0; g < n_gens && !r; g++) {
            memcpy(c.perm, gens + (size_t)g * n, (size_t)n * sizeof(int32_t));
            r = add_gen(&c);
        }
    }
    if (!r) {
        int32_t *part = c.part[0];
        for (int i = 0; i < n; i++) {
            part[i] = part[n + i] = i;
            part[2 * n + i] = i < v ? 0 : v;
            part[3 * n + i] = i < v ? v : n;
        }
        int32_t queue[2] = {0, v};
        kms_refine(n, indptr, adj, part, queue, 2, work);
        r = search(&c, 0, kms_target_cell(n, part));
    }
    *nodes = c.nodes;
    for (int d = 0; d <= n && c.part && c.pgens; d++)
        free(c.part[d]), free(c.pgens[d]);
    free(c.part), free(c.pgens), free(c.pgens_cap), free(c.gens), free(arena);
    return r;
}

/* ------------------------------------------------------------------------
 * Expansion and the Steiner check.  A sorted subset s_0 < ... < s_{k-1} of
 * the points 0..v-1 is keyed through binom[c*v + x] = C(v-1-x, k-c)
 * (orbitgen._binomials): its lex rank among the C(v, k) k-subsets is
 * C(v, k) - 1 - sum_c binom[c*v + s_c].  A design's points are 1-based,
 * unsigned, of itemsize 1, 2, 4 or 8 bytes (np.min_scalar_type(v)).
 */

enum { EXPAND_SIZE = -1, EXPAND_DUPLICATE = -2, EXPAND_RANGE = -3, EXPAND_NOMEM = -4 };

static int64_t get_point(const void *pts, int itemsize, size_t i) {
    switch (itemsize) {
    case 1: return ((const uint8_t *)pts)[i];
    case 2: return ((const uint16_t *)pts)[i];
    case 4: return ((const uint32_t *)pts)[i];
    default: return (int64_t)((const uint64_t *)pts)[i];
    }
}

static void put_point(void *pts, int itemsize, size_t i, int64_t x) {
    switch (itemsize) {
    case 1: ((uint8_t *)pts)[i] = (uint8_t)x; break;
    case 2: ((uint16_t *)pts)[i] = (uint16_t)x; break;
    case 4: ((uint32_t *)pts)[i] = (uint32_t)x; break;
    default: ((uint64_t *)pts)[i] = (uint64_t)x;
    }
}

/* Sort idx[0..n-1] stably by key[idx[i]], in 8-bit digits of key - lo;
 * every key lies in lo..lo+span.  tmp holds n entries. */
static void radix_sort(int64_t n, const int64_t *key, int64_t lo, uint64_t span,
                       int64_t *idx, int64_t *tmp) {
    int64_t *src = idx, *dst = tmp;
    for (int shift = 0; shift < 64 && span >> shift; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; i++)
            count[(((uint64_t)key[src[i]] - (uint64_t)lo) >> shift & 255) + 1]++;
        for (int d = 0; d < 256; d++)
            count[d + 1] += count[d];
        for (int64_t i = 0; i < n; i++)
            dst[count[((uint64_t)key[src[i]] - (uint64_t)lo) >> shift & 255]++] = src[i];
        int64_t *swap = src;
        src = dst, dst = swap;
    }
    if (src != idx)
        memcpy(idx, src, (size_t)n * sizeof *idx);
}

/* The union of the G-orbits of m chosen k-subsets of the points 0..v-1
 * (reps, m rows of k 0-based points), G given by its order elements (els,
 * one row of the v images each).  Image e = g*m + i, of rep i under
 * element g, is sorted and keyed by its lex rank; an image equal to its
 * rep counts towards the rep's stabilizer, and order / stabilizer (0 for an
 * empty stabilizer) must equal sizes[i].  The distinct images, the first
 * in image order of each key, are written to out in lex order as 1-based
 * points of itemsize bytes; out holds m * order rows.
 * Returns the number of blocks written, or EXPAND_RANGE when a rep point
 * lies outside 0..v-1, EXPAND_SIZE when an orbit size differs,
 * EXPAND_DUPLICATE when the distinct images do not number the sum of the
 * sizes, EXPAND_NOMEM when out of memory. */
int64_t kms_expand(int v, int k, int64_t order, const int64_t *els, int64_t m,
                   const int32_t *reps, const int64_t *sizes, const int64_t *binom,
                   void *out, int itemsize) {
    int64_t n = order * m, total = 0, r;
    for (int64_t j = 0; j < m * k; j++)
        if (reps[j] < 0 || reps[j] >= v)
            return EXPAND_RANGE;
    if (!n) {
        for (int64_t i = 0; i < m; i++)
            if (sizes[i])
                return EXPAND_SIZE;
        return 0;
    }
    /* img (nk), key, idx, tmp (n each), stab (m) */
    int32_t *img = malloc((size_t)n * k * sizeof *img);
    int64_t *key = malloc((3 * (size_t)n + (size_t)m) * sizeof *key);
    if (!img || !key) {
        free(img), free(key);
        return EXPAND_NOMEM;
    }
    int64_t *idx = key + n, *tmp = idx + n, *stab = tmp + n, lo = 0, hi = 0;
    memset(stab, 0, (size_t)m * sizeof *stab);
    for (int64_t g = 0, e = 0; g < order; g++) {
        const int64_t *el = els + g * v;
        for (int64_t i = 0; i < m; i++, e++) {
            const int32_t *rep = reps + i * k;
            int32_t *row = img + e * k;
            int64_t sum = 0;
            for (int j = 0; j < k; j++) {
                int32_t x = (int32_t)el[rep[j]];
                int c = j;
                for (; c > 0 && row[c - 1] > x; c--)
                    row[c] = row[c - 1];
                row[c] = x;
            }
            for (int c = 0; c < k; c++)
                sum += binom[c * v + row[c]];
            int same = 0;
            while (same < k && row[same] == rep[same])
                same++;
            stab[i] += same == k;
            key[e] = -sum;  /* the lex rank less C(v, k) - 1 */
            idx[e] = e;
            lo = !e || key[e] < lo ? key[e] : lo;
            hi = !e || key[e] > hi ? key[e] : hi;
        }
    }
    r = 0;
    for (int64_t i = 0; i < m && !r; i++) {
        if ((stab[i] ? order / stab[i] : 0) != sizes[i])
            r = EXPAND_SIZE;
        total += sizes[i];
    }
    if (!r) {
        radix_sort(n, key, lo, (uint64_t)hi - (uint64_t)lo, idx, tmp);
        int64_t distinct = 1;
        for (int64_t j = 1; j < n; j++)
            distinct += key[idx[j]] != key[idx[j - 1]];
        r = distinct == total ? total : EXPAND_DUPLICATE;
    }
    for (int64_t j = 0, w = 0; r > 0 && j < n; j++) {
        if (j && key[idx[j]] == key[idx[j - 1]])
            continue;
        for (int c = 0; c < k; c++)
            put_point(out, itemsize, (size_t)(w * k + c), img[idx[j] * k + c] + 1);
        w++;
    }
    free(img), free(key);
    return r;
}

/* Count the t-subsets of the b blocks of a design on v points (k points
 * each, ascending, in 1..v) by lex rank in a table of n_sub = C(v, t) entries; pick
 * lists the n_pick = C(k, t) t-subsets of a block's k positions.  The
 * caller runs it only when b * n_pick == n_sub, so the table is no larger
 * than the subsets counted.  Returns 1 when every count is 1, 0 when not,
 * -1 when out of memory. */
int kms_steiner_count(int v, int t, int64_t b, int k, const void *blocks, int itemsize,
                      int64_t n_pick, const int32_t *pick, const int64_t *binom,
                      int64_t n_sub) {
    if (!n_sub)
        return 1;
    uint8_t *seen = calloc((size_t)n_sub, 1);
    if (!seen)
        return -1;
    int r = 1;
    for (int64_t i = 0; i < b && r; i++) {
        size_t row = (size_t)i * k;
        for (int64_t p = 0; p < n_pick; p++) {
            int64_t rank = n_sub - 1;
            for (int c = 0; c < t; c++)
                rank -= binom[c * v + get_point(blocks, itemsize, row + pick[p * t + c]) - 1];
            if (rank < 0 || rank >= n_sub || seen[rank]++) {
                r = 0;
                break;
            }
        }
    }
    free(seen);
    return r;
}
