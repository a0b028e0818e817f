/* The work designs.py does per design.  Most of it is the canonizer: the
 * individualization-refinement search over a design's point/block
 * incidence graph (kms_canon) and the partition refinement it runs at
 * every node (kms_refine, kms_individualize, kms_target_cell).  The Python
 * side builds the graph, checks the known automorphisms and keeps the
 * stabilizer chain of the automorphisms the search passes to it; the walk
 * over the tree, the leaf certificates, the node budget and the orbit
 * pruning are here.  A leaf is a node whose points are all singletons,
 * and every automorphism found at a leaf is passed on and prunes, whether
 * or not it grows the known group.  At
 * the end of the file are the expansion of chosen orbits into a design
 * (kms_expand), which reads an OrbitSet's reps and sizes through the
 * chosen indices, and the Steiner check (kms_steiner_count).
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

/* Refine against the queued cells; queue holds qlen cell starts.  A FIFO
 * worklist: each splitter cell counts, for every vertex, its neighbours in
 * the splitter; every touched cell, in position order, splits into
 * fragments of equal count, in ascending count order, with members keeping
 * their relative order.  If the split cell was queued, every fragment after
 * the first is queued; otherwise every fragment but the first largest one.
 * Positions 0..stop-1 must hold whole cells: once they are all singletons,
 * refinement ends before the next splitter, clearing the queued flags of
 * the splitters left.  Returns 1 when those positions end as singletons, 0
 * at a fixpoint that leaves one of their cells whole, -1 if qlen exceeds
 * n. */
int kms_refine(int n, int stop, const int32_t *indptr, const int32_t *adj, int32_t *part,
               const int32_t *queue, int qlen, int32_t *work) {
    int32_t *lab = part, *pos = part + n, *start = part + 2 * n, *end = part + 3 * n;
    uint64_t *marked = (uint64_t *)work;      /* bit set: touched cell starts */
    int32_t *cnt = work + 2 * (n / 64 + 1);   /* neighbours in the splitter */
    int32_t *hist = cnt + n;                  /* count -> fragment offset */
    int32_t *queued = cnt + 2 * n;            /* cell start is queued */
    int32_t *touched = cnt + 3 * n;           /* vertices with cnt > 0 */
    int32_t *tmp = cnt + 4 * n;               /* members of one cell */
    int32_t *fifo = cnt + 5 * n;              /* 2n: initial + at most n pushes */
    int head = 0, tail = 0, cells = 0;  /* cells within positions 0..stop-1 */

    if (qlen > n)
        return -1;
    for (int s = 0; s < stop; s = end[s])
        cells++;
    for (int i = 0; i < qlen; i++) {
        queued[queue[i]] = 1;
        fifo[tail++] = queue[i];
    }
    while (head < tail) {
        if (cells == stop) {
            while (head < tail)
                queued[fifo[head++]] = 0;
            return 1;
        }
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
                    cells += fs > cs && cs < stop;
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
    return cells == stop;
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
 * members keep their order), refine against both fragments with stop
 * (kms_refine) and return the target cell of the result (kms_target_cell),
 * or -1 when positions 0..stop-1 end as singletons. */
int kms_individualize(int n, int stop, const int32_t *indptr, const int32_t *adj,
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
    if (kms_refine(n, stop, indptr, adj, dst, queue, 2, work))
        return -1;
    return kms_target_cell(n, dst);
}

/* ------------------------------------------------------------------------
 * The search.  The graph is a design's incidence graph: vertices 0..v-1
 * are the points, v..n-1 the blocks, each block adjacent to its k points
 * in ascending order.  Points hold positions 0..v-1 of every partition,
 * since refinement never moves a vertex out of its cell.
 *
 * A node is counted when it is entered; the root is the partition
 * {points, blocks} refined.  Every refinement of the search, the root's
 * included, passes stop = v: a node whose points are all singletons is a
 * leaf, which reads only the points' positions and the blocks' rows, and
 * refining on would only make the blocks discrete (distinct blocks differ
 * in a point).
 * Otherwise a node branches on its target cell (kms_target_cell), trying the
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
 * It is dropped when it fixes every point.  Otherwise it is passed to the
 * callback, which returns 0, or -1 to stop the search, and then joins the
 * generators that prune, whether or not it grows the known group: one
 * inside that group may fix a path that none of the known generators
 * fixes.
 *
 * In a Steiner 2-design, refinement after one point is individualized
 * leaves the other points alike, so the children of the root apply a
 * vertex invariant (McKay & Piperno, "Practical graph isomorphism, II",
 * 2014).  A quadrilateral is four blocks, any two meeting in exactly one
 * point, with the six meeting points distinct; it contains its blocks and
 * those points.  At a child of the root whose individualized vertex y is
 * a point and which is not a leaf, q(u) counts the quadrilaterals holding
 * both y and u.  Every non-singleton cell, in position order, splits into
 * fragments of equal q in ascending q, members keeping their order; the
 * starts of the fragments of every split cell are queued in position order
 * and the partition refined with stop = v as above.  The invariant runs
 * only on linear designs, where no pair of points lies in two blocks: the
 * block through a pair is then one lookup in the sorted pair keys, and
 * any other design runs the search without it.
 */

typedef int (*kms_aut_cb)(const int32_t *perm);

enum { CANON_DONE = 0, CANON_BUDGET = 1, CANON_STOPPED = 2, CANON_NOMEM = -1 };

/* A member u of a cell at position at, with its quadrilateral count q. */
typedef struct {
    int64_t q;
    int32_t at, u;
} QuadEntry;

typedef struct {
    int n, v, b, k;
    const int32_t *indptr, *adj;
    int32_t *work;
    int64_t budget, nodes;
    kms_aut_cb cb;
    int32_t **part;          /* per depth: the partition (4n), then n orbit flags */
    int32_t **pgens;         /* per depth: generators fixing the path */
    int *pgens_cap;
    int32_t *path, *queue;   /* n each */
    int32_t *gens;           /* n_gens vertex permutations of n entries */
    int n_gens, gens_cap;
    int32_t *rows, *order, *order_tmp, *count, *perm, *first_lab, *first_order;
    uint8_t *cert, *first, *best;
    int have_first;
    /* the quadrilateral invariant, for linear designs only (else pairs is
     * NULL): the n_pairs keys (x * v + z) * b + i of the pairs x < z of
     * points of block i, sorted; then q (n), the sort entries of one cell
     * (n), fragment starts (n) and, as (a, b, block) triples, the at most
     * (k - 1)^2 blocks meeting two blocks through y off y */
    int64_t *pairs, n_pairs, *q;
    QuadEntry *sorted;
    int32_t *frags, *meets;
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
    int moved = 0;
    while (moved < v && c->perm[moved] == moved)
        moved++;
    if (moved == v)
        return 0;
    if (c->cb(c->perm) < 0)
        return CANON_STOPPED;
    return add_gen(c);
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

static int cmp_int64(const void *x, const void *z) {
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)z;
    return (a > b) - (a < b);
}

static int cmp_quad_entry(const void *x, const void *z) {
    const QuadEntry *a = x, *b = z;
    return a->q != b->q ? (a->q > b->q) - (a->q < b->q) : a->at - b->at;
}

/* Sort the pair keys of the blocks and, when no pair lies in two blocks,
 * set up the invariant's arrays.  Returns 0, or CANON_NOMEM; a design that
 * is not linear leaves pairs NULL. */
static int quad_init(Canon *c) {
    int v = c->v, b = c->b, k = c->k;
    int64_t m = 0;
    c->n_pairs = (int64_t)b * k * (k - 1) / 2;
    if (!(c->pairs = malloc(((size_t)c->n_pairs + 1) * sizeof(int64_t))))
        return CANON_NOMEM;
    for (int i = 0; i < b; i++) {
        const int32_t *pts = c->adj + c->indptr[v + i];
        for (int s = 0; s < k; s++)
            for (int t = s + 1; t < k; t++)
                c->pairs[m++] = ((int64_t)pts[s] * v + pts[t]) * b + i;
    }
    qsort(c->pairs, (size_t)m, sizeof(int64_t), cmp_int64);
    for (int64_t j = 1; j < m; j++)
        if (c->pairs[j] / b == c->pairs[j - 1] / b) {
            free(c->pairs);
            c->pairs = NULL;
            return 0;
        }
    size_t n = (size_t)c->n;
    if (!(c->q = malloc(n * (sizeof(int64_t) + sizeof(QuadEntry) + sizeof(int32_t))
                        + 3 * (size_t)(k - 1) * (k - 1) * sizeof(int32_t))))
        return CANON_NOMEM;
    c->sorted = (QuadEntry *)(c->q + n);
    c->frags = (int32_t *)(c->sorted + n);
    c->meets = c->frags + n;
    return 0;
}

/* The block (0..b-1) through the distinct points x and z, or -1. */
static int pair_block(const Canon *c, int x, int z) {
    int64_t key = (x < z ? (int64_t)x * c->v + z : (int64_t)z * c->v + x) * c->b;
    int64_t lo = 0, hi = c->n_pairs;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (c->pairs[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < c->n_pairs && c->pairs[lo] - key < c->b ? (int)(c->pairs[lo] - key) : -1;
}

/* The point that the blocks (vertices) b1 and b2 share, or -1. */
static int meet(const Canon *c, int b1, int b2) {
    const int32_t *p = c->adj + c->indptr[b1], *r = c->adj + c->indptr[b2];
    for (int i = 0, j = 0; i < c->k && j < c->k;) {
        if (p[i] == r[j])
            return p[i];
        if (p[i] < r[j])
            i++;
        else
            j++;
    }
    return -1;
}

/* q(u) for every vertex u: the quadrilaterals holding the point y and u.
 * In a linear design, y is the meeting point of exactly two blocks of a
 * quadrilateral, B1 and B2.  Each of the other two meets them off y, in a
 * and b, so it is the block through a and b; two such blocks with distinct
 * a and distinct b complete a quadrilateral when they meet, and then all
 * six meeting points are distinct. */
static void count_quads(Canon *c, int y) {
    const int32_t *indptr = c->indptr, *adj = c->adj;
    int64_t *q = c->q;
    int k = c->k;
    memset(q, 0, (size_t)c->n * sizeof *q);
    for (int i = indptr[y]; i < indptr[y + 1]; i++)
        for (int j = i + 1; j < indptr[y + 1]; j++) {
            int b1 = adj[i], b2 = adj[j], m = 0;
            const int32_t *p1 = adj + indptr[b1], *p2 = adj + indptr[b2];
            for (int s = 0; s < k; s++)
                for (int t = 0; t < k; t++) {
                    int blk = p1[s] == y || p2[t] == y ? -1 : pair_block(c, p1[s], p2[t]);
                    if (blk >= 0) {
                        int32_t *x = c->meets + 3 * m++;
                        x[0] = p1[s], x[1] = p2[t], x[2] = c->v + blk;
                    }
                }
            for (int s = 0; s < m; s++)
                for (int t = s + 1; t < m; t++) {
                    const int32_t *x = c->meets + 3 * s, *z = c->meets + 3 * t;
                    int e = x[0] == z[0] || x[1] == z[1] ? -1 : meet(c, x[2], z[2]);
                    if (e < 0)
                        continue;
                    q[b1]++, q[b2]++, q[x[2]]++, q[z[2]]++;
                    q[y]++, q[x[0]]++, q[x[1]]++, q[z[0]]++, q[z[1]]++, q[e]++;
                }
        }
}

/* Split every non-singleton cell of part by q(y, .) (count_quads), refine
 * against the fragments of the cells split and return the target cell, or
 * -1 when the points end as singletons. */
static int quad_split(Canon *c, int32_t *part, int y) {
    int n = c->n, qlen = 0;
    int32_t *lab = part, *pos = part + n, *start = part + 2 * n, *end = part + 3 * n;
    count_quads(c, y);
    for (int cs = 0, ce; cs < n; cs = ce) {
        ce = end[cs];
        int same = 1;
        for (int i = cs + 1; i < ce && same; i++)
            same = c->q[lab[i]] == c->q[lab[cs]];
        if (same)
            continue;
        for (int i = cs; i < ce; i++)
            c->sorted[i - cs] = (QuadEntry){c->q[lab[i]], i, lab[i]};
        qsort(c->sorted, (size_t)(ce - cs), sizeof *c->sorted, cmp_quad_entry);
        int first = qlen;
        for (int i = cs; i < ce; i++) {
            const QuadEntry *e = c->sorted + (i - cs);
            lab[i] = e->u;
            pos[e->u] = i;
            if (i == cs || e->q != e[-1].q)
                c->frags[qlen++] = i;
        }
        for (int f = first; f < qlen; f++) {
            int fe = f + 1 < qlen ? c->frags[f + 1] : ce;
            for (int p = c->frags[f]; p < fe; p++) {
                start[p] = c->frags[f];
                end[p] = fe;
            }
        }
    }
    if (kms_refine(n, c->v, c->indptr, c->adj, part, c->frags, qlen, c->work))
        return -1;
    return kms_target_cell(n, part);
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
        int cts = kms_individualize(n, c->v, c->indptr, c->adj, part, c->part[depth + 1], ts, y, c->work);
        if (!depth && c->pairs && y < c->v && cts >= 0)
            cts = quad_split(c, c->part[1], y);
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
 * permutations; the search prunes with these and with the automorphisms
 * it finds, each of which it passes to cb.
 * Writes the least certificate (2bk bytes) to best and the nodes visited
 * to *nodes.  Returns 0, 1 when the node count passes budget (nothing in
 * best is then final), 2 when the callback stopped the search, -1 when
 * out of memory. */
int kms_canon(int n, int v, const int32_t *indptr, const int32_t *adj,
              const int32_t *gens, int n_gens, int64_t budget, kms_aut_cb cb,
              uint8_t *best, int64_t *nodes, int32_t *work) {
    Canon c = {0};
    int b = n - v, k = indptr[v + 1] - indptr[v], r = CANON_NOMEM;
    size_t bytes = 2 * (size_t)b * k;
    c.n = n, c.v = v, c.b = b, c.k = k;
    c.indptr = indptr, c.adj = adj, c.work = work, c.budget = budget, c.cb = cb, c.best = best;
    /* path, queue, perm, first_lab (n each), count (v + 1), rows (bk),
     * order, order_tmp, first_order (b each), cert, first */
    int32_t *arena = malloc((4 * (size_t)n + (size_t)v + 1 + (size_t)b * k + 3 * (size_t)b)
                            * sizeof(int32_t) + 2 * bytes);
    c.part = calloc((size_t)n + 1, sizeof *c.part);
    c.pgens = calloc((size_t)n + 1, sizeof *c.pgens);
    c.pgens_cap = calloc((size_t)n + 1, sizeof *c.pgens_cap);
    if (arena && c.part && c.pgens && c.pgens_cap && (c.part[0] = malloc(LEVEL_BYTES(n)))) {
        c.path = arena, c.queue = c.path + n, c.perm = c.queue + n, c.first_lab = c.perm + n;
        c.count = c.first_lab + n, c.rows = c.count + v + 1;
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
        int ts = kms_refine(n, v, indptr, adj, part, queue, 2, work) ? -1 : kms_target_cell(n, part);
        r = quad_init(&c);
        if (!r)
            r = search(&c, 0, ts);
    }
    *nodes = c.nodes;
    for (int d = 0; d <= n && c.part && c.pgens; d++)
        free(c.part[d]), free(c.pgens[d]);
    free(c.part), free(c.pgens), free(c.pgens_cap), free(c.gens), free(arena);
    free(c.pairs), free(c.q);
    return r;
}

/* ------------------------------------------------------------------------
 * Expansion and the Steiner check.  A sorted subset s_0 < ... < s_{k-1} of
 * the points 0..v-1 is keyed through binom[c*v + x] = C(v-1-x, k-c)
 * (orbitgen._binomials): the sum S = sum_c binom[c*v + s_c] runs over
 * 0..C(v, k)-1 and the subset's lex rank among the C(v, k) k-subsets is
 * C(v, k) - 1 - S.  A design's points are 1-based, unsigned, of itemsize
 * 1, 2, 4 or 8 bytes (np.min_scalar_type(v)); both kernels read them as
 * 0-based int64 (load_points).
 */

enum { EXPAND_SIZE = -1, EXPAND_DUPLICATE = -2, EXPAND_RANGE = -3, EXPAND_NOMEM = -4 };

/* dst[j] = pts[j] - 1 for j < n, in one loop per itemsize; a point 0
 * becomes -1. */
static void load_points(const void *pts, int itemsize, int64_t n, int64_t *dst) {
#define LOAD(T)                                                                  \
    for (int64_t j = 0; j < n; j++)                                              \
        dst[j] = (int64_t)((uint64_t)((const T *)pts)[j] - 1)
    switch (itemsize) {
    case 1: LOAD(uint8_t); break;
    case 2: LOAD(uint16_t); break;
    case 4: LOAD(uint32_t); break;
    default: LOAD(uint64_t);
    }
#undef LOAD
}

/* Sort idx[0..n-1] stably by key[idx[i]], in 8-bit digits of key - lo;
 * every key lies in lo..lo+span.  tmp holds n entries.  Returns idx or
 * tmp, whichever holds the sorted entries. */
static int64_t *radix_sort(int64_t n, const int64_t *key, int64_t lo, uint64_t span,
                           int64_t *idx, int64_t *tmp) {
    for (int shift = 0; shift < 64 && span >> shift; shift += 8) {
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; i++)
            count[(((uint64_t)key[idx[i]] - (uint64_t)lo) >> shift & 255) + 1]++;
        for (int d = 0; d < 256; d++)
            count[d + 1] += count[d];
        for (int64_t i = 0; i < n; i++)
            tmp[count[((uint64_t)key[idx[i]] - (uint64_t)lo) >> shift & 255]++] = idx[i];
        int64_t *swap = idx;
        idx = tmp, tmp = swap;
    }
    return idx;
}

/* The union of the G-orbits of m chosen k-subsets of the points 1..v, G
 * given by its order elements (els, one row of the v 0-based images
 * each).  The chosen subsets are the rows chosen[0..m-1] of reps, the
 * (n, k) representatives of an OrbitSet in points of itemsize bytes, and
 * their orbit sizes are sizes[chosen[i]]; the caller checks chosen against
 * n.  The reps are gathered and checked once.  Image e = g*m + i, of
 * chosen rep i under element g, is sorted and keyed by its lex rank; an
 * image equal to its rep counts towards the rep's stabilizer, and order /
 * stabilizer (0 for an empty stabilizer) must equal the orbit size.  The
 * keys are radix sorted, and the distinct images, the first in image order
 * of each key, are written to out in lex order as 1-based points of
 * itemsize bytes; out holds m * order rows.
 * Returns the number of blocks written, or EXPAND_RANGE when a rep point
 * lies outside 1..v, EXPAND_SIZE when an orbit size differs,
 * EXPAND_DUPLICATE when the distinct images do not number the sum of the
 * sizes, EXPAND_NOMEM when out of memory. */
int64_t kms_expand(int v, int k, int64_t order, const int64_t *els, const void *reps,
                   int itemsize, const int64_t *sizes, int64_t m, const int64_t *chosen,
                   const int64_t *binom, void *out) {
    int64_t n = order * m, total = 0, r = 0, lo = INT64_MAX, hi = INT64_MIN;
    /* key, idx, tmp (n each); rep (mk), stab (m); img (nk); one byte more
     * so that choosing no orbit allocates too */
    int64_t *key = malloc((3 * (size_t)n + (size_t)m * k + (size_t)m) * sizeof *key
                           + (size_t)n * k * sizeof(int32_t) + 1);
    if (!key)
        return EXPAND_NOMEM;
    int64_t *idx = key + n, *tmp = idx + n, *rep = tmp + n, *stab = rep + m * k;
    int32_t *img = (int32_t *)(stab + m);
    for (int64_t i = 0; i < m; i++)
        load_points((const char *)reps + (size_t)chosen[i] * k * itemsize, itemsize, k,
                    rep + i * k);
    for (int64_t j = 0; j < m * k && !r; j++)
        if (rep[j] < 0 || rep[j] >= v)
            r = EXPAND_RANGE;
    memset(stab, 0, (size_t)m * sizeof *stab);
    for (int64_t g = 0, e = 0; g < order && !r; g++) {
        const int64_t *el = els + g * v;
        for (int64_t i = 0; i < m; i++, e++) {
            const int64_t *s = rep + i * k;
            int32_t *row = img + e * k;
            /* insert each point into the sorted row[0..j-1] without
             * branches: the new row[c] is max(row[c-1], min(row[c], x)) */
            for (int j = 0; j < k; j++) {
                int32_t x = (int32_t)el[s[j]];
                row[j] = x;
                for (int c = j; c > 0; c--) {
                    int32_t below = row[c] < x ? row[c] : x;
                    row[c] = row[c - 1] > below ? row[c - 1] : below;
                }
                row[0] = row[0] < x ? row[0] : x;
            }
            int64_t sum = 0;
            int same = 1;
            for (int c = 0; c < k; c++) {
                sum += binom[c * v + row[c]];
                same &= row[c] == s[c];
            }
            stab[i] += same;
            key[e] = -sum;  /* the lex rank less C(v, k) - 1 */
            idx[e] = e;
            lo = key[e] < lo ? key[e] : lo;
            hi = key[e] > hi ? key[e] : hi;
        }
    }
    for (int64_t i = 0; i < m && !r; i++) {
        if ((stab[i] ? order / stab[i] : 0) != sizes[chosen[i]])
            r = EXPAND_SIZE;
        total += sizes[chosen[i]];
    }
    if (!r) {
        int64_t *s = radix_sort(n, key, lo, (uint64_t)hi - (uint64_t)lo, idx, tmp);
        /* the first image of each key, as a row of out */
#define STORE(T)                                                                 \
    for (int64_t j = 0; j < n; j++)                                              \
        if (!j || key[s[j]] != key[s[j - 1]]) {                                  \
            const int32_t *row = img + s[j] * k;                                 \
            for (int c = 0; c < k; c++)                                          \
                ((T *)out)[r * k + c] = (T)(row[c] + 1);                         \
            r++;                                                                 \
        }
        switch (itemsize) {
        case 1: STORE(uint8_t); break;
        case 2: STORE(uint16_t); break;
        case 4: STORE(uint32_t); break;
        default: STORE(uint64_t);
        }
#undef STORE
        if (r != total)
            r = EXPAND_DUPLICATE;
    }
    free(key);
    return r;
}

/* Count the t-subsets of the b blocks of a design on v points (k points
 * each, ascending, in 1..v) in a table of n_sub = C(v, t) entries, indexed
 * by the sum S of the lex rank; pick lists the n_pick = C(k, t) t-subsets
 * of a block's k positions.  The caller runs it only when b * n_pick ==
 * n_sub, so the table is no larger than the subsets counted.  Each block's
 * points are read once, and the t * k binomials of its points once, and
 * every pick sums t of them.  Returns 1 when every count is 1, 0 when not,
 * -1 when out of memory. */
int kms_steiner_count(int v, int t, int64_t b, int k, const void *blocks, int itemsize,
                      int64_t n_pick, const int32_t *pick, const int64_t *binom,
                      int64_t n_sub) {
    if (!n_sub)
        return 1;
    uint8_t *seen = calloc((size_t)n_sub, 1);
    /* pts (bk); at (n_pick t): where w holds the binomial of each pick's
     * point; w (tk): binom[c*v + x] of the block's point x at [c*k + q];
     * one byte more so that t = k = 0 allocates too */
    int64_t *pts = malloc(((size_t)b * k + (size_t)n_pick * t + (size_t)t * k) * sizeof *pts + 1);
    if (!seen || !pts) {
        free(seen), free(pts);
        return -1;
    }
    int64_t *at = pts + b * k, *w = at + n_pick * t;
    load_points(blocks, itemsize, b * k, pts);
    for (int64_t j = 0; j < n_pick * t; j++)
        at[j] = j % t * k + pick[j];
    int r = 1;
    for (int64_t i = 0; i < b && r; i++) {
        const int64_t *row = pts + i * k;
        for (int c = 0; c < t; c++)
            for (int q = 0; q < k; q++)
                w[c * k + q] = binom[c * v + row[q]];
        for (const int64_t *a = at, *end = at + n_pick * t; a < end; a += t) {
            uint64_t sum = 0;
            for (int c = 0; c < t; c++)
                sum += (uint64_t)w[a[c]];
            if (sum >= (uint64_t)n_sub || seen[sum]++) {
                r = 0;
                break;
            }
        }
    }
    free(seen), free(pts);
    return r;
}
