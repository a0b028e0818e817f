/* The search of orbitgen._orderly_reps: orderly generation of the
 * lex-minimal k-subsets of their G-orbits, with the prunes P1 and P2 of
 * the orbitgen module docstring.
 *
 * A node at depth d is a sorted subset S of d points.  Per group element g
 * it keeps SG = S^g, SF = g^-1(S) together with the fixed points of g (both
 * bitmasks of words uint64), m = min(S xor S^g) or v where g fixes S, and
 * inter = |S meet S^g|.  A node is counted when it is entered; entering it
 * finds its survivors, the points p above max(S) that pass P1 and P2, as
 * one bitmask.  At depth size - 1 the survivors are the leaves, written
 * out with their orbit sizes; above it they are visited in ascending p,
 * depth first, so the representatives come out in lex order.
 *
 * The search is resumable: kms_orbits_run writes representatives into the
 * caller's chunk and returns when the chunk is full, every 2^16 nodes
 * (before the node is looked at), and at the end; a later call carries on
 * where it stopped with a new chunk.  Before it returns it writes
 * info[0..2]: the nodes so far, the current second point (1-based, 0
 * before the first), and the rows written to this chunk.
 */

#include <stdint.h>
#include <stdlib.h>

enum { KMS_DONE = 0, KMS_FULL = 1, KMS_TICK = 2 };
enum { ENTER, EXPAND, NEXT, FINISHED };

#define TICK_NODES ((int64_t)1 << 16)

typedef struct {
    int v, size, t, n_el, words;
    const int64_t *img;  /* img[g * v + x] = g(x) */
    int32_t *inv;        /* inv[g * v + y] = g^-1(y) */
    uint64_t *below;     /* row g * (v + 1) + j: {x : g(x) < j}, row v: {x : g(x) < x} */
    int32_t *near;       /* the elements that can fix a leaf of the node at depth size - 1 */
    int n_near;
    /* per depth d < size, the node on the current path */
    int32_t *point;      /* point[d]: the point that depth d + 1 adds */
    uint64_t *S, *keep;  /* words each: the subset, its survivors not yet visited */
    uint64_t *SG, *SF;   /* n_el * words each */
    int32_t *m, *inter;  /* n_el each */
    int depth, phase, second;
    int64_t nodes;
    int64_t *info;
} State;

static inline int has(const uint64_t *mask, int x) {
    return mask[x >> 6] >> (x & 63) & 1;
}

static inline void set(uint64_t *mask, int x) {
    mask[x >> 6] |= (uint64_t)1 << (x & 63);
}

void kms_orbits_free(State *s) {
    if (!s)
        return;
    free(s->inv);
    free(s->below);
    free(s->near);
    free(s->point);
    free(s->S);
    free(s->keep);
    free(s->SG);
    free(s->SF);
    free(s->m);
    free(s->inter);
    free(s);
}

/* A search at the root, or NULL if memory runs out.  img holds the n_el
 * elements of G as 0-based images of 0..v-1; img and info (3 entries)
 * must outlive the state.  Needs 1 <= size; at size == t P2 never
 * prunes, so the search gives every t-orbit. */
State *kms_orbits_new(int v, int size, int t, int n_el, const int64_t *img, int64_t *info) {
    State *s = calloc(1, sizeof(State));
    if (!s)
        return NULL;
    int words = (v + 63) / 64;
    size_t per = (size_t)n_el * words;
    s->v = v;
    s->size = size;
    s->t = t;
    s->n_el = n_el;
    s->words = words;
    s->img = img;
    s->info = info;
    s->inv = malloc((size_t)n_el * v * sizeof(int32_t));
    s->below = calloc((size_t)n_el * (v + 1) * words, sizeof(uint64_t));
    s->near = malloc((size_t)n_el * sizeof(int32_t));
    s->point = calloc(size, sizeof(int32_t));
    s->S = calloc((size_t)size * words, sizeof(uint64_t));
    s->keep = calloc((size_t)size * words, sizeof(uint64_t));
    s->SG = calloc(size * per, sizeof(uint64_t));
    s->SF = calloc(size * per, sizeof(uint64_t));
    s->m = malloc((size_t)size * n_el * sizeof(int32_t));
    s->inter = calloc((size_t)size * n_el, sizeof(int32_t));
    if (!s->inv || !s->below || !s->near || !s->point || !s->S || !s->keep
        || !s->SG || !s->SF || !s->m || !s->inter) {
        kms_orbits_free(s);
        return NULL;
    }
    for (int g = 0; g < n_el; g++) {
        const int64_t *gi = img + (size_t)g * v;
        int32_t *ig = s->inv + (size_t)g * v;
        uint64_t *row = s->below + (size_t)g * (v + 1) * words;
        for (int x = 0; x < v; x++)
            ig[gi[x]] = x;
        /* row j + 1 is row j plus g^-1(j) */
        for (int j = 0; j < v - 1; j++) {
            for (int w = 0; w < words; w++)
                row[(j + 1) * words + w] = row[j * words + w];
            set(row + (j + 1) * words, ig[j]);
        }
        for (int x = 0; x < v; x++) {
            if (gi[x] < x)
                set(row + (size_t)v * words, x);
            if (gi[x] == x)
                set(s->SF + (size_t)g * words, x);  /* the root: SF = Fix(g) */
        }
        s->m[g] = v;
    }
    s->phase = ENTER;
    return s;
}

/* Lowest set point of a xor b (words each), or v if they are equal. */
static int lowest_diff(const uint64_t *a, const uint64_t *b, int words, int v) {
    for (int w = 0; w < words; w++)
        if (a[w] != b[w])
            return 64 * w + __builtin_ctzll(a[w] ^ b[w]);
    return v;
}

/* The survivors of the node at depth d, into keep[d]. */
static void expand(State *s, int d) {
    int v = s->v, words = s->words, n_el = s->n_el;
    size_t per = (size_t)n_el * words;
    const uint64_t *S = s->S + (size_t)d * words;
    const uint64_t *SG = s->SG + d * per, *SF = s->SF + d * per;
    const int32_t *m = s->m + (size_t)d * n_el, *inter = s->inter + (size_t)d * n_el;
    uint64_t *keep = s->keep + (size_t)d * words;
    /* candidates last < p <= v - (size - d), room left for the rest of S */
    int lo = d ? s->point[d - 1] + 1 : 0, hi = v - s->size + d;
    for (int w = 0; w < words; w++)
        keep[w] = 0;
    for (int p = lo; p <= hi; p++)
        set(keep, p);
    /* P1: g makes S + p smaller iff g(p) < m_g, except at g(p) = m_g */
    for (int g = 0; g < n_el; g++) {
        const uint64_t *row = s->below + ((size_t)g * (v + 1) + m[g]) * words;
        for (int w = 0; w < words; w++)
            keep[w] &= ~row[w];
    }
    /* there, with m_g in S and not in S^g, (S + p)^g xor (S + p) is
     * SG xor S xor {m_g, p}, and the image is smaller iff its lowest
     * point is in SG */
    for (int g = 0; g < n_el; g++) {
        if (m[g] == v)
            continue;
        int pe = s->inv[(size_t)g * v + m[g]];
        if (!has(keep, pe))
            continue;
        const uint64_t *sg = SG + (size_t)g * words;
        for (int w = 0; w < words; w++) {
            uint64_t diff = sg[w] ^ S[w];
            if (w == m[g] >> 6)
                diff ^= (uint64_t)1 << (m[g] & 63);
            if (w == pe >> 6)
                diff ^= (uint64_t)1 << (pe & 63);
            if (diff) {
                if (diff & -diff & sg[w])
                    keep[pe >> 6] &= ~((uint64_t)1 << (pe & 63));
                break;
            }
        }
    }
    /* a leaf's count inter + c is at most inter + 2, so only elements with
     * inter >= size - 2 can fix it */
    if (d == s->size - 1) {
        s->n_near = 0;
        for (int g = 0; g < n_el; g++)
            if (inter[g] >= s->size - 2)
                s->near[s->n_near++] = g;
    }
    /* P2: |S' meet S'^g| = inter + c, c = [p in S^g] + [p in SF]: for p
     * outside S, g(p) in S and g(p) = p exclude each other */
    int top = 2 * (d + 1) - s->size - 1;  /* prunes t <= |S' meet S'^g| <= top */
    if (top < s->t)
        return;
    for (int g = 0; g < n_el; g++) {
        int c_lo = s->t - inter[g], c_hi = top - inter[g];
        if (c_lo < 0)
            c_lo = 0;
        if (c_hi > 2)
            c_hi = 2;
        if (c_lo > c_hi)
            continue;
        const uint64_t *sg = SG + (size_t)g * words, *sf = SF + (size_t)g * words;
        for (int w = 0; w < words; w++) {
            /* the bits p with c = 0, 1, 2 */
            uint64_t count[3] = {~(sg[w] | sf[w]), sg[w] ^ sf[w], sg[w] & sf[w]}, hit = 0;
            for (int c = c_lo; c <= c_hi; c++)
                hit |= count[c];
            keep[w] &= ~hit;
        }
    }
}

/* The orbit size of the leaf S + p of the node at depth d: |G| over the
 * elements with |(S + p) meet (S + p)^g| = size. */
static int64_t orbit_size(const State *s, int d, int p) {
    size_t per = (size_t)s->n_el * s->words;
    const uint64_t *SG = s->SG + d * per, *SF = s->SF + d * per;
    const int32_t *inter = s->inter + (size_t)d * s->n_el;
    int64_t stab = 0;
    for (int i = 0; i < s->n_near; i++) {
        int g = s->near[i];
        size_t at = (size_t)g * s->words;
        stab += (inter[g] + has(SG + at, p) + has(SF + at, p)) == s->size;
    }
    return s->n_el / stab;
}

/* The state of the child S + q of the node at depth d, at depth d + 1. */
static void descend(State *s, int d, int q) {
    int v = s->v, words = s->words, n_el = s->n_el;
    size_t per = (size_t)n_el * words;
    const uint64_t *S = s->S + (size_t)d * words;
    uint64_t *cS = s->S + (size_t)(d + 1) * words;
    for (int w = 0; w < words; w++)
        cS[w] = S[w];
    set(cS, q);
    s->point[d] = q;
    for (int g = 0; g < n_el; g++) {
        size_t at = (size_t)g * words;
        const uint64_t *sg = s->SG + d * per + at, *sf = s->SF + d * per + at;
        uint64_t *csg = s->SG + (d + 1) * per + at, *csf = s->SF + (d + 1) * per + at;
        int gq = (int)s->img[(size_t)g * v + q], m = s->m[(size_t)d * n_el + g];
        for (int w = 0; w < words; w++) {
            csg[w] = sg[w];
            csf[w] = sf[w];
        }
        set(csg, gq);
        set(csf, s->inv[(size_t)g * v + q]);
        /* q is outside S and g(q) outside S^g, so S + q meets its image
         * in S meet S^g, plus q if q in S^g, g(q) if g(q) in S, and q if
         * g(q) = q */
        s->inter[(size_t)(d + 1) * n_el + g] =
            s->inter[(size_t)d * n_el + g] + has(sg, q) + has(S, gq) + (gq == q);
        /* m_g stays unless g fixed S (then S + q and its image differ
         * first at q, as P1 kept only g(q) > q) or g(q) = m_g (then look
         * it up) */
        if (m == gq)
            m = lowest_diff(csg, cS, words, v);
        else if (m == v && gq != q)
            m = q;
        s->m[(size_t)(d + 1) * n_el + g] = m;
    }
}

static int publish(State *s, int64_t filled, int status) {
    s->info[0] = s->nodes;
    s->info[1] = s->second;
    s->info[2] = filled;
    return status;
}

/* Continue the search, writing up to cap representatives (size 1-based
 * points each) and their orbit sizes from row 0 of reps and sizes. */
int kms_orbits_run(State *s, int32_t *reps, int64_t *sizes, int64_t cap) {
    int64_t filled = 0;
    for (;;) {
        int d = s->depth;
        switch (s->phase) {
        case ENTER:
            s->nodes++;
            s->phase = EXPAND;
            if (s->nodes % TICK_NODES == 0)
                return publish(s, filled, KMS_TICK);
            break;
        case EXPAND:
            expand(s, d);
            s->phase = NEXT;
            break;
        case NEXT: {
            uint64_t *keep = s->keep + (size_t)d * s->words;
            int w = 0;
            while (w < s->words && !keep[w])
                w++;
            if (w == s->words) {
                if (d == 0) {
                    s->phase = FINISHED;
                    return publish(s, filled, KMS_DONE);
                }
                s->depth = d - 1;
                break;
            }
            if (d + 1 == s->size && filled == cap)
                return publish(s, filled, KMS_FULL);
            int p = 64 * w + __builtin_ctzll(keep[w]);
            keep[w] &= keep[w] - 1;
            if (d == 1)
                s->second = p + 1;
            if (d + 1 == s->size) {
                int32_t *row = reps + filled * s->size;
                for (int i = 0; i < d; i++)
                    row[i] = s->point[i] + 1;
                row[d] = p + 1;
                sizes[filled++] = orbit_size(s, d, p);
                break;
            }
            descend(s, d, p);
            s->depth = d + 1;
            s->phase = ENTER;
            break;
        }
        default:
            return publish(s, filled, KMS_DONE);
        }
    }
}
