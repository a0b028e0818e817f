/* The search of xcc.solve: exact cover with colored secondary items.
 *
 * A node is counted when it is entered.  At a node with every primary
 * item covered the path is a solution.  Otherwise the node branches on the
 * uncovered primary item with the fewest live options, lowest item id on
 * ties, and tries the live options that cover it in ascending option id;
 * a node whose branching item has no live option is a dead end.  Choosing
 * an option keeps, for the child, the live options that share no primary
 * item with it and give none of its secondary items another color.
 *
 * The live options of every depth lie in one contiguous stack, the
 * child's segment right after its parent's; an entry is words + 1 uint64:
 * the option id, then the option's primary items as a bitmask.  Filtering
 * a child also counts its live options per primary item.  Options with
 * another color on a secondary item of the chosen option are found
 * through a per-item index sorted by color and marked with a stamp.
 *
 * The search is resumable: kms_xcc_run returns after each solution, after
 * every 256th node (before the node is looked at), at the node that
 * passes the node cap, and at the end, and carries on where it stopped
 * when called again.  Before it returns it writes info[0..3]: the nodes so
 * far, the current depth, the root branch (1-based) and the number of
 * root branches; chosen[0..depth-1] holds the options of the path.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { KMS_DONE = 0, KMS_SOLUTION = 1, KMS_TICK = 2, KMS_CAP = 3, KMS_NOMEM = -1 };
enum { ENTER, PROCESS, NEXT, BACKTRACK, FINISHED };

typedef struct {
    int64_t color;
    int64_t option;
} SecEntry;

typedef struct {
    int n_prim, words, width;  /* width = words + 1 uint64 per stack entry */
    const int64_t *sec_ptr;    /* the problem's secondary CSR arrays */
    const int32_t *sec_items;
    const int64_t *sec_colors;
    int64_t *by_ptr;           /* secondary item -> its range of by_item */
    SecEntry *by_item;         /* options of each item, by (color, option) */
    uint32_t *killed, stamp;   /* killed[o] == stamp: o clashes in color */
    uint64_t *stack;
    size_t cap;                /* stack capacity in entries */
    size_t *seg_start, *seg_len, *cursor;  /* per depth */
    int32_t *best;             /* per depth: the branching item */
    int32_t *counts;           /* live options per item at the entered node */
    uint64_t *covered, *omask;
    int uncovered, depth, phase;
    int64_t nodes, node_cap, root_branch, n_root_branches;
    int64_t *info;
    int32_t *chosen;
} State;

static int by_color(const void *a, const void *b) {
    const SecEntry *x = a, *y = b;
    if (x->color != y->color)
        return x->color < y->color ? -1 : 1;
    return x->option < y->option ? -1 : x->option > y->option;
}

static void count_bits(State *s, const uint64_t *mask) {
    for (int w = 0; w < s->words; w++)
        for (uint64_t bits = mask[w]; bits; bits &= bits - 1)
            s->counts[64 * w + __builtin_ctzll(bits)]++;
}

void kms_xcc_free(State *s) {
    if (!s)
        return;
    free(s->by_ptr);
    free(s->by_item);
    free(s->killed);
    free(s->stack);
    free(s->seg_start);
    free(s->seg_len);
    free(s->cursor);
    free(s->best);
    free(s->counts);
    free(s->covered);
    free(s->omask);
    free(s);
}

/* A search at the root of the problem, or NULL if memory runs out.
 * node_cap < 0 means no cap.  The problem arrays, info (4 entries) and
 * chosen (n_prim + 1 entries) must outlive the state. */
State *kms_xcc_new(int n_prim, int n_sec, int64_t n_opt, const int64_t *prim_ptr,
                   const int32_t *prim_items, const int64_t *sec_ptr,
                   const int32_t *sec_items, const int64_t *sec_colors, int64_t node_cap,
                   int64_t *info, int32_t *chosen) {
    State *s = calloc(1, sizeof(State));
    if (!s)
        return NULL;
    s->n_prim = n_prim;
    s->words = n_prim > 64 ? (n_prim + 63) / 64 : 1;
    s->width = s->words + 1;
    s->sec_ptr = sec_ptr;
    s->sec_items = sec_items;
    s->sec_colors = sec_colors;
    s->node_cap = node_cap;
    s->info = info;
    s->chosen = chosen;
    s->cap = 2 * (size_t)n_opt + 16;
    s->by_ptr = calloc((size_t)n_sec + 1, sizeof(int64_t));
    s->by_item = malloc(((size_t)sec_ptr[n_opt] + 1) * sizeof(SecEntry));
    s->killed = calloc((size_t)n_opt + 1, sizeof(uint32_t));
    s->stack = malloc(s->cap * s->width * sizeof(uint64_t));
    s->seg_start = calloc((size_t)n_prim + 2, sizeof(size_t));
    s->seg_len = calloc((size_t)n_prim + 2, sizeof(size_t));
    s->cursor = calloc((size_t)n_prim + 2, sizeof(size_t));
    s->best = calloc((size_t)n_prim + 2, sizeof(int32_t));
    s->counts = calloc((size_t)n_prim + 1, sizeof(int32_t));
    s->covered = calloc(s->words, sizeof(uint64_t));
    s->omask = calloc(s->words, sizeof(uint64_t));
    if (!s->by_ptr || !s->by_item || !s->killed || !s->stack || !s->seg_start || !s->seg_len
        || !s->cursor || !s->best || !s->counts || !s->covered || !s->omask) {
        kms_xcc_free(s);
        return NULL;
    }
    /* secondary item -> (color, option), by counting sort, then by color */
    for (int64_t j = 0; j < sec_ptr[n_opt]; j++)
        s->by_ptr[sec_items[j] + 1]++;
    for (int i = 0; i < n_sec; i++)
        s->by_ptr[i + 1] += s->by_ptr[i];
    for (int64_t o = 0; o < n_opt; o++)
        for (int64_t j = sec_ptr[o]; j < sec_ptr[o + 1]; j++) {
            SecEntry *e = &s->by_item[s->by_ptr[sec_items[j]]++];
            e->color = sec_colors[j];
            e->option = o;
        }
    memmove(s->by_ptr + 1, s->by_ptr, n_sec * sizeof(int64_t));
    s->by_ptr[0] = 0;
    for (int i = 0; i < n_sec; i++)
        qsort(s->by_item + s->by_ptr[i], s->by_ptr[i + 1] - s->by_ptr[i], sizeof(SecEntry),
              by_color);
    /* the root segment: every option, in ascending id */
    memset(s->stack, 0, (size_t)n_opt * s->width * sizeof(uint64_t));
    for (int64_t o = 0; o < n_opt; o++) {
        uint64_t *e = s->stack + o * s->width;
        e[0] = (uint64_t)o;
        for (int64_t j = prim_ptr[o]; j < prim_ptr[o + 1]; j++)
            e[1 + (prim_items[j] >> 6)] |= (uint64_t)1 << (prim_items[j] & 63);
        count_bits(s, e + 1);
    }
    s->seg_len[0] = (size_t)n_opt;
    s->uncovered = n_prim;
    s->phase = ENTER;
    return s;
}

/* Mark the options that give a secondary item of option o another color;
 * returns whether any was marked. */
static int mark_clashes(State *s, int64_t o) {
    if (s->sec_ptr[o] == s->sec_ptr[o + 1])
        return 0;
    if (++s->stamp == 0) {
        memset(s->killed, 0, (s->seg_len[0] + 1) * sizeof(uint32_t));
        s->stamp = 1;
    }
    int any = 0;
    for (int64_t j = s->sec_ptr[o]; j < s->sec_ptr[o + 1]; j++) {
        /* the item's options by color: mark all but the run of color c */
        int64_t c = s->sec_colors[j], lo = s->by_ptr[s->sec_items[j]];
        int64_t hi = s->by_ptr[s->sec_items[j] + 1], a = lo;
        for (; a < hi && s->by_item[a].color < c; a++)
            s->killed[s->by_item[a].option] = s->stamp;
        int64_t l = a, r = hi;  /* skip the run of color c by bisection */
        while (l < r) {
            int64_t m = l + (r - l) / 2;
            if (s->by_item[m].color <= c)
                l = m + 1;
            else
                r = m;
        }
        any |= a > lo || l < hi;
        for (; l < hi; l++)
            s->killed[s->by_item[l].option] = s->stamp;
    }
    return any;
}

/* Copy the n entries at src that pass the primary and color tests to
 * dst, counting their items; returns how many passed.  Inlined with a
 * constant words when the masks are one word. */
static inline __attribute__((always_inline)) size_t
keep_compatible(const uint64_t *restrict src, size_t n, uint64_t *restrict dst, int words,
                const uint64_t *om, const uint32_t *killed, uint32_t stamp,
                int32_t *restrict counts) {
    size_t kept = 0;
    for (size_t i = 0; i < n; i++, src += words + 1) {
        uint64_t clash = 0;
        for (int w = 0; w < words; w++)
            clash |= src[1 + w] & om[w];
        if (clash || (killed && killed[src[0]] == stamp))
            continue;
        for (int w = 0; w <= words; w++)
            dst[w] = src[w];
        for (int w = 0; w < words; w++)
            for (uint64_t bits = src[1 + w]; bits; bits &= bits - 1)
                counts[64 * w + __builtin_ctzll(bits)]++;
        dst += words + 1;
        kept++;
    }
    return kept;
}

/* Fill the child segment of depth d + 1 after choosing option o, whose
 * mask is s->omask; returns 0, or -1 if memory runs out. */
static int filter(State *s, int d, int64_t o) {
    size_t start = s->seg_start[d], n = s->seg_len[d], width = s->width;
    if (start + 2 * n > s->cap) {
        size_t cap = 2 * (start + 2 * n);
        uint64_t *grown = realloc(s->stack, cap * width * sizeof(uint64_t));
        if (!grown)
            return -1;
        s->stack = grown;
        s->cap = cap;
    }
    const uint32_t *killed = mark_clashes(s, o) ? s->killed : NULL;
    const uint64_t *src = s->stack + start * width;
    uint64_t *dst = s->stack + (start + n) * width;
    memset(s->counts, 0, s->n_prim * sizeof(int32_t));
    s->seg_start[d + 1] = start + n;
    s->seg_len[d + 1] =
        s->words == 1
            ? keep_compatible(src, n, dst, 1, s->omask, killed, s->stamp, s->counts)
            : keep_compatible(src, n, dst, s->words, s->omask, killed, s->stamp, s->counts);
    return 0;
}

static int publish(State *s, int status) {
    s->info[0] = s->nodes;
    s->info[1] = s->depth;
    s->info[2] = s->root_branch;
    s->info[3] = s->n_root_branches;
    return status;
}

int kms_xcc_run(State *s) {
    for (;;) {
        int d = s->depth;
        switch (s->phase) {
        case ENTER:
            s->nodes++;
            if (s->node_cap >= 0 && s->nodes > s->node_cap) {
                s->phase = FINISHED;
                return publish(s, KMS_CAP);
            }
            s->phase = PROCESS;
            if (s->nodes % 256 == 0)
                return publish(s, KMS_TICK);
            break;
        case PROCESS: {
            if (s->uncovered == 0) {
                s->phase = BACKTRACK;
                return publish(s, KMS_SOLUTION);
            }
            int best = -1;
            for (int i = 0; i < s->n_prim; i++)
                if (!(s->covered[i >> 6] >> (i & 63) & 1)
                    && (best < 0 || s->counts[i] < s->counts[best]))
                    best = i;
            if (s->counts[best] == 0) {
                s->phase = BACKTRACK;
                break;
            }
            s->best[d] = best;
            s->cursor[d] = 0;
            if (d == 0)
                s->n_root_branches = s->counts[best];
            s->phase = NEXT;
            break;
        }
        case NEXT: {
            int best = s->best[d], width = s->width;
            size_t i = s->cursor[d], n = s->seg_len[d];
            const uint64_t *e = s->stack + (s->seg_start[d] + i) * width;
            for (; i < n && !(e[1 + (best >> 6)] >> (best & 63) & 1); i++, e += width)
                ;
            if (i == n) {
                s->phase = BACKTRACK;
                break;
            }
            s->cursor[d] = i + 1;
            int64_t o = (int64_t)e[0];
            memcpy(s->omask, e + 1, s->words * sizeof(uint64_t));
            if (filter(s, d, o))
                return KMS_NOMEM;
            s->chosen[d] = (int32_t)o;
            if (d == 0)
                s->root_branch++;
            for (int w = 0; w < s->words; w++) {
                s->covered[w] |= s->omask[w];
                s->uncovered -= __builtin_popcountll(s->omask[w]);
            }
            s->depth = d + 1;
            s->phase = ENTER;
            break;
        }
        case BACKTRACK: {
            if (d == 0) {
                s->phase = FINISHED;
                return publish(s, KMS_DONE);
            }
            d = --s->depth;
            const uint64_t *e = s->stack + (s->seg_start[d] + s->cursor[d] - 1) * s->width;
            for (int w = 0; w < s->words; w++) {
                s->covered[w] ^= e[1 + w];
                s->uncovered += __builtin_popcountll(e[1 + w]);
            }
            s->phase = NEXT;
            break;
        }
        default:
            return publish(s, KMS_DONE);
        }
    }
}
