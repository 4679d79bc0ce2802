/* Compiled sweep kernel; semantics twin of bfforms/_kernels_py.py, loaded
 * by bfforms/_kernels_c.py through ctypes.
 *
 * Truth tables are uint64 masks of n <= 6 variables, bit x = value on row
 * x.  For each function the kernel gives the nine cost counts of
 * _kernels_py.analyze_batch:
 *
 *   - the minimal SOP (terms, conjunctions, literals): the implicants among
 *     the 3**n ternary cubes and the prime ones among those; then the
 *     cyclic core, reached by taking essential primes (the rows covered
 *     exactly once, from two bit planes) and dropping dominated primes
 *     until neither changes anything (McCluskey's prime-implicant tables,
 *     1956); then branch-and-bound on (terms, literals) over the core with
 *     a transposition table of the uncovered row sets already reached;
 *   - per criterion, the minima over all polarities of the Reed-Muller and
 *     arithmetic forms, from one pass of the extended transform of Davio,
 *     Deschamps and Thayse (Discrete and Switching Functions, 1978) and an
 *     n-pass fold of its entries into per-polarity counts.
 *
 * Cube and extended-vector indices share one base-3 layout: digit p of the
 * index is 0, 1 or 2 for variable p.  For a cube that is absent, negative
 * literal, positive literal; for an extended-vector entry it is the x_p=0
 * cofactor, the x_p=1 cofactor, or their difference.  Every per-variable
 * step below is the same loop over index triples (i, i + 3**p, i + 2*3**p)
 * that differ in digit p only.
 *
 * Each entry point returns a status: 0 done, 1 an SOP cover search overran
 * its wall-clock guard, 2 the search state could not be allocated, -1 n
 * outside 1..6 or an index with a bit past row 2**n - 1.  The tables are
 * sized for n <= 6.  The cover search's state, 256 KB of it the
 * transposition table, is allocated once per bf_analyze call.  The rest
 * lives on the stack: with gcc -O2, 15 KB in bf_analyze's frame, then 6 KB
 * for the polarity pass or 64 bytes per cover-search level (at most 64
 * levels), so about 21 KB, and a thread with a small stack can run the
 * kernel.  Concurrent calls share nothing.
 */
#define _POSIX_C_SOURCE 199309L /* clock_gettime */
#include <limits.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define MAXN 6
#define MAXCUBES 729 /* 3**MAXN */
#define MAXROWS 64

enum { DONE = 0, GUARD = 1, NO_MEMORY = 2, BAD_INPUT = -1 };

/* Rows with x_p = 0, per variable p. */
static const uint64_t PAT0[MAXN] = {
    0x5555555555555555u, 0x3333333333333333u, 0x0F0F0F0F0F0F0F0Fu,
    0x00FF00FF00FF00FFu, 0x0000FFFF0000FFFFu, 0x00000000FFFFFFFFu,
};

struct lattice {
    int n, size;                /* size = 3**n */
    uint64_t full;              /* all 2**n rows */
    uint64_t cov[MAXCUBES];     /* rows covered by each cube */
    uint8_t lits[MAXCUBES];     /* literals of each cube */
    int row_at[MAXROWS];        /* index whose digits are the bits of row x */
};

static int lattice_init(struct lattice *lat, int n)
{
    if (n < 1 || n > MAXN)
        return BAD_INPUT;
    lat->n = n;
    lat->full = n == MAXN ? UINT64_MAX : ((uint64_t)1 << (1 << n)) - 1;
    lat->cov[0] = lat->full;
    lat->lits[0] = 0;
    lat->row_at[0] = 0;
    /* Each variable triples the cubes built so far: absent, negative,
     * positive. */
    for (int p = 0, s = 1; p < n; p++, s *= 3) {
        for (int j = 0; j < s; j++) {
            lat->cov[s + j] = lat->cov[j] & PAT0[p];
            lat->cov[2 * s + j] = lat->cov[j] & ~PAT0[p];
            lat->lits[s + j] = lat->lits[2 * s + j] = lat->lits[j] + 1;
        }
        for (int x = 0; x < 1 << p; x++)
            lat->row_at[(1 << p) + x] = lat->row_at[x] + s;
        lat->size = 3 * s;
    }
    return DONE;
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* A cover costs terms * TERM + literals.  Literals stay below TERM (at most
 * 6 per term, 64 terms), so costs order as (terms, literals) pairs do. */
#define TERM 1024

/* Transposition-table slots; a power of two.  A slot keeps the last
 * uncovered set hashed to it, so a collision only prunes less. */
#define SEEN_BITS 14

struct search {
    const uint64_t *cov;        /* candidates' core rows */
    const uint8_t *lits;
    int ncand;
    uint64_t order[MAXROWS];    /* core rows by (covering candidates, row) */
    int best;
    unsigned nodes;
    double deadline;
    struct { uint64_t rows; int cost; } seen[1 << SEEN_BITS];
};

static int cover_search(struct search *st, uint64_t uncov, int cost)
{
    /* Every 1,024 nodes: well under a millisecond of work between checks.
     * The transposition table comes into use at the first check, so the
     * many searches that end before it never pay for clearing it. */
    if (++st->nodes % 1024 == 0) {
        if (now() > st->deadline)
            return GUARD;
        if (st->nodes == 1024)
            memset(st->seen, 0, sizeof st->seen);
    }
    if (!uncov) {
        if (cost < st->best)
            st->best = cost;
        return DONE;
    }
    /* Any completion costs at least one more term and one more literal. */
    if (cost + TERM + 1 >= st->best)
        return DONE;
    /* Reaching an uncovered set again at no lower cost adds nothing, since
     * every completion adds the same cost to both. */
    if (st->nodes >= 1024) {
        size_t h = (size_t)((uncov * 0x9E3779B97F4A7C15u) >> (64 - SEEN_BITS));
        if (st->seen[h].rows == uncov && st->seen[h].cost <= cost)
            return DONE;
        st->seen[h].rows = uncov;
        st->seen[h].cost = cost;
    }
    /* Branch on the uncovered row with the fewest covering candidates. */
    const uint64_t *pick = st->order;
    while (!(uncov & *pick))
        pick++;
    for (int i = 0; i < st->ncand; i++)
        if (st->cov[i] & *pick) {
            int status = cover_search(st, uncov & ~st->cov[i], cost + TERM + st->lits[i]);
            if (status != DONE)
                return status;
        }
    return DONE;
}

/* Cost of the exact minimum cover of the on rows by the np primes (rows,
 * literals) in lattice order; BAD_INPUT when some on row has no prime,
 * which the primes of the on rows never leave.  The arrays are rewritten,
 * and st holds the search's state. */
static int min_cover(struct search *st, uint64_t *cov, uint8_t *lits, int np, uint64_t on,
                     double deadline, int *best)
{
    /* Cyclic core: two exact steps repeat until the candidates stop
     * changing.  Essentials: a candidate that alone covers some uncovered
     * row is in every cover drawn from the candidates, so it is taken.
     * Dominance: a candidate is dropped when another covers a superset of
     * its uncovered rows with no more literals (of two identical ones the
     * later goes); swapping it for its dominator keeps the term count and
     * adds no literals.  Taking essentials leaves the other rows' covering
     * counts unchanged, so a round without drops is the fixed point. */
    uint64_t uncov = on;
    int cost = 0, nc = np, dropped;
    do {
        uint64_t once = 0, twice = 0;
        for (int i = 0; i < nc; i++) {
            twice |= once & cov[i];
            once |= cov[i];
        }
        uint64_t sole = once & ~twice & uncov;
        for (int i = 0; i < nc; i++)
            if (cov[i] & sole) {
                cost += TERM + lits[i];
                uncov &= ~cov[i];
            }
        int k = 0;
        for (int i = 0; i < nc; i++)
            if (cov[i] & uncov) {
                cov[k] = cov[i] & uncov;
                lits[k++] = lits[i];
            }
        nc = k;
        uint8_t drop[MAXCUBES];
        for (int i = 0; i < nc; i++) {
            drop[i] = 0;
            for (int j = 0; j < nc && !drop[i]; j++)
                drop[i] = lits[j] <= lits[i] && (cov[i] & ~cov[j]) == 0
                          && (j < i || cov[j] != cov[i] || lits[j] < lits[i]);
        }
        k = 0;
        for (int i = 0; i < nc; i++)
            if (!drop[i]) {
                cov[k] = cov[i];
                lits[k++] = lits[i];
            }
        dropped = k < nc;
        nc = k;
    } while (dropped);
    *best = cost;
    if (!uncov)
        return DONE;

    st->cov = cov;
    st->lits = lits;
    st->ncand = nc;
    /* The search starts unbounded: its first leaf sets the bound. */
    st->best = INT_MAX;
    st->nodes = 0;
    st->deadline = deadline;

    /* Candidates are fixed for the search, so each core row's count of
     * them is too: sort the rows once by (count, row). */
    int count[MAXROWS], nrows = 0;
    for (uint64_t m = uncov; m; m &= m - 1) {
        uint64_t row = m & -m;
        int c = 0;
        for (int i = 0; i < nc; i++)
            c += (cov[i] & row) != 0;
        if (!c)
            return BAD_INPUT; /* an on row outside every prime */
        int k = nrows++;
        for (; k > 0 && count[k - 1] > c; k--) {
            st->order[k] = st->order[k - 1];
            count[k] = count[k - 1];
        }
        st->order[k] = row;
        count[k] = c;
    }

    int status = cover_search(st, uncov, cost);
    *best = st->best;
    return status;
}

/* (terms, literals) of the exact minimum SOP cover of the on rows. */
static int min_sop(const struct lattice *lat, struct search *st, uint64_t on, double guard_s,
                   int *terms, int *lits)
{
    if (guard_s <= 0 && on != 0 && on != lat->full)
        return GUARD;
    double deadline = now() + guard_s;

    /* Bit 0: implicant (covers no off row).  Bit 1: some parent, the cube
     * with one literal fewer, is an implicant too, so the cube is not
     * prime. */
    uint8_t flag[MAXCUBES];
    int size = lat->size;
    for (int c = 0; c < size; c++)
        flag[c] = !(lat->cov[c] & ~on);
    for (int s = 1; s < size; s *= 3)
        for (int base = 0; base < size; base += 3 * s)
            for (int j = base; j < base + s; j++)
                if (flag[j] & 1) {
                    flag[j + s] |= 2;
                    flag[j + 2 * s] |= 2;
                }
    uint64_t pcov[MAXCUBES];
    uint8_t plits[MAXCUBES];
    int np = 0;
    for (int c = 0; c < size; c++)
        if (flag[c] == 1) {
            pcov[np] = lat->cov[c];
            plits[np++] = lat->lits[c];
        }

    int cost, status = min_cover(st, pcov, plits, np, on, deadline, &cost);
    *terms = cost / TERM;
    *lits = cost % TERM;
    return status;
}

/* rm_ad, rm_sh, rm_l, af_ad, af_sh, af_l: per-criterion minima over all
 * polarities of the Reed-Muller and then the arithmetic form. */
static void polarity_minima(const struct lattice *lat, uint64_t f, int32_t *out)
{
    int size = lat->size, rows = 1 << lat->n;
    int32_t e[MAXCUBES];
    for (int i = 0; i < size; i++)
        e[i] = 0;
    for (int x = 0; x < rows; x++)
        e[lat->row_at[x]] = f >> x & 1;
    /* Entries whose digits above p are all 0 or 1 are final after pass p;
     * the others are overwritten by a later pass. */
    for (int s = 1; s < size; s *= 3)
        for (int base = 0; base < size; base += 3 * s)
            for (int j = base; j < base + s; j++)
                e[j + 2 * s] = e[j + s] - e[j];

    /* Four byte fields per entry, low to high: Reed-Muller nonzero count
     * (the parity), its literals, arithmetic nonzero count, its literals.
     * Counts reach 2**n = 64 and literal sums n * 2**(n-1) = 192 at n = 6,
     * so no field overflows. */
    uint32_t v[MAXCUBES];
    for (int i = 0; i < size; i++)
        v[i] = ((uint32_t)e[i] & 1) | (uint32_t)(e[i] != 0) << 16;
    /* Fold digit p: digits 0 and 1 become polarity bit p, and digit 2 (x_p
     * in the monomial) joins both, each of its monomials one literal
     * longer.  Entries with a digit 2 below p are no longer read. */
    for (int s = 1; s < size; s *= 3)
        for (int base = 0; base < size; base += 3 * s)
            for (int j = base; j < base + s; j++) {
                uint32_t d2 = v[j + 2 * s];
                d2 += (d2 & 0x00FF00FFu) << 8;
                v[j] += d2;
                v[j + s] += d2;
            }

    /* Under polarity k the constant coefficient is f(k) in both forms. */
    int best[6] = {255, 255, 255, 255, 255, 255};
    for (int k = 0; k < rows; k++) {
        uint32_t t = v[lat->row_at[k]];
        int c = f >> k & 1;
        int got[6] = {t & 0xFF, (t & 0xFF) - c, t >> 8 & 0xFF,
                      t >> 16 & 0xFF, (t >> 16 & 0xFF) - c, t >> 24};
        for (int i = 0; i < 6; i++)
            if (got[i] < best[i])
                best[i] = got[i];
    }
    for (int i = 0; i < 6; i++)
        out[i] = best[i];
}

/* The nine counts of each index, in _kernels_py.analyze_batch order, to
 * out[9 * i]..out[9 * i + 8].  Each SOP cover search has guard_s seconds. */
int bf_analyze(int n, const uint64_t *index, size_t count, int32_t *out, double guard_s)
{
    struct lattice lat;
    if (lattice_init(&lat, n) != DONE)
        return BAD_INPUT;
    struct search *st = malloc(sizeof *st);
    if (!st)
        return NO_MEMORY;
    int status = DONE;
    for (size_t i = 0; i < count; i++, out += 9) {
        uint64_t f = index[i];
        int terms, lits;
        if (f & ~lat.full) {
            status = BAD_INPUT;
            break;
        }
        status = min_sop(&lat, st, f, guard_s, &terms, &lits);
        if (status != DONE)
            break;
        out[0] = terms;
        out[1] = f == lat.full ? terms - 1 : terms;
        out[2] = lits;
        polarity_minima(&lat, f, out + 3);
    }
    free(st);
    return status;
}

/* The six polarity minima of each index to out[6 * i]..out[6 * i + 5]. */
int bf_polarity_minima(int n, const uint64_t *index, size_t count, int32_t *out)
{
    struct lattice lat;
    if (lattice_init(&lat, n) != DONE)
        return BAD_INPUT;
    for (size_t i = 0; i < count; i++, out += 6) {
        if (index[i] & ~lat.full)
            return BAD_INPUT;
        polarity_minima(&lat, index[i], out);
    }
    return DONE;
}
