/* Native simulation engine: exact scalar-semantics simulation in C.
 *
 * Compiled on demand by repro.sim.native (cc -O2 -shared -fPIC) and
 * loaded through ctypes.  It is a transliteration of the Python hot
 * path -- Process.step + MemoryHierarchy.access +
 * StreamPrefetcher.observe_miss + PageAllocator.frame_for -- over
 * state arrays marshalled from the Python objects, so every counter,
 * cache-state ordering, RNG draw and float64 rounding step matches the
 * scalar driver bit for bit (the differential suite enforces this).
 * It holds only state some output reads: the L1D/L2/L3 sets, each
 * process's page table (its only vpage -> frame map, a stale page held
 * as ~frame), the prefetcher streams and RNGs, the core counters and
 * clocks, and the trace channel's log, counters and drop model.  No
 * cache keeps statistics and the PMU keeps no SDAR or PMC.  Only the
 * data stream is simulated.
 * Two standalone kernel families share the library: the workload
 * generators' MT19937 fills and the exact stack-distance pass of
 * repro.core.fastpath.
 *
 * Invariants the wrapper relies on:
 *  - C never allocates and never calls back.  Every buffer is a numpy
 *    array owned by Python, presized before the call (the PMU channel
 *    appends to the trace log's own buffer).  When a step *would*
 *    overflow a page table, the engine stops cleanly BEFORE mutating
 *    anything and reports a stop_reason; the wrapper grows the table in
 *    place and resumes -- state is identical either way.
 *  - All integers are int64; floats are IEEE double, and float
 *    expressions copy the Python parenthesization exactly
 *    (cycles += base + penalty; migration debt is its own +=).
 *    Divisions of virtual addresses floor like Python's // (negative
 *    addresses included), and vpage-keyed maps store zigzag keys.
 *  - The prefetcher RNG is CPython's MT19937 (random.Random): state
 *    words travel in, genrand_res53 draws happen here, and the
 *    advanced state travels back so later scalar draws continue
 *    seamlessly.  The PMU channel's drop RNG travels the same way.
 *  - The PMU trace channel (TraceCollector / IdealTraceCollector) runs
 *    here too: every access of an observed process is applied to it at
 *    the end of its step, exactly as the scalar driver's observer call
 *    would, and the run stops (STOP_LOG_FULL) right after the access
 *    that fills the log -- where the scalar loop's "collector done"
 *    predicate fires.  Each exception the channel takes charges its
 *    exception_cost to the process clock, as the dynamic manager's
 *    scalar loop does.
 *  - A run ends right after the access that brings a process to its
 *    stop target (an absolute access count per process).  The caller
 *    picks the targets: a quota leg's end, or the next access at which
 *    the dynamic manager's Python hooks can change state, so those
 *    hooks run between runs for exactly the accesses they fire on.
 *
 * The per-access work avoids 64-bit division and data-dependent
 * branches where an exact equivalent exists:
 *  - Floor division by a power-of-two line size, lines per page or
 *    L3/L2 line ratio is an arithmetic shift (the wrapper passes log2,
 *    or -1 for any other divisor, which keeps the division).
 *  - Every set index (L1D, L2, L3) is Lemire's fastmod with the
 *    reciprocal the wrapper computes once per cache; it is exact below
 *    2**32, and larger lines keep %.
 *  - The prefetcher finds the matching stream and the oldest one in a
 *    single pass of conditional moves.
 *  - A prefetch installs into the L2 with one install-if-absent scan,
 *    and every way shift is an inline loop, never a memmove call.
 */

#include <stdint.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

typedef int64_t i64;
typedef uint8_t u8;
typedef uint32_t u32;

/* Stop reasons (NShared.stop_reason). */
#define STOP_NONE     0
#define STOP_REFILL   1   /* access buffer exhausted */
#define STOP_GROW_PT  2   /* page-table map near capacity */
#define STOP_LOG_FULL 3   /* PMU trace log filled by the last access */

/* ----------------------------------------------------------------- */
/* MT19937 (CPython random.Random core)                               */
/* ----------------------------------------------------------------- */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER_MASK 0x80000000U
#define MT_LOWER_MASK 0x7fffffffU

typedef struct {
    u32 *key;   /* 624 words */
    i64 pos;    /* CPython's mti */
} NMt;

/* Refill all 624 key words (the twist), once per 624 outputs. */
static void mt_twist(u32 *m)
{
    static const u32 mag01[2] = {0x0U, MT_MATRIX_A};
    u32 y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (m[kk] & MT_UPPER_MASK) | (m[kk + 1] & MT_LOWER_MASK);
        m[kk] = m[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    for (; kk < MT_N - 1; kk++) {
        y = (m[kk] & MT_UPPER_MASK) | (m[kk + 1] & MT_LOWER_MASK);
        m[kk] = m[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
    }
    y = (m[MT_N - 1] & MT_UPPER_MASK) | (m[0] & MT_LOWER_MASK);
    m[MT_N - 1] = m[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
}

static inline u32 mt_next32(NMt *mt)
{
    if (mt->pos >= MT_N) {
        mt_twist(mt->key);
        mt->pos = 0;
    }
    u32 y = mt->key[mt->pos++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static inline double mt_random(NMt *mt)
{
    u32 a = mt_next32(mt) >> 5;
    u32 b = mt_next32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Workload fill kernels.  Both advance a caller-owned MT state in place
 * (key words + *pos), so a stream keeps its RNG here between calls.
 *
 * repro_mt_fill: n consecutive random() draws. */
EXPORT void repro_mt_fill(u32 *key, i64 *pos, double *out, i64 n)
{
    NMt mt = {key, *pos};
    for (i64 i = 0; i < n; i++)
        out[i] = mt_random(&mt);
    *pos = mt.pos;
}

/* repro_mt_randbelow: n consecutive _randbelow(bound) draws for
 * 1 <= bound < 2**32.  CPython draws getrandbits(k), k = bound's bit
 * length, and rejects values >= bound; for k <= 32 getrandbits(k) is
 * the top k bits of one 32-bit output.  Every candidate is written and
 * only an accepted one advances the output index: the same words in the
 * same order as the rejection loop, without its unpredictable branch. */
EXPORT void repro_mt_randbelow(u32 *key, i64 *pos, i64 bound, i64 *out,
                               i64 n)
{
    NMt mt = {key, *pos};
    int shift = 32;
    while (shift > 0 && (bound >> (32 - shift)) != 0)
        shift--;
    i64 i = 0;
    while (i < n) {
        u32 r = mt_next32(&mt) >> shift;
        out[i] = r;
        i += (i64)r < bound;
    }
    *pos = mt.pos;
}

/* ----------------------------------------------------------------- */
/* Set-associative LRU cache over way arrays                          */
/*                                                                    */
/* Per set: ways[set*assoc .. set*assoc+occ-1] hold resident lines in  */
/* recency order, oldest first (== OrderedDict iteration order).       */
/* ----------------------------------------------------------------- */

typedef struct {
    i64 nsets;
    i64 assoc;
    i64 recip;       /* Lemire's M = UINT64_MAX / nsets + 1, mod 2**64 */
    i64 *ways;       /* nsets * assoc */
    i64 *occ;        /* nsets */
} NCache;

/* line % nsets.  A line below 2**32 takes Lemire's fastmod: the low
 * 64 bits of recip * line, times nsets, high half.  That is exact for
 * every 32-bit numerator and divisor, and nsets < 2**32 always (its way
 * array could not be allocated otherwise).  Larger lines -- frames past
 * 2**32 / lines_per_page -- and negative ones keep the division. */
static inline i64 cache_set(const NCache *c, i64 line)
{
    uint64_t u = (uint64_t)line;
    if (u >> 32)
        return line % c->nsets;
    uint64_t low = (uint64_t)c->recip * u;
    return (i64)(((__uint128_t)low * (uint64_t)c->nsets) >> 64);
}

/* Move w[lo+1..hi] down one way, put `top` at w[hi] and return the old
 * w[lo].  Carrying the moved value through a register keeps the
 * compiler from turning the loop into a memmove call, which costs more
 * than the few ways a set holds. */
static inline i64 ways_rotate(i64 *w, i64 lo, i64 hi, i64 top)
{
    for (i64 j = hi; j >= lo; j--) {
        i64 moved = w[j];
        w[j] = top;
        top = moved;
    }
    return top;
}

/* Install `line` as MRU in a set of n lines that lacks it, evicting the
 * oldest into *victim when the set is full. */
static void set_install(NCache *c, i64 set, i64 *w, i64 n, i64 line,
                        i64 *victim)
{
    if (n >= c->assoc) {
        *victim = ways_rotate(w, 0, n - 1, line);
        return;
    }
    w[n] = line;
    c->occ[set] = n + 1;
}

/* SetAssociativeCache.access(line): promote on a hit (returns 1), else
 * install as MRU (returns 0).  *victim = evicted line or -1.  Demand
 * accesses, store forwards and victim insertions all make this one
 * state change. */
static int cache_access(NCache *c, i64 line, i64 *victim)
{
    i64 set = cache_set(c, line);
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    *victim = -1;
    for (i64 i = 0; i < n; i++) {
        if (w[i] == line) {
            ways_rotate(w, i, n - 1, line);
            return 1;
        }
    }
    set_install(c, set, w, n, line, victim);
    return 0;
}

/* A prefetch install: a resident line is left where it is (no
 * promotion, returns 1), an absent one is installed as MRU (returns 0)
 * -- MemoryHierarchy.prefetch_fill's probe-then-access in one scan.
 * *victim = evicted line or -1. */
static int cache_install(NCache *c, i64 line, i64 *victim)
{
    i64 set = cache_set(c, line);
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    *victim = -1;
    for (i64 i = 0; i < n; i++)
        if (w[i] == line)
            return 1;
    set_install(c, set, w, n, line, victim);
    return 0;
}

/* invalidate(line): remove if present; returns whether it was. */
static int cache_invalidate(NCache *c, i64 line)
{
    i64 set = cache_set(c, line);
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    for (i64 i = 0; i < n; i++) {
        if (w[i] == line) {
            ways_rotate(w, i, n - 2, w[n - 1]);
            c->occ[set] = n - 1;
            return 1;
        }
    }
    return 0;
}

/* ----------------------------------------------------------------- */
/* Open-addressing hash map for int64 keys >= 0                       */
/*                                                                    */
/* Virtual page numbers may be negative, so the page table stores     */
/* zigzag(vpage), which is non-negative and never collides with the   */
/* HT_EMPTY sentinel.  Entries are never deleted.                     */
/* ----------------------------------------------------------------- */

#define HT_EMPTY (-1)

typedef struct {
    i64 cap;      /* power of two */
    i64 count;    /* live entries */
    i64 *keys;    /* cap, HT_EMPTY where free */
    i64 *vals;    /* cap */
} NMap;

static inline i64 zigzag(i64 v)
{
    return (i64)(((uint64_t)v << 1) ^ (uint64_t)(v >> 63));
}

/* Python's a // b for b > 0. */
static inline i64 floordiv(i64 a, i64 b)
{
    i64 q = a / b;
    return (a % b < 0) ? q - 1 : q;
}

/* a // b, where shift = log2(b) when b is a power of two and -1
 * otherwise.  An arithmetic right shift floors like // (gcc and clang
 * shift signed values arithmetically), so only other divisors divide. */
static inline i64 floordiv_by(i64 a, i64 b, i64 shift)
{
    return shift >= 0 ? a >> shift : floordiv(a, b);
}

static inline i64 ht_hash(i64 key, i64 cap)
{
    uint64_t h = (uint64_t)key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return (i64)(h & (uint64_t)(cap - 1));
}

/* True when inserting `extra` more entries could push the table past
 * its 0.7 load ceiling. */
static inline int map_needs_grow(const NMap *m, i64 extra)
{
    return (m->count + extra) * 10 > m->cap * 7;
}

/* The slot holding `key`, or the free slot where it would go. */
static i64 map_slot(const NMap *m, i64 key)
{
    i64 idx = ht_hash(key, m->cap);
    for (;;) {
        i64 k = m->keys[idx];
        if (k == key || k == HT_EMPTY)
            return idx;
        idx = (idx + 1) & (m->cap - 1);
    }
}

/* ----------------------------------------------------------------- */
/* Exact bounded LRU stack distances (the probe's calculation kernel) */
/*                                                                    */
/* One pass over the trace.  A Fenwick tree over time positions 1..n  */
/* marks each line's latest access, and an open-addressing map from   */
/* line to that position finds the previous access p.  Every marked   */
/* position after p is one distinct line touched since, so the stack  */
/* distance is their count plus one.                                  */
/* ----------------------------------------------------------------- */

/* repro_stack_distances: out[i] = the 1-based LRU stack distance of
 * trace[i], or -1 (COLD_MISS) for a first touch and for a distance
 * beyond max_depth.  Returns the index of the access that brings the
 * distinct lines seen to max_depth (the bounded stack is full after
 * it), or n when it never fills.  The scratch is the caller's: `map`
 * holds cap (line, position) pairs, cap a power of two above n, and
 * `tree` holds n + 1 counts.  Any int64 is a legal line, so the map
 * reserves no key: a slot is free while its position is -1. */
EXPORT i64 repro_stack_distances(const i64 *trace, i64 n, i64 max_depth,
                                 i64 *out, i64 *map, i64 cap, i64 *tree)
{
    i64 fill = n;
    i64 distinct = 0;
    for (i64 s = 0; s < cap; s++)
        map[2 * s + 1] = -1;
    memset(tree, 0, (size_t)(n + 1) * sizeof(i64));
    for (i64 i = 0; i < n; i++) {
        i64 line = trace[i];
        i64 s = ht_hash(line, cap);
        while (map[2 * s + 1] >= 0 && map[2 * s] != line)
            s = (s + 1) & (cap - 1);
        i64 prev = map[2 * s + 1];
        map[2 * s] = line;
        map[2 * s + 1] = i;
        if (prev < 0) {
            out[i] = -1;
            if (++distinct == max_depth)
                fill = i;
        } else {
            i64 upto = 0;   /* marked positions at or before prev */
            for (i64 k = prev + 1; k > 0; k -= k & -k)
                upto += tree[k];
            i64 d = distinct - upto + 1;
            out[i] = d > max_depth ? -1 : d;
            for (i64 k = prev + 1; k <= n; k += k & -k)
                tree[k]--;
        }
        for (i64 k = i + 1; k <= n; k += k & -k)
            tree[k]++;
    }
    return fill;
}

/* ----------------------------------------------------------------- */
/* Stream prefetcher (StreamPrefetcher transliteration)               */
/* ----------------------------------------------------------------- */

typedef struct {
    i64 enabled;
    i64 num_streams;
    i64 depth;
    i64 confirm_after;
    double late_p;       /* late_probability */
    double install_p;    /* l1_install_probability */
    i64 count;           /* live streams */
    i64 clock;
    i64 *next_line;      /* num_streams */
    i64 *hits;
    i64 *confirmed;
    i64 *last_use;
} NPf;

/* Feed one demand L1D miss on virtual line `vline`; write prefetch
 * vlines to out and return how many (0 or depth). */
static i64 pf_observe_miss(NPf *pf, i64 vline, i64 *out)
{
    if (!pf->enabled)
        return 0;
    pf->clock++;
    /* One pass over the streams, last to first, selecting with
     * conditional moves rather than branching on the data: the first
     * stream expecting vline, and the first with the least last_use
     * (the one an allocation replaces, as Python's min() picks it). */
    i64 match = -1;
    i64 oldest = 0;
    i64 oldest_use = INT64_MAX;
    for (i64 i = pf->count - 1; i >= 0; i--) {
        i64 use = pf->last_use[i];
        match = pf->next_line[i] == vline ? i : match;
        int older = use <= oldest_use;
        oldest = older ? i : oldest;
        oldest_use = older ? use : oldest_use;
    }
    if (match >= 0) {
        i64 i = match;
        pf->hits[i]++;
        pf->next_line[i] = vline + 1;
        pf->last_use[i] = pf->clock;
        if (pf->hits[i] >= pf->confirm_after)
            pf->confirmed[i] = 1;
        if (pf->confirmed[i]) {
            for (i64 d = 0; d < pf->depth; d++)
                out[d] = vline + 1 + d;
            pf->next_line[i] = out[pf->depth - 1] + 1;
            return pf->depth;
        }
        return 0;
    }
    /* allocate: a free entry while the table has one, else the oldest */
    i64 i = pf->count < pf->num_streams ? pf->count++ : oldest;
    pf->next_line[i] = vline + 1;
    pf->hits[i] = 1;
    pf->confirmed[i] = 0;
    pf->last_use[i] = pf->clock;
    return 0;
}

/* Bound of one access's prefetch buffers: the wrapper passes
 * repro.sim.prefetcher.DEPTH, which a test keeps <= this. */
#define PF_MAX_DEPTH 64

/* ----------------------------------------------------------------- */
/* Shared machine state                                               */
/* ----------------------------------------------------------------- */

typedef struct {
    NCache l2;

    i64 l3_enabled;
    i64 l3_ratio;        /* l3 line size / l2 line size */
    i64 l3_shift;        /* log2(l3_ratio), or -1 when not a power of two */
    NCache l3;           /* inner cache over L3-granularity lines */

    /* allocator (shared across processes) */
    i64 pages_per_group;
    i64 pages_per_color;
    i64 migration_cost;
    i64 *next_frame_of_color;   /* num_colors */
    i64 lazy_migrations;

    /* co-run stop report */
    i64 stop_reason;
    i64 stop_proc;
} NShared;

/* ----------------------------------------------------------------- */
/* Per-process state                                                  */
/* ----------------------------------------------------------------- */

typedef struct {
    /* access stream buffer */
    i64 *vaddrs;
    u8 *stores;
    i64 pos;
    i64 len;

    /* geometry / cost */
    i64 line_size;
    i64 lines_per_page;
    i64 line_shift;      /* log2(line_size), or -1 when not a power of two */
    i64 page_shift;      /* log2(lines_per_page), likewise */
    double base_cost;    /* issue_mode.base_cpi * ipa */
    double pen_l2, pen_l3, pen_mem;   /* overlap_factor * latency */
    i64 ipa;

    /* clocks */
    double cycles;
    i64 instructions;
    i64 accesses;
    i64 debt_pending;    /* allocator._migration_debt[pid] */

    /* allocation */
    i64 *colors;
    i64 ncolors;
    i64 cursor;
    NMap page_table;     /* vpage -> frame, ~frame when stale (this pid's) */

    /* prefetcher + RNG */
    NPf pf;
    NMt mt;

    /* CoreCounters */
    i64 c_instructions, c_loads, c_stores, c_l1d_misses;
    i64 c_l2da, c_l2dm, c_l3_hits, c_mem;

    NCache l1;           /* this core's L1D */
} NProc;

/* ----------------------------------------------------------------- */
/* PMU trace channel (TraceCollector / IdealTraceCollector)           */
/* ----------------------------------------------------------------- */

#define PMU_REAL  1   /* POWER5 channel: one exception per entry, drops */
#define PMU_IDEAL 2   /* Section 6 trace buffer */

typedef struct {
    i64 kind;
    i64 *log;            /* the TraceLog buffer, after its logged entries */
    i64 log_cap;
    i64 log_n;
    /* real channel */
    i64 since_miss;      /* _accesses_since_miss */
    i64 inflight_window;
    double drop_p;
    i64 dual_lsu;
    i64 stale_on_prefetch;
    NMt mt;              /* drop RNG */
    /* ideal channel */
    i64 buffer_entries;
    i64 buffered;
    /* collector counters */
    i64 l1d_misses, dropped, stale, exceptions;
    /* cycles charged to the observed process per exception taken (the
     * managed loop's exception_cost_cycles; 0 for a plain probe) */
    i64 exception_cost;
} NPmu;

static inline int pmu_full(const NPmu *u)
{
    return u->log_n >= u->log_cap;
}

/* TraceCollector.observe_event: each logged entry, demand or stale, is
 * this miss's line and costs one exception. */
static void pmu_real(NPmu *u, i64 line, int l1_hit, i64 npf)
{
    if (pmu_full(u) || l1_hit) {
        u->since_miss++;
        return;
    }
    u->l1d_misses++;
    if (u->dual_lsu && u->since_miss < u->inflight_window
            && mt_random(&u->mt) < u->drop_p) {
        u->dropped++;
        u->since_miss = 0;
        return;
    }
    u->exceptions++;
    u->log[u->log_n++] = line;
    u->since_miss = 0;
    if (!u->stale_on_prefetch)
        return;
    for (i64 j = 0; j < npf; j++) {
        if (pmu_full(u))
            break;
        u->exceptions++;
        u->log[u->log_n++] = line;
        u->stale++;
    }
}

/* IdealTraceCollector._record */
static void pmu_ideal_record(NPmu *u, i64 line)
{
    if (pmu_full(u))
        return;
    u->log[u->log_n++] = line;
    u->buffered++;
    if (u->buffered >= u->buffer_entries || pmu_full(u)) {
        u->exceptions++;
        u->buffered = 0;
    }
}

static void pmu_ideal(NPmu *u, i64 line, int l1_hit,
                      const i64 *pf, i64 npf)
{
    if (pmu_full(u) || l1_hit)
        return;
    u->l1d_misses++;
    pmu_ideal_record(u, line);
    for (i64 j = 0; j < npf; j++) {
        if (pmu_full(u))
            break;
        pmu_ideal_record(u, pf[j]);
    }
}

/* ----------------------------------------------------------------- */
/* Translation (Process.step's page-table read -> frame_for)         */
/* ----------------------------------------------------------------- */

static i64 alloc_frame(NShared *sh, NProc *p)
{
    i64 color = p->colors[p->cursor % p->ncolors];
    p->cursor++;
    i64 n = sh->next_frame_of_color[color]++;
    return (n / sh->pages_per_color) * sh->pages_per_group
        + color * sh->pages_per_color
        + (n % sh->pages_per_color);
}

/* Base line of vpage.  A mapped page (frame >= 0) is one page-table
 * read; a first touch allocates a frame, and a stale page (~frame < 0)
 * migrates to one, charging the migration to debt_pending.  Either sets
 * *translated, exactly Process.step's flag, so the step charges the
 * debt. */
static i64 translate_page(NShared *sh, NProc *p, i64 vpage, int *translated)
{
    NMap *m = &p->page_table;
    i64 key = zigzag(vpage);
    i64 idx = map_slot(m, key);
    if (m->keys[idx] == key) {
        if (m->vals[idx] >= 0)
            return m->vals[idx] * p->lines_per_page;
        /* Lazy migration: new frame on first touch, cost charged. */
        p->debt_pending += sh->migration_cost;
        sh->lazy_migrations++;
    } else {
        m->keys[idx] = key;
        m->count++;
    }
    i64 frame = alloc_frame(sh, p);
    m->vals[idx] = frame;
    *translated = 1;
    return frame * p->lines_per_page;
}

/* ----------------------------------------------------------------- */
/* Victim L3 (VictimCache semantics)                                  */
/* ----------------------------------------------------------------- */

/* The L3 line holding l2_line (physical lines are never negative). */
static inline i64 l3_line(const NShared *sh, i64 l2_line)
{
    return sh->l3_shift >= 0 ? l2_line >> sh->l3_shift
                             : l2_line / sh->l3_ratio;
}

static int l3_lookup(NShared *sh, i64 l2_line)
{
    if (!sh->l3_enabled)
        return 0;
    return cache_invalidate(&sh->l3, l3_line(sh, l2_line));
}

static void l3_insert_victim(NShared *sh, i64 l2_line)
{
    if (!sh->l3_enabled)
        return;
    i64 victim;
    cache_access(&sh->l3, l3_line(sh, l2_line), &victim);
}

/* ----------------------------------------------------------------- */
/* prefetch_fill (MemoryHierarchy.prefetch_fill)                      */
/* ----------------------------------------------------------------- */

static void hier_prefetch_fill(NShared *sh, NProc *p, i64 line, int install_l1)
{
    i64 victim;
    if (!cache_install(&sh->l2, line, &victim)) {
        if (victim >= 0)
            l3_insert_victim(sh, victim);
        /* A prefetch that finds its line in L3 consumes it. */
        l3_lookup(sh, line);
    }
    if (install_l1)
        cache_access(&p->l1, line, &victim);
}

/* ----------------------------------------------------------------- */
/* One access (Process.step + MemoryHierarchy.access)                 */
/* ----------------------------------------------------------------- */

/* Worst-case growth check, run BEFORE any mutation so a stop leaves
 * state exactly as the previous access left it. */
static i64 step_precheck(const NProc *p)
{
    /* demand page + one page per prefetch */
    i64 pages = 1 + (p->pf.enabled ? p->pf.depth : 0);
    if (map_needs_grow(&p->page_table, pages))
        return STOP_GROW_PT;
    return STOP_NONE;
}

static void step_one(NShared *sh, NProc *p, NPmu *pmu)
{
    i64 vaddr = p->vaddrs[p->pos];
    int is_store = p->stores[p->pos] != 0;
    p->pos++;

    i64 vline = floordiv_by(vaddr, p->line_size, p->line_shift);
    i64 vpage = floordiv_by(vline, p->lines_per_page, p->page_shift);
    int translated = 0;
    i64 base = translate_page(sh, p, vpage, &translated);
    i64 line = base + (vline - vpage * p->lines_per_page);

    if (is_store)
        p->c_stores++;
    else
        p->c_loads++;

    double penalty = 0.0;
    i64 pf_emitted = 0;
    i64 pf_lines[PF_MAX_DEPTH];   /* this access's prefetches, issue order */
    i64 victim;

    int l1_hit = cache_access(&p->l1, line, &victim);
    if (l1_hit) {
        if (is_store) {
            /* Write-through forward to the L2; any victim is dropped,
             * as in Python. */
            cache_access(&sh->l2, line, &victim);
        }
    } else {
        p->c_l1d_misses++;
        /* _fetch_into_l2 */
        p->c_l2da++;
        i64 l2_victim;
        if (cache_access(&sh->l2, line, &l2_victim)) {
            penalty = p->pen_l2;
        } else {
            p->c_l2dm++;
            if (l2_victim >= 0)
                l3_insert_victim(sh, l2_victim);
            if (l3_lookup(sh, line)) {
                p->c_l3_hits++;
                penalty = p->pen_l3;
            } else {
                p->c_mem++;
                penalty = p->pen_mem;
            }
        }

        if (p->pf.enabled) {
            i64 pf_vlines[PF_MAX_DEPTH];
            i64 npf = pf_observe_miss(&p->pf, vline, pf_vlines);
            for (i64 j = 0; j < npf; j++) {
                i64 pf_vline = pf_vlines[j];
                i64 pf_vpage = floordiv_by(pf_vline, p->lines_per_page,
                                           p->page_shift);
                i64 pf_base = translate_page(sh, p, pf_vpage, &translated);
                i64 pf_line = pf_base
                    + (pf_vline - pf_vpage * p->lines_per_page);
                /* Every request is PMU-visible (stale entries), even
                 * late ones that install nothing. */
                pf_lines[pf_emitted++] = pf_line;
                if (mt_random(&p->mt) < p->pf.late_p)
                    continue;
                int install_l1 = mt_random(&p->mt) < p->pf.install_p;
                hier_prefetch_fill(sh, p, pf_line, install_l1);
            }
        }
    }

    p->c_instructions += p->ipa;
    p->instructions += p->ipa;
    p->accesses++;
    p->cycles += p->base_cost + penalty;
    if (translated) {
        /* take_migration_debt: charged to the translating access. */
        p->cycles += (double)p->debt_pending;
        p->debt_pending = 0;
    }

    if (pmu) {
        i64 before = pmu->exceptions;
        if (pmu->kind == PMU_REAL)
            pmu_real(pmu, line, l1_hit, pf_emitted);
        else
            pmu_ideal(pmu, line, l1_hit, pf_lines, pf_emitted);
        /* The exception charge lands before the next argmin: it steers
         * the interleave. */
        i64 taken = pmu->exceptions - before;
        if (taken)
            p->cycles += (double)(taken * pmu->exception_cost);
    }
}

/* ----------------------------------------------------------------- */
/* Entry points                                                       */
/* ----------------------------------------------------------------- */

/* Cycle-fair co-run: repeatedly step the process with the smallest
 * (cycles, index) -- heapq's (cycles, index) tuple order -- until one
 * reaches its stop target: right after the access that brings process i
 * to stop_at[i] accesses (an absolute count), return i.  A quota leg
 * passes start + quota; the managed loop passes the earlier of that and
 * the next access at which one of its hooks can fire.  A solo drive is
 * the one-process case.  pmus[i] is process i's trace channel, or NULL
 * when it is not observed.  Returns -1 with sh->stop_reason /
 * sh->stop_proc set when a refill or growth is needed for that process,
 * or when the access it just ran filled its channel's log (an access
 * that also reaches the stop target returns the process instead). */
EXPORT i64 repro_corun(NShared *sh, NProc **procs, NPmu **pmus, i64 nproc,
                       const i64 *stop_at)
{
    sh->stop_reason = STOP_NONE;
    sh->stop_proc = -1;
    for (;;) {
        i64 best = 0;
        double best_cycles = procs[0]->cycles;
        for (i64 i = 1; i < nproc; i++) {
            if (procs[i]->cycles < best_cycles) {
                best = i;
                best_cycles = procs[i]->cycles;
            }
        }
        NProc *p = procs[best];
        if (p->pos >= p->len) {
            sh->stop_reason = STOP_REFILL;
            sh->stop_proc = best;
            return -1;
        }
        i64 reason = step_precheck(p);
        if (reason != STOP_NONE) {
            sh->stop_reason = reason;
            sh->stop_proc = best;
            return -1;
        }
        NPmu *pmu = pmus[best];
        step_one(sh, p, pmu);
        if (p->accesses >= stop_at[best])
            return best;
        if (pmu && pmu_full(pmu)) {
            sh->stop_reason = STOP_LOG_FULL;
            sh->stop_proc = best;
            return -1;
        }
    }
}
