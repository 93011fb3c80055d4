/* Native simulation engine: exact scalar-semantics simulation in C.
 *
 * Compiled on demand by repro.sim.native (cc -O2 -shared -fPIC) and
 * loaded through ctypes.  It is a transliteration of the Python hot
 * path -- Process.step + MemoryHierarchy.access +
 * StreamPrefetcher.observe_miss + PageAllocator._frame_for -- over
 * state arrays marshalled from the Python objects, so every counter,
 * cache-state ordering, RNG draw and float64 rounding step matches the
 * scalar driver bit for bit (the differential suite enforces this).
 *
 * Invariants the wrapper relies on:
 *  - C never allocates and never calls back.  Every buffer is a numpy
 *    array owned by Python, presized before the call (the PMU channel
 *    appends to the trace log's own buffer).  When a step *would*
 *    overflow a map or the allocation log, the engine stops cleanly
 *    BEFORE mutating anything and reports a stop_reason; the wrapper
 *    grows the buffer in place and resumes -- state is identical
 *    either way.
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
 *    here too: every access is applied to it at the end of its step,
 *    exactly as the scalar driver's observer call would, and a solo run
 *    stops (STOP_LOG_FULL) right after the access that fills the log --
 *    where the scalar loop's CollectorStop predicate fires.
 */

#include <stdint.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

typedef int64_t i64;
typedef uint8_t u8;
typedef uint32_t u32;

/* Stop reasons (NProc.stop_reason / NShared.stop_reason). */
#define STOP_NONE          0
#define STOP_REFILL        1   /* access buffer exhausted */
#define STOP_GROW_TLB      2   /* line-cache map near capacity */
#define STOP_GROW_PT       3   /* page-table map near capacity */
#define STOP_GROW_PFSET    4   /* prefetched-line set near capacity */
#define STOP_GROW_NEWPAGES 5   /* allocation log full */
#define STOP_LOG_FULL      6   /* PMU trace log filled by the last access */

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
    i64 *ways;       /* nsets * assoc */
    i64 *occ;        /* nsets */
    i64 accesses, hits, evictions, fills;   /* CacheStats */
} NCache;

/* access(line): returns 1 on hit; *victim = evicted line or -1.
 * Stats exactly as SetAssociativeCache.access(fill_on_miss=True). */
static int cache_access(NCache *c, i64 line, i64 *victim)
{
    i64 set = line % c->nsets;
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    c->accesses++;
    *victim = -1;
    for (i64 i = 0; i < n; i++) {
        if (w[i] == line) {
            c->hits++;
            for (; i < n - 1; i++)
                w[i] = w[i + 1];
            w[n - 1] = line;
            return 1;
        }
    }
    if (n >= c->assoc) {
        *victim = w[0];
        memmove(w, w + 1, (size_t)(n - 1) * sizeof(i64));
        n--;
        c->evictions++;
    }
    w[n] = line;
    c->occ[set] = n + 1;
    c->fills++;
    return 0;
}

/* fill(line): promote if resident (no stats), else install (fills++,
 * evicting with evictions++ when the set is full). */
static void cache_fill(NCache *c, i64 line, i64 *victim)
{
    i64 set = line % c->nsets;
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    *victim = -1;
    for (i64 i = 0; i < n; i++) {
        if (w[i] == line) {
            for (; i < n - 1; i++)
                w[i] = w[i + 1];
            w[n - 1] = line;
            return;
        }
    }
    if (n >= c->assoc) {
        *victim = w[0];
        memmove(w, w + 1, (size_t)(n - 1) * sizeof(i64));
        n--;
        c->evictions++;
    }
    w[n] = line;
    c->occ[set] = n + 1;
    c->fills++;
}

/* probe(line): residency check, no stats, no recency update. */
static int cache_probe(const NCache *c, i64 line)
{
    i64 set = line % c->nsets;
    const i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    for (i64 i = 0; i < n; i++)
        if (w[i] == line)
            return 1;
    return 0;
}

/* invalidate(line): remove if present, no stats. */
static void cache_invalidate(NCache *c, i64 line)
{
    i64 set = line % c->nsets;
    i64 *w = c->ways + set * c->assoc;
    i64 n = c->occ[set];
    for (i64 i = 0; i < n; i++) {
        if (w[i] == line) {
            for (; i < n - 1; i++)
                w[i] = w[i + 1];
            c->occ[set] = n - 1;
            return;
        }
    }
}

/* ----------------------------------------------------------------- */
/* Open-addressing hash map / set for int64 keys >= 0                 */
/*                                                                    */
/* Virtual page numbers may be negative, so the vpage-keyed maps (tlb, */
/* page_table, stale) store zigzag(vpage), which is non-negative and   */
/* never collides with the HT_EMPTY / HT_TOMB sentinels.               */
/* ----------------------------------------------------------------- */

#define HT_EMPTY (-1)
#define HT_TOMB  (-2)

typedef struct {
    i64 cap;      /* power of two */
    i64 count;    /* live entries */
    i64 tombs;    /* tombstoned slots (set_discard leftovers) */
    i64 *keys;    /* cap, HT_EMPTY / HT_TOMB sentinels */
    i64 *vals;    /* cap (NULL for sets) */
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

static inline i64 ht_hash(i64 key, i64 cap)
{
    uint64_t h = (uint64_t)key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return (i64)(h & (uint64_t)(cap - 1));
}

/* True when inserting `extra` more entries could push the table past
 * its 0.7 load ceiling.  Tombstones count against the ceiling: probes
 * only terminate on EMPTY slots, so a table saturated with tombstones
 * must be rehashed (the wrapper does that on a grow stop). */
static inline int map_needs_grow(const NMap *m, i64 extra)
{
    return (m->count + m->tombs + extra) * 10 > m->cap * 7;
}

static int map_get(const NMap *m, i64 key, i64 *val)
{
    i64 idx = ht_hash(key, m->cap);
    for (;;) {
        i64 k = m->keys[idx];
        if (k == key) {
            if (val)
                *val = m->vals[idx];
            return 1;
        }
        if (k == HT_EMPTY)
            return 0;
        idx = (idx + 1) & (m->cap - 1);
    }
}

/* Insert or update.  Capacity is guaranteed by the pre-step check. */
static void map_put(NMap *m, i64 key, i64 val)
{
    i64 idx = ht_hash(key, m->cap);
    i64 first_tomb = -1;
    for (;;) {
        i64 k = m->keys[idx];
        if (k == key) {
            if (m->vals)
                m->vals[idx] = val;
            return;
        }
        if (k == HT_TOMB && first_tomb < 0)
            first_tomb = idx;
        if (k == HT_EMPTY) {
            if (first_tomb >= 0) {
                idx = first_tomb;
                m->tombs--;
            }
            m->keys[idx] = key;
            if (m->vals)
                m->vals[idx] = val;
            m->count++;
            return;
        }
        idx = (idx + 1) & (m->cap - 1);
    }
}

static int set_contains(const NMap *m, i64 key)
{
    return map_get(m, key, 0);
}

static void set_discard(NMap *m, i64 key)
{
    i64 idx = ht_hash(key, m->cap);
    for (;;) {
        i64 k = m->keys[idx];
        if (k == key) {
            m->keys[idx] = HT_TOMB;
            m->count--;
            m->tombs++;
            return;
        }
        if (k == HT_EMPTY)
            return;
        idx = (idx + 1) & (m->cap - 1);
    }
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
    i64 issued;
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
    for (i64 i = 0; i < pf->count; i++) {
        if (vline == pf->next_line[i]) {
            pf->hits[i]++;
            pf->next_line[i] = vline + 1;
            pf->last_use[i] = pf->clock;
            if (pf->hits[i] >= pf->confirm_after)
                pf->confirmed[i] = 1;
            if (pf->confirmed[i]) {
                for (i64 d = 0; d < pf->depth; d++)
                    out[d] = vline + 1 + d;
                pf->next_line[i] = out[pf->depth - 1] + 1;
                pf->issued += pf->depth;
                return pf->depth;
            }
            return 0;
        }
    }
    /* allocate */
    if (pf->count < pf->num_streams) {
        i64 i = pf->count++;
        pf->next_line[i] = vline + 1;
        pf->hits[i] = 1;
        pf->confirmed[i] = 0;
        pf->last_use[i] = pf->clock;
        return 0;
    }
    i64 oldest = 0;
    for (i64 i = 1; i < pf->count; i++)
        if (pf->last_use[i] < pf->last_use[oldest])
            oldest = i;
    pf->next_line[oldest] = vline + 1;
    pf->hits[oldest] = 1;
    pf->confirmed[oldest] = 0;
    pf->last_use[oldest] = pf->clock;
    return 0;
}

#define PF_MAX_DEPTH 64   /* wrapper gates depth <= this */

/* ----------------------------------------------------------------- */
/* Shared machine state                                               */
/* ----------------------------------------------------------------- */

typedef struct {
    NCache l2;

    i64 l3_enabled;
    i64 l3_ratio;        /* l3 line size / l2 line size */
    NCache l3;           /* inner cache over L3-granularity lines */
    i64 l3_accesses, l3_hits, l3_fills;   /* VictimCache.stats */

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
    NMap tlb;            /* vpage -> base line (allocator line cache) */
    NMap page_table;     /* vpage -> frame (this pid's slice) */
    NMap stale;          /* set of stale vpages (this pid's slice) */

    /* log of _frame_for allocations this run, for Python fold-back:
     * triples (vpage, frame, was_lazy_migration) */
    i64 *newpages;
    i64 newpages_len;
    i64 newpages_cap;

    /* prefetcher + RNG */
    NPf pf;
    NMt mt;

    /* CoreCounters */
    i64 c_instructions, c_loads, c_stores, c_l1d_misses;
    i64 c_l2da, c_l2dm, c_l3_hits, c_mem;

    /* L1D + prefetch provenance */
    NCache l1;
    NMap pf_set;         /* set of prefetched L1-resident lines */
    i64 pf_trim_bound;   /* 4 * machine.l1d_lines */

    i64 stop_reason;
} NProc;

/* ----------------------------------------------------------------- */
/* PMU trace channel (TraceCollector / IdealTraceCollector)           */
/* ----------------------------------------------------------------- */

#define PMU_REAL  1   /* POWER5 SDAR + PMC(threshold 1) + dual-LSU drops */
#define PMU_IDEAL 2   /* Section 6 trace buffer */

typedef struct {
    i64 kind;
    i64 stop_on_full;    /* repro_solo stops with STOP_LOG_FULL */
    i64 *log;            /* the TraceLog buffer, after its logged entries */
    i64 log_cap;
    i64 log_n;
    /* real channel */
    i64 sdar_valid, sdar_value, sdar_updates;
    i64 pmc_total;
    i64 since_miss;      /* _accesses_since_miss; -1 == None */
    i64 inflight_window;
    double drop_p;
    i64 dual_lsu;
    i64 stale_on_prefetch;
    NMt mt;              /* drop RNG */
    /* ideal channel */
    i64 buffer_entries;
    i64 record_prefetches;
    i64 buffered;
    /* collector counters */
    i64 l1d_misses, dropped, stale, exceptions;
} NPmu;

static inline int pmu_full(const NPmu *u)
{
    return u->log_n >= u->log_cap;
}

static inline void pmu_tick(NPmu *u)
{
    if (u->since_miss >= 0)
        u->since_miss++;
}

/* TraceCollector.observe_event with threshold 1: every count()
 * overflows, so every counted event takes one exception. */
static void pmu_real(NPmu *u, i64 line, int l1_hit,
                     const i64 *pf, i64 npf)
{
    if (pmu_full(u) || l1_hit) {
        pmu_tick(u);
        return;
    }
    u->l1d_misses++;
    if (u->dual_lsu && u->since_miss >= 0
            && u->since_miss < u->inflight_window
            && mt_random(&u->mt) < u->drop_p) {
        u->dropped++;
        u->since_miss = 0;
        return;
    }
    u->sdar_value = line;
    u->sdar_valid = 1;
    u->sdar_updates++;
    u->pmc_total++;
    u->exceptions++;
    u->log[u->log_n++] = line;
    u->since_miss = 0;
    if (!u->stale_on_prefetch)
        return;
    for (i64 j = 0; j < npf; j++) {
        if (pmu_full(u))
            break;
        u->pmc_total++;
        u->exceptions++;
        u->log[u->log_n++] = u->sdar_value;
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
    if (!u->record_prefetches)
        return;
    for (i64 j = 0; j < npf; j++) {
        if (pmu_full(u))
            break;
        pmu_ideal_record(u, pf[j]);
    }
}

/* ----------------------------------------------------------------- */
/* Translation (line_cache miss -> translate_page_lines -> _frame_for)*/
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

/* Base line of vpage; sets *translated on a line-cache miss (exactly
 * Process.step's `translated` flag). */
static i64 translate_page(NShared *sh, NProc *p, i64 vpage, int *translated)
{
    i64 base;
    i64 key = zigzag(vpage);
    if (map_get(&p->tlb, key, &base))
        return base;
    *translated = 1;
    i64 frame;
    i64 log_it = 0, was_migration = 0;
    if (set_contains(&p->stale, key)) {
        /* Lazy migration: new frame on first touch, cost charged. */
        set_discard(&p->stale, key);
        frame = alloc_frame(sh, p);
        p->debt_pending += sh->migration_cost;
        sh->lazy_migrations++;
        map_put(&p->page_table, key, frame);
        log_it = 1;
        was_migration = 1;
    } else if (!map_get(&p->page_table, key, &frame)) {
        frame = alloc_frame(sh, p);
        map_put(&p->page_table, key, frame);
        log_it = 1;
    }
    base = frame * p->lines_per_page;
    map_put(&p->tlb, key, base);
    if (log_it) {
        p->newpages[p->newpages_len++] = vpage;
        p->newpages[p->newpages_len++] = frame;
        p->newpages[p->newpages_len++] = was_migration;
    }
    return base;
}

/* ----------------------------------------------------------------- */
/* Victim L3 (VictimCache semantics)                                  */
/* ----------------------------------------------------------------- */

static int l3_lookup(NShared *sh, i64 l2_line)
{
    if (!sh->l3_enabled)
        return 0;
    sh->l3_accesses++;
    i64 l3_line = l2_line / sh->l3_ratio;
    if (cache_probe(&sh->l3, l3_line)) {
        sh->l3_hits++;
        cache_invalidate(&sh->l3, l3_line);
        return 1;
    }
    return 0;
}

static void l3_insert_victim(NShared *sh, i64 l2_line)
{
    if (!sh->l3_enabled)
        return;
    i64 victim;
    cache_fill(&sh->l3, l2_line / sh->l3_ratio, &victim);
    sh->l3_fills++;
}

/* ----------------------------------------------------------------- */
/* prefetch_fill (MemoryHierarchy.prefetch_fill)                      */
/* ----------------------------------------------------------------- */

static void hier_prefetch_fill(NShared *sh, NProc *p, i64 line, int install_l1)
{
    if (!cache_probe(&sh->l2, line)) {
        i64 victim;
        cache_fill(&sh->l2, line, &victim);
        if (victim >= 0)
            l3_insert_victim(sh, victim);
        /* A prefetch that finds its line in L3 consumes it. */
        l3_lookup(sh, line);
    }
    if (install_l1) {
        i64 victim;
        cache_fill(&p->l1, line, &victim);
        map_put(&p->pf_set, line, 0);
        /* _trim_prefetched: bound to 4x the L1 line count, keeping
         * only lines still L1-resident (same set content as Python's
         * intersection_update; in-place tombstone rebuild). */
        if (p->pf_set.count > p->pf_trim_bound) {
            NMap *s = &p->pf_set;
            i64 kept = 0;
            for (i64 i = 0; i < s->cap; i++) {
                i64 k = s->keys[i];
                if (k >= 0) {
                    if (cache_probe(&p->l1, k))
                        kept++;
                    else
                        s->keys[i] = HT_TOMB;
                }
            }
            s->tombs += s->count - kept;
            s->count = kept;
        }
    }
}

/* ----------------------------------------------------------------- */
/* One access (Process.step + MemoryHierarchy.access)                 */
/* ----------------------------------------------------------------- */

/* Worst-case growth check, run BEFORE any mutation so a stop leaves
 * state exactly as the previous access left it. */
static i64 step_precheck(const NProc *p)
{
    i64 depth = p->pf.enabled ? p->pf.depth : 0;
    i64 pages = 1 + depth;   /* demand page + one page per prefetch */
    if (map_needs_grow(&p->tlb, pages))
        return STOP_GROW_TLB;
    if (map_needs_grow(&p->page_table, pages))
        return STOP_GROW_PT;
    if (map_needs_grow(&p->pf_set, depth))
        return STOP_GROW_PFSET;
    if (p->newpages_len + 3 * pages > p->newpages_cap)
        return STOP_GROW_NEWPAGES;
    return STOP_NONE;
}

static void step_one(NShared *sh, NProc *p, NPmu *pmu)
{
    i64 vaddr = p->vaddrs[p->pos];
    int is_store = p->stores[p->pos] != 0;
    p->pos++;

    i64 vline = floordiv(vaddr, p->line_size);
    i64 vpage = floordiv(vline, p->lines_per_page);
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
            /* Write-through forward: L2 fill; any victim is dropped
             * (but still counted by the fill, as in Python). */
            cache_fill(&sh->l2, line, &victim);
        }
    } else {
        p->c_l1d_misses++;
        set_discard(&p->pf_set, line);
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
        /* Python ends _fetch_into_l2 with l1d.fill(line); the access
         * above already installed `line` as MRU, so that fill is a
         * pure promote of the MRU line: no state or stat change. */

        if (p->pf.enabled) {
            i64 pf_vlines[PF_MAX_DEPTH];
            i64 npf = pf_observe_miss(&p->pf, vline, pf_vlines);
            for (i64 j = 0; j < npf; j++) {
                i64 pf_vline = pf_vlines[j];
                i64 pf_vpage = floordiv(pf_vline, p->lines_per_page);
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
        if (pmu->kind == PMU_REAL)
            pmu_real(pmu, line, l1_hit, pf_lines, pf_emitted);
        else
            pmu_ideal(pmu, line, l1_hit, pf_lines, pf_emitted);
    }
}

/* ----------------------------------------------------------------- */
/* Entry points                                                       */
/* ----------------------------------------------------------------- */

/* Solo drive: execute up to n accesses; returns the number executed.
 * When < n, p->stop_reason says why (refill / grow / log full).
 * pmu, when given, observes every access; with stop_on_full set the run
 * ends right after the access that fills its log. */
EXPORT i64 repro_solo(NShared *sh, NProc *p, i64 n, NPmu *pmu)
{
    p->stop_reason = STOP_NONE;
    for (i64 i = 0; i < n; i++) {
        if (p->pos >= p->len) {
            p->stop_reason = STOP_REFILL;
            return i;
        }
        i64 reason = step_precheck(p);
        if (reason != STOP_NONE) {
            p->stop_reason = reason;
            return i;
        }
        step_one(sh, p, pmu);
        if (pmu && pmu->stop_on_full && pmu_full(pmu)) {
            p->stop_reason = STOP_LOG_FULL;
            return i + 1;
        }
    }
    return n;
}

/* Cycle-fair co-run: repeatedly step the process with the smallest
 * (cycles, index) -- heapq's (cycles, index) tuple order -- until one
 * has executed target_extra accesses beyond its start count.  Returns
 * that process index, or -1 with sh->stop_reason / sh->stop_proc set
 * (refill or growth needed for that process). */
EXPORT i64 repro_corun(NShared *sh, NProc **procs, i64 nproc,
                       const i64 *start, i64 target_extra)
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
        step_one(sh, p, 0);
        if (p->accesses - start[best] >= target_extra)
            return best;
    }
}
