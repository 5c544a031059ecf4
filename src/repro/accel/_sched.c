/* Compiled scheduler kernel: the simulator's columnar record walk in C.
 *
 * Accelerator phase 2 (DESIGN.md section 14).  One SchedKernel instance
 * owns a single `Simulator._execute` pass natively:
 *
 *   - per-core int64 cursors directly over the trace's array('q') columns,
 *     adopted zero-copy through the buffer protocol (no list
 *     materialization);
 *   - the (t, core) min-clock binary heap with the identical tuple-order
 *     tiebreak.  One entry per core means the heap order is a *strict*
 *     total order, and every correct binary heap pops a strictly totally
 *     ordered content set in the same sequence, so the schedule is
 *     bit-identical to heapq's regardless of internal layout;
 *   - per-core compute/latency accumulators as C doubles.  CPython floats
 *     are C doubles and the per-record addition order is unchanged, so
 *     every accumulated value is bit-identical to the pure-Python loop;
 *   - an open-addressing (core, line) -> CacheLine map mirroring the
 *     scheduler_fast_path() L1 buckets (the same Fibonacci-hash + linear
 *     probe machinery as the mesh kernel's overflow map), with *deferred*
 *     hit bookkeeping: utilization delta, last-access timestamp, the
 *     LRU-counter replay index, and the silent E -> M upgrade flag are
 *     buffered per entry and written back before any engine code can
 *     observe them.
 *
 * Misses retire natively too (DESIGN.md section 14, "One home-word row"):
 *
 *   - the Neat read-hit gate: with a `versions` descriptor field a resident
 *     read retires as a hit only while the copy's fetch version equals the
 *     line version (both dicts re-read per record); no write retires;
 *   - the home-word row (the `row` descriptor, one retire body behind one
 *     admission gate per family): a word access at the line's home L2 -
 *     the paper's remote access (adaptive), a write-shared line (phase),
 *     Neat's eager write-through of a copy-less store and every DLS
 *     access.  The body reserves both legs through the mesh kernel's chain
 *     entry (repro_mesh_chain, by tile id and message type; the mesh
 *     kernel resolves the route and counts the traffic itself), then does
 *     the serialization, L2 bookkeeping, history flags and miss typing.
 *     Each gate declines (and the record goes to access) before the first
 *     side effect whenever Python would do something the row does not,
 *     and counts the decline by reason.  The row re-reads the page table,
 *     the home memo, the set dict and the family's side tables every
 *     record; its only Python calls (the classifier's on_remote_access
 *     and on_write) are its last steps, so no borrowed pointer outlives
 *     them and the row needs no mirror of its own.  Its order-independent
 *     integer counters
 *     (energy, L1/slice/miss-type counts, the families' own counters)
 *     accumulate natively and are folded into the Python objects by
 *     finish().
 *
 * The kernel exits to Python only on cold events: an access() miss calls
 * the engine directly (the loop stays native around it), while
 * barrier/lock/unlock records return an exit tuple *before* the record is
 * processed and a thin Python trampoline performs the synchronization
 * bookkeeping (sync_boundary_hook, lock queues, deadlock accounting),
 * re-entering through continue_at()/advance()/wake().  Thousands of hit
 * records retire per FFI crossing.
 *
 * Exactness invariants (pinned by the fixture + differential suites):
 *
 *   - flush-before-engine-entry: every deferred hit (LRU counter,
 *     utilization, timestamp, E -> M upgrade) is written back to the
 *     CacheLine objects and the store's _use_counter before *every*
 *     access() call and every exit, so the engine's victim selection,
 *     min_last_access scans, purges and histograms read exactly the state
 *     the pure-Python loop would have produced;
 *   - LRU-counter replay: the kernel never owns store._use_counter.  It
 *     counts hits per core since the last flush; at flush it reads the
 *     counter (the engine may have bumped it during misses), assigns each
 *     dirty line `base + (index of its last hit)` and writes back
 *     `base + hits`, replicating the per-hit `counter = _use_counter + 1`
 *     sequence without touching Python integers on the hot path;
 *   - entry pointers in the map are *borrowed*: the store's set dicts hold
 *     a strong reference for exactly as long as the line is resident, and
 *     every membership change while the kernel is attached flows through
 *     the SetAssocCache._observer hooks (insert, including its internal
 *     victim eviction; pop; clear) into note().
 *
 * Compiled into the same module as the mesh kernel (_kernel.c calls
 * repro_sched_register from its PyInit), behind the same build cache,
 * ABI gate and fallback rules.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <stdint.h>
#include <string.h>

/* Mirrors of repro.common constants; cross-checked against the Python
 * definitions at load time by repro.accel (mismatch -> fallback). */
#define K_OP_READ 0
#define K_OP_WRITE 1
#define K_OP_BARRIER 2
#define K_OP_LOCK 3
#define K_OP_UNLOCK 4
#define K_OP_WORK 5
#define K_LINE_BITS 6
#define K_WORD_BITS 3
#define K_MISS_COLD 0
#define K_MISS_CAPACITY 1
#define K_MISS_SHARING 3
#define K_MISS_WORD 4
#define K_MISS_TYPES 5
#define K_EVER_CACHED 1
#define K_LAST_REMOVAL_INVAL 2
#define K_EVER_REMOTE 4
#define K_MSG_READ_REQ 0
#define K_MSG_WRITE_REQ 1
#define K_MSG_WORD_REPLY 4
#define K_MSG_WORD_WRITE_ACK 5
#define K_SCHED_ABI_VERSION 4

/* The home-word row's admission gates, one per family. */
enum { GATE_DLS = 1, GATE_ADAPTIVE, GATE_PHASE, GATE_NEAT };

/* Why a record the row saw went to access() (sched.decline.<name>). */
enum {
    D_PAGE_ABSENT,          /* DLS: first touch classifies the page */
    D_PAGE_FOREIGN,         /* another core's private page: transition due */
    D_PAGE_INSTRUCTION,     /* DLS: access() raises */
    D_HOME_UNMEMOIZED,      /* no _line_home_cache entry: home resolution */
    D_L2_MISS,              /* not resident at the home: off-chip fill */
    D_L1_RESIDENT,          /* the requester holds a copy (e.g. an upgrade) */
    D_FOREIGN_COPIES,       /* a coherence round runs between the legs */
    D_PRIVATE_MODE,         /* the requester is (or votes) a private sharer */
    D_UNTRACKED,            /* locality_entry would allocate or replace */
    D_WOULD_PROMOTE,        /* the access could reach the promotion threshold */
    D_TIMESTAMP_POLICY,     /* the Timestamp check needs the L1 set's state */
    D_ONE_WAY,              /* Adapt1-way: remote is terminal */
    D_PHASE_NOT_WRITE_SHARED,
    D_PHASE_DECAY,          /* a release epoch passed: the phase decays */
    D_NEAT_READ,            /* Neat read miss: a line fill */
    D_NEAT_STALE,           /* Neat read of a stale copy: self-invalidation */
    N_DECLINES,
    ADMIT = N_DECLINES      /* gate verdict: retire */
};

static const char *const decline_names[N_DECLINES] = {
    "page_absent", "page_foreign", "page_instruction", "home_unmemoized",
    "l2_miss", "l1_resident", "foreign_copies", "private_mode", "untracked",
    "would_promote", "timestamp_policy", "one_way", "phase_not_write_shared",
    "phase_decay", "neat_read", "neat_stale",
};

/* Mesh kernel entry points (_kernel.c, same shared object). */
extern int repro_mesh_check(PyObject *obj);
extern int repro_mesh_chain(PyObject *kernel, long long src, long long dst,
                            int msg1, double t0, double busy, double gap,
                            int msg2, double *t1, double *t2);

#define MAP_EMPTY (-1)
#define MAP_TOMBSTONE (-2)

typedef struct {
    double t;
    long long core;
} HeapEntry;

typedef struct {
    long long key;      /* (line << core_bits) | core; MAP_EMPTY/MAP_TOMBSTONE */
    PyObject *entry;    /* borrowed CacheLine (the set dict owns the ref) */
    long long util_delta;
    long long hit_idx;  /* 1-based index of the last hit in this core's
                           per-flush hit sequence; 0 = clean */
    double last_access;
    int upgraded;       /* deferred silent E -> M */
} MapCell;

typedef struct {
    PyObject_HEAD
    long long num_cores;
    long long core_bits;
    double l1_hit_latency;

    /* Columnar trace views (buffer protocol; zero-copy). */
    Py_buffer *views;            /* 3 * num_cores buffers, in adoption order */
    Py_ssize_t num_views;
    const long long **ops;
    const long long **addrs;
    const long long **works;
    long long *lengths;

    long long *indices;
    double *clocks;
    double *compute;
    double *bd_l1_to_l2;
    double *bd_l2_waiting;
    double *bd_l2_sharers;
    double *bd_l2_offchip;
    long long *hits_r;
    long long *hits_w;
    long long *hit_seq;          /* hits per core since the last flush */
    long long *counter_base;     /* scratch: _use_counter base per core */

    HeapEntry *heap;
    Py_ssize_t heap_len;
    long long current;           /* core to keep running, -1 = pop next */
    double now;

    PyObject *access;            /* engine.access */
    PyObject **core_objs;        /* cached PyLong per core (strong) */

    /* Fast path (NULL/0 when the engine has none). */
    int has_fast;
    PyObject *stores_list;       /* strong ref to the descriptor's list */
    PyObject **stores;           /* borrowed items of stores_list */
    PyObject *exclusive_obj;     /* strong */
    PyObject *modified_obj;      /* strong */
    PyObject *str_use_counter;   /* interned "_use_counter" */
    Py_ssize_t off_state, off_last_use, off_last_access, off_utilization;
    Py_ssize_t off_r_latency, off_r_l1l2, off_r_l2w, off_r_l2s, off_r_l2o;
    Py_ssize_t off_r_hit;

    MapCell *map;
    Py_ssize_t map_cap;          /* power of two */
    Py_ssize_t map_len;          /* occupied cells */
    Py_ssize_t map_used;         /* occupied + tombstones */

    MapCell **dirty;
    Py_ssize_t dirty_len;
    Py_ssize_t dirty_cap;

    /* Neat read-hit gate (NULL for families whose hits need no check). */
    PyObject *v_copies;          /* strong: per-core {line: fetch version} */
    PyObject *v_lines;           /* strong: {line: line version} */

    /* The home-word row (has_row = 0 when the engine has none). */
    int has_row;
    int gate;                    /* GATE_* */
    PyObject *w_engine;          /* strong: energy/miss_stats read at fold */
    PyObject *w_mesh;            /* strong: the network's MeshKernel */
    PyObject *w_l1s;             /* strong: per-core L1Cache (miss counts) */
    PyObject *w_slices;          /* strong: per-tile L2Slice objects */
    PyObject *w_stores;          /* strong: per-tile L2 SetAssocCache */
    PyObject *w_sets;            /* strong: per-tile store._sets lists */
    PyObject *w_history;         /* strong: per-core history-flag dicts */
    PyObject *w_line_type;       /* strong: L2Line */
    long long w_words_per_line;
    long long w_set_mask;
    double w_l2_latency;
    Py_ssize_t off_l2_last_use, off_l2_last_access, off_l2_dirty;
    Py_ssize_t off_l2_dirty_words, off_l2_busy;
    /* DLS gate: the word home, from the page table. */
    PyObject *w_pages;           /* strong: page table {page: (kind, owner)} */
    PyObject *w_private;         /* strong: PageKind.PRIVATE */
    PyObject *w_shared;          /* strong: PageKind.SHARED */
    long long w_page_size;
    /* Directory and Neat gates: the memoized line home. */
    PyObject *w_homes;           /* strong: {line: (home, owner)} */
    PyObject *w_dir_type;        /* strong: DirectoryEntry */
    Py_ssize_t off_l2_directory, off_l2_locality, off_dir_sharers, off_dir_owner;
    /* Adaptive gate: the locality classifier. */
    PyObject *w_classifier;      /* strong: vote counters read at fold */
    PyObject *w_on_remote;       /* strong: classifier.on_remote_access */
    PyObject *w_on_write;        /* strong: classifier.on_write */
    PyObject *w_remote;          /* strong: SharerMode.REMOTE */
    PyObject *w_entry_type;      /* strong: CoreLocality */
    Py_ssize_t off_e_mode, off_e_util, off_e_active;
    long long w_pct;
    long long w_limited_k;       /* 0 = Complete (untracked cores allocate) */
    int w_policy;                /* ADMIT (RAT), D_TIMESTAMP_POLICY or D_ONE_WAY */
    /* Phase gate. */
    PyObject *w_phases;          /* strong: {line: [phase, core, epoch]} */
    long long w_write_shared;
    Py_ssize_t off_epoch;        /* engine._epoch */
    /* Neat gate. */
    PyObject *w_versions;        /* strong: {line: line version} */
    /* Natively accumulated counters, folded in by finish(). */
    long long *w_core_misses;    /* per-core L1 misses (all gates but DLS) */
    long long *w_slice_hits;
    long long *w_slice_reads;
    long long *w_slice_writes;
    long long w_miss[K_MISS_TYPES];
    long long w_votes;           /* Limited_k majority votes (adaptive) */

    /* Retirements, declines and exits by reason (telemetry;
     * RunStats-neutral). */
    long long word_r, word_w;    /* records retired by the row */
    long long declines[N_DECLINES];
    long long exits_access;      /* records handed to engine.access */
    long long exits_sync;        /* sync records returned to Python */
} SchedObject;

#define SLOT(obj, off) ((PyObject **)((char *)(obj) + (off)))

/* ------------------------------------------------------------------ */
/* Open-addressing map: Fibonacci hash + linear probe (the mesh         */
/* kernel's overflow-map machinery, keyed by (line, core)).             */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
map_hash(long long key, Py_ssize_t cap)
{
    return (Py_ssize_t)(((unsigned long long)key * 0x9E3779B97F4A7C15ULL) >> 33)
           & (cap - 1);
}

static inline MapCell *
map_find(SchedObject *k, long long key)
{
    Py_ssize_t mask = k->map_cap - 1;
    Py_ssize_t pos = map_hash(key, k->map_cap);
    for (;;) {
        MapCell *cell = &k->map[pos];
        if (cell->key == key) {
            return cell;
        }
        if (cell->key == MAP_EMPTY) {
            return NULL;
        }
        pos = (pos + 1) & mask;
    }
}

static int map_insert(SchedObject *k, long long key, PyObject *entry);

static int
map_rehash(SchedObject *k, Py_ssize_t cap)
{
    MapCell *old = k->map;
    Py_ssize_t old_cap = k->map_cap;
    MapCell *fresh = PyMem_Malloc((size_t)cap * sizeof(MapCell));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++) {
        fresh[i].key = MAP_EMPTY;
    }
    k->map = fresh;
    k->map_cap = cap;
    k->map_len = 0;
    k->map_used = 0;
    if (old != NULL) {
        for (Py_ssize_t i = 0; i < old_cap; i++) {
            if (old[i].key >= 0) {
                /* Rehash only happens with a clean map (inserts occur
                 * exclusively inside engine calls, after a flush), so the
                 * deferred fields are all zero and need no migration. */
                if (map_insert(k, old[i].key, old[i].entry) < 0) {
                    PyMem_Free(old);
                    return -1;
                }
            }
        }
        PyMem_Free(old);
    }
    return 0;
}

static int
map_insert(SchedObject *k, long long key, PyObject *entry)
{
    if ((k->map_used + 1) * 3 >= k->map_cap * 2) {
        Py_ssize_t cap = k->map_cap;
        /* Grow when genuinely loaded; same-size rehash clears tombstones. */
        if ((k->map_len + 1) * 3 >= k->map_cap * 2) {
            cap = k->map_cap * 2;
        }
        if (map_rehash(k, cap) < 0) {
            return -1;
        }
    }
    Py_ssize_t mask = k->map_cap - 1;
    Py_ssize_t pos = map_hash(key, k->map_cap);
    Py_ssize_t grave = -1;
    for (;;) {
        MapCell *cell = &k->map[pos];
        if (cell->key == key) {
            cell->entry = entry;
            cell->util_delta = 0;
            cell->hit_idx = 0;
            cell->last_access = 0.0;
            cell->upgraded = 0;
            return 0;
        }
        if (cell->key == MAP_TOMBSTONE) {
            if (grave < 0) {
                grave = pos;
            }
        }
        else if (cell->key == MAP_EMPTY) {
            if (grave >= 0) {
                cell = &k->map[grave];
            }
            else {
                k->map_used += 1;
            }
            cell->key = key;
            cell->entry = entry;
            cell->util_delta = 0;
            cell->hit_idx = 0;
            cell->last_access = 0.0;
            cell->upgraded = 0;
            k->map_len += 1;
            return 0;
        }
        pos = (pos + 1) & mask;
    }
}

static void
map_remove(SchedObject *k, long long key)
{
    MapCell *cell = map_find(k, key);
    if (cell != NULL) {
        cell->key = MAP_TOMBSTONE;
        cell->entry = NULL;
        cell->util_delta = 0;
        cell->hit_idx = 0;
        cell->upgraded = 0;
        k->map_len -= 1;
    }
}

/* ------------------------------------------------------------------ */
/* Min-clock heap                                                      */
/* ------------------------------------------------------------------ */

static inline int
heap_less(double t, long long core, const HeapEntry *e)
{
    return t < e->t || (t == e->t && core < e->core);
}

static void
heap_push(SchedObject *k, double t, long long core)
{
    Py_ssize_t pos = k->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (heap_less(t, core, &k->heap[parent])) {
            k->heap[pos] = k->heap[parent];
            pos = parent;
        }
        else {
            break;
        }
    }
    k->heap[pos].t = t;
    k->heap[pos].core = core;
}

static void
heap_siftdown_from_root(SchedObject *k, double t, long long core)
{
    Py_ssize_t pos = 0;
    Py_ssize_t len = k->heap_len;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= len) {
            break;
        }
        Py_ssize_t right = child + 1;
        if (right < len
            && heap_less(k->heap[right].t, k->heap[right].core, &k->heap[child])) {
            child = right;
        }
        if (heap_less(k->heap[child].t, k->heap[child].core, &(HeapEntry){t, core})) {
            k->heap[pos] = k->heap[child];
            pos = child;
        }
        else {
            break;
        }
    }
    k->heap[pos].t = t;
    k->heap[pos].core = core;
}

static void
heap_pop(SchedObject *k, double *t, long long *core)
{
    *t = k->heap[0].t;
    *core = k->heap[0].core;
    k->heap_len -= 1;
    if (k->heap_len > 0) {
        HeapEntry last = k->heap[k->heap_len];
        heap_siftdown_from_root(k, last.t, last.core);
    }
}

/* heappushpop where the root is known to precede the pushed item. */
static void
heap_replace_root(SchedObject *k, double t, long long core,
                  double *out_t, long long *out_core)
{
    *out_t = k->heap[0].t;
    *out_core = k->heap[0].core;
    heap_siftdown_from_root(k, t, core);
}

/* ------------------------------------------------------------------ */
/* Deferred-hit flush                                                  */
/* ------------------------------------------------------------------ */

static int
flush_dirty(SchedObject *k)
{
    if (k->dirty_len == 0) {
        return 0;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        if (k->hit_seq[c] == 0) {
            continue;
        }
        PyObject *store = k->stores[c];
        PyObject *cur = PyObject_GetAttr(store, k->str_use_counter);
        if (cur == NULL) {
            return -1;
        }
        long long base = PyLong_AsLongLong(cur);
        Py_DECREF(cur);
        if (base == -1 && PyErr_Occurred()) {
            return -1;
        }
        k->counter_base[c] = base;
        PyObject *nv = PyLong_FromLongLong(base + k->hit_seq[c]);
        if (nv == NULL) {
            return -1;
        }
        int rc = PyObject_SetAttr(store, k->str_use_counter, nv);
        Py_DECREF(nv);
        if (rc < 0) {
            return -1;
        }
    }
    long long core_mask = (1LL << k->core_bits) - 1;
    for (Py_ssize_t j = 0; j < k->dirty_len; j++) {
        MapCell *cell = k->dirty[j];
        if (cell->hit_idx == 0) {
            continue;  /* removed and re-marked clean since dirtying */
        }
        long long c = cell->key & core_mask;
        PyObject *e = cell->entry;
        PyObject **slot = SLOT(e, k->off_last_use);
        PyObject *nv = PyLong_FromLongLong(k->counter_base[c] + cell->hit_idx);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        slot = SLOT(e, k->off_utilization);
        long long util = PyLong_AsLongLong(*slot);
        if (util == -1 && PyErr_Occurred()) {
            return -1;
        }
        nv = PyLong_FromLongLong(util + cell->util_delta);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        slot = SLOT(e, k->off_last_access);
        nv = PyFloat_FromDouble(cell->last_access);
        if (nv == NULL) {
            return -1;
        }
        Py_XSETREF(*slot, nv);
        if (cell->upgraded) {
            slot = SLOT(e, k->off_state);
            Py_INCREF(k->modified_obj);
            Py_XSETREF(*slot, k->modified_obj);
        }
        cell->hit_idx = 0;
        cell->util_delta = 0;
        cell->upgraded = 0;
    }
    k->dirty_len = 0;
    memset(k->hit_seq, 0, (size_t)k->num_cores * sizeof(long long));
    return 0;
}

static int
dirty_push(SchedObject *k, MapCell *cell)
{
    if (k->dirty_len >= k->dirty_cap) {
        Py_ssize_t cap = k->dirty_cap ? k->dirty_cap * 2 : 64;
        MapCell **fresh = PyMem_Realloc(k->dirty, (size_t)cap * sizeof(MapCell *));
        if (fresh == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->dirty = fresh;
        k->dirty_cap = cap;
    }
    k->dirty[k->dirty_len++] = cell;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Engine access call                                                  */
/* ------------------------------------------------------------------ */

static PyObject *
call_access(SchedObject *k, long long core, int is_write, long long address,
            double t)
{
    PyObject *addr_o = PyLong_FromLongLong(address);
    if (addr_o == NULL) {
        return NULL;
    }
    PyObject *t_o = PyFloat_FromDouble(t);
    if (t_o == NULL) {
        Py_DECREF(addr_o);
        return NULL;
    }
    PyObject *argv[4] = {
        k->core_objs[core], is_write ? Py_True : Py_False, addr_o, t_o,
    };
    PyObject *res = PyObject_Vectorcall(k->access, argv, 4, NULL);
    Py_DECREF(addr_o);
    Py_DECREF(t_o);
    return res;
}

/* A slot that must be set; AttributeError when it is not. */
static inline PyObject *
slot_get(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = *SLOT(obj, off);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset __slots__ member");
    }
    return v;
}

static int
slot_double(SchedObject *k, PyObject *obj, Py_ssize_t off, double *out)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    double d = PyFloat_AsDouble(v);
    if (d == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    *out = d;
    return 0;
}

/* ------------------------------------------------------------------ */
/* The Neat read-hit gate and the home-word row                        */
/* ------------------------------------------------------------------ */

/* NeatEngine.access's validity test for a resident read:
 * `copy_version[core].get(line) == line_version.get(line, 0)`.
 * Returns 1 (fresh: a hit), 0 (stale or untracked), -1 on error. */
static int
neat_copy_fresh(SchedObject *k, long long core, long long line)
{
    PyObject *copies = PyList_GET_ITEM(k->v_copies, (Py_ssize_t)core);
    if (!PyDict_Check(copies)) {
        PyErr_SetString(PyExc_TypeError, "copy versions must be dicts");
        return -1;
    }
    PyObject *key = PyLong_FromLongLong(line);
    if (key == NULL) {
        return -1;
    }
    PyObject *copy = PyDict_GetItemWithError(copies, key);
    PyObject *current = NULL;
    if (copy != NULL) {
        current = PyDict_GetItemWithError(k->v_lines, key);
    }
    Py_DECREF(key);
    if (PyErr_Occurred()) {
        return -1;
    }
    if (copy == NULL) {
        return 0;
    }
    long long have = PyLong_AsLongLong(copy);
    if (have == -1 && PyErr_Occurred()) {
        return -1;
    }
    long long want = 0;
    if (current != NULL) {
        want = PyLong_AsLongLong(current);
        if (want == -1 && PyErr_Occurred()) {
            return -1;
        }
    }
    return have == want;
}

static int
set_slot(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    if (value == NULL) {
        return -1;
    }
    Py_XSETREF(*SLOT(obj, off), value);
    return 0;
}

static inline int
decline(SchedObject *k, int reason)
{
    k->declines[reason] += 1;
    return 0;
}

static inline int
slot_ll(PyObject *obj, Py_ssize_t off, long long *out)
{
    PyObject *v = slot_get(obj, off);
    if (v == NULL) {
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* DirectoryEntry.foreign_copies: 1, 0, or -1 on error. */
static int
foreign_copies(SchedObject *k, PyObject *dirent, long long core, int is_write)
{
    if (is_write) {
        PyObject *sharers = slot_get(dirent, k->off_dir_sharers);
        if (sharers == NULL) {
            return -1;
        }
        if (!PySet_Check(sharers)) {
            PyErr_SetString(PyExc_TypeError, "sharers must be a set");
            return -1;
        }
        Py_ssize_t n = PySet_GET_SIZE(sharers);
        if (n != 1) {
            return n > 1;
        }
        int mine = PySet_Contains(sharers, k->core_objs[core]);
        return mine < 0 ? -1 : !mine;
    }
    long long owner;
    if (slot_ll(dirent, k->off_dir_owner, &owner) < 0) {
        return -1;
    }
    return owner >= 0 && owner != core;
}

/* The adaptive gate: _classify_requester serves the requester remotely
 * with no side effect the row does not repeat.  Either its tracked entry
 * is REMOTE and this access cannot reach a promotion threshold (RAT
 * policy), or Limited_k has every slot active (allocation fails) and the
 * majority votes REMOTE.  Returns a decline reason, ADMIT with *centry the
 * tracked entry (NULL after a vote), or -1 on error. */
static int
adaptive_gate(SchedObject *k, PyObject *l2line, long long core, PyObject **centry)
{
    PyObject *entries = slot_get(l2line, k->off_l2_locality);
    if (entries == NULL) {
        return -1;
    }
    if (entries == Py_None) {
        return D_UNTRACKED;
    }
    if (!PyDict_CheckExact(entries)) {
        PyErr_SetString(PyExc_TypeError, "locality state must be a dict");
        return -1;
    }
    PyObject *mine = PyDict_GetItemWithError(entries, k->core_objs[core]);
    if (mine != NULL) {
        if (Py_TYPE(mine) != (PyTypeObject *)k->w_entry_type) {
            PyErr_SetString(PyExc_TypeError, "locality entry of the wrong type");
            return -1;
        }
        if (*SLOT(mine, k->off_e_mode) != k->w_remote) {
            return D_PRIVATE_MODE;
        }
        if (k->w_policy != ADMIT) {
            return k->w_policy;
        }
        /* on_remote_access promotes at remote_util >= RAT[rat_level], or
         * at remote_util >= PCT with a free L1 way.  No RAT level is below
         * PCT (ProtocolConfig requires rat_max >= pct), so staying under
         * PCT stays under both. */
        long long util;
        if (slot_ll(mine, k->off_e_util, &util) < 0) {
            return -1;
        }
        if (util + 1 >= k->w_pct) {
            return D_WOULD_PROMOTE;
        }
        *centry = mine;
        return ADMIT;
    }
    if (PyErr_Occurred()) {
        return -1;
    }
    Py_ssize_t tracked = PyDict_GET_SIZE(entries);
    if (k->w_limited_k == 0 || tracked < k->w_limited_k) {
        return D_UNTRACKED;
    }
    Py_ssize_t pos = 0, remote = 0;
    PyObject *key, *entry;
    while (PyDict_Next(entries, &pos, &key, &entry)) {
        if (Py_TYPE(entry) != (PyTypeObject *)k->w_entry_type) {
            PyErr_SetString(PyExc_TypeError, "locality entry of the wrong type");
            return -1;
        }
        PyObject *active = slot_get(entry, k->off_e_active);
        int truth = active == NULL ? -1 : PyObject_IsTrue(active);
        if (truth <= 0) {
            return truth < 0 ? -1 : D_UNTRACKED;  /* an inactive slot is replaced */
        }
        remote += *SLOT(entry, k->off_e_mode) == k->w_remote;
    }
    if (2 * remote <= tracked) {
        return D_PRIVATE_MODE;
    }
    *centry = NULL;
    return ADMIT;
}

/* The phase gate: the line is WRITE_SHARED and no decay is due. */
static int
phase_gate(SchedObject *k, PyObject *line_o, PyObject **info)
{
    PyObject *entry = PyDict_GetItemWithError(k->w_phases, line_o);
    if (entry == NULL) {
        return PyErr_Occurred() ? -1 : D_PHASE_NOT_WRITE_SHARED;
    }
    if (!PyList_CheckExact(entry) || PyList_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError, "line phase must be a 3-item list");
        return -1;
    }
    long long phase = PyLong_AsLongLong(PyList_GET_ITEM(entry, 0));
    if (phase == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (phase != k->w_write_shared) {
        return D_PHASE_NOT_WRITE_SHARED;
    }
    long long epoch, since = PyLong_AsLongLong(PyList_GET_ITEM(entry, 2));
    if ((since == -1 && PyErr_Occurred())
        || slot_ll(k->w_engine, k->off_epoch, &epoch) < 0) {
        return -1;
    }
    if (epoch > since) {
        return D_PHASE_DECAY;
    }
    *info = entry;
    return ADMIT;
}

/* The home-word row: one record's word access at its home L2.  Returns 1
 * when the record retired (latency and L2 waiting time in the out
 * parameters), 0 when a gate declined it (counted by reason; access()
 * then runs untouched), -1 on error.  `resident` says whether the
 * requester's L1 holds a mirrored copy.  Every decline happens before the
 * first side effect. */
static int
home_word(SchedObject *k, long long core, int is_write, long long address,
          double now, int resident, double *latency, double *l2_waiting)
{
    long long num_tiles = k->num_cores;
    long long line = address >> K_LINE_BITS;
    long long word = (address >> K_WORD_BITS) & (k->w_words_per_line - 1);
    int gate = k->gate;
    long long home;

    /* ---- Admission: the requester and the home. */
    if (gate == GATE_DLS) {
        /* placement.data_word_home minus its classification effects. */
        PyObject *page = PyLong_FromLongLong(address / k->w_page_size);
        if (page == NULL) {
            return -1;
        }
        PyObject *entry = PyDict_GetItemWithError(k->w_pages, page);
        Py_DECREF(page);
        if (entry == NULL || !PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
            return PyErr_Occurred() ? -1 : decline(k, D_PAGE_ABSENT);
        }
        PyObject *kind = PyTuple_GET_ITEM(entry, 0);
        if (kind == k->w_shared) {
            home = (line * k->w_words_per_line + word) % num_tiles;
        }
        else if (kind == k->w_private) {
            home = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
            if (home != core) {
                return PyErr_Occurred() ? -1 : decline(k, D_PAGE_FOREIGN);
            }
        }
        else {
            return decline(k, D_PAGE_INSTRUCTION);
        }
    }
    else if (resident) {
        return decline(k, gate == GATE_NEAT && !is_write ? D_NEAT_STALE
                                                         : D_L1_RESIDENT);
    }
    else if (gate == GATE_NEAT && !is_write) {
        return decline(k, D_NEAT_READ);
    }

    PyObject *line_o = PyLong_FromLongLong(line);
    if (line_o == NULL) {
        return -1;
    }
    int rc = 0;
    if (gate != GATE_DLS) {
        /* _chain_probe: the memoized home, valid for this requester. */
        PyObject *cached = PyDict_GetItemWithError(k->w_homes, line_o);
        if (cached == NULL) {
            rc = PyErr_Occurred() ? -1 : decline(k, D_HOME_UNMEMOIZED);
            goto done;
        }
        if (!PyTuple_Check(cached) || PyTuple_GET_SIZE(cached) != 2) {
            PyErr_SetString(PyExc_TypeError, "home memo entries must be pairs");
            goto fail;
        }
        home = PyLong_AsLongLong(PyTuple_GET_ITEM(cached, 0));
        long long owner = PyLong_AsLongLong(PyTuple_GET_ITEM(cached, 1));
        if (PyErr_Occurred()) {
            goto fail;
        }
        if (owner >= 0 && owner != core) {
            rc = decline(k, D_PAGE_FOREIGN);
            goto done;
        }
        if (home < 0 || home >= num_tiles) {
            PyErr_SetString(PyExc_ValueError, "memoized home outside the mesh");
            goto fail;
        }
    }
    PyObject *sets = PyList_GET_ITEM(k->w_sets, (Py_ssize_t)home);
    PyObject *bucket = PyList_GET_ITEM(sets, (Py_ssize_t)(line & k->w_set_mask));
    PyObject *l2line = PyDict_GetItemWithError(bucket, line_o);
    if (l2line == NULL) {
        rc = PyErr_Occurred() ? -1 : decline(k, D_L2_MISS);
        goto done;
    }
    if (Py_TYPE(l2line) != (PyTypeObject *)k->w_line_type) {
        PyErr_SetString(PyExc_TypeError, "L2 set entry of the wrong type");
        goto fail;
    }

    /* ---- Admission: the family's gate. */
    PyObject *centry = NULL;     /* adaptive: the tracked entry, or a vote */
    PyObject *info = NULL;       /* phase: [phase, core, epoch] */
    if (gate == GATE_ADAPTIVE || gate == GATE_PHASE) {
        PyObject *dirent = slot_get(l2line, k->off_l2_directory);
        if (dirent == NULL) {
            goto fail;
        }
        if (Py_TYPE(dirent) != (PyTypeObject *)k->w_dir_type) {
            PyErr_SetString(PyExc_TypeError, "directory entry of the wrong type");
            goto fail;
        }
        int verdict = foreign_copies(k, dirent, core, is_write);
        if (verdict > 0) {
            verdict = D_FOREIGN_COPIES;
        }
        else if (verdict == 0) {
            verdict = gate == GATE_ADAPTIVE ? adaptive_gate(k, l2line, core, &centry)
                                            : phase_gate(k, line_o, &info);
        }
        if (verdict < 0) {
            goto fail;
        }
        if (verdict != ADMIT) {
            rc = decline(k, verdict);
            goto done;
        }
    }
    double busy;
    long long mask;
    if (slot_double(k, l2line, k->off_l2_busy, &busy) < 0
        || slot_ll(l2line, k->off_l2_dirty_words, &mask) < 0) {
        goto fail;
    }

    /* ---- Retiring.  Request and reply legs: MeshNetwork.traverse_chain. */
    double t1, reply_t;
    if (repro_mesh_chain(k->w_mesh, core, home,
                         is_write ? K_MSG_WRITE_REQ : K_MSG_READ_REQ, now,
                         busy, k->w_l2_latency,
                         is_write ? K_MSG_WORD_WRITE_ACK : K_MSG_WORD_REPLY,
                         &t1, &reply_t) < 0) {
        goto fail;
    }
    double wait = 0.0;
    double t;
    if (busy > t1) {
        wait = busy - t1;
        t = busy + k->w_l2_latency;
    }
    else {
        t = t1 + k->w_l2_latency;
    }
    k->w_slice_hits[home] += 1;

    /* _word_service_bookkeeping. */
    if (is_write) {
        k->w_slice_writes[home] += 1;
        if (set_slot(l2line, k->off_l2_dirty, Py_NewRef(Py_True)) < 0
            || set_slot(l2line, k->off_l2_dirty_words,
                        PyLong_FromLongLong(mask | (1LL << word))) < 0) {
            goto fail;
        }
    }
    else {
        k->w_slice_reads[home] += 1;
    }

    /* History flags and miss type (_classify_miss, serviced remotely). */
    PyObject *hist = PyList_GET_ITEM(k->w_history, (Py_ssize_t)core);
    PyObject *flags_o = PyDict_GetItemWithError(hist, line_o);
    long long flags = flags_o == NULL ? 0 : PyLong_AsLongLong(flags_o);
    if (PyErr_Occurred()) {
        goto fail;
    }
    if (flags & K_EVER_REMOTE) {
        k->w_miss[K_MISS_WORD] += 1;
    }
    else {
        if (!(flags & K_EVER_CACHED)) {
            k->w_miss[K_MISS_COLD] += 1;
        }
        else if (flags & K_LAST_REMOVAL_INVAL) {
            k->w_miss[K_MISS_SHARING] += 1;
        }
        else {
            k->w_miss[K_MISS_CAPACITY] += 1;
        }
        PyObject *nf = PyLong_FromLongLong(flags | K_EVER_REMOTE);
        int set = nf == NULL ? -1 : PyDict_SetItem(hist, line_o, nf);
        Py_XDECREF(nf);
        if (set < 0) {
            goto fail;
        }
    }

    /* Settle timing: writes serialize, word reads pipeline. */
    double settle = is_write ? t : t - k->w_l2_latency + 1.0;
    if ((is_write || settle > busy)
        && set_slot(l2line, k->off_l2_busy, PyFloat_FromDouble(settle)) < 0) {
        goto fail;
    }

    /* slice_.touch(l2line, t): the L2 LRU counter is read and written
     * now - engine-side victim choice depends on it. */
    PyObject *store = PyList_GET_ITEM(k->w_stores, (Py_ssize_t)home);
    PyObject *cur = PyObject_GetAttr(store, k->str_use_counter);
    long long counter = cur == NULL ? -1 : PyLong_AsLongLong(cur);
    Py_XDECREF(cur);
    PyObject *nv = PyErr_Occurred() ? NULL : PyLong_FromLongLong(counter + 1);
    if (nv == NULL || PyObject_SetAttr(store, k->str_use_counter, nv) < 0) {
        Py_XDECREF(nv);
        goto fail;
    }
    if (set_slot(l2line, k->off_l2_last_use, nv) < 0
        || set_slot(l2line, k->off_l2_last_access, PyFloat_FromDouble(t)) < 0) {
        goto fail;
    }

    /* The family's own state, written in place. */
    if (gate == GATE_ADAPTIVE) {
        k->w_votes += centry == NULL;
    }
    else if (gate == GATE_PHASE) {
        PyList_SetItem(info, 1, Py_NewRef(k->core_objs[core]));
    }
    else if (gate == GATE_NEAT) {
        /* _downgrade_settle of a copy-less write: the version bump. */
        PyObject *old = PyDict_GetItemWithError(k->w_versions, line_o);
        long long version = old == NULL ? 0 : PyLong_AsLongLong(old);
        if (PyErr_Occurred()) {
            goto fail;
        }
        PyObject *bumped = PyLong_FromLongLong(version + 1);
        int set = bumped == NULL ? -1 : PyDict_SetItem(k->w_versions, line_o, bumped);
        Py_XDECREF(bumped);
        if (set < 0) {
            goto fail;
        }
    }
    k->w_core_misses[core] += 1;
    if (is_write) {
        k->word_w += 1;
    }
    else {
        k->word_r += 1;
    }
    *latency = reply_t - now;
    *l2_waiting = wait;

    if (gate == GATE_ADAPTIVE) {
        /* Last, so no borrowed pointer outlives them, and in
         * _service_miss's order: the classifier's own remote-access step
         * (counter, utilization, active bit), then on a write its reset of
         * the other remote sharers.  The RAT policy reads neither L1 hint
         * below the thresholds the gate checked, so none is computed. */
        PyObject *entry = centry == NULL ? Py_None : centry;
        PyObject *argv[4] = {Py_NewRef(l2line), Py_NewRef(entry), Py_None, Py_False};
        PyObject *promoted = PyObject_Vectorcall(k->w_on_remote, argv, 4, NULL);
        int truth = promoted == NULL ? -1 : PyObject_IsTrue(promoted);
        Py_XDECREF(promoted);
        if (truth == 0 && is_write) {
            PyObject *args[2] = {l2line, k->core_objs[core]};
            PyObject *none = PyObject_Vectorcall(k->w_on_write, args, 2, NULL);
            truth = none == NULL ? -1 : 0;
            Py_XDECREF(none);
        }
        Py_DECREF(entry);
        Py_DECREF(l2line);
        if (truth != 0) {
            if (truth > 0) {
                PyErr_SetString(PyExc_RuntimeError,
                                "on_remote_access promoted a sharer the "
                                "home-word row admitted");
            }
            goto fail;
        }
    }
    rc = 1;
    goto done;
fail:
    rc = -1;
done:
    Py_DECREF(line_o);
    return rc;
}

/* obj.name += delta for an int attribute (the finish()-time fold). */
static int
add_attr(PyObject *obj, const char *name, long long delta)
{
    if (delta == 0) {
        return 0;
    }
    PyObject *cur = PyObject_GetAttrString(obj, name);
    if (cur == NULL) {
        return -1;
    }
    PyObject *d = PyLong_FromLongLong(delta);
    PyObject *sum = d == NULL ? NULL : PyNumber_Add(cur, d);
    Py_DECREF(cur);
    Py_XDECREF(d);
    if (sum == NULL) {
        return -1;
    }
    int rc = PyObject_SetAttrString(obj, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* Fold the row's order-independent counters into the engine's Python
 * objects (integer sums, so the point of folding cannot change a
 * result).  The energy and miss-stat objects are read here, not at
 * construction: reset_stats replaces them between passes. */
static int
fold_row_counters(SchedObject *k)
{
    if (!k->has_row) {
        return 0;
    }
    long long words = k->word_r + k->word_w;
    int directory = k->gate == GATE_ADAPTIVE || k->gate == GATE_PHASE;
    PyObject *energy = PyObject_GetAttrString(k->w_engine, "energy");
    if (energy == NULL) {
        return -1;
    }
    int rc = add_attr(energy, "l1d_tag_accesses", words) < 0
             || add_attr(energy, "l2_tag_accesses", words) < 0
             || add_attr(energy, "l2_word_reads", k->word_r) < 0
             || add_attr(energy, "l2_word_writes", k->word_w) < 0
             || (directory && add_attr(energy, "directory_lookups", words) < 0)
             || (directory && add_attr(energy, "directory_updates", words) < 0);
    Py_DECREF(energy);
    if (rc) {
        return -1;
    }
    PyObject *miss = PyObject_GetAttrString(k->w_engine, "miss_stats");
    PyObject *counts = miss == NULL ? NULL : PyObject_GetAttrString(miss, "_miss_counts");
    Py_XDECREF(miss);
    if (counts == NULL) {
        return -1;
    }
    for (Py_ssize_t m = 0; m < K_MISS_TYPES; m++) {
        if (k->w_miss[m] == 0) {
            continue;
        }
        PyObject *cur = PySequence_GetItem(counts, m);
        PyObject *d = PyLong_FromLongLong(k->w_miss[m]);
        PyObject *sum = (cur == NULL || d == NULL) ? NULL : PyNumber_Add(cur, d);
        Py_XDECREF(cur);
        Py_XDECREF(d);
        if (sum == NULL || PySequence_SetItem(counts, m, sum) < 0) {
            Py_XDECREF(sum);
            Py_DECREF(counts);
            return -1;
        }
        Py_DECREF(sum);
        k->w_miss[m] = 0;
    }
    Py_DECREF(counts);
    for (long long h = 0; h < k->num_cores; h++) {
        PyObject *slice = PyList_GET_ITEM(k->w_slices, (Py_ssize_t)h);
        if (add_attr(slice, "hits", k->w_slice_hits[h]) < 0
            || add_attr(slice, "word_reads", k->w_slice_reads[h]) < 0
            || add_attr(slice, "word_writes", k->w_slice_writes[h]) < 0) {
            return -1;
        }
        k->w_slice_hits[h] = k->w_slice_reads[h] = k->w_slice_writes[h] = 0;
        /* DLS leaves the L1 alone; every other gate services an L1 miss. */
        PyObject *l1 = PyList_GET_ITEM(k->w_l1s, (Py_ssize_t)h);
        if (k->gate != GATE_DLS && add_attr(l1, "misses", k->w_core_misses[h]) < 0) {
            return -1;
        }
        k->w_core_misses[h] = 0;
    }
    if (k->gate == GATE_ADAPTIVE) {
        /* Each vote followed a failed Limited_k allocation. */
        rc = add_attr(k->w_classifier, "vote_decisions", k->w_votes) < 0
             || add_attr(k->w_classifier, "allocation_failures", k->w_votes) < 0;
    }
    else if (k->gate == GATE_PHASE) {
        rc = add_attr(k->w_engine, "phase_word_accesses", words) < 0;
    }
    else if (k->gate == GATE_NEAT) {
        rc = add_attr(k->w_engine, "write_throughs", words) < 0;
    }
    if (rc) {
        return -1;
    }
    k->has_row = 0;  /* folded once; the kernel is done */
    return 0;
}

/* ------------------------------------------------------------------ */
/* Construction                                                        */
/* ------------------------------------------------------------------ */

static Py_ssize_t
member_offset(PyObject *type, const char *name)
{
    PyObject *descr = PyObject_GetAttrString(type, name);
    if (descr == NULL) {
        return -1;
    }
    if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
        Py_DECREF(descr);
        PyErr_Format(PyExc_TypeError, "%s is not a __slots__ member", name);
        return -1;
    }
    PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
    Py_ssize_t off = member->offset;
    int kind = member->type;
    Py_DECREF(descr);
    if (kind != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%s is not an object slot", name);
        return -1;
    }
    return off;
}

static void
Sched_dealloc(SchedObject *k)
{
    if (k->views != NULL) {
        for (Py_ssize_t i = 0; i < k->num_views; i++) {
            PyBuffer_Release(&k->views[i]);
        }
        PyMem_Free(k->views);
    }
    PyMem_Free(k->ops);
    PyMem_Free(k->addrs);
    PyMem_Free(k->works);
    PyMem_Free(k->lengths);
    PyMem_Free(k->indices);
    PyMem_Free(k->clocks);
    PyMem_Free(k->compute);
    PyMem_Free(k->bd_l1_to_l2);
    PyMem_Free(k->bd_l2_waiting);
    PyMem_Free(k->bd_l2_sharers);
    PyMem_Free(k->bd_l2_offchip);
    PyMem_Free(k->hits_r);
    PyMem_Free(k->hits_w);
    PyMem_Free(k->hit_seq);
    PyMem_Free(k->counter_base);
    PyMem_Free(k->heap);
    PyMem_Free(k->map);
    PyMem_Free(k->dirty);
    PyMem_Free(k->stores);
    PyMem_Free(k->w_core_misses);
    PyMem_Free(k->w_slice_hits);
    PyMem_Free(k->w_slice_reads);
    PyMem_Free(k->w_slice_writes);
    if (k->core_objs != NULL) {
        for (long long c = 0; c < k->num_cores; c++) {
            Py_XDECREF(k->core_objs[c]);
        }
        PyMem_Free(k->core_objs);
    }
    Py_XDECREF(k->access);
    Py_XDECREF(k->stores_list);
    Py_XDECREF(k->exclusive_obj);
    Py_XDECREF(k->modified_obj);
    Py_XDECREF(k->str_use_counter);
    Py_XDECREF(k->v_copies);
    Py_XDECREF(k->v_lines);
    Py_XDECREF(k->w_engine);
    Py_XDECREF(k->w_mesh);
    Py_XDECREF(k->w_l1s);
    Py_XDECREF(k->w_slices);
    Py_XDECREF(k->w_stores);
    Py_XDECREF(k->w_sets);
    Py_XDECREF(k->w_history);
    Py_XDECREF(k->w_line_type);
    Py_XDECREF(k->w_pages);
    Py_XDECREF(k->w_private);
    Py_XDECREF(k->w_shared);
    Py_XDECREF(k->w_homes);
    Py_XDECREF(k->w_dir_type);
    Py_XDECREF(k->w_classifier);
    Py_XDECREF(k->w_on_remote);
    Py_XDECREF(k->w_on_write);
    Py_XDECREF(k->w_remote);
    Py_XDECREF(k->w_entry_type);
    Py_XDECREF(k->w_phases);
    Py_XDECREF(k->w_versions);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static int
adopt_columns(SchedObject *k, PyObject *cols, const long long **ptrs,
              long long *lengths, int check_lengths)
{
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *col = PySequence_GetItem(cols, (Py_ssize_t)c);
        if (col == NULL) {
            return -1;
        }
        Py_buffer *view = &k->views[k->num_views];
        int rc = PyObject_GetBuffer(col, view, PyBUF_SIMPLE);
        Py_DECREF(col);
        if (rc < 0) {
            return -1;
        }
        k->num_views += 1;
        if (view->len % (Py_ssize_t)sizeof(long long) != 0) {
            PyErr_SetString(PyExc_ValueError, "column is not int64-aligned");
            return -1;
        }
        long long n = (long long)(view->len / (Py_ssize_t)sizeof(long long));
        ptrs[c] = (const long long *)view->buf;
        if (check_lengths) {
            if (lengths[c] != n) {
                PyErr_SetString(PyExc_ValueError, "ragged trace columns");
                return -1;
            }
        }
        else {
            lengths[c] = n;
        }
    }
    return 0;
}

/* Borrowed descriptor field; NULL with ValueError when missing. */
static PyObject *
desc_get(PyObject *desc, const char *name)
{
    PyObject *v = PyDict_GetItemString(desc, name);
    if (v == NULL && !PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError, "descriptor missing %s", name);
    }
    return v;
}

static int
desc_ll(PyObject *desc, const char *name, long long *out)
{
    PyObject *v = desc_get(desc, name);
    if (v == NULL) {
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* A list field of exactly `len` items, held strongly in *slot. */
static int
desc_list(PyObject *desc, const char *name, Py_ssize_t len, PyObject **slot)
{
    PyObject *v = desc_get(desc, name);
    if (v == NULL) {
        return -1;
    }
    if (!PyList_Check(v) || PyList_GET_SIZE(v) != len) {
        PyErr_Format(PyExc_ValueError, "descriptor %s must be a list of %zd",
                     name, len);
        return -1;
    }
    *slot = Py_NewRef(v);
    return 0;
}

/* Neat read-hit gate: versions = (per-core copy-version dicts, the
 * line-version dict), or None. */
static int
adopt_versions(SchedObject *k, PyObject *fast)
{
    PyObject *versions = PyDict_GetItemString(fast, "versions");
    if (versions == NULL || versions == Py_None) {
        return PyErr_Occurred() ? -1 : 0;
    }
    if (!PyTuple_Check(versions) || PyTuple_GET_SIZE(versions) != 2
        || !PyList_Check(PyTuple_GET_ITEM(versions, 0))
        || PyList_GET_SIZE(PyTuple_GET_ITEM(versions, 0)) != k->num_cores
        || !PyDict_Check(PyTuple_GET_ITEM(versions, 1))) {
        PyErr_SetString(PyExc_ValueError,
                        "versions must be (per-core dict list, dict)");
        return -1;
    }
    k->v_copies = Py_NewRef(PyTuple_GET_ITEM(versions, 0));
    k->v_lines = Py_NewRef(PyTuple_GET_ITEM(versions, 1));
    return 0;
}

/* Each of `names` as a member offset of `type` into *outs[i]; -1 with the
 * error set when one is not an object slot. */
static int
offsets(PyObject *type, const char *const *names, Py_ssize_t *const *outs, int n)
{
    for (int i = 0; i < n; i++) {
        *outs[i] = member_offset(type, names[i]);
        if (*outs[i] < 0) {
            return -1;
        }
    }
    return 0;
}

/* A descriptor field, of `type` unless that is NULL, held strongly in
 * *slot. */
static int
desc_ref(PyObject *desc, const char *name, PyTypeObject *type, PyObject **slot)
{
    PyObject *v = desc_get(desc, name);
    if (v == NULL) {
        return -1;
    }
    if (type != NULL && !PyObject_TypeCheck(v, type)) {
        PyErr_Format(PyExc_TypeError, "descriptor %s must be a %s", name,
                     type->tp_name);
        return -1;
    }
    *slot = Py_NewRef(v);
    return 0;
}

/* The truth of obj.name: 1, 0, or -1 on error. */
static int
attr_true(PyObject *obj, const char *name)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL) {
        return -1;
    }
    int truth = PyObject_IsTrue(v);
    Py_DECREF(v);
    return truth;
}

/* The gate-specific fields of the row descriptor. */
static int
adopt_gate(SchedObject *k, PyObject *row)
{
    if (k->gate == GATE_DLS) {
        if (desc_ref(row, "pages", &PyDict_Type, &k->w_pages) < 0
            || desc_ref(row, "private", NULL, &k->w_private) < 0
            || desc_ref(row, "shared", NULL, &k->w_shared) < 0
            || desc_ll(row, "page_size", &k->w_page_size) < 0) {
            return -1;
        }
        if (k->w_page_size <= 0) {
            PyErr_SetString(PyExc_ValueError, "page size must be positive");
            return -1;
        }
        return 0;
    }
    if (desc_ref(row, "homes", &PyDict_Type, &k->w_homes) < 0) {
        return -1;
    }
    if (k->gate == GATE_NEAT) {
        return desc_ref(row, "versions", &PyDict_Type, &k->w_versions);
    }
    static const char *const l2_names[] = {"directory", "locality"};
    static const char *const dir_names[] = {"sharers", "owner"};
    if (desc_ref(row, "directory_type", &PyType_Type, &k->w_dir_type) < 0
        || offsets(k->w_line_type, l2_names,
                   (Py_ssize_t *const[]){&k->off_l2_directory, &k->off_l2_locality}, 2) < 0
        || offsets(k->w_dir_type, dir_names,
                   (Py_ssize_t *const[]){&k->off_dir_sharers, &k->off_dir_owner}, 2) < 0) {
        return -1;
    }
    if (k->gate == GATE_PHASE) {
        if (desc_ref(row, "phases", &PyDict_Type, &k->w_phases) < 0
            || desc_ll(row, "write_shared", &k->w_write_shared) < 0) {
            return -1;
        }
        k->off_epoch = member_offset((PyObject *)Py_TYPE(k->w_engine), "_epoch");
        return k->off_epoch < 0 ? -1 : 0;
    }
    /* Adaptive. */
    static const char *const entry_names[] = {"mode", "remote_util", "active"};
    if (desc_ref(row, "classifier", NULL, &k->w_classifier) < 0
        || desc_ref(row, "on_remote_access", NULL, &k->w_on_remote) < 0
        || desc_ref(row, "on_write", NULL, &k->w_on_write) < 0
        || desc_ref(row, "remote", NULL, &k->w_remote) < 0
        || desc_ref(row, "entry_type", &PyType_Type, &k->w_entry_type) < 0
        || desc_ll(row, "pct", &k->w_pct) < 0
        || desc_ll(row, "limited_k", &k->w_limited_k) < 0
        || offsets(k->w_entry_type, entry_names,
                   (Py_ssize_t *const[]){&k->off_e_mode, &k->off_e_util,
                                         &k->off_e_active}, 3) < 0) {
        return -1;
    }
    /* A tracked REMOTE entry retires only under the RAT policy: Adapt1-way
     * makes remote terminal, and the Timestamp check reads the L1 set. */
    int one_way = attr_true(k->w_classifier, "one_way");
    int timestamp = one_way < 0 ? -1 : attr_true(k->w_classifier, "use_timestamp");
    if (timestamp < 0) {
        return -1;
    }
    k->w_policy = one_way ? D_ONE_WAY : timestamp ? D_TIMESTAMP_POLICY : ADMIT;
    if (!PyCallable_Check(k->w_on_remote)
        || !PyCallable_Check(k->w_on_write)) {
        PyErr_SetString(PyExc_ValueError, "malformed adaptive gate descriptor");
        return -1;
    }
    return 0;
}

/* The home-word row descriptor (ProtocolEngineBase.scheduler_word_path):
 * the shared retire body's structures plus one family's gate fields. */
static int
adopt_row(SchedObject *k, PyObject *row)
{
    if (!PyDict_Check(row)) {
        PyErr_SetString(PyExc_TypeError, "home-word row descriptor must be a dict");
        return -1;
    }
    PyObject *gate = desc_get(row, "gate");
    if (gate == NULL) {
        return -1;
    }
    static const char *const gates[] = {"dls", "adaptive", "phase", "neat"};
    for (int g = 0; g < 4 && PyUnicode_Check(gate); g++) {
        if (PyUnicode_CompareWithASCIIString(gate, gates[g]) == 0) {
            k->gate = GATE_DLS + g;
        }
    }
    if (k->gate == 0) {
        PyErr_SetString(PyExc_ValueError, "unknown home-word gate");
        return -1;
    }
    if (k->gate != GATE_DLS && !k->has_fast) {
        /* These gates decline on a resident L1 copy, which only the L1
         * mirror knows: without a fast path the row stays off. */
        return 0;
    }
    Py_ssize_t tiles = (Py_ssize_t)k->num_cores;
    long long l2_latency;
    static const char *const l2_names[] = {"last_use", "last_access", "dirty",
                                           "dirty_words", "busy_until"};
    if (desc_ref(row, "engine", NULL, &k->w_engine) < 0
        || desc_ref(row, "mesh", NULL, &k->w_mesh) < 0
        || desc_ref(row, "line_type", &PyType_Type, &k->w_line_type) < 0
        || desc_ll(row, "words_per_line", &k->w_words_per_line) < 0
        || desc_ll(row, "set_mask", &k->w_set_mask) < 0
        || desc_ll(row, "l2_latency", &l2_latency) < 0
        || desc_list(row, "l1s", tiles, &k->w_l1s) < 0
        || desc_list(row, "slices", tiles, &k->w_slices) < 0
        || desc_list(row, "stores", tiles, &k->w_stores) < 0
        || desc_list(row, "sets", tiles, &k->w_sets) < 0
        || desc_list(row, "history", tiles, &k->w_history) < 0
        || offsets(k->w_line_type, l2_names,
                   (Py_ssize_t *const[]){&k->off_l2_last_use, &k->off_l2_last_access,
                                         &k->off_l2_dirty, &k->off_l2_dirty_words,
                                         &k->off_l2_busy}, 5) < 0) {
        return -1;
    }
    if (!repro_mesh_check(k->w_mesh)) {
        PyErr_SetString(PyExc_TypeError, "row descriptor mesh must be a MeshKernel");
        return -1;
    }
    if (k->w_words_per_line <= 0 || k->w_set_mask < 0) {
        PyErr_SetString(PyExc_ValueError, "row geometry mismatch");
        return -1;
    }
    k->w_l2_latency = (double)l2_latency;
    /* Set lists never resize, set buckets and history flags are always
     * dicts, so the per-record index needs no check after this one. */
    for (Py_ssize_t h = 0; h < tiles; h++) {
        PyObject *sets = PyList_GET_ITEM(k->w_sets, h);
        if (!PyList_Check(sets) || PyList_GET_SIZE(sets) != k->w_set_mask + 1) {
            PyErr_SetString(PyExc_ValueError, "L2 set list size mismatch");
            return -1;
        }
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(sets); i++) {
            if (!PyDict_Check(PyList_GET_ITEM(sets, i))) {
                PyErr_SetString(PyExc_TypeError, "set bucket must be a dict");
                return -1;
            }
        }
        if (!PyDict_Check(PyList_GET_ITEM(k->w_history, h))) {
            PyErr_SetString(PyExc_TypeError, "history flags must be dicts");
            return -1;
        }
    }
    k->w_core_misses = PyMem_Calloc((size_t)tiles, sizeof(long long));
    k->w_slice_hits = PyMem_Calloc((size_t)tiles, sizeof(long long));
    k->w_slice_reads = PyMem_Calloc((size_t)tiles, sizeof(long long));
    k->w_slice_writes = PyMem_Calloc((size_t)tiles, sizeof(long long));
    if (k->w_core_misses == NULL || k->w_slice_hits == NULL
        || k->w_slice_reads == NULL || k->w_slice_writes == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (adopt_gate(k, row) < 0) {
        return -1;
    }
    k->has_row = 1;
    return 0;
}

static PyObject *
Sched_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *ops_cols, *addr_cols, *work_cols, *start_clocks;
    double l1_hit_latency;
    PyObject *access, *result_type, *fast, *row;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "SchedKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOdOOOO", &ops_cols, &addr_cols, &work_cols,
                          &start_clocks, &l1_hit_latency, &access,
                          &result_type, &fast, &row)) {
        return NULL;
    }
    SchedObject *k = (SchedObject *)type->tp_alloc(type, 0);
    if (k == NULL) {
        return NULL;
    }
    Py_ssize_t num_cores = PySequence_Size(ops_cols);
    if (num_cores <= 0) {
        if (num_cores == 0) {
            PyErr_SetString(PyExc_ValueError, "need at least one core");
        }
        Py_DECREF(k);
        return NULL;
    }
    k->num_cores = (long long)num_cores;
    k->core_bits = 1;
    while ((1LL << k->core_bits) < k->num_cores) {
        k->core_bits += 1;
    }
    k->l1_hit_latency = l1_hit_latency;
    k->current = -1;
    k->now = 0.0;

    k->views = PyMem_Calloc((size_t)(3 * num_cores), sizeof(Py_buffer));
    k->ops = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->addrs = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->works = PyMem_Calloc((size_t)num_cores, sizeof(long long *));
    k->lengths = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->indices = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->clocks = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->compute = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l1_to_l2 = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_waiting = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_sharers = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->bd_l2_offchip = PyMem_Calloc((size_t)num_cores, sizeof(double));
    k->hits_r = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->hits_w = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->hit_seq = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->counter_base = PyMem_Calloc((size_t)num_cores, sizeof(long long));
    k->heap = PyMem_Calloc((size_t)num_cores, sizeof(HeapEntry));
    k->core_objs = PyMem_Calloc((size_t)num_cores, sizeof(PyObject *));
    if (k->views == NULL || k->ops == NULL || k->addrs == NULL
        || k->works == NULL || k->lengths == NULL || k->indices == NULL
        || k->clocks == NULL || k->compute == NULL || k->bd_l1_to_l2 == NULL
        || k->bd_l2_waiting == NULL || k->bd_l2_sharers == NULL
        || k->bd_l2_offchip == NULL || k->hits_r == NULL || k->hits_w == NULL
        || k->hit_seq == NULL || k->counter_base == NULL || k->heap == NULL
        || k->core_objs == NULL) {
        PyErr_NoMemory();
        Py_DECREF(k);
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        k->core_objs[c] = PyLong_FromLongLong(c);
        if (k->core_objs[c] == NULL) {
            Py_DECREF(k);
            return NULL;
        }
    }
    if (PySequence_Size(addr_cols) != num_cores
        || PySequence_Size(work_cols) != num_cores) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_ValueError, "column sets disagree on core count");
        }
        Py_DECREF(k);
        return NULL;
    }
    if (adopt_columns(k, ops_cols, k->ops, k->lengths, 0) < 0
        || adopt_columns(k, addr_cols, k->addrs, k->lengths, 1) < 0
        || adopt_columns(k, work_cols, k->works, k->lengths, 1) < 0) {
        Py_DECREF(k);
        return NULL;
    }
    if (PySequence_Size(start_clocks) != num_cores) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_ValueError, "start_clocks length mismatch");
        }
        Py_DECREF(k);
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *v = PySequence_GetItem(start_clocks, (Py_ssize_t)c);
        if (v == NULL) {
            Py_DECREF(k);
            return NULL;
        }
        double d = PyFloat_AsDouble(v);
        Py_DECREF(v);
        if (d == -1.0 && PyErr_Occurred()) {
            Py_DECREF(k);
            return NULL;
        }
        k->clocks[c] = d;
    }
    k->access = Py_NewRef(access);
    k->str_use_counter = PyUnicode_InternFromString("_use_counter");
    if (k->str_use_counter == NULL) {
        Py_DECREF(k);
        return NULL;
    }

    k->off_r_latency = member_offset(result_type, "latency");
    k->off_r_l1l2 = member_offset(result_type, "l1_to_l2");
    k->off_r_l2w = member_offset(result_type, "l2_waiting");
    k->off_r_l2s = member_offset(result_type, "l2_sharers");
    k->off_r_l2o = member_offset(result_type, "l2_offchip");
    k->off_r_hit = member_offset(result_type, "hit");
    if (k->off_r_latency < 0 || k->off_r_l1l2 < 0 || k->off_r_l2w < 0
        || k->off_r_l2s < 0 || k->off_r_l2o < 0 || k->off_r_hit < 0) {
        Py_DECREF(k);
        return NULL;
    }

    if (fast != Py_None) {
        if (!PyDict_Check(fast)) {
            PyErr_SetString(PyExc_TypeError, "fast-path descriptor must be a dict");
            Py_DECREF(k);
            return NULL;
        }
        PyObject *stores = PyDict_GetItemString(fast, "stores");
        PyObject *exclusive = PyDict_GetItemString(fast, "exclusive");
        PyObject *modified = PyDict_GetItemString(fast, "modified");
        PyObject *line_type = PyDict_GetItemString(fast, "line_type");
        if (stores == NULL || exclusive == NULL || modified == NULL
            || line_type == NULL || !PyList_Check(stores)
            || PyList_GET_SIZE(stores) != num_cores) {
            PyErr_SetString(PyExc_ValueError,
                            "fast-path descriptor missing C-adoption fields");
            Py_DECREF(k);
            return NULL;
        }
        k->off_state = member_offset(line_type, "state");
        k->off_last_use = member_offset(line_type, "last_use");
        k->off_last_access = member_offset(line_type, "last_access");
        k->off_utilization = member_offset(line_type, "utilization");
        if (k->off_state < 0 || k->off_last_use < 0 || k->off_last_access < 0
            || k->off_utilization < 0) {
            Py_DECREF(k);
            return NULL;
        }
        k->stores_list = Py_NewRef(stores);
        k->exclusive_obj = Py_NewRef(exclusive);
        k->modified_obj = Py_NewRef(modified);
        k->stores = PyMem_Calloc((size_t)num_cores, sizeof(PyObject *));
        if (k->stores == NULL) {
            PyErr_NoMemory();
            Py_DECREF(k);
            return NULL;
        }
        for (long long c = 0; c < k->num_cores; c++) {
            k->stores[c] = PyList_GET_ITEM(stores, (Py_ssize_t)c);
        }
        if (map_rehash(k, 256) < 0) {
            Py_DECREF(k);
            return NULL;
        }
        /* Adopt the current L1 membership (the warmup pass may have filled
         * the stores); afterwards every change arrives through note(). */
        for (long long c = 0; c < k->num_cores; c++) {
            PyObject *sets = PyObject_GetAttrString(k->stores[c], "_sets");
            if (sets == NULL || !PyList_Check(sets)) {
                Py_XDECREF(sets);
                if (!PyErr_Occurred()) {
                    PyErr_SetString(PyExc_TypeError, "_sets must be a list");
                }
                Py_DECREF(k);
                return NULL;
            }
            for (Py_ssize_t s = 0; s < PyList_GET_SIZE(sets); s++) {
                PyObject *bucket = PyList_GET_ITEM(sets, s);
                if (!PyDict_Check(bucket)) {
                    Py_DECREF(sets);
                    PyErr_SetString(PyExc_TypeError, "set bucket must be a dict");
                    Py_DECREF(k);
                    return NULL;
                }
                Py_ssize_t pos = 0;
                PyObject *key, *value;
                while (PyDict_Next(bucket, &pos, &key, &value)) {
                    long long line = PyLong_AsLongLong(key);
                    if (line == -1 && PyErr_Occurred()) {
                        Py_DECREF(sets);
                        Py_DECREF(k);
                        return NULL;
                    }
                    if (map_insert(k, (line << k->core_bits) | c, value) < 0) {
                        Py_DECREF(sets);
                        Py_DECREF(k);
                        return NULL;
                    }
                }
            }
            Py_DECREF(sets);
        }
        if (adopt_versions(k, fast) < 0) {
            Py_DECREF(k);
            return NULL;
        }
        k->has_fast = 1;
    }
    if (row != Py_None && adopt_row(k, row) < 0) {
        Py_DECREF(k);
        return NULL;
    }

    for (long long c = 0; c < k->num_cores; c++) {
        if (k->lengths[c] > 0) {
            heap_push(k, k->clocks[c], c);
        }
    }
    return (PyObject *)k;
}

/* ------------------------------------------------------------------ */
/* The record loop                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
Sched_run(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    long long core = k->current;
    double now = k->now;
    if (core < 0) {
        if (k->heap_len == 0) {
            if (flush_dirty(k) < 0) {
                return NULL;
            }
            Py_RETURN_NONE;
        }
        heap_pop(k, &now, &core);
    }
    for (;;) {
        const long long *ops = k->ops[core];
        const long long *addrs = k->addrs[core];
        const long long *works = k->works[core];
        long long n = k->lengths[core];
        long long i = k->indices[core];
        double acc = k->compute[core];
        for (;;) {
            long long op = ops[i];
            long long workv = works[i];
            double t;
            if (op <= K_OP_WRITE) {
                double work = (double)workv + k->l1_hit_latency;
                acc += work;
                t = now + work;
                long long address = addrs[i];
                i += 1;
                long long line = address >> K_LINE_BITS;
                MapCell *cell = NULL;
                int resident = 0;  /* a mirrored L1 copy, hit or not */
                if (k->has_fast) {
                    cell = map_find(k, (line << k->core_bits) | core);
                    resident = cell != NULL;
                    if (cell != NULL && op == K_OP_WRITE) {
                        /* Silent-write predicate: read the state slot per
                         * probe (never cached: the engine rewrites it
                         * during misses).  Resident lines are S/E/M, so
                         * identity against the E and M members is exactly
                         * `state >= EXCLUSIVE`.  Under the Neat gate no
                         * write retires natively. */
                        PyObject *st = *SLOT(cell->entry, k->off_state);
                        if (k->v_lines != NULL
                            || (st != k->exclusive_obj && st != k->modified_obj)) {
                            cell = NULL;
                        }
                    }
                    else if (cell != NULL && k->v_lines != NULL) {
                        int fresh = neat_copy_fresh(k, core, line);
                        if (fresh < 0) {
                            return NULL;
                        }
                        if (!fresh) {
                            cell = NULL;  /* stale: access() self-invalidates */
                        }
                    }
                }
                int retired = 0;
                if (cell == NULL && k->has_row) {
                    double latency, wait;
                    retired = home_word(k, core, op == K_OP_WRITE, address, t,
                                        resident, &latency, &wait);
                    if (retired < 0) {
                        return NULL;
                    }
                    if (retired) {
                        /* AccessResult.l1_to_l2 (l2_offchip is 0.0) and the
                         * scheduler's accumulation, in the same order. */
                        k->bd_l1_to_l2[core] += latency - wait - 0.0;
                        k->bd_l2_waiting[core] += wait;
                        k->bd_l2_sharers[core] += 0.0;
                        k->bd_l2_offchip[core] += 0.0;
                        t += latency;
                    }
                }
                if (cell != NULL) {
                    long long seq = k->hit_seq[core] + 1;
                    k->hit_seq[core] = seq;
                    if (cell->hit_idx == 0 && dirty_push(k, cell) < 0) {
                        return NULL;
                    }
                    cell->hit_idx = seq;
                    cell->util_delta += 1;
                    cell->last_access = t;
                    if (op == K_OP_WRITE) {
                        cell->upgraded = 1;
                        k->hits_w[core] += 1;
                    }
                    else {
                        k->hits_r[core] += 1;
                    }
                }
                else if (!retired) {
                    /* Cold: hand the reference engine the exact state the
                     * pure-Python loop would (flush first), then absorb
                     * the miss result natively. */
                    k->indices[core] = i;
                    k->compute[core] = acc;
                    k->current = core;
                    k->now = now;
                    if (flush_dirty(k) < 0) {
                        return NULL;
                    }
                    k->exits_access += 1;
                    PyObject *res =
                        call_access(k, core, op == K_OP_WRITE, address, t);
                    if (res == NULL) {
                        return NULL;
                    }
                    PyObject *hit = *SLOT(res, k->off_r_hit);
                    int truth = hit == NULL ? -1 : PyObject_IsTrue(hit);
                    if (truth < 0) {
                        if (!PyErr_Occurred()) {
                            PyErr_SetString(PyExc_AttributeError,
                                            "unset AccessResult.hit");
                        }
                        Py_DECREF(res);
                        return NULL;
                    }
                    if (!truth) {
                        double v;
                        if (slot_double(k, res, k->off_r_l1l2, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l1_to_l2[core] += v;
                        if (slot_double(k, res, k->off_r_l2w, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_waiting[core] += v;
                        if (slot_double(k, res, k->off_r_l2s, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_sharers[core] += v;
                        if (slot_double(k, res, k->off_r_l2o, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        k->bd_l2_offchip[core] += v;
                        if (slot_double(k, res, k->off_r_latency, &v) < 0) {
                            Py_DECREF(res);
                            return NULL;
                        }
                        t += v;
                    }
                    Py_DECREF(res);
                }
            }
            else if (op == K_OP_WORK) {
                t = now + (double)workv;
                i += 1;
                acc += (double)workv;
            }
            else {
                /* Synchronization record: exit to the Python trampoline
                 * *before* processing it (cursor still points at it). */
                k->indices[core] = i;
                k->compute[core] = acc;
                k->current = core;
                k->now = now;
                if (flush_dirty(k) < 0) {
                    return NULL;
                }
                k->exits_sync += 1;
                return Py_BuildValue("(LLdLd)", op, core, now, i, acc);
            }

            if (i < n) {
                if (k->heap_len > 0) {
                    const HeapEntry *root = &k->heap[0];
                    if (t < root->t || (t == root->t && core < root->core)) {
                        now = t;  /* still the min-clock core */
                        continue;
                    }
                    k->indices[core] = i;
                    k->clocks[core] = t;
                    k->compute[core] = acc;
                    heap_replace_root(k, t, core, &now, &core);
                }
                else {
                    now = t;  /* only runnable core left */
                    continue;
                }
            }
            else {
                k->indices[core] = i;
                k->clocks[core] = t;
                k->compute[core] = acc;
                if (k->heap_len > 0) {
                    heap_pop(k, &now, &core);
                }
                else {
                    k->current = -1;
                    if (flush_dirty(k) < 0) {
                        return NULL;
                    }
                    Py_RETURN_NONE;
                }
            }
            break;  /* switched cores: reload column pointers */
        }
    }
}

/* ------------------------------------------------------------------ */
/* Trampoline re-entry points                                          */
/* ------------------------------------------------------------------ */

static int
parse_core(SchedObject *k, PyObject *arg, long long *out)
{
    long long core = PyLong_AsLongLong(arg);
    if (core == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (core < 0 || core >= k->num_cores) {
        PyErr_SetString(PyExc_IndexError, "core out of range");
        return -1;
    }
    *out = core;
    return 0;
}

static PyObject *
Sched_advance(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "advance(core, i, acc)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long i = PyLong_AsLongLong(args[1]);
    if (i == -1 && PyErr_Occurred()) {
        return NULL;
    }
    double acc = PyFloat_AsDouble(args[2]);
    if (acc == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->indices[core] = i;
    k->compute[core] = acc;
    k->current = -1;
    Py_RETURN_NONE;
}

static PyObject *
Sched_continue_at(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "continue_at(core, i, acc, t)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long i = PyLong_AsLongLong(args[1]);
    if (i == -1 && PyErr_Occurred()) {
        return NULL;
    }
    double acc = PyFloat_AsDouble(args[2]);
    if (acc == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    double t = PyFloat_AsDouble(args[3]);
    if (t == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->indices[core] = i;
    k->compute[core] = acc;
    /* The pure-Python loop's post-record tail, verbatim. */
    if (i < k->lengths[core]) {
        if (k->heap_len > 0) {
            const HeapEntry *root = &k->heap[0];
            if (t < root->t || (t == root->t && core < root->core)) {
                k->current = core;
                k->now = t;
            }
            else {
                k->clocks[core] = t;
                double nnow;
                long long ncore;
                heap_replace_root(k, t, core, &nnow, &ncore);
                k->current = ncore;
                k->now = nnow;
            }
        }
        else {
            k->current = core;
            k->now = t;
        }
    }
    else {
        k->clocks[core] = t;
        if (k->heap_len > 0) {
            double nnow;
            long long ncore;
            heap_pop(k, &nnow, &ncore);
            k->current = ncore;
            k->now = nnow;
        }
        else {
            k->current = -1;
        }
    }
    Py_RETURN_NONE;
}

static PyObject *
Sched_wake(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "wake(core, t)");
        return NULL;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    double t = PyFloat_AsDouble(args[1]);
    if (t == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    k->clocks[core] = t;
    if (k->indices[core] < k->lengths[core]) {
        heap_push(k, t, core);
        Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

/* note(core, event, line, entry): SetAssocCache._observer hook.
 * event 0 = insert (entry resident, bookkeeping done), 1 = remove,
 * 2 = clear the whole store. */
static PyObject *
Sched_note(SchedObject *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "note(core, event, line, entry)");
        return NULL;
    }
    if (!k->has_fast) {
        Py_RETURN_NONE;
    }
    long long core;
    if (parse_core(k, args[0], &core) < 0) {
        return NULL;
    }
    long long event = PyLong_AsLongLong(args[1]);
    if (event == -1 && PyErr_Occurred()) {
        return NULL;
    }
    long long line = PyLong_AsLongLong(args[2]);
    if (line == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (event == 0) {
        if (map_insert(k, (line << k->core_bits) | core, args[3]) < 0) {
            return NULL;
        }
    }
    else if (event == 1) {
        map_remove(k, (line << k->core_bits) | core);
    }
    else if (event == 2) {
        long long core_mask = (1LL << k->core_bits) - 1;
        for (Py_ssize_t pos = 0; pos < k->map_cap; pos++) {
            MapCell *cell = &k->map[pos];
            if (cell->key >= 0 && (cell->key & core_mask) == core) {
                cell->key = MAP_TOMBSTONE;
                cell->entry = NULL;
                cell->util_delta = 0;
                cell->hit_idx = 0;
                cell->upgraded = 0;
                k->map_len -= 1;
            }
        }
    }
    else {
        PyErr_SetString(PyExc_ValueError, "unknown observer event");
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Sched_clocks(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New((Py_ssize_t)k->num_cores);
    if (out == NULL) {
        return NULL;
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *v = PyFloat_FromDouble(k->clocks[c]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, (Py_ssize_t)c, v);
    }
    return out;
}

static PyObject *
Sched_finish(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    if (flush_dirty(k) < 0 || fold_row_counters(k) < 0) {
        return NULL;
    }
    PyObject *hits_r = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *hits_w = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *rows = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *declines = PyDict_New();
    if (hits_r == NULL || hits_w == NULL || rows == NULL || declines == NULL) {
        goto fail;
    }
    for (int d = 0; d < N_DECLINES; d++) {
        if (k->declines[d] == 0) {
            continue;
        }
        PyObject *n = PyLong_FromLongLong(k->declines[d]);
        int set = n == NULL ? -1 : PyDict_SetItemString(declines, decline_names[d], n);
        Py_XDECREF(n);
        if (set < 0) {
            goto fail;
        }
    }
    for (long long c = 0; c < k->num_cores; c++) {
        PyObject *r = PyLong_FromLongLong(k->hits_r[c]);
        if (r == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(hits_r, (Py_ssize_t)c, r);
        PyObject *w = PyLong_FromLongLong(k->hits_w[c]);
        if (w == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(hits_w, (Py_ssize_t)c, w);
        PyObject *row = Py_BuildValue(
            "(ddddd)", k->compute[c], k->bd_l1_to_l2[c], k->bd_l2_waiting[c],
            k->bd_l2_sharers[c], k->bd_l2_offchip[c]);
        if (row == NULL) {
            goto fail;
        }
        PyList_SET_ITEM(rows, (Py_ssize_t)c, row);
    }
    PyObject *out = Py_BuildValue("(OOO(LLLL)O)", hits_r, hits_w, rows,
                                  k->word_r, k->word_w, k->exits_access,
                                  k->exits_sync, declines);
    Py_DECREF(hits_r);
    Py_DECREF(hits_w);
    Py_DECREF(rows);
    Py_DECREF(declines);
    return out;
fail:
    Py_XDECREF(hits_r);
    Py_XDECREF(hits_w);
    Py_XDECREF(rows);
    Py_XDECREF(declines);
    return NULL;
}

static PyObject *
Sched_stats(SchedObject *k, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:L,s:n,s:n,s:n,s:n,s:L}", "num_cores", k->num_cores, "map_cap",
        k->map_cap, "map_len", k->map_len, "dirty_len", k->dirty_len,
        "heap_len", k->heap_len, "current", k->current);
}

static PyMethodDef Sched_methods[] = {
    {"run", (PyCFunction)Sched_run, METH_NOARGS,
     "Run until a sync record, an error, or completion; returns None when "
     "every core is drained, else (op, core, now, i, acc)."},
    {"advance", (PyCFunction)(void (*)(void))Sched_advance, METH_FASTCALL,
     "advance(core, i, acc): store cursor state and park the core."},
    {"continue_at", (PyCFunction)(void (*)(void))Sched_continue_at,
     METH_FASTCALL,
     "continue_at(core, i, acc, t): store cursor state and reschedule "
     "through the post-record tail."},
    {"wake", (PyCFunction)(void (*)(void))Sched_wake, METH_FASTCALL,
     "wake(core, t) -> bool: set the core's clock; re-queue it when records "
     "remain (returns whether it was queued)."},
    {"note", (PyCFunction)(void (*)(void))Sched_note, METH_FASTCALL,
     "note(core, event, line, entry): L1 store membership observer."},
    {"clocks", (PyCFunction)Sched_clocks, METH_NOARGS,
     "Final per-core clocks as a list of floats."},
    {"finish", (PyCFunction)Sched_finish, METH_NOARGS,
     "Flush deferred state and fold the home-word row's counters; return "
     "(hits_r, hits_w, per-core breakdown rows (compute, l1_to_l2, "
     "l2_waiting, l2_sharers, l2_offchip), (word_reads, word_writes, "
     "access_exits, sync_exits), {decline reason: count})."},
    {"stats", (PyCFunction)Sched_stats, METH_NOARGS,
     "Introspection counters (tests only)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SchedType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.SchedKernel",
    .tp_basicsize = sizeof(SchedObject),
    .tp_dealloc = (destructor)Sched_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Native min-clock scheduler over one columnar trace execution",
    .tp_methods = Sched_methods,
    .tp_new = Sched_new,
};

int
repro_sched_register(PyObject *mod)
{
    if (PyType_Ready(&SchedType) < 0) {
        return -1;
    }
    if (PyModule_AddObjectRef(mod, "SchedKernel", (PyObject *)&SchedType) < 0
        || PyModule_AddIntConstant(mod, "OP_READ", K_OP_READ) < 0
        || PyModule_AddIntConstant(mod, "OP_WRITE", K_OP_WRITE) < 0
        || PyModule_AddIntConstant(mod, "OP_BARRIER", K_OP_BARRIER) < 0
        || PyModule_AddIntConstant(mod, "OP_LOCK", K_OP_LOCK) < 0
        || PyModule_AddIntConstant(mod, "OP_UNLOCK", K_OP_UNLOCK) < 0
        || PyModule_AddIntConstant(mod, "OP_WORK", K_OP_WORK) < 0
        || PyModule_AddIntConstant(mod, "LINE_BITS", K_LINE_BITS) < 0
        || PyModule_AddIntConstant(mod, "WORD_BITS", K_WORD_BITS) < 0
        || PyModule_AddIntConstant(mod, "MISS_COLD", K_MISS_COLD) < 0
        || PyModule_AddIntConstant(mod, "MISS_CAPACITY", K_MISS_CAPACITY) < 0
        || PyModule_AddIntConstant(mod, "MISS_SHARING", K_MISS_SHARING) < 0
        || PyModule_AddIntConstant(mod, "MISS_WORD", K_MISS_WORD) < 0
        || PyModule_AddIntConstant(mod, "MISS_TYPES", K_MISS_TYPES) < 0
        || PyModule_AddIntConstant(mod, "EVER_CACHED", K_EVER_CACHED) < 0
        || PyModule_AddIntConstant(mod, "LAST_REMOVAL_INVAL",
                                   K_LAST_REMOVAL_INVAL) < 0
        || PyModule_AddIntConstant(mod, "EVER_REMOTE", K_EVER_REMOTE) < 0
        || PyModule_AddIntConstant(mod, "MSG_READ_REQ", K_MSG_READ_REQ) < 0
        || PyModule_AddIntConstant(mod, "MSG_WRITE_REQ", K_MSG_WRITE_REQ) < 0
        || PyModule_AddIntConstant(mod, "MSG_WORD_REPLY", K_MSG_WORD_REPLY) < 0
        || PyModule_AddIntConstant(mod, "MSG_WORD_WRITE_ACK",
                                   K_MSG_WORD_WRITE_ACK) < 0
        || PyModule_AddIntConstant(mod, "SCHED_ABI_VERSION",
                                   K_SCHED_ABI_VERSION) < 0) {
        return -1;
    }
    return 0;
}
