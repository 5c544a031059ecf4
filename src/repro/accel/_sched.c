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
 * Two more shapes retire natively (DESIGN.md section 14, "Native shapes"):
 *
 *   - the Neat read-hit gate: with a `versions` descriptor field a resident
 *     read retires as a hit only while the copy's fetch version equals the
 *     line version (both dicts re-read per record); no write retires;
 *   - the DLS word path (the `word` descriptor): a load/store to a line
 *     resident at its word home runs the resident branch of
 *     DLSEngine.access natively - both legs through the mesh kernel's
 *     traverse_links, serialization, L2 bookkeeping, history flags and
 *     miss typing.  It declines (and calls access) whenever a Python-side
 *     effect could be due: an unclassified page, a private page owned by
 *     another core, a non-resident line, an unresolved route.  It re-reads
 *     the page table, the set dict and the route memo every record and
 *     holds no borrowed pointer across any Python call, so it needs no
 *     mirror and no observer.  Its order-independent integer counters
 *     (energy, slice, miss-type and mesh traffic counts) accumulate
 *     natively and are folded into the Python objects by finish().
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
#define K_SCHED_ABI_VERSION 2

/* Mesh kernel entry points (_kernel.c, same shared object). */
extern int repro_mesh_check(PyObject *obj);
extern int repro_mesh_traverse(PyObject *kernel, Py_ssize_t handle,
                               double t_head, long long flits, double *tail);

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

    /* DLS word path (has_word = 0 when the engine has none). */
    int has_word;
    PyObject *w_engine;          /* strong: energy/miss_stats read at fold */
    PyObject *w_mesh;            /* strong: the network's MeshKernel */
    PyObject *w_network;         /* strong: traffic counters folded here */
    PyObject *w_paths;           /* strong: network.paths route memo */
    PyObject *w_pages;           /* strong: page table {page: (kind, owner)} */
    PyObject *w_private;         /* strong: PageKind.PRIVATE */
    PyObject *w_shared;          /* strong: PageKind.SHARED */
    PyObject *w_slices;          /* strong: per-tile L2Slice objects */
    PyObject *w_stores;          /* strong: per-tile L2 SetAssocCache */
    PyObject *w_sets;            /* strong: per-tile store._sets lists */
    PyObject *w_history;         /* strong: per-core history-flag dicts */
    PyObject *w_line_type;       /* strong: L2Line */
    long long w_page_size;
    long long w_words_per_line;
    long long w_set_mask;
    double w_l2_latency;
    long long w_flits[4];        /* READ_REQ, WRITE_REQ, WORD_REPLY, ACK */
    Py_ssize_t off_l2_last_use, off_l2_last_access, off_l2_dirty;
    Py_ssize_t off_l2_dirty_words, off_l2_busy;
    /* Natively accumulated counters, folded in by finish(). */
    long long *w_slice_hits;
    long long *w_slice_reads;
    long long *w_slice_writes;
    long long w_miss[K_MISS_TYPES];
    long long w_messages, w_flits_sent, w_link_traversals;

    /* Retirements and exits by reason (telemetry; RunStats-neutral). */
    long long word_r, word_w;    /* records retired by the word path */
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

static int
slot_double(SchedObject *k, PyObject *obj, Py_ssize_t off, double *out)
{
    PyObject *v = *SLOT(obj, off);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset AccessResult slot");
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
/* Native shapes: the Neat read-hit gate and the DLS word path         */
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

/* Read a (hops, handle) route descriptor; 0 = unresolved (decline). */
static int
route_of(PyObject *path, long long *hops, Py_ssize_t *handle)
{
    if (!PyTuple_Check(path) || PyTuple_GET_SIZE(path) < 5) {
        return 0;
    }
    *hops = PyLong_AsLongLong(PyTuple_GET_ITEM(path, 1));
    *handle = PyLong_AsSsize_t(PyTuple_GET_ITEM(path, 4));
    if (PyErr_Occurred()) {
        return -1;
    }
    return 1;
}

/* One message leg, as MeshNetwork.traverse_path with the compiled kernel:
 * an empty route arrives instantly and is not counted. */
static int
word_leg(SchedObject *k, long long hops, Py_ssize_t handle, double t_head,
         long long flits, double *tail)
{
    if (hops == 0) {
        *tail = t_head;
        return 0;
    }
    k->w_link_traversals += flits * hops;
    k->w_messages += 1;
    k->w_flits_sent += flits;
    return repro_mesh_traverse(k->w_mesh, handle, t_head, flits, tail);
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

/* The resident branch of DLSEngine.access, in the same order.  Returns 1
 * when the record retired (latency and L2 waiting time in the out
 * parameters), 0 when it must go to access() untouched, -1 on error.
 * Every decline happens before the first side effect. */
static int
word_access(SchedObject *k, long long core, int is_write, long long address,
            double now, double *latency, double *l2_waiting)
{
    long long num_tiles = k->num_cores;
    long long line = address >> K_LINE_BITS;
    long long word = (address >> K_WORD_BITS) & (k->w_words_per_line - 1);

    /* Home: placement.data_word_home minus its classification effects. */
    PyObject *page = PyLong_FromLongLong(address / k->w_page_size);
    if (page == NULL) {
        return -1;
    }
    PyObject *entry = PyDict_GetItemWithError(k->w_pages, page);
    Py_DECREF(page);
    if (entry == NULL || !PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
        return PyErr_Occurred() ? -1 : 0;  /* first touch: classify */
    }
    PyObject *kind = PyTuple_GET_ITEM(entry, 0);
    long long home;
    if (kind == k->w_shared) {
        home = (line * k->w_words_per_line + word) % num_tiles;
    }
    else if (kind == k->w_private) {
        home = PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 1));
        if (home != core) {
            /* Another core's page: transition and flush are due. */
            return PyErr_Occurred() ? -1 : 0;
        }
    }
    else {
        return 0;  /* instruction page: access() raises */
    }

    PyObject *line_o = PyLong_FromLongLong(line);
    if (line_o == NULL) {
        return -1;
    }
    int rc = 0;
    PyObject *sets = PyList_GET_ITEM(k->w_sets, (Py_ssize_t)home);
    PyObject *bucket = PyList_GET_ITEM(sets, (Py_ssize_t)(line & k->w_set_mask));
    PyObject *l2line = PyDict_GetItemWithError(bucket, line_o);
    PyObject *hist = PyList_GET_ITEM(k->w_history, (Py_ssize_t)core);
    long long hops1, hops2;
    Py_ssize_t handle1, handle2;
    if (l2line == NULL || Py_TYPE(l2line) != (PyTypeObject *)k->w_line_type
        || !PyDict_Check(hist)) {
        goto done;  /* L2 miss: off-chip fill */
    }
    rc = route_of(PyList_GET_ITEM(k->w_paths, (Py_ssize_t)(core * num_tiles + home)),
                  &hops1, &handle1);
    if (rc > 0) {
        rc = route_of(PyList_GET_ITEM(k->w_paths, (Py_ssize_t)(home * num_tiles + core)),
                      &hops2, &handle2);
    }
    if (rc <= 0) {
        goto done;  /* a route is still unresolved */
    }
    PyObject *busy_o = *SLOT(l2line, k->off_l2_busy);
    PyObject *mask_o = *SLOT(l2line, k->off_l2_dirty_words);
    if (busy_o == NULL || mask_o == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset L2Line slot");
        goto fail;
    }
    double busy = PyFloat_AsDouble(busy_o);
    long long mask = PyLong_AsLongLong(mask_o);
    if (PyErr_Occurred()) {
        goto fail;
    }

    /* Retiring.  Request and reply legs: MeshNetwork.traverse_chain. */
    double t1, reply_t;
    if (word_leg(k, hops1, handle1, now, k->w_flits[is_write ? 1 : 0], &t1) < 0) {
        goto fail;
    }
    double start = busy > t1 ? busy : t1;
    if (word_leg(k, hops2, handle2, start + k->w_l2_latency,
                 k->w_flits[is_write ? 3 : 2], &reply_t) < 0) {
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

    *latency = reply_t - now;
    *l2_waiting = wait;
    if (is_write) {
        k->word_w += 1;
    }
    else {
        k->word_r += 1;
    }
    rc = 1;
    goto done;
fail:
    rc = -1;
done:
    Py_DECREF(line_o);
    if (rc == 0 && PyErr_Occurred()) {
        rc = -1;
    }
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

/* Fold the word path's order-independent counters into the engine's
 * Python objects (integer sums, so the point of folding cannot change a
 * result).  The energy and miss-stat objects are read here, not at
 * construction: reset_stats replaces them between passes. */
static int
fold_word_counters(SchedObject *k)
{
    if (!k->has_word) {
        return 0;
    }
    long long words = k->word_r + k->word_w;
    PyObject *energy = PyObject_GetAttrString(k->w_engine, "energy");
    if (energy == NULL) {
        return -1;
    }
    int rc = add_attr(energy, "l1d_tag_accesses", words) < 0
             || add_attr(energy, "l2_tag_accesses", words) < 0
             || add_attr(energy, "l2_word_reads", k->word_r) < 0
             || add_attr(energy, "l2_word_writes", k->word_w) < 0;
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
    }
    if (add_attr(k->w_network, "messages_sent", k->w_messages) < 0
        || add_attr(k->w_network, "flits_sent", k->w_flits_sent) < 0
        || add_attr(k->w_network, "link_flit_traversals", k->w_link_traversals) < 0) {
        return -1;
    }
    k->w_messages = k->w_flits_sent = k->w_link_traversals = 0;
    k->has_word = 0;  /* folded once; the kernel is done */
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
    Py_XDECREF(k->w_network);
    Py_XDECREF(k->w_paths);
    Py_XDECREF(k->w_pages);
    Py_XDECREF(k->w_private);
    Py_XDECREF(k->w_shared);
    Py_XDECREF(k->w_slices);
    Py_XDECREF(k->w_stores);
    Py_XDECREF(k->w_sets);
    Py_XDECREF(k->w_history);
    Py_XDECREF(k->w_line_type);
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

/* DLS word-path descriptor (DLSEngine.scheduler_word_path). */
static int
adopt_word_path(SchedObject *k, PyObject *word)
{
    if (!PyDict_Check(word)) {
        PyErr_SetString(PyExc_TypeError, "word-path descriptor must be a dict");
        return -1;
    }
    Py_ssize_t tiles = (Py_ssize_t)k->num_cores;
    PyObject *engine = desc_get(word, "engine");
    PyObject *mesh = desc_get(word, "mesh");
    PyObject *network = desc_get(word, "network");
    PyObject *pages = desc_get(word, "pages");
    PyObject *private_ = desc_get(word, "private");
    PyObject *shared = desc_get(word, "shared");
    PyObject *line_type = desc_get(word, "line_type");
    PyObject *flits = desc_get(word, "flits");
    if (engine == NULL || mesh == NULL || network == NULL || pages == NULL
        || private_ == NULL || shared == NULL || line_type == NULL
        || flits == NULL) {
        return -1;
    }
    if (!repro_mesh_check(mesh) || !PyDict_Check(pages)
        || !PyType_Check(line_type) || !PyTuple_Check(flits)
        || PyTuple_GET_SIZE(flits) != 4) {
        PyErr_SetString(PyExc_TypeError, "malformed word-path descriptor");
        return -1;
    }
    long long l2_latency;
    if (desc_ll(word, "page_size", &k->w_page_size) < 0
        || desc_ll(word, "words_per_line", &k->w_words_per_line) < 0
        || desc_ll(word, "set_mask", &k->w_set_mask) < 0
        || desc_ll(word, "l2_latency", &l2_latency) < 0) {
        return -1;
    }
    if (k->w_page_size <= 0 || k->w_words_per_line <= 0 || k->w_set_mask < 0) {
        PyErr_SetString(PyExc_ValueError, "word-path geometry mismatch");
        return -1;
    }
    k->w_l2_latency = (double)l2_latency;
    for (Py_ssize_t f = 0; f < 4; f++) {
        k->w_flits[f] = PyLong_AsLongLong(PyTuple_GET_ITEM(flits, f));
        if (k->w_flits[f] == -1 && PyErr_Occurred()) {
            return -1;
        }
    }
    k->w_engine = Py_NewRef(engine);
    k->w_mesh = Py_NewRef(mesh);
    k->w_network = Py_NewRef(network);
    k->w_pages = Py_NewRef(pages);
    k->w_private = Py_NewRef(private_);
    k->w_shared = Py_NewRef(shared);
    k->w_line_type = Py_NewRef(line_type);
    if (desc_list(word, "paths", tiles * tiles, &k->w_paths) < 0
        || desc_list(word, "slices", tiles, &k->w_slices) < 0
        || desc_list(word, "stores", tiles, &k->w_stores) < 0
        || desc_list(word, "sets", tiles, &k->w_sets) < 0
        || desc_list(word, "history", tiles, &k->w_history) < 0) {
        return -1;
    }
    /* Set lists never resize and set buckets are always dicts, so the
     * per-record index needs no bounds check after this one. */
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
    }
    k->off_l2_last_use = member_offset(line_type, "last_use");
    k->off_l2_last_access = member_offset(line_type, "last_access");
    k->off_l2_dirty = member_offset(line_type, "dirty");
    k->off_l2_dirty_words = member_offset(line_type, "dirty_words");
    k->off_l2_busy = member_offset(line_type, "busy_until");
    if (k->off_l2_last_use < 0 || k->off_l2_last_access < 0
        || k->off_l2_dirty < 0 || k->off_l2_dirty_words < 0
        || k->off_l2_busy < 0) {
        return -1;
    }
    k->w_slice_hits = PyMem_Calloc((size_t)tiles, sizeof(long long));
    k->w_slice_reads = PyMem_Calloc((size_t)tiles, sizeof(long long));
    k->w_slice_writes = PyMem_Calloc((size_t)tiles, sizeof(long long));
    if (k->w_slice_hits == NULL || k->w_slice_reads == NULL
        || k->w_slice_writes == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    k->has_word = 1;
    return 0;
}

static PyObject *
Sched_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *ops_cols, *addr_cols, *work_cols, *start_clocks;
    double l1_hit_latency;
    PyObject *access, *result_type, *fast, *word;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "SchedKernel takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "OOOOdOOOO", &ops_cols, &addr_cols, &work_cols,
                          &start_clocks, &l1_hit_latency, &access,
                          &result_type, &fast, &word)) {
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
    if (word != Py_None && adopt_word_path(k, word) < 0) {
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
                if (k->has_fast) {
                    cell = map_find(k, (line << k->core_bits) | core);
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
                if (cell == NULL && k->has_word) {
                    double latency, wait;
                    retired = word_access(k, core, op == K_OP_WRITE, address,
                                          t, &latency, &wait);
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
    if (flush_dirty(k) < 0 || fold_word_counters(k) < 0) {
        return NULL;
    }
    PyObject *hits_r = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *hits_w = PyList_New((Py_ssize_t)k->num_cores);
    PyObject *rows = PyList_New((Py_ssize_t)k->num_cores);
    if (hits_r == NULL || hits_w == NULL || rows == NULL) {
        goto fail;
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
    PyObject *out = Py_BuildValue("(OOO(LLLL))", hits_r, hits_w, rows,
                                  k->word_r, k->word_w, k->exits_access,
                                  k->exits_sync);
    Py_DECREF(hits_r);
    Py_DECREF(hits_w);
    Py_DECREF(rows);
    return out;
fail:
    Py_XDECREF(hits_r);
    Py_XDECREF(hits_w);
    Py_XDECREF(rows);
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
     "Flush deferred state and fold the word path's counters; return "
     "(hits_r, hits_w, per-core breakdown rows (compute, l1_to_l2, "
     "l2_waiting, l2_sharers, l2_offchip), (word_reads, word_writes, "
     "access_exits, sync_exits))."},
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
        || PyModule_AddIntConstant(mod, "SCHED_ABI_VERSION",
                                   K_SCHED_ABI_VERSION) < 0) {
        return -1;
    }
    return 0;
}
