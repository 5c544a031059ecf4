/* Compiled mesh kernel: every MeshNetwork entry point, by tile id.
 *
 * This is a CPython extension module (built at import by repro.accel.build;
 * see DESIGN.md section 12).  One MeshKernel instance owns everything the
 * network model of one MeshNetwork keeps per message:
 *
 *   - the epoch ring-buffer state - the WINDOW_EPOCHS x num_links slot
 *     table, the overflow hash map and the slot-recycle counter;
 *   - route resolution: XY routes computed here, mapped to the dense link
 *     ids of Mesh2D.directed_links(), memoized per (src, dst) on first use
 *     in an int32 arena;
 *   - the flit table (flits per message type, handed in at construction);
 *   - the traffic counters (link_flit_traversals, messages_sent,
 *     flits_sent) and the call counters per entry point.
 *
 * Entry points, addressed by tile id and message type: unicast,
 * traverse_chain (request leg, home serialization, reply leg),
 * traverse_many (one message per target, in list order) and broadcast
 * (the XY broadcast tree of Mesh2D.broadcast_tree).  `route` and
 * `traverse` expose the route memo and a walk over an explicit link
 * sequence.  Every argument is validated before the first side effect, so
 * a rejected call leaves slots, overflow and counters as they were.
 * repro_mesh_chain is the same chain entry for the scheduler kernel's DLS
 * word path (_sched.c, same shared object).
 *
 * The pure-Python twin, repro.network.mesh._PyMeshKernel, has the same
 * methods and is the fallback and semantic reference; MeshNetwork forwards
 * to whichever one it holds.  The naive and no-contention link models run
 * in the twin only.
 *
 * Exactness contract (pinned by tests/properties/test_mesh_contention.py
 * run against both implementations): every arithmetic step mirrors the
 * twin.
 *
 *   - The head time accumulates `t += hop` per link as an IEEE-754 double,
 *     NOT one `hops * hop` add at the end: float addition of the hop
 *     latency is not associative for fractional times and the property
 *     tests pin bit-identity to the per-link walk.  CPython floats ARE
 *     C doubles, so per-link accumulation here is bit-identical there.
 *   - `(long long)t` truncates toward zero exactly like Python's `int(t)`
 *     for the non-negative simulation times (negative, non-finite and
 *     huge times are rejected).
 *   - occ_load/occ_store reproduce _occ_load/_occ_store including the
 *     recycle counter and the retired-occupancy flush into overflow, so
 *     slots + overflow partition the epoch->occupancy map identically.
 *
 * The twin's fast pass is an *optimization* of the reference per-link
 * walk (same reservations, same departures, same recycle counts - the
 * stale-slot claim is exactly occ_store on an epoch the overflow dict
 * provably has no entry for); this kernel implements the reference walk
 * directly, which is branch-simpler and equally exact.
 *
 * The slot table is exposed to Python through the buffer protocol
 * (memoryview(kernel).cast("q")), so MeshNetwork introspection -
 * reserved_flits, occupancy_map - reads the *same memory* the kernel
 * mutates; there is no shadow copy to drift.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Mirror of the module constants in repro/network/mesh.py.  The loader
 * cross-checks these module attributes against the Python values and
 * refuses the kernel on mismatch, so the two can never drift silently. */
#define K_EPOCH_CYCLES 32
#define K_EPOCH_SHIFT 5
#define K_WINDOW_EPOCHS 128
#define K_WINDOW_MASK (K_WINDOW_EPOCHS - 1)
#define K_SLOT_SHIFT 6
#define K_SLOT_OCC_MASK ((1 << K_SLOT_SHIFT) - 1)
#define K_ABI_VERSION 2
/* Upper bound on message types in the flit table. */
#define K_MAX_MSG 64
/* Times at or above 2**52 are rejected: epoch keys must fit 63 bits. */
#define K_MAX_TIME 4503599627370496.0

typedef struct {
    PyObject_HEAD
    long long num_tiles;
    long long width;
    long long num_links;
    long long link_bits;
    long long hop_int;    /* integral hop latency for the shadow clock */
    double hop;           /* the same value as a double for head times */
    long long num_msgs;
    long long flits[K_MAX_MSG];
    long long *slots;     /* K_WINDOW_EPOCHS * num_links packed cells */
    Py_ssize_t slot_count;
    /* Overflow map: open addressing, linear probing, no deletions (the
     * Python dict never deletes entries either - reset clears wholesale).
     * Empty cells carry key -1; real keys (epoch << link_bits) | link are
     * always non-negative. */
    long long *okeys;
    long long *ovals;
    Py_ssize_t ocap;      /* power of two */
    Py_ssize_t olen;
    /* Route memo: route_at[src * num_tiles + dst] is the arena offset of
     * the route's [hops, link0, link1, ...] run of int32, -1 until first
     * use.  link_base[t] is the dense id of tile t's first outgoing link. */
    int32_t *link_base;
    Py_ssize_t *route_at;
    int32_t *arena;
    Py_ssize_t arena_len;
    Py_ssize_t arena_cap;
    double *bcast_at;     /* broadcast scratch: arrival per tile */
    long long *bcast_row; /* broadcast scratch: the root's row tiles */
    /* Traffic counters (inputs to the energy model and RunStats). */
    long long link_flit_traversals;
    long long messages_sent;
    long long flits_sent;
    long long slot_recycles;
    /* Calls per entry point (telemetry; RunStats-neutral). */
    long long calls_unicast;
    long long calls_chain;
    long long calls_many;
    long long calls_broadcast;
} KernelObject;

/* ------------------------------------------------------------------ */
/* Overflow hash map                                                   */
/* ------------------------------------------------------------------ */

static int
ov_alloc(KernelObject *k, Py_ssize_t cap)
{
    long long *keys = PyMem_Malloc((size_t)cap * sizeof(long long));
    long long *vals = PyMem_Malloc((size_t)cap * sizeof(long long));
    if (keys == NULL || vals == NULL) {
        PyMem_Free(keys);
        PyMem_Free(vals);
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++) {
        keys[i] = -1;
    }
    k->okeys = keys;
    k->ovals = vals;
    k->ocap = cap;
    k->olen = 0;
    return 0;
}

static inline Py_ssize_t
ov_probe(const KernelObject *k, long long key)
{
    Py_ssize_t mask = k->ocap - 1;
    Py_ssize_t i = (Py_ssize_t)(((unsigned long long)key
                                 * 0x9E3779B97F4A7C15ULL) >> 33) & mask;
    while (k->okeys[i] != -1 && k->okeys[i] != key) {
        i = (i + 1) & mask;
    }
    return i;
}

static inline long long
ov_lookup(const KernelObject *k, long long key)
{
    Py_ssize_t i = ov_probe(k, key);
    return (k->okeys[i] == key) ? k->ovals[i] : 0;
}

static int
ov_insert(KernelObject *k, long long key, long long value)
{
    Py_ssize_t i = ov_probe(k, key);
    if (k->okeys[i] == key) {
        k->ovals[i] = value;
        return 0;
    }
    if ((k->olen + 1) * 3 >= k->ocap * 2) {
        long long *old_keys = k->okeys;
        long long *old_vals = k->ovals;
        Py_ssize_t old_cap = k->ocap;
        if (ov_alloc(k, old_cap * 2) < 0) {
            k->okeys = old_keys;
            k->ovals = old_vals;
            k->ocap = old_cap;
            return -1;
        }
        for (Py_ssize_t j = 0; j < old_cap; j++) {
            if (old_keys[j] != -1) {
                Py_ssize_t slot = ov_probe(k, old_keys[j]);
                k->okeys[slot] = old_keys[j];
                k->ovals[slot] = old_vals[j];
                k->olen++;
            }
        }
        PyMem_Free(old_keys);
        PyMem_Free(old_vals);
        i = ov_probe(k, key);
    }
    k->okeys[i] = key;
    k->ovals[i] = value;
    k->olen++;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Epoch accounting (mirrors _occ_load/_occ_store/_traverse_congested) */
/* ------------------------------------------------------------------ */

static inline long long
occ_load(const KernelObject *k, long long link, long long epoch)
{
    long long value = k->slots[(epoch & K_WINDOW_MASK) * k->num_links + link];
    if ((value >> K_SLOT_SHIFT) == epoch) {
        return value & K_SLOT_OCC_MASK;
    }
    return ov_lookup(k, (epoch << k->link_bits) | link);
}

static int
occ_store(KernelObject *k, long long link, long long epoch, long long occupancy)
{
    Py_ssize_t slot = (Py_ssize_t)((epoch & K_WINDOW_MASK) * k->num_links + link);
    long long value = k->slots[slot];
    long long tag = value >> K_SLOT_SHIFT;
    if (tag == epoch) {
        k->slots[slot] = (epoch << K_SLOT_SHIFT) | occupancy;
    }
    else if (tag < epoch) {
        /* Recycle the slot for the newer epoch; the retired occupancy
         * stays exactly readable through the overflow map. */
        k->slot_recycles++;
        long long old = value & K_SLOT_OCC_MASK;
        if (old && ov_insert(k, (tag << k->link_bits) | link, old) < 0) {
            return -1;
        }
        k->slots[slot] = (epoch << K_SLOT_SHIFT) | occupancy;
    }
    else {
        /* The slot belongs to a newer epoch: this epoch lives in overflow. */
        if (ov_insert(k, (epoch << k->link_bits) | link, occupancy) < 0) {
            return -1;
        }
    }
    return 0;
}

static double
traverse_congested(KernelObject *k, long long link, long long epoch,
                   double t_head, long long flits, int *err)
{
    long long first = epoch;
    while (occ_load(k, link, epoch) >= K_EPOCH_CYCLES) {
        epoch++;
    }
    double depart = (epoch == first) ? t_head
                                     : (double)(epoch * K_EPOCH_CYCLES);
    long long remaining = flits;
    while (remaining > 0) {
        long long used = occ_load(k, link, epoch);
        long long take = K_EPOCH_CYCLES - used;
        if (take > remaining) {
            take = remaining;
        }
        if (occ_store(k, link, epoch, used + take) < 0) {
            *err = 1;
            return 0.0;
        }
        remaining -= take;
        epoch++;
    }
    return depart;
}

/* Reserve one link at t_head; return the head DEPART time (the broadcast
 * tree adds the hop latency itself, mirroring _traverse_link). */
static double
traverse_one(KernelObject *k, long long link, double t_head, long long flits,
             int *err)
{
    long long epoch = ((long long)t_head) >> K_EPOCH_SHIFT;
    long long occ = occ_load(k, link, epoch);
    if (occ + flits <= K_EPOCH_CYCLES) {
        if (occ_store(k, link, epoch, occ + flits) < 0) {
            *err = 1;
            return 0.0;
        }
        return t_head;
    }
    return traverse_congested(k, link, epoch, t_head, flits, err);
}

/* Reserve a whole registered path; return the TAIL arrival time. */
static double
traverse_links(KernelObject *k, const int32_t *links, long long hops,
               double t_head, long long flits, int *err)
{
    double hop = k->hop;
    long long hop_int = k->hop_int;
    long long t_int = (long long)t_head;
    for (long long i = 0; i < hops; i++) {
        long long link = links[i];
        long long epoch = t_int >> K_EPOCH_SHIFT;
        long long occ = occ_load(k, link, epoch);
        if (occ + flits <= K_EPOCH_CYCLES) {
            if (occ_store(k, link, epoch, occ + flits) < 0) {
                *err = 1;
                return 0.0;
            }
            t_head += hop;
            t_int += hop_int;
        }
        else {
            t_head = traverse_congested(k, link, epoch, t_head, flits, err)
                     + hop;
            if (*err) {
                return 0.0;
            }
            t_int = (long long)t_head;
        }
    }
    return t_head + (double)(flits - 1);
}

/* ------------------------------------------------------------------ */
/* Routes (mirror Mesh2D.directed_links, route and broadcast_tree)     */
/* ------------------------------------------------------------------ */

/* Link directions, in the order Mesh2D.directed_links() lists a tile's
 * outgoing links. */
enum { X_PLUS, X_MINUS, Y_PLUS, Y_MINUS };

/* Dense id of the link leaving `tile` in direction `dir` (which must
 * exist): the tile's first id plus the count of its links listed first. */
static inline int32_t
dense_link(const KernelObject *k, long long tile, int dir)
{
    long long x = tile % k->width;
    long long y = tile / k->width;
    int32_t rank = 0;
    if (dir > X_PLUS && x + 1 < k->width) {
        rank++;
    }
    if (dir > X_MINUS && x > 0) {
        rank++;
    }
    if (dir > Y_PLUS && y + 1 < k->width) {
        rank++;
    }
    return k->link_base[tile] + rank;
}

/* The memoized XY route src -> dst as [hops, link0, link1, ...]: along x
 * first, then along y.  NULL with MemoryError set when the arena cannot
 * grow.  The pointer is valid until the next resolution. */
static const int32_t *
route_of(KernelObject *k, long long src, long long dst)
{
    Py_ssize_t *at = &k->route_at[src * k->num_tiles + dst];
    if (*at >= 0) {
        return k->arena + *at;
    }
    long long w = k->width;
    long long x = src % w, y = src / w;
    long long dx = dst % w, dy = dst / w;
    long long hops = (dx > x ? dx - x : x - dx) + (dy > y ? dy - y : y - dy);
    Py_ssize_t need = k->arena_len + (Py_ssize_t)hops + 1;
    if (need > k->arena_cap) {
        Py_ssize_t cap = k->arena_cap ? k->arena_cap : 256;
        while (cap < need) {
            cap *= 2;
        }
        int32_t *arena = PyMem_Realloc(k->arena, (size_t)cap * sizeof(int32_t));
        if (arena == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        k->arena = arena;
        k->arena_cap = cap;
    }
    int32_t *out = k->arena + k->arena_len;
    int32_t *p = out;
    *p++ = (int32_t)hops;
    long long here = src;
    while (x != dx) {
        int dir = dx > x ? X_PLUS : X_MINUS;
        *p++ = dense_link(k, here, dir);
        x += dir == X_PLUS ? 1 : -1;
        here = y * w + x;
    }
    while (y != dy) {
        int dir = dy > y ? Y_PLUS : Y_MINUS;
        *p++ = dense_link(k, here, dir);
        y += dir == Y_PLUS ? 1 : -1;
        here = y * w + x;
    }
    *at = k->arena_len;
    k->arena_len = need;
    return out;
}

/* ------------------------------------------------------------------ */
/* Entry points (validated arguments only)                             */
/* ------------------------------------------------------------------ */

/* One message src -> dst at t_head; store its TAIL arrival.  A same-tile
 * message takes the empty route: it arrives at t_head, uncounted. */
static int
leg(KernelObject *k, long long src, long long dst, long long flits,
    double t_head, double *tail)
{
    if (src == dst) {
        *tail = t_head;
        return 0;
    }
    const int32_t *route = route_of(k, src, dst);
    if (route == NULL) {
        return -1;
    }
    long long hops = route[0];
    k->link_flit_traversals += flits * hops;
    k->messages_sent += 1;
    k->flits_sent += flits;
    int err = 0;
    *tail = traverse_links(k, route + 1, hops, t_head, flits, &err);
    if (err) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* The round trip src -> dst -> src: the request leg, the home-side wait
 * (max(t1, busy) + gap), the reply leg. */
static int
chain(KernelObject *k, long long src, long long dst, long long flits1,
      double t0, double busy, double gap, long long flits2,
      double *t1, double *t2)
{
    k->calls_chain++;
    if (leg(k, src, dst, flits1, t0, t1) < 0) {
        return -1;
    }
    double start = busy > *t1 ? busy : *t1;
    return leg(k, dst, src, flits2, start + gap, t2);
}

/* One broadcast-tree edge src -> dst in direction dir (Python:
 * MeshNetwork.broadcast's loop body, contended mode). */
static int
bcast_edge(KernelObject *k, PyObject *out, long long root, long long src,
           long long dst, int dir, long long flits, double start)
{
    double tail = (double)(flits - 1);
    double t_head = src != root ? k->bcast_at[src] - tail : start;
    if (t_head < start) {
        t_head = start;
    }
    int err = 0;
    t_head = traverse_one(k, dense_link(k, src, dir), t_head, flits, &err)
             + k->hop;
    if (err) {
        PyErr_NoMemory();
        return -1;
    }
    double at = t_head + tail;
    k->bcast_at[dst] = at;
    PyObject *key = PyLong_FromLongLong(dst);
    PyObject *value = PyFloat_FromDouble(at);
    int rc = (key == NULL || value == NULL) ? -1
                                            : PyDict_SetItem(out, key, value);
    Py_XDECREF(key);
    Py_XDECREF(value);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Argument checks: every one runs before the first side effect         */
/* ------------------------------------------------------------------ */

static int
tile_arg(const KernelObject *k, PyObject *obj, long long *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (v < 0 || v >= k->num_tiles) {
        PyErr_Format(PyExc_ValueError, "tile %lld outside 0..%lld", v,
                     k->num_tiles - 1);
        return -1;
    }
    *out = v;
    return 0;
}

/* A message type, resolved to its flit count. */
static int
msg_arg(const KernelObject *k, PyObject *obj, long long *flits)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (v < 0 || v >= k->num_msgs) {
        PyErr_Format(PyExc_ValueError, "message type %lld outside 0..%lld",
                     v, k->num_msgs - 1);
        return -1;
    }
    *flits = k->flits[v];
    return 0;
}

static inline int
time_ok(double t)
{
    return t >= 0.0 && t < K_MAX_TIME;  /* false for NaN */
}

static int
time_arg(PyObject *obj, double *out)
{
    double v = PyFloat_AsDouble(obj);
    if (v == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    if (!time_ok(v)) {
        PyErr_Format(PyExc_ValueError, "time %R outside [0, 2**52)", obj);
        return -1;
    }
    *out = v;
    return 0;
}

static int
nargs_is(Py_ssize_t nargs, Py_ssize_t want, const char *signature)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "expected %s", signature);
        return 0;
    }
    return 1;
}

static PyObject *
float_pair(double a, double b)
{
    PyObject *out = PyTuple_New(2);
    PyObject *fa = PyFloat_FromDouble(a);
    PyObject *fb = PyFloat_FromDouble(b);
    if (out == NULL || fa == NULL || fb == NULL) {
        Py_XDECREF(out);
        Py_XDECREF(fa);
        Py_XDECREF(fb);
        return NULL;
    }
    PyTuple_SET_ITEM(out, 0, fa);
    PyTuple_SET_ITEM(out, 1, fb);
    return out;
}

static PyTypeObject KernelType;

/* ------------------------------------------------------------------ */
/* Exported to _sched.c (same shared object): the scheduler kernel's    */
/* home-word row reserves both legs of a word round trip here, through */
/* exactly the walk Kernel_traverse_chain runs.                         */
/* ------------------------------------------------------------------ */

int
repro_mesh_check(PyObject *obj)
{
    return Py_TYPE(obj) == &KernelType;
}

/* The chain entry by tile id and message type; stores both tail arrivals.
 * Returns 0, or -1 with an exception set (nothing reserved on a rejected
 * argument). */
int
repro_mesh_chain(PyObject *kernel, long long src, long long dst, int msg1,
                 double t0, double busy, double gap, int msg2,
                 double *t1, double *t2)
{
    KernelObject *k = (KernelObject *)kernel;
    if (src < 0 || src >= k->num_tiles || dst < 0 || dst >= k->num_tiles
        || msg1 < 0 || msg1 >= k->num_msgs || msg2 < 0
        || msg2 >= k->num_msgs || !time_ok(t0) || !time_ok(busy)
        || !time_ok(gap)) {
        PyErr_SetString(PyExc_ValueError, "mesh chain argument out of range");
        return -1;
    }
    return chain(k, src, dst, k->flits[msg1], t0, busy, gap, k->flits[msg2],
                 t1, t2);
}

/* ------------------------------------------------------------------ */
/* Type methods                                                        */
/* ------------------------------------------------------------------ */

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    long long num_tiles;
    double hop;
    PyObject *flits;
    if (!PyArg_ParseTuple(args, "LdO", &num_tiles, &hop, &flits)) {
        return NULL;
    }
    /* The range check comes first: it keeps width * width from
     * overflowing below. */
    long long width = 0;
    if (num_tiles > 0 && num_tiles <= (1 << 20)) {
        width = (long long)sqrt((double)num_tiles);
        while (width > 0 && width * width > num_tiles) {
            width--;
        }
        while ((width + 1) * (width + 1) <= num_tiles) {
            width++;
        }
    }
    if (width == 0 || width * width != num_tiles) {
        PyErr_Format(PyExc_ValueError,
                     "mesh requires a square tile count up to 2**20, "
                     "got %lld", num_tiles);
        return NULL;
    }
    if (hop <= 0 || hop != (double)(long long)hop) {
        /* The shadow integer clock (t_int += hop) requires an integral
         * hop latency - exactly as the pure-Python walk does. */
        PyErr_SetString(PyExc_ValueError, "hop latency must be integral");
        return NULL;
    }
    PyObject *seq = PySequence_Fast(flits, "flits must be a sequence");
    if (seq == NULL) {
        return NULL;
    }
    Py_ssize_t num_msgs = PySequence_Fast_GET_SIZE(seq);
    long long table[K_MAX_MSG];
    if (num_msgs < 1 || num_msgs > K_MAX_MSG) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "flit table size out of range");
        return NULL;
    }
    for (Py_ssize_t m = 0; m < num_msgs; m++) {
        table[m] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, m));
        if (table[m] == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        if (table[m] < 1) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "flit counts must be positive");
            return NULL;
        }
    }
    Py_DECREF(seq);
    KernelObject *self = (KernelObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    /* tp_alloc zero-fills: counters, pointers and lengths start at 0. */
    self->num_tiles = num_tiles;
    self->width = width;
    self->num_links = 4 * width * (width - 1);
    /* (num_links - 1).bit_length(), as MeshNetwork computes it. */
    self->link_bits = self->num_links ? 0 : 1;
    for (long long v = self->num_links - 1; v > 0; v >>= 1) {
        self->link_bits++;
    }
    self->hop = hop;
    self->hop_int = (long long)hop;
    self->num_msgs = num_msgs;
    memcpy(self->flits, table, (size_t)num_msgs * sizeof(long long));
    self->slot_count = (Py_ssize_t)(K_WINDOW_EPOCHS * self->num_links);
    self->slots = PyMem_Calloc((size_t)self->slot_count, sizeof(long long));
    self->link_base = PyMem_Malloc((size_t)num_tiles * sizeof(int32_t));
    self->route_at = PyMem_Malloc((size_t)(num_tiles * num_tiles)
                                  * sizeof(Py_ssize_t));
    self->bcast_at = PyMem_Malloc((size_t)num_tiles * sizeof(double));
    self->bcast_row = PyMem_Malloc((size_t)width * sizeof(long long));
    if (self->slots == NULL || self->link_base == NULL
        || self->route_at == NULL || self->bcast_at == NULL
        || self->bcast_row == NULL || ov_alloc(self, 256) < 0) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    int32_t next = 0;
    for (long long t = 0; t < num_tiles; t++) {
        long long x = t % width, y = t / width;
        self->link_base[t] = next;
        next += (x + 1 < width) + (x > 0) + (y + 1 < width) + (y > 0);
    }
    for (long long i = 0; i < num_tiles * num_tiles; i++) {
        self->route_at[i] = -1;
    }
    return (PyObject *)self;
}

static void
Kernel_dealloc(KernelObject *self)
{
    PyMem_Free(self->slots);
    PyMem_Free(self->okeys);
    PyMem_Free(self->ovals);
    PyMem_Free(self->link_base);
    PyMem_Free(self->route_at);
    PyMem_Free(self->arena);
    PyMem_Free(self->bcast_at);
    PyMem_Free(self->bcast_row);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Kernel_unicast(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long src, dst, flits;
    double start, tail;
    if (!nargs_is(nargs, 4, "unicast(src, dst, msg, start)")
        || tile_arg(self, args[0], &src) < 0
        || tile_arg(self, args[1], &dst) < 0
        || msg_arg(self, args[2], &flits) < 0
        || time_arg(args[3], &start) < 0) {
        return NULL;
    }
    self->calls_unicast++;
    if (leg(self, src, dst, flits, start, &tail) < 0) {
        return NULL;
    }
    return PyFloat_FromDouble(tail);
}

static PyObject *
Kernel_traverse_chain(KernelObject *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    long long src, dst, flits1, flits2;
    double t0, busy, gap, t1, t2;
    if (!nargs_is(nargs, 7, "traverse_chain(src, dst, msg1, t0, "
                            "busy_until, gap, msg2)")
        || tile_arg(self, args[0], &src) < 0
        || tile_arg(self, args[1], &dst) < 0
        || msg_arg(self, args[2], &flits1) < 0
        || time_arg(args[3], &t0) < 0
        || time_arg(args[4], &busy) < 0
        || time_arg(args[5], &gap) < 0
        || msg_arg(self, args[6], &flits2) < 0) {
        return NULL;
    }
    if (chain(self, src, dst, flits1, t0, busy, gap, flits2, &t1, &t2) < 0) {
        return NULL;
    }
    return float_pair(t1, t2);
}

static PyObject *
Kernel_traverse_many(KernelObject *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    long long src, flits;
    double t_head;
    if (!nargs_is(nargs, 4, "traverse_many(src, dsts, msg, t_head)")
        || tile_arg(self, args[0], &src) < 0
        || msg_arg(self, args[2], &flits) < 0
        || time_arg(args[3], &t_head) < 0) {
        return NULL;
    }
    PyObject *seq = PySequence_Fast(args[1], "dsts must be a sequence");
    if (seq == NULL) {
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    long long small[64];
    long long *dsts = n <= 64 ? small
                              : PyMem_Malloc((size_t)n * sizeof(long long));
    PyObject *out = NULL;
    if (dsts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (tile_arg(self, PySequence_Fast_GET_ITEM(seq, i), &dsts[i]) < 0) {
            goto done;
        }
    }
    out = PyList_New(n);
    if (out == NULL) {
        goto done;
    }
    self->calls_many++;
    for (Py_ssize_t i = 0; i < n; i++) {
        double tail;
        PyObject *value = NULL;
        if (leg(self, src, dsts[i], flits, t_head, &tail) < 0
            || (value = PyFloat_FromDouble(tail)) == NULL) {
            Py_CLEAR(out);
            goto done;
        }
        PyList_SET_ITEM(out, i, value);
    }
done:
    if (dsts != small) {
        PyMem_Free(dsts);
    }
    Py_DECREF(seq);
    return out;
}

static PyObject *
Kernel_broadcast(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long root, flits;
    double start;
    if (!nargs_is(nargs, 3, "broadcast(root, msg, start)")
        || tile_arg(self, args[0], &root) < 0
        || msg_arg(self, args[1], &flits) < 0
        || time_arg(args[2], &start) < 0) {
        return NULL;
    }
    PyObject *out = PyDict_New();
    PyObject *root_key = PyLong_FromLongLong(root);
    PyObject *root_at = PyFloat_FromDouble(start);
    int rc = (out == NULL || root_key == NULL || root_at == NULL)
             ? -1 : PyDict_SetItem(out, root_key, root_at);
    Py_XDECREF(root_key);
    Py_XDECREF(root_at);
    if (rc < 0) {
        Py_XDECREF(out);
        return NULL;
    }
    self->calls_broadcast++;
    /* Mesh2D.broadcast_tree order: along the root's row outward (+x, then
     * -x), then from every row tile down and up its column. */
    long long w = self->width;
    long long rx = root % w, ry = root / w;
    long long nrow = 0;
    self->bcast_at[root] = start;
    self->bcast_row[nrow++] = root;
    for (int dir = X_PLUS; dir <= X_MINUS; dir++) {
        long long step = dir == X_PLUS ? 1 : -1;
        long long here = root;
        for (long long x = rx + step; x >= 0 && x < w; x += step) {
            long long next = ry * w + x;
            if (bcast_edge(self, out, root, here, next, dir, flits, start) < 0) {
                Py_DECREF(out);
                return NULL;
            }
            self->bcast_row[nrow++] = next;
            here = next;
        }
    }
    for (long long i = 0; i < nrow; i++) {
        long long column = self->bcast_row[i];
        for (int dir = Y_PLUS; dir <= Y_MINUS; dir++) {
            long long step = dir == Y_PLUS ? 1 : -1;
            long long here = column;
            for (long long y = ry + step; y >= 0 && y < w; y += step) {
                long long next = y * w + column % w;
                if (bcast_edge(self, out, root, here, next, dir, flits,
                               start) < 0) {
                    Py_DECREF(out);
                    return NULL;
                }
                here = next;
            }
        }
    }
    self->link_flit_traversals += flits * (self->num_tiles - 1);
    self->messages_sent += 1;
    self->flits_sent += flits;
    return out;
}

static PyObject *
Kernel_route(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long src, dst;
    if (!nargs_is(nargs, 2, "route(src, dst)")
        || tile_arg(self, args[0], &src) < 0
        || tile_arg(self, args[1], &dst) < 0) {
        return NULL;
    }
    const int32_t *route = route_of(self, src, dst);
    if (route == NULL) {
        return NULL;
    }
    PyObject *out = PyTuple_New(route[0]);
    if (out == NULL) {
        return NULL;
    }
    for (int32_t i = 0; i < route[0]; i++) {
        PyObject *link = PyLong_FromLong(route[1 + i]);
        if (link == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, link);
    }
    return out;
}

static PyObject *
Kernel_traverse(KernelObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double t_head;
    if (!nargs_is(nargs, 3, "traverse(links, t_head, flits)")
        || time_arg(args[1], &t_head) < 0) {
        return NULL;
    }
    long long flits = PyLong_AsLongLong(args[2]);
    if (flits == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (flits < 1) {
        PyErr_SetString(PyExc_ValueError, "flit count must be positive");
        return NULL;
    }
    PyObject *seq = PySequence_Fast(args[0], "links must be a sequence");
    if (seq == NULL) {
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int32_t small[64];
    int32_t *links = n <= 64 ? small
                             : PyMem_Malloc((size_t)n * sizeof(int32_t));
    PyObject *out = NULL;
    if (links == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long long link = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (link == -1 && PyErr_Occurred()) {
            goto done;
        }
        if (link < 0 || link >= self->num_links) {
            PyErr_Format(PyExc_ValueError, "link %lld outside 0..%lld", link,
                         self->num_links - 1);
            goto done;
        }
        links[i] = (int32_t)link;
    }
    if (n == 0) {
        out = PyFloat_FromDouble(t_head);
        goto done;
    }
    self->link_flit_traversals += flits * n;
    self->messages_sent += 1;
    self->flits_sent += flits;
    int err = 0;
    double tail = traverse_links(self, links, n, t_head, flits, &err);
    out = err ? PyErr_NoMemory() : PyFloat_FromDouble(tail);
done:
    if (links != small) {
        PyMem_Free(links);
    }
    Py_DECREF(seq);
    return out;
}

static PyObject *
Kernel_reset(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    memset(self->slots, 0, (size_t)self->slot_count * sizeof(long long));
    for (Py_ssize_t i = 0; i < self->ocap; i++) {
        self->okeys[i] = -1;
    }
    self->olen = 0;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_overflow_len(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->olen);
}

static PyObject *
Kernel_overflow_items(KernelObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->olen);
    if (out == NULL) {
        return NULL;
    }
    Py_ssize_t pos = 0;
    for (Py_ssize_t i = 0; i < self->ocap; i++) {
        if (self->okeys[i] == -1) {
            continue;
        }
        PyObject *item = Py_BuildValue("(LL)", self->okeys[i],
                                       self->ovals[i]);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, pos++, item);
    }
    return out;
}

static int
Kernel_getbuffer(KernelObject *self, Py_buffer *view, int flags)
{
    return PyBuffer_FillInfo(view, (PyObject *)self, self->slots,
                             self->slot_count * (Py_ssize_t)sizeof(long long),
                             0, flags);
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef Kernel_methods[] = {
    {"unicast", FASTCALL(Kernel_unicast),
     "unicast(src, dst, msg, start) -> tail arrival"},
    {"traverse_chain", FASTCALL(Kernel_traverse_chain),
     "traverse_chain(src, dst, msg1, t0, busy_until, gap, msg2) -> (t1, t2)"},
    {"traverse_many", FASTCALL(Kernel_traverse_many),
     "traverse_many(src, dsts, msg, t_head) -> list of tail arrivals"},
    {"broadcast", FASTCALL(Kernel_broadcast),
     "broadcast(root, msg, start) -> {tile: tail arrival}"},
    {"route", FASTCALL(Kernel_route),
     "route(src, dst) -> the memoized XY route as dense link ids"},
    {"traverse", FASTCALL(Kernel_traverse),
     "traverse(links, t_head, flits) -> tail arrival"},
    {"reset", (PyCFunction)Kernel_reset, METH_NOARGS,
     "forget all reservations (slots + overflow)"},
    {"overflow_len", (PyCFunction)Kernel_overflow_len, METH_NOARGS, NULL},
    {"overflow_items", (PyCFunction)Kernel_overflow_items, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL},
};

#define COUNTER(name, doc) \
    {#name, T_LONGLONG, offsetof(KernelObject, name), 0, doc}
#define GEOMETRY(name) \
    {#name, T_LONGLONG, offsetof(KernelObject, name), READONLY, NULL}

static PyMemberDef Kernel_members[] = {
    GEOMETRY(num_tiles),
    GEOMETRY(num_links),
    GEOMETRY(link_bits),
    COUNTER(link_flit_traversals, "flits x links crossed"),
    COUNTER(messages_sent, "messages that entered the network"),
    COUNTER(flits_sent, "flits of those messages"),
    COUNTER(slot_recycles, "slots recycled for a newer epoch"),
    COUNTER(calls_unicast, "unicast calls"),
    COUNTER(calls_chain, "traverse_chain calls, home-word row included"),
    COUNTER(calls_many, "traverse_many calls"),
    COUNTER(calls_broadcast, "broadcast calls"),
    {NULL, 0, 0, 0, NULL},
};

static PyBufferProcs Kernel_as_buffer = {
    (getbufferproc)Kernel_getbuffer,
    NULL,
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_repro_mesh_kernel.MeshKernel",
    .tp_basicsize = sizeof(KernelObject),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Routes, flit table, traffic counters and epoch bandwidth "
              "accounting for one MeshNetwork",
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_as_buffer = &Kernel_as_buffer,
    .tp_new = Kernel_new,
};

/* Defined in _sched.c (same shared object). */
extern int repro_sched_register(PyObject *mod);

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_repro_mesh_kernel",
    .m_doc = "Compiled mesh and scheduler kernels (see repro.accel)",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__repro_mesh_kernel(void)
{
    if (PyType_Ready(&KernelType) < 0) {
        return NULL;
    }
    PyObject *mod = PyModule_Create(&kernel_module);
    if (mod == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(mod, "MeshKernel", (PyObject *)&KernelType) < 0
        || PyModule_AddIntConstant(mod, "EPOCH_CYCLES", K_EPOCH_CYCLES) < 0
        || PyModule_AddIntConstant(mod, "EPOCH_SHIFT", K_EPOCH_SHIFT) < 0
        || PyModule_AddIntConstant(mod, "WINDOW_EPOCHS", K_WINDOW_EPOCHS) < 0
        || PyModule_AddIntConstant(mod, "SLOT_SHIFT", K_SLOT_SHIFT) < 0
        || PyModule_AddIntConstant(mod, "ABI_VERSION", K_ABI_VERSION) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    /* Scheduler kernel (accelerator phase 2), compiled from the sibling
     * _sched.c into this same module. */
    if (repro_sched_register(mod) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
