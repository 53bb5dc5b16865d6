/* Compiled per-access path of the cache hierarchy (repro.cache.hierarchy).
 *
 * MemoryHierarchy.load, store, can_accept_store, _access_l2, _dram_fill,
 * _install_l2_fill, _fill_l1_and_respond, _resolve_remote_copies,
 * _invalidate_remote, _evict_l1_line and _evict_l2_line each open with one
 * guard that hands the call to the function of the same name here; the
 * Python body after the guard is the reference this file transliterates,
 * statement for statement.  Inside the kernel the handlers call each other
 * directly, and the array and MSHR operations they use
 * (SetAssociativeCache.find/lookup/peek/insert/invalidate/set_state/
 * set_dirty, MshrFile.get/allocate/release) are C copies of the Python
 * methods, which stay the reference and serve every Python caller.
 *
 * The kernel works on the models' own storage, so det_state,
 * det_state_scan, prewarm and both engines see the same state whichever
 * path ran.
 *
 * - Columns.  A cache's tag, lru and fill are array("q") columns and its
 *   state and dirty bytearrays.  The kernel binds all five as buffers,
 *   with each MSHR file's _entries and the hierarchy's _dir,
 *   _prefetched_lines, _store_backlog, stats, events and memsys, once per
 *   hierarchy in a GC-tracked View kept in the hierarchy's attribute
 *   _kernel_view.  The models bind each of them once in __init__ and only
 *   mutate them in place; the held buffers keep the columns from being
 *   resized while the hierarchy lives.  A line is found by scanning the
 *   fill[set] live slots of its own set, as SetAssociativeCache.find does.
 * - Scalars.  A cache's clock, _resident and _dirty_lines are C fields of
 *   CacheBase, the base type of SetAssociativeCache, and the ten counters
 *   of HierarchyStats are C fields of StatsBase, its base type.  Member
 *   descriptors of the same names expose them to Python.  checksum, an
 *   exact unbounded int, is a CacheBase attribute too: the kernel sums its
 *   changes in a C long long and folds them into the int before they could
 *   overflow, and reading the attribute folds them.  The kernel updates
 *   all of them in place where the Python bodies assign them, so every
 *   caller and callee sees the values the Python bodies would have
 *   written, also when a call raises.  A cache that is not a CacheBase,
 *   or stats that are not a StatsBase, raise TypeError.
 * - Events.  What the Python bodies schedule as functools.partial (the L1
 *   hit's completion call, _access_l2, the store retry,
 *   _fill_l1_and_respond and _install_l2_fill) and the _dram_fill callback
 *   a DRAM transaction carries are Events here: GC-tracked callables
 *   holding their target and arguments, which they expose as func and
 *   args.  An Event for one of those handlers runs it here, without its
 *   Python frame, while the hierarchy resolves the handler's name to
 *   MemoryHierarchy's own function (hierarchy._EVENT_HANDLERS): neither
 *   the class nor the instance replaces it.  Otherwise it calls the
 *   handler by name, so a wrapper sees every call.
 * - Calls out.  events.schedule (with the Events above),
 *   memsys.make_transaction, dram_to_cpu and presettle, the core's
 *   completion callbacks, _now, _wake_core, _trace_cache (when a recorder
 *   is attached), LatencyHistogram.record, _train_prefetcher (when the
 *   prefetcher is on: off, it returns without touching anything),
 *   _bump_criticality, _mark_handles_dram, _enqueue_with_retry and
 *   _writeback stay Python calls, looked up by name on each call, in the
 *   bodies' order and with their arguments.  Exceptions they raise
 *   propagate unchanged.
 * - Range.  Sharer sets are bitmasks over core ids held in 64 bits, so a
 *   hierarchy of more than MAX_CORES cores is refused when it is built
 *   (MemoryHierarchy.__init__).  Addresses and line addresses must be
 *   below 2**63, and cache clocks below 2**55; beyond that the kernel
 *   raises OverflowError rather than compute a different result.
 *
 * Built by repro.cpu.native with the interpreter's compiler and headers;
 * it uses only the C API of CPython 3.9 and later.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#if PY_VERSION_HEX < 0x030C0000
#include <structmember.h>
#endif
#include <limits.h>
#include <stdarg.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Coherence-state codes of the state column (repro.cache.base). */
#define SHARED 83   /* ord("S") */
#define MODIFIED 77 /* ord("M") */
/* Sharer bitmasks are 64-bit. */
#define MAX_CORES 64
#ifndef Py_T_OBJECT_EX
#define Py_T_OBJECT_EX T_OBJECT_EX
#endif
#ifndef Py_T_LONGLONG
#define Py_T_LONGLONG T_LONGLONG
#endif
/* Clocks below this keep 131 * clock inside a long long. */
#define CLOCK_LIMIT (1LL << 55)

/* ------------------------------------------------------------------ names */

/* Interned attribute, method and keyword names, as NAME(identifier, text). */
#define NAMES(NAME)                                                         \
    NAME(kernel_view, "_kernel_view") NAME(l1, "l1") NAME(l2, "l2")        \
    NAME(l1_mshr, "l1_mshr") NAME(l2_mshr, "l2_mshr")                      \
    NAME(events, "events") NAME(memsys, "memsys") NAME(dir, "_dir")        \
    NAME(prefetched, "_prefetched_lines")                                  \
    NAME(store_backlog, "_store_backlog") NAME(stats, "stats")             \
    NAME(l1_line, "_l1_line") NAME(l2_line, "_l2_line")                    \
    NAME(l1_hit_lat, "_l1_hit_lat") NAME(l2_half, "_l2_half")              \
    NAME(l2_delay, "_l2_delay")                                            \
    NAME(store_buffer_entries, "store_buffer_entries")                     \
    NAME(trace, "trace") NAME(prefetcher, "prefetcher")                    \
    NAME(config, "config") NAME(enabled, "enabled")                        \
    NAME(tag, "tag") NAME(lru, "lru") NAME(fill, "fill")                   \
    NAME(state, "state") NAME(dirty, "dirty")                              \
    NAME(line_bytes, "line_bytes") NAME(ways, "ways")                      \
    NAME(num_sets, "num_sets") NAME(entries, "_entries")                   \
    NAME(capacity, "capacity") NAME(waiters, "waiters") NAME(txn, "txn")   \
    NAME(rfo, "rfo") NAME(pc, "pc") NAME(issue_cycle, "issue_cycle")       \
    NAME(critical, "critical") NAME(went_to_dram, "went_to_dram")          \
    NAME(magnitude, "magnitude") NAME(schedule, "schedule")                \
    NAME(now, "_now") NAME(wake_core, "_wake_core")                        \
    NAME(trace_cache, "_trace_cache")                                      \
    NAME(bump_criticality, "_bump_criticality")                            \
    NAME(mark_handles_dram, "_mark_handles_dram")                          \
    NAME(enqueue_with_retry, "_enqueue_with_retry")                        \
    NAME(writeback, "_writeback")                                          \
    NAME(train_prefetcher, "_train_prefetcher")                            \
    NAME(presettle, "presettle") NAME(dram_to_cpu, "dram_to_cpu")          \
    NAME(make_transaction, "make_transaction") NAME(record, "record")      \
    NAME(access_l2, "_access_l2")                                          \
    NAME(fill_l1_and_respond, "_fill_l1_and_respond")                      \
    NAME(dram_fill, "_dram_fill") NAME(install_l2_fill, "_install_l2_fill") \
    NAME(store, "store") NAME(crit_latency, "crit_latency")                \
    NAME(noncrit_latency, "noncrit_latency")                               \
    NAME(pc_latency, "pc_latency") NAME(is_write, "is_write")              \
    NAME(core, "core") NAME(callback, "callback")                          \
    NAME(event_phase, "event_phase") NAME(is_miss, "is_miss")              \
    NAME(l2_fill, "l2_fill") NAME(inval, "inval")                          \
    NAME(dirty_evict, "dirty_evict")

#define DECLARE_NAME(id, text) static PyObject *str_##id;
NAMES(DECLARE_NAME)

static PyObject *small_zero, *small_one, *small_minus_one;
/* Keyword names of the calls out that take keywords. */
static PyObject *kw_make_transaction, *kw_event_phase, *kw_is_miss;

/* The model classes the kernel builds or reads, bound on the first View
 * (the modules are fully imported by then). */
static PyTypeObject *load_access_type, *mshr_entry_type;
static PyObject *l1_hit, *latency_histogram;
static long long intervention_penalty, retry_interval;
enum { LA_PC, LA_ISSUE_CYCLE, LA_CRITICAL, LA_TXN, LA_WENT, N_LA };
enum { ME_LINE_ADDR, ME_WAITERS, ME_TXN, ME_RFO, N_ME };
static Py_ssize_t la_offset[N_LA], me_offset[N_ME];

/* What an Event calls: a callable with its arguments (EV_CALL), or one of
 * the hierarchy's handlers, in the order of hierarchy._EVENT_HANDLERS. */
enum {
    EV_CALL, EV_ACCESS_L2, EV_FILL, EV_STORE, EV_DRAM_FILL, EV_INSTALL,
    N_KINDS
};
/* Per handler: its name, its argument count (the hierarchy's excluded) and
 * MemoryHierarchy's own function. */
static PyObject *handler_name[N_KINDS];
static const int handler_nargs[N_KINDS] = {0, 5, 4, 4, 2, 2};
static PyObject *own_handler[N_KINDS];

/* ----------------------------------------------------------------- helpers */

static int
as_ll(PyObject *value, long long *out)
{
    long long x = PyLong_AsLongLong(value);
    if (x == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

/* Borrowed ``dict[name]``, or NULL with AttributeError set. */
static PyObject *
dict_attr(PyObject *dict, PyObject *name)
{
    PyObject *value = PyDict_GetItemWithError(dict, name);
    if (value == NULL && !PyErr_Occurred()) {
        PyErr_Format(PyExc_AttributeError, "no attribute '%U'", name);
    }
    return value;
}

static int
dict_ll(PyObject *dict, PyObject *name, long long *out)
{
    PyObject *value = dict_attr(dict, name);
    return value == NULL ? -1 : as_ll(value, out);
}

/* ``a % b`` and ``a // b`` with Python's floor semantics (b > 0). */
static inline long long
floor_mod(long long a, long long b)
{
    long long m = a % b;
    return m < 0 ? m + b : m;
}

static inline long long
floor_div(long long a, long long b)
{
    return (a - floor_mod(a, b)) / b;
}

/* ``bit.bit_length() - 1`` for a one-bit mask. */
static inline int
bit_index(uint64_t bit)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(bit);
#else
    int k = 0;
    while (!(bit & 1)) {
        bit >>= 1;
        k++;
    }
    return k;
#endif
}

/* A new reference to ``obj``'s slot at ``offset`` when ``obj`` is exactly
 * ``type`` and the slot is set, else ``getattr(obj, name)``. */
static PyObject *
slot_get(PyObject *obj, PyTypeObject *type, Py_ssize_t offset,
         PyObject *name)
{
    if (Py_IS_TYPE(obj, type)) {
        PyObject *value = *(PyObject **)((char *)obj + offset);
        if (value != NULL) {
            Py_INCREF(value);
            return value;
        }
    }
    return PyObject_GetAttr(obj, name);
}

static int
slot_set(PyObject *obj, PyTypeObject *type, Py_ssize_t offset,
         PyObject *name, PyObject *value)
{
    if (Py_IS_TYPE(obj, type)) {
        PyObject **field = (PyObject **)((char *)obj + offset);
        PyObject *old = *field;
        Py_INCREF(value);
        *field = value;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(obj, name, value);
}

/* Truth of ``obj``'s slot (as slot_get reads it), or -1. */
static int
slot_true(PyObject *obj, PyTypeObject *type, Py_ssize_t offset,
          PyObject *name)
{
    PyObject *value = slot_get(obj, type, offset, name);
    if (value == NULL) {
        return -1;
    }
    int truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

/* A new instance of the slotted class ``type`` with its slots set to
 * ``values``, as its __init__ sets them. */
static PyObject *
new_slotted(PyTypeObject *type, const Py_ssize_t *offsets,
            PyObject *const *values, int n)
{
    PyObject *obj = type->tp_alloc(type, 0);
    if (obj == NULL) {
        return NULL;
    }
    for (int k = 0; k < n; k++) {
        Py_INCREF(values[k]);
        *(PyObject **)((char *)obj + offsets[k]) = values[k];
    }
    return obj;
}

/* The offsets of ``type``'s slots ``names`` (member descriptors), which
 * must be all its instances hold, as new_slotted sets nothing else. */
static int
bind_slots(PyTypeObject *type, const char *const *names, Py_ssize_t *out,
           int n)
{
    if (type->tp_basicsize
        != (Py_ssize_t)(sizeof(PyObject) + n * sizeof(PyObject *))) {
        PyErr_Format(PyExc_TypeError, "%s holds more than the slots the "
                     "kernel sets", type->tp_name);
        return -1;
    }
    for (int k = 0; k < n; k++) {
        PyObject *descr = PyDict_GetItemString(type->tp_dict, names[k]);
        if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a slot",
                         type->tp_name, names[k]);
            return -1;
        }
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type != Py_T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not an object slot",
                         type->tp_name, names[k]);
            return -1;
        }
        out[k] = member->offset;
    }
    return 0;
}

static PyObject *
module_attr(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL) {
        return NULL;
    }
    PyObject *value = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return value;
}

static int
module_ll(const char *module, const char *name, long long *out)
{
    PyObject *value = module_attr(module, name);
    if (value == NULL) {
        return -1;
    }
    int failed = as_ll(value, out);
    Py_DECREF(value);
    return failed;
}

/* Bind the model classes, constants and MemoryHierarchy's own event
 * handlers once per process. */
static int
bind_models(void)
{
    if (load_access_type != NULL) {
        return 0;
    }
    static const char *const la_names[N_LA] = {
        "pc", "issue_cycle", "critical", "txn", "went_to_dram",
    };
    static const char *const me_names[N_ME] = {
        "line_addr", "waiters", "txn", "rfo",
    };
    const char *hierarchy = "repro.cache.hierarchy";
    PyObject *la = module_attr(hierarchy, "LoadAccess");
    PyObject *me = la ? module_attr("repro.cache.mshr", "MshrEntry") : NULL;
    PyObject *hit = me ? module_attr(hierarchy, "L1_HIT") : NULL;
    PyObject *hist = hit ? module_attr(hierarchy, "LatencyHistogram") : NULL;
    PyObject *handlers = hist ? module_attr(hierarchy, "_EVENT_HANDLERS")
                              : NULL;
    long long shared, modified;
    if (handlers == NULL
        || module_ll(hierarchy, "INTERVENTION_PENALTY",
                     &intervention_penalty) < 0
        || module_ll(hierarchy, "RETRY_INTERVAL", &retry_interval) < 0
        || module_ll("repro.cache.base", "SHARED", &shared) < 0
        || module_ll("repro.cache.base", "MODIFIED", &modified) < 0) {
        goto error;
    }
    if (shared != SHARED || modified != MODIFIED) {
        PyErr_SetString(PyExc_ValueError, "state codes differ from the C");
        goto error;
    }
    if (!PyTuple_CheckExact(handlers)
        || PyTuple_GET_SIZE(handlers) != N_KINDS - 1) {
        PyErr_SetString(PyExc_TypeError, "_EVENT_HANDLERS must be a tuple "
                                         "of the handlers Events run");
        goto error;
    }
    if (!PyType_Check(la) || !PyType_Check(me)
        || bind_slots((PyTypeObject *)la, la_names, la_offset, N_LA) < 0
        || bind_slots((PyTypeObject *)me, me_names, me_offset, N_ME) < 0) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "model classes expected");
        }
        goto error;
    }
    for (int kind = 1; kind < N_KINDS; kind++) {
        own_handler[kind] = PyTuple_GET_ITEM(handlers, kind - 1);
        Py_INCREF(own_handler[kind]);
    }
    Py_DECREF(handlers);
    load_access_type = (PyTypeObject *)la;
    mshr_entry_type = (PyTypeObject *)me;
    l1_hit = hit;
    latency_histogram = hist;
    return 0;

error:
    Py_XDECREF(la);
    Py_XDECREF(me);
    Py_XDECREF(hit);
    Py_XDECREF(hist);
    Py_XDECREF(handlers);
    return -1;
}

/* ------------------------------------------------------------- base types */

/* The base type of SetAssociativeCache: its scalars (see base.py).  The
 * checksum is ``sum + ck`` exactly: the kernel adds to ``ck`` and folds it
 * into the int ``sum`` (NULL for 0) before it could overflow. */
typedef struct {
    PyObject_HEAD
    long long clock, resident, dirty_lines, ck;
    PyObject *sum;
} CacheBase;

/* ``sum += ck; ck = 0`` */
static int
ck_fold(CacheBase *o)
{
    if (!o->ck) {
        return 0;
    }
    PyObject *delta = PyLong_FromLongLong(o->ck);
    if (delta == NULL) {
        return -1;
    }
    PyObject *sum = delta;
    if (o->sum != NULL) {
        sum = PyNumber_Add(o->sum, delta);
        Py_DECREF(delta);
        if (sum == NULL) {
            return -1;
        }
    }
    Py_XSETREF(o->sum, sum);
    o->ck = 0;
    return 0;
}

/* ``checksum += term``, exactly. */
static int
ck_add(CacheBase *o, long long term)
{
    if (((term > 0 && o->ck > LLONG_MAX - term)
         || (term < 0 && o->ck < LLONG_MIN - term))
        && ck_fold(o) < 0) {
        return -1;
    }
    o->ck += term;
    return 0;
}

static PyObject *
checksum_get(CacheBase *o, void *closure)
{
    if (ck_fold(o) < 0) {
        return NULL;
    }
    if (o->sum == NULL) {
        return PyLong_FromLong(0);
    }
    Py_INCREF(o->sum);
    return o->sum;
}

static int
checksum_set(CacheBase *o, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete checksum");
        return -1;
    }
    PyObject *sum = PyNumber_Index(value);
    if (sum == NULL) {
        return -1;
    }
    Py_XSETREF(o->sum, sum);
    o->ck = 0;
    return 0;
}

static void
cache_base_dealloc(CacheBase *o)
{
    Py_CLEAR(o->sum);
    Py_TYPE(o)->tp_free((PyObject *)o);
}

static PyMemberDef cache_members[] = {
    {"clock", Py_T_LONGLONG, offsetof(CacheBase, clock), 0, NULL},
    {"_resident", Py_T_LONGLONG, offsetof(CacheBase, resident), 0, NULL},
    {"_dirty_lines", Py_T_LONGLONG, offsetof(CacheBase, dirty_lines), 0,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef cache_getset[] = {
    {"checksum", (getter)checksum_get, (setter)checksum_set,
     "The exact per-line checksum of the det-state words.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CacheBaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cache._kernel.CacheBase",
    .tp_basicsize = sizeof(CacheBase),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The scalars of a SetAssociativeCache, as C fields.",
    .tp_members = cache_members,
    .tp_getset = cache_getset,
    .tp_dealloc = (destructor)cache_base_dealloc,
    .tp_new = PyType_GenericNew,
};

/* The base type of HierarchyStats: its counters (see hierarchy.py). */
typedef struct {
    PyObject_HEAD
    long long loads, l1_load_hits, l2_load_hits, dram_loads, stores,
        writebacks, interventions, invalidations, prefetches_issued,
        prefetches_useful;
} StatsBase;

#define STATS_MEMBER(name) \
    {#name, Py_T_LONGLONG, offsetof(StatsBase, name), 0, NULL}

static PyMemberDef stats_members[] = {
    STATS_MEMBER(loads), STATS_MEMBER(l1_load_hits),
    STATS_MEMBER(l2_load_hits), STATS_MEMBER(dram_loads),
    STATS_MEMBER(stores), STATS_MEMBER(writebacks),
    STATS_MEMBER(interventions), STATS_MEMBER(invalidations),
    STATS_MEMBER(prefetches_issued), STATS_MEMBER(prefetches_useful),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject StatsBaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cache._kernel.StatsBase",
    .tp_basicsize = sizeof(StatsBase),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The counters of a HierarchyStats, as C fields.",
    .tp_members = stats_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------- View */

/* A cache's columns, in the order they are bound. */
enum { COL_TAG, COL_LRU, COL_FILL, COL_STATE, COL_DIRTY, N_COLS };

/* One SetAssociativeCache: its scalars, columns and geometry. */
typedef struct {
    CacheBase *obj;
    Py_buffer bufs[N_COLS];
    unsigned held;  /* bit c: bufs[c] acquired */
    long long *tag, *lru, *fill;
    uint8_t *state, *dirty;
    long long line_bytes, ways, num_sets, slots;
} Cache;

/* One MshrFile. */
typedef struct {
    PyObject *entries;
    long long capacity;
} Mshr;

typedef struct {
    PyObject_HEAD
    Py_ssize_t ncores;
    Cache *caches;  /* the L1s by core id, then the L2 */
    Mshr *mshrs;    /* the L1 files by core id, then the L2's */
    StatsBase *stats;
    PyObject *events, *memsys, *dir, *prefetched, *backlog;
    long long l1_line, l2_line, l1_hit_lat, l2_half, l2_delay;
    int prefetch_on;
} View;

#define N_CACHES(v) ((v)->ncores + 1)
#define L2_OF(v) (&(v)->caches[(v)->ncores])
#define L2_MSHR_OF(v) (&(v)->mshrs[(v)->ncores])

static int
view_traverse(View *self, visitproc visit, void *arg)
{
    if (self->caches != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Cache *k = &self->caches[i];
            Py_VISIT(k->obj);
            for (int col = 0; col < N_COLS; col++) {
                if (k->held & (1u << col)) {
                    Py_VISIT(k->bufs[col].obj);
                }
            }
        }
    }
    if (self->mshrs != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Py_VISIT(self->mshrs[i].entries);
        }
    }
    Py_VISIT(self->stats);
    Py_VISIT(self->events);
    Py_VISIT(self->memsys);
    Py_VISIT(self->dir);
    Py_VISIT(self->prefetched);
    Py_VISIT(self->backlog);
    return 0;
}

static void
release_columns(Cache *k)
{
    for (int col = 0; col < N_COLS; col++) {
        if (k->held & (1u << col)) {
            PyBuffer_Release(&k->bufs[col]);
        }
    }
    k->held = 0;
    k->tag = k->lru = k->fill = NULL;
    k->state = k->dirty = NULL;
}

static int
view_clear(View *self)
{
    if (self->caches != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            release_columns(&self->caches[i]);
            Py_CLEAR(self->caches[i].obj);
        }
    }
    if (self->mshrs != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Py_CLEAR(self->mshrs[i].entries);
        }
    }
    Py_CLEAR(self->stats);
    Py_CLEAR(self->events);
    Py_CLEAR(self->memsys);
    Py_CLEAR(self->dir);
    Py_CLEAR(self->prefetched);
    Py_CLEAR(self->backlog);
    return 0;
}

static void
view_dealloc(View *self)
{
    PyObject_GC_UnTrack(self);
    view_clear(self);
    PyMem_Free(self->caches);
    PyMem_Free(self->mshrs);
    PyObject_GC_Del(self);
}

static PyTypeObject ViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cache._kernel.View",
    .tp_basicsize = sizeof(View),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One hierarchy's caches, MSHR files and containers, bound for "
              "the kernel.",
    .tp_traverse = (traverseproc)view_traverse,
    .tp_clear = (inquiry)view_clear,
    .tp_dealloc = (destructor)view_dealloc,
};

/* A new reference to ``dict[name]`` if it is exactly of ``type``. */
static PyObject *
bind_exact(PyObject *dict, PyObject *name, PyTypeObject *type)
{
    PyObject *value = dict_attr(dict, name);
    if (value == NULL) {
        return NULL;
    }
    if (!Py_IS_TYPE(value, type)) {
        PyErr_Format(PyExc_TypeError, "%U must be a %s", name, type->tp_name);
        return NULL;
    }
    Py_INCREF(value);
    return value;
}

/* A new reference to ``dict[name]``. */
static PyObject *
bind_ref(PyObject *dict, PyObject *name)
{
    PyObject *value = dict_attr(dict, name);
    Py_XINCREF(value);
    return value;
}

static PyObject *
instance_dict(PyObject *obj)
{
    return PyObject_GenericGetDict(obj, NULL);
}

/* Bind the column ``dict[name]`` of ``items`` items of struct format
 * ``format`` as the cache's buffer ``col``. */
static int
bind_column(Cache *k, int col, PyObject *dict, PyObject *name,
            long long items, const char *format)
{
    PyObject *column = dict_attr(dict, name);
    Py_buffer *buf = &k->bufs[col];
    if (column == NULL
        || PyObject_GetBuffer(column, buf, PyBUF_WRITABLE | PyBUF_FORMAT)
               < 0) {
        return -1;
    }
    k->held |= 1u << col;
    if (buf->format == NULL || strcmp(buf->format, format) != 0
        || buf->len != items * buf->itemsize) {
        PyErr_Format(PyExc_TypeError, "%U must hold %lld items of format "
                     "'%s'", name, items, format);
        return -1;
    }
    return 0;
}

static int
bind_cache(Cache *k, PyObject *cache)
{
    if (!PyObject_TypeCheck(cache, &CacheBaseType)) {
        PyErr_Format(PyExc_TypeError, "the hierarchy's caches must be "
                     "CacheBase, not '%s'", Py_TYPE(cache)->tp_name);
        return -1;
    }
    Py_INCREF(cache);
    k->obj = (CacheBase *)cache;
    PyObject *dict = instance_dict(cache);
    if (dict == NULL) {
        return -1;
    }
    int failed = dict_ll(dict, str_line_bytes, &k->line_bytes) < 0
        || dict_ll(dict, str_ways, &k->ways) < 0
        || dict_ll(dict, str_num_sets, &k->num_sets) < 0;
    if (!failed && (k->line_bytes <= 0 || k->ways <= 0 || k->num_sets <= 0
                    || k->ways > PY_SSIZE_T_MAX / 8 / k->num_sets)) {
        PyErr_SetString(PyExc_ValueError, "cache geometry out of range");
        failed = 1;
    }
    k->slots = failed ? 0 : k->ways * k->num_sets;
    failed = failed
        || bind_column(k, COL_TAG, dict, str_tag, k->slots, "q") < 0
        || bind_column(k, COL_LRU, dict, str_lru, k->slots, "q") < 0
        || bind_column(k, COL_FILL, dict, str_fill, k->num_sets, "q") < 0
        || bind_column(k, COL_STATE, dict, str_state, k->slots, "B") < 0
        || bind_column(k, COL_DIRTY, dict, str_dirty, k->slots, "B") < 0;
    Py_DECREF(dict);
    if (failed) {
        return -1;
    }
    k->tag = k->bufs[COL_TAG].buf;
    k->lru = k->bufs[COL_LRU].buf;
    k->fill = k->bufs[COL_FILL].buf;
    k->state = k->bufs[COL_STATE].buf;
    k->dirty = k->bufs[COL_DIRTY].buf;
    return 0;
}

static int
bind_mshr(Mshr *m, PyObject *file)
{
    PyObject *dict = instance_dict(file);
    if (dict == NULL) {
        return -1;
    }
    int failed = (m->entries = bind_exact(dict, str_entries,
                                          &PyDict_Type)) == NULL
        || dict_ll(dict, str_capacity, &m->capacity) < 0;
    Py_DECREF(dict);
    return failed ? -1 : 0;
}

/* The item ``index`` of the list ``dict[name]``: a borrowed reference. */
static PyObject *
list_item(PyObject *dict, PyObject *name, Py_ssize_t index, Py_ssize_t size)
{
    PyObject *list = dict_attr(dict, name);
    if (list == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(list) || PyList_GET_SIZE(list) != size) {
        PyErr_Format(PyExc_TypeError, "%U must be a list of %zd items", name,
                     size);
        return NULL;
    }
    return PyList_GET_ITEM(list, index);
}

static PyObject *
view_bind(PyObject *dict)
{
    if (bind_models() < 0) {
        return NULL;
    }
    PyObject *l1 = dict_attr(dict, str_l1);
    if (l1 == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(l1)) {
        PyErr_SetString(PyExc_TypeError, "l1 must be a list");
        return NULL;
    }
    Py_ssize_t ncores = PyList_GET_SIZE(l1);
    if (ncores < 1 || ncores > MAX_CORES) {
        PyErr_Format(PyExc_ValueError,
                     "the compiled hierarchy holds 1 to %d cores, not %zd",
                     MAX_CORES, ncores);
        return NULL;
    }
    View *self = PyObject_GC_New(View, &ViewType);
    if (self == NULL) {
        return NULL;
    }
    self->ncores = ncores;
    self->caches = PyMem_Calloc(ncores + 1, sizeof(Cache));
    self->mshrs = PyMem_Calloc(ncores + 1, sizeof(Mshr));
    self->stats = NULL;
    self->events = self->memsys = self->dir = self->prefetched = NULL;
    self->backlog = NULL;
    PyObject_GC_Track(self);
    if (self->caches == NULL || self->mshrs == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    for (Py_ssize_t i = 0; i <= ncores; i++) {
        PyObject *cache = i < ncores ? list_item(dict, str_l1, i, ncores)
                                     : dict_attr(dict, str_l2);
        PyObject *file = i < ncores
            ? list_item(dict, str_l1_mshr, i, ncores)
            : dict_attr(dict, str_l2_mshr);
        if (cache == NULL || file == NULL
            || bind_cache(&self->caches[i], cache) < 0
            || bind_mshr(&self->mshrs[i], file) < 0) {
            goto error;
        }
    }
    PyObject *stats = dict_attr(dict, str_stats);
    if (stats == NULL) {
        goto error;
    }
    if (!PyObject_TypeCheck(stats, &StatsBaseType)) {
        PyErr_Format(PyExc_TypeError, "the hierarchy's stats must be "
                     "StatsBase, not '%s'", Py_TYPE(stats)->tp_name);
        goto error;
    }
    Py_INCREF(stats);
    self->stats = (StatsBase *)stats;
    PyObject *prefetcher = dict_attr(dict, str_prefetcher);
    PyObject *config = prefetcher
        ? PyObject_GetAttr(prefetcher, str_config) : NULL;
    PyObject *enabled = config ? PyObject_GetAttr(config, str_enabled) : NULL;
    Py_XDECREF(config);
    if (enabled == NULL) {
        goto error;
    }
    self->prefetch_on = PyObject_IsTrue(enabled);
    Py_DECREF(enabled);
    if (self->prefetch_on < 0
        || (self->dir = bind_exact(dict, str_dir, &PyDict_Type)) == NULL
        || (self->prefetched = bind_exact(dict, str_prefetched,
                                          &PySet_Type)) == NULL
        || (self->backlog = bind_exact(dict, str_store_backlog,
                                       &PyList_Type)) == NULL
        || (self->events = bind_ref(dict, str_events)) == NULL
        || (self->memsys = bind_ref(dict, str_memsys)) == NULL
        || dict_ll(dict, str_l1_line, &self->l1_line) < 0
        || dict_ll(dict, str_l2_line, &self->l2_line) < 0
        || dict_ll(dict, str_l1_hit_lat, &self->l1_hit_lat) < 0
        || dict_ll(dict, str_l2_half, &self->l2_half) < 0
        || dict_ll(dict, str_l2_delay, &self->l2_delay) < 0) {
        goto error;
    }
    if (self->l1_line <= 0 || self->l2_line <= 0) {
        PyErr_SetString(PyExc_ValueError, "line sizes must be positive");
        goto error;
    }
    return (PyObject *)self;

error:
    Py_DECREF(self);
    return NULL;
}

/* -------------------------------------------------------------- call state */

/* One kernel call: the hierarchy, its __dict__ and its View. */
typedef struct {
    PyObject *hier;  /* borrowed: the caller's argument */
    PyObject *dict;
    View *v;
} Ctx;

static int
ctx_open(Ctx *c, PyObject *hier)
{
    c->hier = hier;
    c->v = NULL;
    c->dict = instance_dict(hier);
    if (c->dict == NULL) {
        return -1;
    }
    PyObject *view = PyDict_GetItemWithError(c->dict, str_kernel_view);
    if (view != NULL && Py_IS_TYPE(view, &ViewType)) {
        Py_INCREF(view);
    }
    else {
        if (PyErr_Occurred()) {
            goto error;
        }
        view = view_bind(c->dict);
        if (view == NULL
            || PyDict_SetItem(c->dict, str_kernel_view, view) < 0) {
            Py_XDECREF(view);
            goto error;
        }
    }
    c->v = (View *)view;
    if (c->v->events == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the hierarchy's kernel view is cleared");
        goto error;
    }
    return 0;

error:
    Py_CLEAR(c->v);
    Py_CLEAR(c->dict);
    return -1;
}

static PyObject *
ctx_close(Ctx *c, PyObject *result)
{
    Py_DECREF(c->v);
    Py_DECREF(c->dict);
    return result;
}

/* ------------------------------------------------------- cache columns */

/* The next LRU stamp, ``clock + 1``, made the clock; -1 with
 * OverflowError at CLOCK_LIMIT. */
static inline long long
next_stamp(CacheBase *o)
{
    if (o->clock < 0 || o->clock >= CLOCK_LIMIT - 1) {
        PyErr_SetString(PyExc_OverflowError, "cache clock out of range");
        return -1;
    }
    return ++o->clock;
}

/* ``lru[slot]``, a stamp below CLOCK_LIMIT. */
static inline int
stamp_at(Cache *k, Py_ssize_t slot, long long *out)
{
    *out = k->lru[slot];
    if (*out < 0 || *out >= CLOCK_LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "LRU stamp out of range");
        return -1;
    }
    return 0;
}

/* The line covering ``addr``: ``addr - addr % line_bytes``. */
static inline long long
line_of(Cache *k, long long addr)
{
    return addr - floor_mod(addr, k->line_bytes);
}

/* The set of ``line`` and its live slot count, checked. */
static inline int
set_of(Cache *k, long long line, long long *index, long long *used)
{
    *index = floor_mod(floor_div(line, k->line_bytes), k->num_sets);
    *used = k->fill[*index];
    if (*used < 0 || *used > k->ways) {
        PyErr_SetString(PyExc_IndexError, "set fill out of range");
        return -1;
    }
    return 0;
}

/* SetAssociativeCache.find: the slot holding ``line``, -1 if none, -2 on
 * error. */
static Py_ssize_t
cache_find(Cache *k, long long line)
{
    long long index, used;
    if (set_of(k, line, &index, &used) < 0) {
        return -2;
    }
    long long base = index * k->ways;
    const long long *tag = k->tag + base;
    for (long long way = 0; way < used; way++) {
        if (tag[way] == line) {
            return (Py_ssize_t)(base + way);
        }
    }
    return -1;
}

/* SetAssociativeCache.peek */
static inline Py_ssize_t
cache_peek(Cache *k, long long addr)
{
    return cache_find(k, line_of(k, addr));
}

/* The LRU touch of SetAssociativeCache.lookup on a resident ``slot``. */
static int
cache_touch(Cache *k, Py_ssize_t slot)
{
    long long old;
    if (stamp_at(k, slot, &old) < 0) {
        return -1;
    }
    long long clock = next_stamp(k->obj);
    if (clock < 0 || ck_add(k->obj, 131 * (clock - old)) < 0) {
        return -1;
    }
    k->lru[slot] = clock;
    return 0;
}

/* SetAssociativeCache.lookup */
static Py_ssize_t
cache_lookup(Cache *k, long long addr)
{
    Py_ssize_t slot = cache_peek(k, addr);
    if (slot >= 0 && cache_touch(k, slot) < 0) {
        return -2;
    }
    return slot;
}

/* SetAssociativeCache.set_state */
static int
cache_set_state(Cache *k, Py_ssize_t slot, int state)
{
    if (ck_add(k->obj, 7 * (long long)(state - k->state[slot])) < 0) {
        return -1;
    }
    k->state[slot] = (uint8_t)state;
    return 0;
}

/* SetAssociativeCache.set_dirty */
static void
cache_set_dirty(Cache *k, Py_ssize_t slot, int dirty)
{
    if (k->dirty[slot] != dirty) {
        k->obj->dirty_lines += dirty ? 1 : -1;
        k->dirty[slot] = (uint8_t)dirty;
    }
}

/* A line leaving a cache: its address, coherence state and dirty bit
 * (``left`` 0 if none left). */
typedef struct {
    int left, state, dirty;
    long long line;
} Gone;

/* ``checksum -= line + 131 * lru[slot] + 7 * state[slot]`` */
static int
ck_remove(Cache *k, long long line, Py_ssize_t slot)
{
    long long stamp;
    if (stamp_at(k, slot, &stamp) < 0) {
        return -1;
    }
    return ck_add(k->obj, -line) < 0 || ck_add(k->obj, -131 * stamp) < 0
        || ck_add(k->obj, -7 * (long long)k->state[slot]) < 0 ? -1 : 0;
}

/* SetAssociativeCache.insert; the victim, if any, in ``*victim``. */
static int
cache_insert(Cache *k, long long addr, int state, int dirty, Gone *victim)
{
    CacheBase *o = k->obj;
    victim->left = 0;
    long long line = line_of(k, addr);
    long long clock = next_stamp(o);
    if (clock < 0) {
        return -1;
    }
    Py_ssize_t slot = cache_find(k, line);
    if (slot == -2) {
        return -1;
    }
    if (slot >= 0) {
        long long stamp;
        if (stamp_at(k, slot, &stamp) < 0
            || ck_add(o, 7 * (long long)(state - k->state[slot])) < 0
            || ck_add(o, 131 * (clock - stamp)) < 0) {
            return -1;
        }
        k->state[slot] = (uint8_t)state;
        k->lru[slot] = clock;
        if (dirty && !k->dirty[slot]) {
            k->dirty[slot] = 1;
            o->dirty_lines += 1;
        }
        return 0;
    }
    long long index, used;
    if (set_of(k, line, &index, &used) < 0) {
        return -1;
    }
    long long base = index * k->ways;
    if (used < k->ways) {
        slot = (Py_ssize_t)(base + used);
        k->fill[index] = used + 1;
        o->resident += 1;
    }
    else {
        /* The set's minimum-LRU slot (stamps are unique). */
        long long best = 0, stamp;
        slot = -1;
        for (long long s = base; s < base + k->ways; s++) {
            if (stamp_at(k, s, &stamp) < 0) {
                return -1;
            }
            if (slot < 0 || stamp < best) {
                best = stamp;
                slot = (Py_ssize_t)s;
            }
        }
        victim->left = 1;
        victim->line = k->tag[slot];
        victim->state = k->state[slot];
        victim->dirty = k->dirty[slot];
        o->dirty_lines -= k->dirty[slot];
        if (ck_remove(k, victim->line, slot) < 0) {
            return -1;
        }
    }
    k->tag[slot] = line;
    k->lru[slot] = clock;
    k->state[slot] = (uint8_t)state;
    k->dirty[slot] = (uint8_t)dirty;
    if (dirty) {
        o->dirty_lines += 1;
    }
    return ck_add(o, line) < 0 || ck_add(o, 131 * clock) < 0
        || ck_add(o, 7 * (long long)state) < 0 ? -1 : 0;
}

/* SetAssociativeCache.invalidate; ``gone->left`` is 0 if the line was not
 * resident. */
static int
cache_invalidate(Cache *k, long long addr, Gone *gone)
{
    CacheBase *o = k->obj;
    gone->left = 0;
    long long line = line_of(k, addr);
    Py_ssize_t slot = cache_find(k, line);
    if (slot < 0) {
        return slot == -2 ? -1 : 0;
    }
    gone->left = 1;
    gone->line = line;
    gone->state = k->state[slot];
    gone->dirty = k->dirty[slot];
    o->resident -= 1;
    o->dirty_lines -= k->dirty[slot];
    if (ck_remove(k, line, slot) < 0) {
        return -1;
    }
    long long index = slot / k->ways;
    Py_ssize_t last = (Py_ssize_t)(index * k->ways + k->fill[index] - 1);
    k->fill[index] -= 1;
    if (slot != last) {
        k->tag[slot] = k->tag[last];
        k->lru[slot] = k->lru[last];
        k->state[slot] = k->state[last];
        k->dirty[slot] = k->dirty[last];
    }
    return 0;
}

/* ------------------------------------------------------------ MSHR files */

/* MshrFile.get: a new reference, or NULL (error set or not). */
static PyObject *
mshr_get(Mshr *m, PyObject *key)
{
    PyObject *entry = PyDict_GetItemWithError(m->entries, key);
    Py_XINCREF(entry);
    return entry;
}

/* MshrFile.allocate: a new reference; NULL without an error when full. */
static PyObject *
mshr_allocate(Mshr *m, PyObject *key)
{
    int tracked = PyDict_Contains(m->entries, key);
    if (tracked) {
        PyObject *text = tracked > 0 ? PyNumber_ToBase(key, 16) : NULL;
        if (text != NULL) {
            PyErr_Format(PyExc_ValueError, "MSHR already tracks line %U",
                         text);
            Py_DECREF(text);
        }
        return NULL;
    }
    if (PyDict_GET_SIZE(m->entries) >= m->capacity) {
        return NULL;
    }
    PyObject *waiters = PyList_New(0);
    if (waiters == NULL) {
        return NULL;
    }
    PyObject *values[N_ME] = {key, waiters, Py_None, Py_False};
    PyObject *entry = new_slotted(mshr_entry_type, me_offset, values, N_ME);
    Py_DECREF(waiters);
    if (entry != NULL && PyDict_SetItem(m->entries, key, entry) < 0) {
        Py_CLEAR(entry);
    }
    return entry;
}

/* MshrFile.release: a new reference; KeyError if untracked. */
static PyObject *
mshr_release(Mshr *m, PyObject *key)
{
    PyObject *entry = PyDict_GetItemWithError(m->entries, key);
    if (entry == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, key);
        }
        return NULL;
    }
    Py_INCREF(entry);
    if (PyDict_DelItem(m->entries, key) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

#define ENTRY_GET(entry, field, name) \
    slot_get((entry), mshr_entry_type, me_offset[field], (name))

/* ``entry.waiters.append(item)`` (steals ``item``). */
static int
append_waiter(PyObject *entry, PyObject *item)
{
    if (item == NULL) {
        return -1;
    }
    PyObject *waiters = ENTRY_GET(entry, ME_WAITERS, str_waiters);
    int failed = waiters == NULL || PyList_Append(waiters, item) < 0;
    Py_XDECREF(waiters);
    Py_DECREF(item);
    return failed ? -1 : 0;
}

/* ------------------------------------------------------------- calls out */

/* ``args[0].name(*args[1:])`` (the last names in ``kwnames`` by keyword);
 * a new reference. */
static PyObject *
call_out(PyObject *name, PyObject **args, size_t nargs, PyObject *kwnames)
{
    return PyObject_VectorcallMethod(
        name, args, nargs | PY_VECTORCALL_ARGUMENTS_OFFSET, kwnames);
}

static int
call_out_discard(PyObject *name, PyObject **args, size_t nargs,
                 PyObject *kwnames)
{
    PyObject *result = call_out(name, args, nargs, kwnames);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* ``self.<method>(*args)`` */
static int
call_self(Ctx *c, PyObject *method, PyObject **args, size_t nargs)
{
    PyObject *call[6];
    call[0] = c->hier;
    for (size_t k = 0; k < nargs; k++) {
        call[k + 1] = args[k];
    }
    return call_out_discard(method, call, nargs + 1, NULL);
}

/* ``self._trace_cache(kind, core, line[, now])`` when a recorder is
 * attached; ``now`` NULL passes three arguments. */
static int
trace_cache(Ctx *c, PyObject *kind, long long core, PyObject *line,
            PyObject *now)
{
    PyObject *recorder = dict_attr(c->dict, str_trace);
    if (recorder == NULL) {
        return -1;
    }
    if (recorder == Py_None) {
        return 0;
    }
    PyObject *core_obj = PyLong_FromLongLong(core);
    if (core_obj == NULL) {
        return -1;
    }
    PyObject *args[] = {kind, core_obj, line, now};
    int failed = call_self(c, str_trace_cache, args, now ? 4 : 3);
    Py_DECREF(core_obj);
    return failed;
}

/* ``self._store_backlog[core] += delta`` */
static int
backlog_add(View *v, long long core, PyObject *delta)
{
    if (PyList_GET_SIZE(v->backlog) != v->ncores) {
        PyErr_SetString(PyExc_TypeError, "_store_backlog must hold a count "
                                         "per core");
        return -1;
    }
    PyObject *sum = PyNumber_InPlaceAdd(
        PyList_GET_ITEM(v->backlog, core), delta);
    if (sum == NULL) {
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(v->backlog, core);
    PyList_SET_ITEM(v->backlog, core, sum);
    Py_DECREF(old);
    return 0;
}

/* ``self._store_backlog[core] -= 1; self._wake_core(core)`` */
static int
drain_one(Ctx *c, long long core, PyObject *core_obj)
{
    if (backlog_add(c->v, core, small_minus_one) < 0) {
        return -1;
    }
    PyObject *args[] = {core_obj};
    return call_self(c, str_wake_core, args, 1);
}

/* ------------------------------------------------------------------ events */

#define EVENT_ARGS 5

/* A scheduled call: ``target(*args)`` (EV_CALL), or the hierarchy
 * ``target``'s handler of that kind with ``args`` (see the header). */
typedef struct {
    PyObject_HEAD
    PyObject *target;
    PyObject *args[EVENT_ARGS];
    int kind, nargs;
    vectorcallfunc vectorcall;
} Event;

static PyTypeObject EventType;
static PyObject *event_call(PyObject *callable, PyObject *const *args,
                            size_t nargsf, PyObject *kwnames);

static PyObject *
event_new(int kind, PyObject *target, PyObject *const *args, int nargs)
{
    Event *self = PyObject_GC_New(Event, &EventType);
    if (self == NULL) {
        return NULL;
    }
    Py_INCREF(target);
    self->target = target;
    for (int k = 0; k < nargs; k++) {
        Py_INCREF(args[k]);
        self->args[k] = args[k];
    }
    self->kind = kind;
    self->nargs = nargs;
    self->vectorcall = event_call;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

static int
event_traverse(Event *self, visitproc visit, void *arg)
{
    Py_VISIT(self->target);
    for (int k = 0; k < self->nargs; k++) {
        Py_VISIT(self->args[k]);
    }
    return 0;
}

static int
event_clear(Event *self)
{
    Py_CLEAR(self->target);
    for (int k = 0; k < self->nargs; k++) {
        Py_CLEAR(self->args[k]);
    }
    self->nargs = 0;
    return 0;
}

static void
event_dealloc(Event *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    PyObject_GC_Del(self);
}

/* Event.func: the callable, or the hierarchy's bound handler. */
static PyObject *
event_func(Event *self, void *closure)
{
    if (self->target == NULL) {
        Py_RETURN_NONE;
    }
    if (self->kind == EV_CALL) {
        Py_INCREF(self->target);
        return self->target;
    }
    return PyObject_GetAttr(self->target, handler_name[self->kind]);
}

/* Event.args */
static PyObject *
event_args(Event *self, void *closure)
{
    PyObject *args = PyTuple_New(self->nargs);
    if (args == NULL) {
        return NULL;
    }
    for (int k = 0; k < self->nargs; k++) {
        Py_INCREF(self->args[k]);
        PyTuple_SET_ITEM(args, k, self->args[k]);
    }
    return args;
}

static PyGetSetDef event_getset[] = {
    {"func", (getter)event_func, NULL, "What the event calls.", NULL},
    {"args", (getter)event_args, NULL, "The arguments it passes first.",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cache._kernel.Event",
    .tp_basicsize = sizeof(Event),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A call the hierarchy scheduled: func(*args, *more).",
    .tp_vectorcall_offset = offsetof(Event, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_getset = event_getset,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_dealloc = (destructor)event_dealloc,
};

/* ``self.events.schedule(cycle, Event(kind, target, *args))`` */
static int
schedule_event(View *v, PyObject *cycle, int kind, PyObject *target,
               PyObject *const *args, int nargs)
{
    PyObject *event = event_new(kind, target, args, nargs);
    if (event == NULL) {
        return -1;
    }
    PyObject *call[] = {v->events, cycle, event};
    int failed = call_out_discard(str_schedule, call, 3, NULL);
    Py_DECREF(event);
    return failed;
}

/* The same with the hierarchy's handler of ``kind``. */
static int
schedule_handler(Ctx *c, PyObject *cycle, int kind, PyObject *const *args)
{
    return schedule_event(c->v, cycle, kind, c->hier, args,
                          handler_nargs[kind]);
}

/* ------------------------------------------------------------- directory */

/* ``directory.get(key)`` as a mask; ``*present`` 0 when absent. */
static int
dir_get(View *v, PyObject *key, uint64_t *mask, int *present)
{
    PyObject *value = PyDict_GetItemWithError(v->dir, key);
    *present = value != NULL;
    *mask = 0;
    if (value == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    unsigned long long x = PyLong_AsUnsignedLongLong(value);
    if (x == (unsigned long long)-1 && PyErr_Occurred()) {
        return -1;
    }
    *mask = x;
    return 0;
}

static int
dir_set(View *v, PyObject *key, uint64_t mask)
{
    PyObject *value = PyLong_FromUnsignedLongLong(mask);
    if (value == NULL) {
        return -1;
    }
    int failed = PyDict_SetItem(v->dir, key, value);
    Py_DECREF(value);
    return failed;
}

/* A core id bit of a sharer set, checked against the core count. */
static int
sharer(View *v, uint64_t bit, int *core)
{
    *core = bit_index(bit);
    if (*core >= v->ncores) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return 0;
}

static int
core_index(View *v, PyObject *core_obj, long long *core)
{
    if (as_ll(core_obj, core) < 0) {
        return -1;
    }
    if (*core < 0 || *core >= v->ncores) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return 0;
}

/* ``self.l2.set_dirty(slot)`` for the L2 line covering ``line`` if
 * resident: the write-back of a Modified L1 copy. */
static int
dirty_l2_line(View *v, long long line)
{
    Cache *l2 = L2_OF(v);
    Py_ssize_t slot = cache_peek(l2, line - floor_mod(line, v->l2_line));
    if (slot == -2) {
        return -1;
    }
    if (slot >= 0) {
        cache_set_dirty(l2, slot, 1);
    }
    return 0;
}

/* ----------------------------------------------------- coherence, evictions */

/* One covered line ``line32`` (``key``) of _resolve_remote_copies: its
 * remote copies resolved, ``*penalty`` raised on an intervention. */
static int
resolve_line(Ctx *c, long long core, long long line32, PyObject *key,
             long long line64, int is_rfo, long long *penalty)
{
    View *v = c->v;
    uint64_t sharers;
    int present;
    if (dir_get(v, key, &sharers, &present) < 0) {
        return -1;
    }
    if (!sharers) {
        return 0;
    }
    uint64_t todo = sharers & ~((uint64_t)1 << core);
    while (todo) {
        uint64_t bit = todo & (~todo + 1);
        todo ^= bit;
        int other;
        if (sharer(v, bit, &other) < 0) {
            return -1;
        }
        Cache *l1 = &v->caches[other];
        Py_ssize_t slot = cache_peek(l1, line32);
        if (slot == -2) {
            return -1;
        }
        if (slot < 0) {
            sharers ^= bit;
            continue;
        }
        if (l1->state[slot] == MODIFIED) {
            /* Writeback to L2, downgrade (or invalidate on RFO). */
            Cache *l2 = L2_OF(v);
            Py_ssize_t l2slot = cache_peek(l2, line64);
            if (l2slot == -2) {
                return -1;
            }
            if (l2slot >= 0) {
                cache_set_dirty(l2, l2slot, 1);
            }
            *penalty = intervention_penalty;
            v->stats->interventions += 1;
            if (!is_rfo) {
                if (cache_set_state(l1, slot, SHARED) < 0) {
                    return -1;
                }
                cache_set_dirty(l1, slot, 0);
                continue;
            }
        }
        else if (!is_rfo) {
            continue;
        }
        /* RFO: the remote copy goes. */
        Gone gone;
        if (cache_invalidate(l1, line32, &gone) < 0) {
            return -1;
        }
        sharers ^= bit;
        v->stats->invalidations += 1;
        if (trace_cache(c, str_inval, other, key, NULL) < 0) {
            return -1;
        }
    }
    return dir_set(v, key, sharers);
}

/* MemoryHierarchy._resolve_remote_copies: the extra latency, or -1.
 * Sharers are visited in ascending core id. */
static long long
resolve_remote_copies(Ctx *c, long long core, long long line64, int is_rfo)
{
    View *v = c->v;
    long long penalty = 0;
    for (long long line32 = line64; line32 < line64 + v->l2_line;
         line32 += v->l1_line) {
        PyObject *key = PyLong_FromLongLong(line32);
        if (key == NULL) {
            return -1;
        }
        int failed = resolve_line(c, core, line32, key, line64, is_rfo,
                                  &penalty);
        Py_DECREF(key);
        if (failed) {
            return -1;
        }
    }
    return penalty;
}

/* MemoryHierarchy._invalidate_remote; ``now`` may be None. */
static int
invalidate_remote(Ctx *c, long long core, long long line32, PyObject *key,
                  PyObject *now)
{
    View *v = c->v;
    uint64_t sharers;
    int present;
    if (dir_get(v, key, &sharers, &present) < 0) {
        return -1;
    }
    if (!sharers) {
        return 0;
    }
    uint64_t mine = sharers & ((uint64_t)1 << core);
    uint64_t todo = sharers ^ mine;
    if (!todo) {
        return 0;
    }
    while (todo) {
        uint64_t bit = todo & (~todo + 1);
        todo ^= bit;
        int other;
        Gone gone;
        if (sharer(v, bit, &other) < 0
            || cache_invalidate(&v->caches[other], line32, &gone) < 0) {
            return -1;
        }
        if (gone.left) {
            if (gone.state == MODIFIED && dirty_l2_line(v, line32) < 0) {
                return -1;
            }
            v->stats->invalidations += 1;
            if (trace_cache(c, str_inval, other, key, now) < 0) {
                return -1;
            }
        }
    }
    return dir_set(v, key, mine);
}

/* MemoryHierarchy._evict_l1_line */
static int
evict_l1_line(Ctx *c, long long core, long long line, int state, int dirty)
{
    View *v = c->v;
    PyObject *key = PyLong_FromLongLong(line);
    if (key == NULL) {
        return -1;
    }
    uint64_t sharers;
    int present;
    int failed = dir_get(v, key, &sharers, &present) < 0;
    if (!failed && present) {
        sharers &= ~((uint64_t)1 << core);
        failed = sharers ? dir_set(v, key, sharers) < 0
                         : PyDict_DelItem(v->dir, key) < 0;
    }
    Py_DECREF(key);
    if (failed) {
        return -1;
    }
    if (dirty || state == MODIFIED) {
        return dirty_l2_line(v, line);
    }
    return 0;
}

/* MemoryHierarchy._evict_l2_line */
static int
evict_l2_line(Ctx *c, long long line64, int dirty)
{
    View *v = c->v;
    /* Inclusive L2: back-invalidate every covered L1 line everywhere, in
     * ascending core id. */
    for (long long line32 = line64; line32 < line64 + v->l2_line;
         line32 += v->l1_line) {
        PyObject *key = PyLong_FromLongLong(line32);
        if (key == NULL) {
            return -1;
        }
        uint64_t sharers;
        int present;
        if (dir_get(v, key, &sharers, &present) < 0
            || (present && PyDict_DelItem(v->dir, key) < 0)) {
            Py_DECREF(key);
            return -1;
        }
        while (sharers) {
            uint64_t bit = sharers & (~sharers + 1);
            sharers ^= bit;
            int core;
            Gone gone;
            if (sharer(v, bit, &core) < 0
                || cache_invalidate(&v->caches[core], line32, &gone) < 0) {
                Py_DECREF(key);
                return -1;
            }
            if (gone.left) {
                if (gone.state == MODIFIED || gone.dirty) {
                    dirty = 1;
                }
                v->stats->invalidations += 1;
                if (trace_cache(c, str_inval, core, key, NULL) < 0) {
                    Py_DECREF(key);
                    return -1;
                }
            }
        }
        Py_DECREF(key);
    }
    PyObject *key64 = PyLong_FromLongLong(line64);
    if (key64 == NULL) {
        return -1;
    }
    int failed = PySet_Discard(v->prefetched, key64) < 0;
    if (!failed && dirty) {
        PyObject *args[] = {key64};
        failed = trace_cache(c, str_dirty_evict, -1, key64, NULL) < 0
            || call_self(c, str_writeback, args, 1) < 0;
    }
    Py_DECREF(key64);
    return failed ? -1 : 0;
}

/* ----------------------------------------------------------------- loads */

/* ``LoadAccess(pc, issue_cycle, critical)`` */
static PyObject *
new_load_access(PyObject *pc, PyObject *issue_cycle, PyObject *critical)
{
    PyObject *values[N_LA] = {pc, issue_cycle, critical, Py_None, Py_False};
    return new_slotted(load_access_type, la_offset, values, N_LA);
}

/* MemoryHierarchy.load: a new reference. */
static PyObject *
load(Ctx *c, PyObject *const *a)
{
    View *v = c->v;
    PyObject *core_obj = a[0], *pc = a[1], *critical = a[3];
    PyObject *magnitude = a[4], *callback = a[5], *now_obj = a[6];
    long long core, address, now;
    if (core_index(v, core_obj, &core) < 0 || as_ll(a[2], &address) < 0
        || as_ll(now_obj, &now) < 0) {
        return NULL;
    }
    Cache *l1 = &v->caches[core];
    long long line32 = address - floor_mod(address, v->l1_line);
    Py_ssize_t slot = cache_find(l1, line32);
    if (slot == -2) {
        return NULL;
    }
    PyObject *key = NULL, *entry = NULL, *handle = NULL, *cycle = NULL;
    if (slot >= 0) {
        /* L1 hit. */
        if (cache_touch(l1, slot) < 0) {
            return NULL;
        }
        v->stats->loads += 1;
        v->stats->l1_load_hits += 1;
        if ((cycle = PyLong_FromLongLong(now + v->l1_hit_lat)) == NULL
            || schedule_event(v, cycle, EV_CALL, callback, &cycle, 1) < 0) {
            goto error;
        }
        Py_DECREF(cycle);
        Py_INCREF(l1_hit);
        return l1_hit;
    }
    if ((key = PyLong_FromLongLong(line32)) == NULL) {
        return NULL;
    }
    Mshr *mshr = &v->mshrs[core];
    entry = mshr_get(mshr, key);
    if (entry != NULL) {
        v->stats->loads += 1;
        if ((handle = new_load_access(pc, now_obj, critical)) == NULL
            || append_waiter(entry, PyTuple_Pack(2, handle, callback)) < 0) {
            goto error;
        }
        long long line64 = line32 - floor_mod(line32, v->l2_line);
        PyObject *key64 = PyLong_FromLongLong(line64);
        PyObject *l2_entry = key64 ? mshr_get(L2_MSHR_OF(v), key64) : NULL;
        Py_XDECREF(key64);
        if (l2_entry == NULL && PyErr_Occurred()) {
            goto error;
        }
        if (l2_entry != NULL) {
            PyObject *txn = ENTRY_GET(l2_entry, ME_TXN, str_txn);
            Py_DECREF(l2_entry);
            if (txn == NULL) {
                goto error;
            }
            int failed = txn != Py_None
                && (slot_set(handle, load_access_type, la_offset[LA_TXN],
                             str_txn, txn) < 0
                    || slot_set(handle, load_access_type, la_offset[LA_WENT],
                                str_went_to_dram, Py_True) < 0);
            Py_DECREF(txn);
            if (failed) {
                goto error;
            }
        }
        int truth = PyObject_IsTrue(critical);
        if (truth < 0) {
            goto error;
        }
        if (truth) {
            PyObject *args[] = {core_obj, key, magnitude, now_obj};
            if (call_self(c, str_bump_criticality, args, 4) < 0) {
                goto error;
            }
        }
        Py_DECREF(entry);
        Py_DECREF(key);
        return handle;
    }
    if (PyErr_Occurred()) {
        goto error;
    }
    entry = mshr_allocate(mshr, key);
    if (entry == NULL) {
        if (PyErr_Occurred()) {
            goto error;
        }
        Py_DECREF(key);
        Py_RETURN_NONE;
    }
    v->stats->loads += 1;
    if ((handle = new_load_access(pc, now_obj, critical)) == NULL
        || append_waiter(entry, PyTuple_Pack(2, handle, callback)) < 0
        || (cycle = PyLong_FromLongLong(now + v->l2_delay)) == NULL) {
        goto error;
    }
    PyObject *args[] = {core_obj, key, critical, magnitude, Py_False};
    if (schedule_handler(c, cycle, EV_ACCESS_L2, args) < 0) {
        goto error;
    }
    Py_DECREF(cycle);
    Py_DECREF(entry);
    Py_DECREF(key);
    return handle;

error:
    Py_XDECREF(cycle);
    Py_XDECREF(handle);
    Py_XDECREF(entry);
    Py_XDECREF(key);
    return NULL;
}

/* ---------------------------------------------------------------- stores */

/* MemoryHierarchy.can_accept_store: a new reference. */
static PyObject *
can_accept_store(Ctx *c, PyObject *core_obj)
{
    View *v = c->v;
    long long core;
    if (core_index(v, core_obj, &core) < 0) {
        return NULL;
    }
    if (PyList_GET_SIZE(v->backlog) != v->ncores) {
        PyErr_SetString(PyExc_TypeError, "_store_backlog must hold a count "
                                         "per core");
        return NULL;
    }
    PyObject *limit = dict_attr(c->dict, str_store_buffer_entries);
    if (limit == NULL) {
        return NULL;
    }
    return PyObject_RichCompare(PyList_GET_ITEM(v->backlog, core), limit,
                                Py_LT);
}

/* MemoryHierarchy.store */
static int
store(Ctx *c, PyObject *core_obj, PyObject *address_obj, PyObject *now_obj,
      PyObject *retry_obj)
{
    View *v = c->v;
    long long core, address, now;
    int retry = PyObject_IsTrue(retry_obj);
    if (retry < 0 || core_index(v, core_obj, &core) < 0
        || as_ll(address_obj, &address) < 0 || as_ll(now_obj, &now) < 0) {
        return -1;
    }
    if (!retry) {
        v->stats->stores += 1;
    }
    Cache *l1 = &v->caches[core];
    long long line32 = address - floor_mod(address, v->l1_line);
    Py_ssize_t slot = cache_find(l1, line32);
    if (slot == -2) {
        return -1;
    }
    PyObject *key = PyLong_FromLongLong(line32);
    if (key == NULL) {
        return -1;
    }
    PyObject *entry = NULL, *cycle = NULL;
    if (slot >= 0) {
        if (cache_touch(l1, slot) < 0
            || (retry && drain_one(c, core, core_obj) < 0)) {
            goto error;
        }
        if (l1->state[slot] != MODIFIED) {
            /* Upgrade S -> M: invalidate remote sharers. */
            if (invalidate_remote(c, core, line32, key, now_obj) < 0
                || cache_set_state(l1, slot, MODIFIED) < 0) {
                goto error;
            }
        }
        if (!l1->dirty[slot]) {
            cache_set_dirty(l1, slot, 1);
        }
        Py_DECREF(key);
        return 0;
    }
    /* Write-allocate: read-for-ownership through the miss path. */
    Mshr *mshr = &v->mshrs[core];
    entry = mshr_get(mshr, key);
    if (entry == NULL && PyErr_Occurred()) {
        goto error;
    }
    if (entry != NULL) {
        if ((retry && drain_one(c, core, core_obj) < 0)
            || slot_set(entry, mshr_entry_type, me_offset[ME_RFO], str_rfo,
                        Py_True) < 0) {
            goto error;
        }
        Py_DECREF(entry);
        Py_DECREF(key);
        return 0;
    }
    entry = mshr_allocate(mshr, key);
    if (entry == NULL) {
        if (PyErr_Occurred()) {
            goto error;
        }
        /* Hold the store in the core's store buffer and retry. */
        if ((!retry && backlog_add(v, core, small_one) < 0)
            || (cycle = PyLong_FromLongLong(now + retry_interval)) == NULL) {
            goto error;
        }
        PyObject *args[] = {core_obj, address_obj, cycle, Py_True};
        if (schedule_handler(c, cycle, EV_STORE, args) < 0) {
            goto error;
        }
        Py_DECREF(cycle);
        Py_DECREF(key);
        return 0;
    }
    if ((retry && drain_one(c, core, core_obj) < 0)
        || slot_set(entry, mshr_entry_type, me_offset[ME_RFO], str_rfo,
                    Py_True) < 0
        || (cycle = PyLong_FromLongLong(now + v->l2_delay)) == NULL) {
        goto error;
    }
    PyObject *args[] = {core_obj, key, Py_False, small_zero, Py_True};
    if (schedule_handler(c, cycle, EV_ACCESS_L2, args) < 0) {
        goto error;
    }
    Py_DECREF(cycle);
    Py_DECREF(entry);
    Py_DECREF(key);
    return 0;

error:
    Py_XDECREF(cycle);
    Py_XDECREF(entry);
    Py_DECREF(key);
    return -1;
}

/* ------------------------------------------------------------- L2 access */

/* MemoryHierarchy._access_l2 */
static int
access_l2(Ctx *c, PyObject *core_obj, PyObject *line32_obj,
          PyObject *critical, PyObject *magnitude, PyObject *is_rfo_obj)
{
    View *v = c->v;
    PyObject *args0[] = {c->hier};
    PyObject *now_obj = call_out(str_now, args0, 1, NULL);
    if (now_obj == NULL) {
        return -1;
    }
    PyObject *key64 = NULL, *entry = NULL, *cycle = NULL, *txn = NULL;
    PyObject *callback = NULL;
    long long now, core, line32;
    if (as_ll(now_obj, &now) < 0 || core_index(v, core_obj, &core) < 0
        || as_ll(line32_obj, &line32) < 0) {
        goto error;
    }
    long long line64 = line32 - floor_mod(line32, v->l2_line);
    if ((key64 = PyLong_FromLongLong(line64)) == NULL) {
        goto error;
    }
    Py_ssize_t slot = cache_lookup(L2_OF(v), line64);
    if (slot == -2) {
        goto error;
    }
    int hit = slot >= 0;
    if (v->prefetch_on) {
        PyObject *args[] = {c->hier, key64, hit ? Py_False : Py_True};
        if (call_out_discard(str_train_prefetcher, args, 2, kw_is_miss) < 0) {
            goto error;
        }
    }
    int is_rfo = PyObject_IsTrue(is_rfo_obj);
    if (is_rfo < 0) {
        goto error;
    }
    if (hit) {
        int prefetched = PySet_Contains(v->prefetched, key64);
        if (prefetched < 0
            || (prefetched && PySet_Discard(v->prefetched, key64) < 0)) {
            goto error;
        }
        if (prefetched) {
            v->stats->prefetches_useful += 1;
        }
        long long penalty = resolve_remote_copies(c, core, line64, is_rfo);
        if (penalty < 0) {
            goto error;
        }
        if (!is_rfo) {
            v->stats->l2_load_hits += 1;
        }
        if ((cycle = PyLong_FromLongLong(now + v->l2_half + penalty))
            == NULL) {
            goto error;
        }
        PyObject *args[] = {core_obj, line32_obj, is_rfo_obj, cycle};
        if (schedule_handler(c, cycle, EV_FILL, args) < 0) {
            goto error;
        }
        goto done;
    }
    /* L2 miss -> DRAM. */
    Mshr *mshr = L2_MSHR_OF(v);
    entry = mshr_get(mshr, key64);
    if (entry == NULL && PyErr_Occurred()) {
        goto error;
    }
    if (entry != NULL) {
        if (append_waiter(entry, PyTuple_Pack(3, core_obj, line32_obj,
                                              is_rfo_obj)) < 0) {
            goto error;
        }
        int truth = PyObject_IsTrue(critical);
        if (truth < 0 || (truth && (txn = ENTRY_GET(entry, ME_TXN, str_txn))
                                       == NULL)) {
            goto error;
        }
        if (truth && txn != Py_None) {
            PyObject *flag = PyObject_GetAttr(txn, str_critical);
            int was = flag ? PyObject_IsTrue(flag) : -1;
            Py_XDECREF(flag);
            if (was < 0) {
                goto error;
            }
            if (!was) {
                /* Batched engine: settle the channel's open gap before
                 * the flag flips (no-op in the per-cycle engines). */
                PyObject *args[] = {v->memsys, txn, now_obj, Py_True};
                if (call_out_discard(str_presettle, args, 3,
                                     kw_event_phase) < 0) {
                    goto error;
                }
            }
            if (PyObject_SetAttr(txn, str_critical, Py_True) < 0) {
                goto error;
            }
            PyObject *current = PyObject_GetAttr(txn, str_magnitude);
            int greater = current
                ? PyObject_RichCompareBool(magnitude, current, Py_GT) : -1;
            Py_XDECREF(current);
            if (greater < 0
                || (greater
                    && PyObject_SetAttr(txn, str_magnitude, magnitude) < 0)) {
                goto error;
            }
        }
        goto done;
    }
    entry = mshr_allocate(mshr, key64);
    if (entry == NULL) {
        if (PyErr_Occurred()
            || (cycle = PyLong_FromLongLong(now + retry_interval)) == NULL) {
            goto error;
        }
        PyObject *args[] = {core_obj, line32_obj, critical, magnitude,
                            is_rfo_obj};
        if (schedule_handler(c, cycle, EV_ACCESS_L2, args) < 0) {
            goto error;
        }
        goto done;
    }
    if (append_waiter(entry, PyTuple_Pack(3, core_obj, line32_obj,
                                          is_rfo_obj)) < 0
        || (callback = event_new(EV_DRAM_FILL, c->hier, &key64, 1)) == NULL) {
        goto error;
    }
    PyObject *args[] = {v->memsys, key64, Py_False, core_obj, critical,
                        magnitude, callback};
    txn = call_out(str_make_transaction, args, 2, kw_make_transaction);
    if (txn == NULL
        || slot_set(entry, mshr_entry_type, me_offset[ME_TXN], str_txn,
                    txn) < 0) {
        goto error;
    }
    PyObject *mark[] = {core_obj, line32_obj, txn};
    PyObject *enqueue[] = {txn};
    if (call_self(c, str_mark_handles_dram, mark, 3) < 0
        || call_self(c, str_enqueue_with_retry, enqueue, 1) < 0) {
        goto error;
    }

done:
    Py_XDECREF(callback);
    Py_XDECREF(txn);
    Py_XDECREF(cycle);
    Py_XDECREF(entry);
    Py_XDECREF(key64);
    Py_DECREF(now_obj);
    return 0;

error:
    Py_XDECREF(callback);
    Py_XDECREF(txn);
    Py_XDECREF(cycle);
    Py_XDECREF(entry);
    Py_XDECREF(key64);
    Py_DECREF(now_obj);
    return -1;
}

/* ----------------------------------------------------------- DRAM return */

/* MemoryHierarchy._dram_fill */
static int
dram_fill(Ctx *c, PyObject *line64_obj, PyObject *dram_done)
{
    PyObject *args[] = {c->v->memsys, dram_done};
    PyObject *cpu_done = call_out(str_dram_to_cpu, args, 2, NULL);
    if (cpu_done == NULL) {
        return -1;
    }
    PyObject *install[] = {line64_obj, cpu_done};
    int failed = schedule_handler(c, cpu_done, EV_INSTALL, install);
    Py_DECREF(cpu_done);
    return failed;
}

/* The item ``index`` of ``waiters`` as a tuple of ``n``: a new reference. */
static PyObject *
waiter_at(PyObject *waiters, Py_ssize_t index, Py_ssize_t n)
{
    PyObject *item = PyList_GET_ITEM(waiters, index);
    if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != n) {
        PyErr_Format(PyExc_ValueError, "MSHR waiters must be %zd-tuples", n);
        return NULL;
    }
    Py_INCREF(item);
    return item;
}

static PyObject *
entry_waiters(PyObject *entry)
{
    PyObject *waiters = ENTRY_GET(entry, ME_WAITERS, str_waiters);
    if (waiters != NULL && !PyList_Check(waiters)) {
        PyErr_SetString(PyExc_TypeError, "MSHR waiters must be a list");
        Py_CLEAR(waiters);
    }
    return waiters;
}

/* MemoryHierarchy._install_l2_fill */
static int
install_l2_fill(Ctx *c, PyObject *line64_obj, PyObject *now_obj)
{
    View *v = c->v;
    long long line64, now;
    if (as_ll(line64_obj, &line64) < 0 || as_ll(now_obj, &now) < 0) {
        return -1;
    }
    PyObject *entry = mshr_release(L2_MSHR_OF(v), line64_obj);
    if (entry == NULL) {
        return -1;
    }
    PyObject *waiters = NULL, *respond_at = NULL;
    Gone victim;
    if (trace_cache(c, str_l2_fill, -1, line64_obj, NULL) < 0
        || cache_insert(L2_OF(v), line64, SHARED, 0, &victim) < 0
        || (victim.left && evict_l2_line(c, victim.line, victim.dirty) < 0)
        || (respond_at = PyLong_FromLongLong(now + v->l2_half)) == NULL
        || (waiters = entry_waiters(entry)) == NULL) {
        goto error;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(waiters); i++) {
        PyObject *item = waiter_at(waiters, i, 3);
        if (item == NULL) {
            goto error;
        }
        PyObject *args[] = {PyTuple_GET_ITEM(item, 0),
                            PyTuple_GET_ITEM(item, 1),
                            PyTuple_GET_ITEM(item, 2), respond_at};
        int failed = schedule_handler(c, respond_at, EV_FILL, args);
        Py_DECREF(item);
        if (failed) {
            goto error;
        }
    }
    if (PyList_GET_SIZE(waiters)) {
        v->stats->dram_loads += 1;
    }
    Py_DECREF(waiters);
    Py_DECREF(respond_at);
    Py_DECREF(entry);
    return 0;

error:
    Py_XDECREF(waiters);
    Py_XDECREF(respond_at);
    Py_DECREF(entry);
    return -1;
}

/* ``stats.<hist>.record(latency)`` and the per-PC histogram's, for one
 * DRAM-serviced load ``handle``. */
static int
record_latency(Ctx *c, PyObject *handle, PyObject *now_obj)
{
    PyObject *stats = (PyObject *)c->v->stats;
    PyObject *issue = slot_get(handle, load_access_type,
                               la_offset[LA_ISSUE_CYCLE], str_issue_cycle);
    PyObject *latency = issue ? PyNumber_Subtract(now_obj, issue) : NULL;
    PyObject *pc = NULL, *hist = NULL, *pc_latency = NULL;
    Py_XDECREF(issue);
    if (latency == NULL) {
        return -1;
    }
    int critical = slot_true(handle, load_access_type,
                             la_offset[LA_CRITICAL], str_critical);
    if (critical < 0) {
        goto error;
    }
    PyObject *histogram = PyObject_GetAttr(
        stats, critical ? str_crit_latency : str_noncrit_latency);
    if (histogram == NULL) {
        goto error;
    }
    PyObject *args[] = {histogram, latency};
    int failed = call_out_discard(str_record, args, 2, NULL);
    Py_DECREF(histogram);
    if (failed || (pc_latency = PyObject_GetAttr(stats, str_pc_latency))
                      == NULL) {
        goto error;
    }
    pc = slot_get(handle, load_access_type, la_offset[LA_PC], str_pc);
    if (pc != NULL && PyDict_CheckExact(pc_latency)) {
        hist = PyDict_GetItemWithError(pc_latency, pc);
        if (hist != NULL && hist != Py_None) {
            Py_INCREF(hist);
        }
        else if (!PyErr_Occurred()) {
            hist = PyObject_CallNoArgs(latency_histogram);
            if (hist != NULL && PyDict_SetItem(pc_latency, pc, hist) < 0) {
                Py_CLEAR(hist);
            }
        }
        else {
            hist = NULL;
        }
    }
    else if (pc != NULL) {
        PyErr_SetString(PyExc_TypeError, "pc_latency must be a dict");
    }
    if (hist == NULL) {
        goto error;
    }
    PyObject *record[] = {hist, latency};
    if (call_out_discard(str_record, record, 2, NULL) < 0) {
        goto error;
    }
    Py_DECREF(hist);
    Py_DECREF(pc);
    Py_DECREF(pc_latency);
    Py_DECREF(latency);
    return 0;

error:
    Py_XDECREF(hist);
    Py_XDECREF(pc);
    Py_XDECREF(pc_latency);
    Py_DECREF(latency);
    return -1;
}

/* MemoryHierarchy._fill_l1_and_respond */
static int
fill_l1_and_respond(Ctx *c, PyObject *core_obj, PyObject *line32_obj,
                    PyObject *is_rfo_obj, PyObject *now_obj)
{
    View *v = c->v;
    long long core, line32;
    if (core_index(v, core_obj, &core) < 0
        || as_ll(line32_obj, &line32) < 0) {
        return -1;
    }
    Mshr *mshr = &v->mshrs[core];
    PyObject *released = NULL, *waiters = NULL;
    PyObject *entry = mshr_get(mshr, line32_obj);
    if (entry == NULL && PyErr_Occurred()) {
        return -1;
    }
    int rfo = PyObject_IsTrue(is_rfo_obj);
    if (rfo == 0 && entry != NULL) {
        rfo = slot_true(entry, mshr_entry_type, me_offset[ME_RFO], str_rfo);
    }
    Gone victim;
    uint64_t sharers;
    int present;
    if (rfo < 0
        || (rfo && invalidate_remote(c, core, line32, line32_obj,
                                     Py_None) < 0)
        || cache_insert(&v->caches[core], line32, rfo ? MODIFIED : SHARED,
                        rfo, &victim) < 0
        || (victim.left && evict_l1_line(c, core, victim.line, victim.state,
                                         victim.dirty) < 0)
        || dir_get(v, line32_obj, &sharers, &present) < 0
        || dir_set(v, line32_obj, sharers | ((uint64_t)1 << core)) < 0) {
        goto error;
    }
    if (entry == NULL) {
        return 0;
    }
    if ((released = mshr_release(mshr, line32_obj)) == NULL
        || (waiters = entry_waiters(released)) == NULL) {
        goto error;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(waiters); i++) {
        PyObject *item = waiter_at(waiters, i, 2);
        if (item == NULL) {
            goto error;
        }
        PyObject *handle = PyTuple_GET_ITEM(item, 0);
        PyObject *callback = PyTuple_GET_ITEM(item, 1);
        int failed = 0;
        if (callback != Py_None) {
            int went = slot_true(handle, load_access_type, la_offset[LA_WENT],
                                 str_went_to_dram);
            if (went < 0 || (went && record_latency(c, handle, now_obj) < 0)) {
                failed = 1;
            }
            else {
                PyObject *result = PyObject_CallOneArg(callback, now_obj);
                failed = result == NULL;
                Py_XDECREF(result);
            }
        }
        Py_DECREF(item);
        if (failed) {
            goto error;
        }
    }
    Py_DECREF(waiters);
    Py_DECREF(released);
    Py_DECREF(entry);
    return 0;

error:
    Py_XDECREF(waiters);
    Py_XDECREF(released);
    Py_XDECREF(entry);
    return -1;
}

/* ----------------------------------------------------------- event calls */

/* Whether the call's hierarchy resolves the handler of ``kind`` to
 * MemoryHierarchy's own function: its class does not replace it and the
 * instance sets none of its own (-1 on error). */
static int
owns_handler(Ctx *c, int kind)
{
    PyObject *name = handler_name[kind];
    PyObject *fn = PyObject_GetAttr((PyObject *)Py_TYPE(c->hier), name);
    if (fn == NULL) {
        /* The call by name raises the lookup's error again. */
        PyErr_Clear();
        return 0;
    }
    int own = fn == own_handler[kind];
    Py_DECREF(fn);
    if (!own) {
        return 0;
    }
    PyObject *mine = PyDict_GetItemWithError(c->dict, name);
    if (mine == NULL && PyErr_Occurred()) {
        return -1;
    }
    return mine == NULL;
}

/* The hierarchy handler of ``kind`` on the arguments ``a``, here. */
static int
run_handler(Ctx *c, int kind, PyObject *const *a)
{
    switch (kind) {
    case EV_ACCESS_L2:
        return access_l2(c, a[0], a[1], a[2], a[3], a[4]);
    case EV_FILL:
        return fill_l1_and_respond(c, a[0], a[1], a[2], a[3]);
    case EV_STORE:
        return store(c, a[0], a[1], a[2], a[3]);
    case EV_DRAM_FILL:
        return dram_fill(c, a[0], a[1]);
    default:
        return install_l2_fill(c, a[0], a[1]);
    }
}

static PyObject *
none_unless(int failed)
{
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* Event.__call__(*more) */
static PyObject *
event_call(PyObject *callable, PyObject *const *args, size_t nargsf,
           PyObject *kwnames)
{
    Event *self = (Event *)callable;
    Py_ssize_t more = PyVectorcall_NARGS(nargsf);
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames)) {
        PyErr_SetString(PyExc_TypeError,
                        "an event takes no keyword arguments");
        return NULL;
    }
    if (self->target == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the event is cleared");
        return NULL;
    }
    Py_ssize_t n = self->nargs + more;
    if (n > EVENT_ARGS) {
        PyErr_SetString(PyExc_TypeError, "too many arguments for an event");
        return NULL;
    }
    /* The target, then every argument: the call's own references, as a
     * callee may clear the event. */
    PyObject *call[1 + EVENT_ARGS];
    call[0] = self->target;
    for (int k = 0; k < self->nargs; k++) {
        call[1 + k] = self->args[k];
    }
    for (Py_ssize_t k = 0; k < more; k++) {
        call[1 + self->nargs + k] = args[k];
    }
    for (Py_ssize_t k = 0; k <= n; k++) {
        Py_INCREF(call[k]);
    }
    int kind = self->kind;
    PyObject *result = NULL;
    Ctx c;
    if (kind == EV_CALL) {
        result = PyObject_Vectorcall(
            call[0], call + 1, n | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    }
    else if (ctx_open(&c, call[0]) == 0) {
        int own = n == handler_nargs[kind] ? owns_handler(&c, kind) : 0;
        if (own > 0) {
            result = none_unless(run_handler(&c, kind, call + 1) < 0);
        }
        ctx_close(&c, NULL);
        if (own == 0) {
            result = call_out(handler_name[kind], call, n + 1, NULL);
        }
    }
    for (Py_ssize_t k = 0; k <= n; k++) {
        Py_DECREF(call[k]);
    }
    return result;
}

/* ------------------------------------------------------------ entry points */

static int
check_args(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    return 0;
}

/* Open a call on the hierarchy ``args[0]`` taking ``want`` arguments. */
static int
enter(Ctx *c, const char *name, PyObject *const *args, Py_ssize_t nargs,
      Py_ssize_t want)
{
    if (check_args(name, nargs, want) < 0) {
        return -1;
    }
    return ctx_open(c, args[0]);
}

static PyObject *
k_load(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "load", args, nargs, 8) < 0) {
        return NULL;
    }
    return ctx_close(&c, load(&c, args + 1));
}

static PyObject *
k_store(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "store", args, nargs, 5) < 0) {
        return NULL;
    }
    return ctx_close(&c, none_unless(store(&c, args[1], args[2], args[3],
                                           args[4]) < 0));
}

static PyObject *
k_can_accept_store(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "can_accept_store", args, nargs, 2) < 0) {
        return NULL;
    }
    return ctx_close(&c, can_accept_store(&c, args[1]));
}

static PyObject *
k_access_l2(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "access_l2", args, nargs, 6) < 0) {
        return NULL;
    }
    return ctx_close(&c, none_unless(access_l2(&c, args[1], args[2], args[3],
                                               args[4], args[5]) < 0));
}

static PyObject *
k_dram_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "dram_fill", args, nargs, 3) < 0) {
        return NULL;
    }
    return ctx_close(&c, none_unless(dram_fill(&c, args[1], args[2]) < 0));
}

static PyObject *
k_install_l2_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "install_l2_fill", args, nargs, 3) < 0) {
        return NULL;
    }
    return ctx_close(&c, none_unless(install_l2_fill(&c, args[1],
                                                     args[2]) < 0));
}

static PyObject *
k_fill_l1_and_respond(PyObject *module, PyObject *const *args,
                      Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "fill_l1_and_respond", args, nargs, 5) < 0) {
        return NULL;
    }
    return ctx_close(&c, none_unless(fill_l1_and_respond(
        &c, args[1], args[2], args[3], args[4]) < 0));
}

static PyObject *
k_resolve_remote_copies(PyObject *module, PyObject *const *args,
                        Py_ssize_t nargs)
{
    Ctx c;
    long long core, line64;
    if (enter(&c, "resolve_remote_copies", args, nargs, 4) < 0) {
        return NULL;
    }
    int is_rfo = PyObject_IsTrue(args[3]);
    if (is_rfo < 0 || core_index(c.v, args[1], &core) < 0
        || as_ll(args[2], &line64) < 0) {
        return ctx_close(&c, NULL);
    }
    long long penalty = resolve_remote_copies(&c, core, line64, is_rfo);
    return ctx_close(&c, penalty < 0 ? NULL : PyLong_FromLongLong(penalty));
}

static PyObject *
k_invalidate_remote(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    long long core, line32;
    if (enter(&c, "invalidate_remote", args, nargs, 4) < 0) {
        return NULL;
    }
    if (core_index(c.v, args[1], &core) < 0 || as_ll(args[2], &line32) < 0) {
        return ctx_close(&c, NULL);
    }
    return ctx_close(&c, none_unless(invalidate_remote(
        &c, core, line32, args[2], args[3]) < 0));
}

static PyObject *
k_evict_l1_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    long long core, line, state;
    if (enter(&c, "evict_l1_line", args, nargs, 5) < 0) {
        return NULL;
    }
    int dirty = PyObject_IsTrue(args[4]);
    if (dirty < 0 || core_index(c.v, args[1], &core) < 0
        || as_ll(args[2], &line) < 0 || as_ll(args[3], &state) < 0) {
        return ctx_close(&c, NULL);
    }
    return ctx_close(&c, none_unless(evict_l1_line(&c, core, line,
                                                   (int)state, dirty) < 0));
}

static PyObject *
k_evict_l2_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    long long line64;
    if (enter(&c, "evict_l2_line", args, nargs, 3) < 0) {
        return NULL;
    }
    int dirty = PyObject_IsTrue(args[2]);
    if (dirty < 0 || as_ll(args[1], &line64) < 0) {
        return ctx_close(&c, NULL);
    }
    return ctx_close(&c, none_unless(evict_l2_line(&c, line64, dirty) < 0));
}

/* ---------------------------------------------------------------- set-up */

/* The cache ``cache`` bound on its own for one set-up call; release with
 * cache_unbind. */
static int
cache_bind(Cache *k, PyObject *cache)
{
    memset(k, 0, sizeof *k);
    if (bind_cache(k, cache) == 0) {
        return 0;
    }
    release_columns(k);
    Py_CLEAR(k->obj);
    return -1;
}

static PyObject *
cache_unbind(Cache *k, PyObject *result)
{
    release_columns(k);
    Py_CLEAR(k->obj);
    return result;
}

/* SetAssociativeCache._fill_run(line, count, index, used): whether it
 * installed the run, which it does unless a set holds its line of it. */
static PyObject *
k_fill_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Cache k;
    long long line, count, index, used;
    if (check_args("fill_run", nargs, 5) < 0 || as_ll(args[1], &line) < 0
        || as_ll(args[2], &count) < 0 || as_ll(args[3], &index) < 0
        || as_ll(args[4], &used) < 0 || cache_bind(&k, args[0]) < 0) {
        return NULL;
    }
    CacheBase *o = k.obj;
    if (index < 0 || count < 0 || index > k.num_sets - count || used < 0
        || used >= k.ways) {
        PyErr_SetString(PyExc_IndexError, "run of sets out of range");
        return cache_unbind(&k, NULL);
    }
    if (line < 0 || count > (LLONG_MAX - line) / k.line_bytes
        || o->clock < 0 || o->clock >= CLOCK_LIMIT - 1 - count) {
        PyErr_SetString(PyExc_OverflowError, "line or clock out of range");
        return cache_unbind(&k, NULL);
    }
    long long stop = line + count * k.line_bytes;
    for (long long set = index; set < index + count; set++) {
        const long long *tag = k.tag + set * k.ways;
        for (long long way = 0; way < used; way++) {
            if (tag[way] >= line && tag[way] < stop) {
                return cache_unbind(&k, PyBool_FromLong(0));
            }
        }
    }
    for (long long n = 0; n < count; n++) {
        Py_ssize_t slot = (Py_ssize_t)((index + n) * k.ways + used);
        long long addr = line + n * k.line_bytes, stamp = o->clock + 1 + n;
        k.tag[slot] = addr;
        k.lru[slot] = stamp;
        k.state[slot] = SHARED;
        k.dirty[slot] = 0;
        k.fill[index + n] = used + 1;
        if (ck_add(o, addr) < 0 || ck_add(o, 131 * stamp) < 0
            || ck_add(o, 7 * SHARED) < 0) {
            return cache_unbind(&k, NULL);
        }
    }
    o->clock += count;
    o->resident += count;
    return cache_unbind(&k, PyBool_FromLong(1));
}

#define METHOD(name, doc)                                                 \
    {#name, (PyCFunction)(void (*)(void))k_##name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    METHOD(load, "load(h, core, pc, address, critical, magnitude, callback, "
                 "now): MemoryHierarchy.load"),
    METHOD(store, "store(h, core, address, now, retry): "
                  "MemoryHierarchy.store"),
    METHOD(can_accept_store, "can_accept_store(h, core): "
                             "MemoryHierarchy.can_accept_store"),
    METHOD(access_l2, "access_l2(h, core, line32, critical, magnitude, "
                      "is_rfo): MemoryHierarchy._access_l2"),
    METHOD(dram_fill, "dram_fill(h, line64, dram_done): "
                      "MemoryHierarchy._dram_fill"),
    METHOD(install_l2_fill, "install_l2_fill(h, line64, now): "
                            "MemoryHierarchy._install_l2_fill"),
    METHOD(fill_l1_and_respond, "fill_l1_and_respond(h, core, line32, "
                                "is_rfo, now): "
                                "MemoryHierarchy._fill_l1_and_respond"),
    METHOD(resolve_remote_copies, "resolve_remote_copies(h, core, line64, "
                                  "is_rfo): "
                                  "MemoryHierarchy._resolve_remote_copies"),
    METHOD(invalidate_remote, "invalidate_remote(h, core, line32, now): "
                              "MemoryHierarchy._invalidate_remote"),
    METHOD(evict_l1_line, "evict_l1_line(h, core, line_addr, state, dirty): "
                          "MemoryHierarchy._evict_l1_line"),
    METHOD(evict_l2_line, "evict_l2_line(h, line64, dirty): "
                          "MemoryHierarchy._evict_l2_line"),
    METHOD(fill_run, "fill_run(cache, line, count, index, used): "
                     "SetAssociativeCache._fill_run"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled per-access path of "
             "repro.cache.hierarchy.MemoryHierarchy.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

static PyObject *
names_tuple(int n, ...)
{
    va_list names;
    PyObject *tuple = PyTuple_New(n);
    if (tuple == NULL) {
        return NULL;
    }
    va_start(names, n);
    for (int k = 0; k < n; k++) {
        PyObject *name = va_arg(names, PyObject *);
        Py_INCREF(name);
        PyTuple_SET_ITEM(tuple, k, name);
    }
    va_end(names);
    return tuple;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
#define INTERN_NAME(id, text)                                      \
    if ((str_##id = PyUnicode_InternFromString(text)) == NULL) { \
        return NULL;                                               \
    }
    NAMES(INTERN_NAME)
    handler_name[EV_ACCESS_L2] = str_access_l2;
    handler_name[EV_FILL] = str_fill_l1_and_respond;
    handler_name[EV_STORE] = str_store;
    handler_name[EV_DRAM_FILL] = str_dram_fill;
    handler_name[EV_INSTALL] = str_install_l2_fill;
    if ((small_zero = PyLong_FromLong(0)) == NULL
        || (small_one = PyLong_FromLong(1)) == NULL
        || (small_minus_one = PyLong_FromLong(-1)) == NULL
        || (kw_make_transaction = names_tuple(
                5, str_is_write, str_core, str_critical, str_magnitude,
                str_callback)) == NULL
        || (kw_event_phase = names_tuple(1, str_event_phase)) == NULL
        || (kw_is_miss = names_tuple(1, str_is_miss)) == NULL
        || PyType_Ready(&ViewType) < 0 || PyType_Ready(&EventType) < 0
        || PyType_Ready(&CacheBaseType) < 0
        || PyType_Ready(&StatsBaseType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&CacheBaseType);
    Py_INCREF(&StatsBaseType);
    Py_INCREF(&EventType);
    if (PyModule_AddIntConstant(module, "MAX_CORES", MAX_CORES) < 0
        || PyModule_AddObject(module, "CacheBase",
                              (PyObject *)&CacheBaseType) < 0
        || PyModule_AddObject(module, "StatsBase",
                              (PyObject *)&StatsBaseType) < 0
        || PyModule_AddObject(module, "Event", (PyObject *)&EventType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
