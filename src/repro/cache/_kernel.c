/* Compiled per-access path of the cache hierarchy (repro.cache.hierarchy).
 *
 * MemoryHierarchy.load, store, can_accept_store, _access_l2,
 * _install_l2_fill, _fill_l1_and_respond, _resolve_remote_copies,
 * _invalidate_remote, _evict_l1_line and _evict_l2_line each open with one
 * guard that hands the call to the function of the same name here; the
 * Python body after the guard is the reference this file transliterates,
 * statement for statement.  Inside the kernel the handlers call each other
 * directly, and the array and MSHR operations they use
 * (SetAssociativeCache.lookup/peek/insert/invalidate/set_state/set_dirty,
 * MshrFile.get/allocate/release) are C copies of the Python methods,
 * which stay the reference and serve every Python caller.
 *
 * The kernel keeps no state of its own: it works on the models' objects,
 * so det_state, det_state_scan, prewarm and both engines see the same
 * state whichever path ran.
 *
 * - Containers.  Each cache's columns (where, tag, lru, state, dirty,
 *   fill), each MSHR file's _entries, and the hierarchy's _dir,
 *   _prefetched_lines, _store_backlog, stats, events and memsys are bound
 *   once per hierarchy in a GC-tracked View, kept in the hierarchy's
 *   attribute _kernel_view.  The models bind each of them once in
 *   __init__ and only mutate them in place.  The View holds the state and
 *   dirty byte arrays as buffers, so they cannot be resized while the
 *   hierarchy lives, and holds no reference to the hierarchy itself.
 * - Scalars.  A cache's clock, _resident and _dirty_lines are read from
 *   its __dict__ when the kernel first touches it in a call, kept in C,
 *   and written back before every call out of the kernel and on return
 *   (also when raising).  checksum is an unbounded Python int: the kernel
 *   sums each call's changes in a C delta, exactly (it folds the delta
 *   into the Python int before it could overflow), and adds it at
 *   write-back.
 * - Calls out.  events.schedule (with the same functools.partial
 *   callbacks), memsys.make_transaction and presettle, the core's
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
    NAME(where, "where") NAME(tag, "tag") NAME(lru, "lru")                 \
    NAME(state, "state") NAME(dirty, "dirty") NAME(fill, "fill")           \
    NAME(line_bytes, "line_bytes") NAME(ways, "ways")                      \
    NAME(num_sets, "num_sets") NAME(clock, "clock")                        \
    NAME(checksum, "checksum") NAME(resident, "_resident")                 \
    NAME(dirty_lines, "_dirty_lines") NAME(entries, "_entries")            \
    NAME(capacity, "capacity") NAME(line_addr, "line_addr")                \
    NAME(waiters, "waiters") NAME(txn, "txn") NAME(rfo, "rfo")             \
    NAME(pc, "pc") NAME(issue_cycle, "issue_cycle")                        \
    NAME(critical, "critical") NAME(went_to_dram, "went_to_dram")          \
    NAME(magnitude, "magnitude") NAME(schedule, "schedule")                \
    NAME(now, "_now") NAME(wake_core, "_wake_core")                        \
    NAME(trace_cache, "_trace_cache")                                      \
    NAME(bump_criticality, "_bump_criticality")                            \
    NAME(mark_handles_dram, "_mark_handles_dram")                          \
    NAME(enqueue_with_retry, "_enqueue_with_retry")                        \
    NAME(writeback, "_writeback")                                          \
    NAME(train_prefetcher, "_train_prefetcher")                            \
    NAME(presettle, "presettle")                                           \
    NAME(make_transaction, "make_transaction") NAME(record, "record")      \
    NAME(access_l2, "_access_l2")                                          \
    NAME(fill_l1_and_respond, "_fill_l1_and_respond")                      \
    NAME(dram_fill, "_dram_fill") NAME(store, "store")                     \
    NAME(loads, "loads") NAME(l1_load_hits, "l1_load_hits")                \
    NAME(l2_load_hits, "l2_load_hits") NAME(dram_loads, "dram_loads")      \
    NAME(stores, "stores") NAME(interventions, "interventions")            \
    NAME(invalidations, "invalidations")                                   \
    NAME(prefetches_useful, "prefetches_useful")                           \
    NAME(crit_latency, "crit_latency")                                     \
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
static PyObject *partial_type;

/* The model classes the kernel builds or reads, bound on the first View
 * (the modules are fully imported by then). */
static PyTypeObject *load_access_type, *mshr_entry_type;
static PyObject *l1_hit, *latency_histogram;
static long long intervention_penalty, retry_interval;
enum { LA_PC, LA_ISSUE_CYCLE, LA_CRITICAL, LA_TXN, LA_WENT, N_LA };
enum { ME_LINE_ADDR, ME_WAITERS, ME_TXN, ME_RFO, N_ME };
static Py_ssize_t la_offset[N_LA], me_offset[N_ME];

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

static int
put_ll(PyObject *dict, PyObject *name, long long x)
{
    PyObject *value = PyLong_FromLongLong(x);
    if (value == NULL) {
        return -1;
    }
    int failed = PyDict_SetItem(dict, name, value);
    Py_DECREF(value);
    return failed;
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

/* Bind the model classes and constants once per process. */
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
    long long shared, modified;
    if (hist == NULL
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
    if (!PyType_Check(la) || !PyType_Check(me)
        || bind_slots((PyTypeObject *)la, la_names, la_offset, N_LA) < 0
        || bind_slots((PyTypeObject *)me, me_names, me_offset, N_ME) < 0) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "model classes expected");
        }
        goto error;
    }
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
    return -1;
}

/* ------------------------------------------------------------------- View */

/* One SetAssociativeCache: its columns, geometry and, while open, its
 * scalars (see the header). */
typedef struct {
    PyObject *dict, *where, *tag, *lru, *fill, *state_obj, *dirty_obj;
    Py_buffer state_buf, dirty_buf;
    int held;  /* buffers acquired */
    uint8_t *state, *dirty;
    long long line_bytes, ways, num_sets, slots;
    int open;
    unsigned changed;  /* scalars changed since opening, C_* bits */
    long long clock, resident, dirty_lines, ck;
} Cache;

enum { C_CLOCK = 1, C_RESIDENT = 2, C_DIRTY_LINES = 4 };

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
    int *open_list; /* indices of the open caches */
    int n_open;
    PyObject *events, *memsys, *dir, *prefetched, *backlog, *stats;
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
            Py_VISIT(k->dict);
            Py_VISIT(k->where);
            Py_VISIT(k->tag);
            Py_VISIT(k->lru);
            Py_VISIT(k->fill);
            Py_VISIT(k->state_obj);
            Py_VISIT(k->dirty_obj);
        }
    }
    if (self->mshrs != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Py_VISIT(self->mshrs[i].entries);
        }
    }
    Py_VISIT(self->events);
    Py_VISIT(self->memsys);
    Py_VISIT(self->dir);
    Py_VISIT(self->prefetched);
    Py_VISIT(self->backlog);
    Py_VISIT(self->stats);
    return 0;
}

static void
release_buffers(Cache *k)
{
    if (k->held > 1) {
        PyBuffer_Release(&k->dirty_buf);
    }
    if (k->held > 0) {
        PyBuffer_Release(&k->state_buf);
    }
    k->held = 0;
    k->state = k->dirty = NULL;
}

static int
view_clear(View *self)
{
    if (self->caches != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Cache *k = &self->caches[i];
            release_buffers(k);
            Py_CLEAR(k->dict);
            Py_CLEAR(k->where);
            Py_CLEAR(k->tag);
            Py_CLEAR(k->lru);
            Py_CLEAR(k->fill);
            Py_CLEAR(k->state_obj);
            Py_CLEAR(k->dirty_obj);
        }
    }
    if (self->mshrs != NULL) {
        for (Py_ssize_t i = 0; i < N_CACHES(self); i++) {
            Py_CLEAR(self->mshrs[i].entries);
        }
    }
    Py_CLEAR(self->events);
    Py_CLEAR(self->memsys);
    Py_CLEAR(self->dir);
    Py_CLEAR(self->prefetched);
    Py_CLEAR(self->backlog);
    Py_CLEAR(self->stats);
    return 0;
}

static void
view_dealloc(View *self)
{
    PyObject_GC_UnTrack(self);
    view_clear(self);
    PyMem_Free(self->caches);
    PyMem_Free(self->mshrs);
    PyMem_Free(self->open_list);
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

static int
bind_buffer(PyObject *column, Py_buffer *buf, long long slots,
            const char *name)
{
    if (PyObject_GetBuffer(column, buf, PyBUF_WRITABLE) < 0) {
        return -1;
    }
    if (buf->len != slots) {
        PyBuffer_Release(buf);
        PyErr_Format(PyExc_TypeError, "%s must hold %lld bytes", name, slots);
        return -1;
    }
    return 0;
}

static int
bind_cache(Cache *k, PyObject *cache)
{
    if ((k->dict = instance_dict(cache)) == NULL
        || dict_ll(k->dict, str_line_bytes, &k->line_bytes) < 0
        || dict_ll(k->dict, str_ways, &k->ways) < 0
        || dict_ll(k->dict, str_num_sets, &k->num_sets) < 0) {
        return -1;
    }
    if (k->line_bytes <= 0 || k->ways <= 0 || k->num_sets <= 0
        || k->ways > PY_SSIZE_T_MAX / k->num_sets) {
        PyErr_SetString(PyExc_ValueError, "cache geometry out of range");
        return -1;
    }
    k->slots = k->ways * k->num_sets;
    if ((k->where = bind_exact(k->dict, str_where, &PyDict_Type)) == NULL
        || (k->tag = bind_exact(k->dict, str_tag, &PyList_Type)) == NULL
        || (k->lru = bind_exact(k->dict, str_lru, &PyList_Type)) == NULL
        || (k->fill = bind_exact(k->dict, str_fill, &PyList_Type)) == NULL
        || (k->state_obj = bind_exact(k->dict, str_state,
                                      &PyByteArray_Type)) == NULL
        || (k->dirty_obj = bind_exact(k->dict, str_dirty,
                                      &PyByteArray_Type)) == NULL) {
        return -1;
    }
    if (bind_buffer(k->state_obj, &k->state_buf, k->slots, "state") < 0) {
        return -1;
    }
    k->held = 1;
    if (bind_buffer(k->dirty_obj, &k->dirty_buf, k->slots, "dirty") < 0) {
        return -1;
    }
    k->held = 2;
    k->state = k->state_buf.buf;
    k->dirty = k->dirty_buf.buf;
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
    self->n_open = 0;
    self->caches = PyMem_Calloc(ncores + 1, sizeof(Cache));
    self->mshrs = PyMem_Calloc(ncores + 1, sizeof(Mshr));
    self->open_list = PyMem_Calloc(ncores + 1, sizeof(int));
    self->events = self->memsys = self->dir = self->prefetched = NULL;
    self->backlog = self->stats = NULL;
    PyObject_GC_Track(self);
    if (self->caches == NULL || self->mshrs == NULL
        || self->open_list == NULL) {
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
    PyObject *prefetcher = stats ? dict_attr(dict, str_prefetcher) : NULL;
    PyObject *config = prefetcher
        ? PyObject_GetAttr(prefetcher, str_config) : NULL;
    PyObject *enabled = config ? PyObject_GetAttr(config, str_enabled) : NULL;
    Py_XDECREF(config);
    if (enabled == NULL) {
        goto error;
    }
    self->prefetch_on = PyObject_IsTrue(enabled);
    Py_DECREF(enabled);
    if (self->prefetch_on < 0 || (self->stats = instance_dict(stats)) == NULL
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

/* ------------------------------------------------------- cache scalars */

/* Read the cache's scalars into C for the rest of this call. */
static int
cache_open(View *v, Cache *k)
{
    if (k->open) {
        return 0;
    }
    if (PyList_GET_SIZE(k->tag) != k->slots
        || PyList_GET_SIZE(k->lru) != k->slots
        || PyList_GET_SIZE(k->fill) != k->num_sets) {
        PyErr_SetString(PyExc_RuntimeError, "a cache column was resized");
        return -1;
    }
    if (dict_ll(k->dict, str_clock, &k->clock) < 0
        || dict_ll(k->dict, str_resident, &k->resident) < 0
        || dict_ll(k->dict, str_dirty_lines, &k->dirty_lines) < 0) {
        return -1;
    }
    if (k->clock < 0 || k->clock >= CLOCK_LIMIT - 1) {
        PyErr_SetString(PyExc_OverflowError, "cache clock out of range");
        return -1;
    }
    k->ck = 0;
    k->changed = 0;
    k->open = 1;
    v->open_list[v->n_open++] = (int)(k - v->caches);
    return 0;
}

/* ``checksum += ck`` on the Python int. */
static int
ck_flush(Cache *k)
{
    if (!k->ck) {
        return 0;
    }
    PyObject *old = dict_attr(k->dict, str_checksum);
    PyObject *delta = old ? PyLong_FromLongLong(k->ck) : NULL;
    PyObject *sum = delta ? PyNumber_Add(old, delta) : NULL;
    Py_XDECREF(delta);
    int failed = sum == NULL
        || PyDict_SetItem(k->dict, str_checksum, sum) < 0;
    Py_XDECREF(sum);
    if (!failed) {
        k->ck = 0;
    }
    return failed ? -1 : 0;
}

/* ``checksum += term``, exactly. */
static int
ck_add(Cache *k, long long term)
{
    if ((term > 0 && k->ck > LLONG_MAX - term)
        || (term < 0 && k->ck < LLONG_MIN - term)) {
        if (ck_flush(k) < 0) {
            return -1;
        }
    }
    k->ck += term;
    return 0;
}

static int
cache_close(Cache *k)
{
    k->open = 0;
    if ((k->changed & C_CLOCK && put_ll(k->dict, str_clock, k->clock) < 0)
        || (k->changed & C_RESIDENT
            && put_ll(k->dict, str_resident, k->resident) < 0)
        || (k->changed & C_DIRTY_LINES
            && put_ll(k->dict, str_dirty_lines, k->dirty_lines) < 0)
        || ck_flush(k) < 0) {
        k->ck = 0;
        return -1;
    }
    return 0;
}

/* Write every open cache's scalars back. */
static int
close_all(View *v)
{
    int failed = 0;
    while (v->n_open) {
        Cache *k = &v->caches[v->open_list[--v->n_open]];
        if (cache_close(k) < 0) {
            failed = -1;
        }
    }
    return failed;
}

/* The same with an exception set, keeping that exception: the caches hold
 * what the Python bodies would have left when it was raised. */
static void
close_all_raising(View *v)
{
    if (!v->n_open) {
        return;
    }
#if PY_VERSION_HEX >= 0x030C0000
    PyObject *exc = PyErr_GetRaisedException();
    if (close_all(v) < 0) {
        PyErr_Clear();
    }
    PyErr_SetRaisedException(exc);
#else
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    if (close_all(v) < 0) {
        PyErr_Clear();
    }
    PyErr_Restore(type, value, tb);
#endif
}

/* ------------------------------------------------------- cache columns */

/* ``lru[slot]``, a stamp below CLOCK_LIMIT. */
static inline int
lru_at(Cache *k, Py_ssize_t slot, long long *out)
{
    if (as_ll(PyList_GET_ITEM(k->lru, slot), out) < 0) {
        return -1;
    }
    if (*out < 0 || *out >= CLOCK_LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "LRU stamp out of range");
        return -1;
    }
    return 0;
}

static inline int
list_set_ll(PyObject *list, Py_ssize_t index, long long x)
{
    PyObject *value = PyLong_FromLongLong(x);
    if (value == NULL) {
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(list, index);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
    return 0;
}

static inline void
list_set(PyObject *list, Py_ssize_t index, PyObject *value)
{
    PyObject *old = PyList_GET_ITEM(list, index);
    Py_INCREF(value);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
}

/* The line of ``k`` covering the address ``addr`` (``key`` is its int) as a
 * new reference, its value in ``*line``. */
static PyObject *
line_key(Cache *k, long long addr, PyObject *key, long long *line)
{
    long long offset = floor_mod(addr, k->line_bytes);
    *line = addr - offset;
    if (!offset) {
        Py_INCREF(key);
        return key;
    }
    return PyLong_FromLongLong(*line);
}

/* The slot ``where`` maps the line ``key`` to: -1 if absent, -2 on error. */
static Py_ssize_t
where_get(Cache *k, PyObject *key)
{
    PyObject *value = PyDict_GetItemWithError(k->where, key);
    if (value == NULL) {
        return PyErr_Occurred() ? -2 : -1;
    }
    long long slot;
    if (as_ll(value, &slot) < 0) {
        return -2;
    }
    if (slot < 0 || slot >= k->slots) {
        PyErr_Format(PyExc_IndexError, "slot %lld out of range", slot);
        return -2;
    }
    return (Py_ssize_t)slot;
}

/* SetAssociativeCache.peek */
static Py_ssize_t
cache_peek(Cache *k, long long addr, PyObject *addr_obj)
{
    long long line;
    PyObject *key = line_key(k, addr, addr_obj, &line);
    if (key == NULL) {
        return -2;
    }
    Py_ssize_t slot = where_get(k, key);
    Py_DECREF(key);
    return slot;
}

/* The LRU touch of SetAssociativeCache.lookup on a resident ``slot``. */
static int
cache_touch(View *v, Cache *k, Py_ssize_t slot)
{
    long long old;
    if (cache_open(v, k) < 0 || lru_at(k, slot, &old) < 0) {
        return -1;
    }
    long long clock = k->clock + 1;
    k->clock = clock;
    k->changed |= C_CLOCK;
    if (ck_add(k, 131 * (clock - old)) < 0) {
        return -1;
    }
    return list_set_ll(k->lru, slot, clock);
}

/* SetAssociativeCache.lookup */
static Py_ssize_t
cache_lookup(View *v, Cache *k, long long addr, PyObject *addr_obj)
{
    Py_ssize_t slot = cache_peek(k, addr, addr_obj);
    if (slot >= 0 && cache_touch(v, k, slot) < 0) {
        return -2;
    }
    return slot;
}

/* SetAssociativeCache.set_state */
static int
cache_set_state(View *v, Cache *k, Py_ssize_t slot, int state)
{
    if (cache_open(v, k) < 0
        || ck_add(k, 7 * (long long)(state - k->state[slot])) < 0) {
        return -1;
    }
    k->state[slot] = (uint8_t)state;
    return 0;
}

/* SetAssociativeCache.set_dirty */
static int
cache_set_dirty(View *v, Cache *k, Py_ssize_t slot, int dirty)
{
    if (k->dirty[slot] != dirty) {
        if (cache_open(v, k) < 0) {
            return -1;
        }
        k->dirty_lines += dirty ? 1 : -1;
        k->changed |= C_DIRTY_LINES;
        k->dirty[slot] = (uint8_t)dirty;
    }
    return 0;
}

/* A line leaving a cache: its address (a new reference, NULL if none left),
 * coherence state and dirty bit. */
typedef struct {
    PyObject *line;
    int state, dirty;
} Gone;

/* ``checksum -= line + 131 * lru[slot] + 7 * state[slot]`` */
static int
ck_remove(Cache *k, long long line, Py_ssize_t slot)
{
    long long stamp;
    if (lru_at(k, slot, &stamp) < 0) {
        return -1;
    }
    return ck_add(k, -line) < 0 || ck_add(k, -131 * stamp) < 0
        || ck_add(k, -7 * (long long)k->state[slot]) < 0 ? -1 : 0;
}

/* SetAssociativeCache.insert; the victim, if any, in ``*victim``. */
static int
cache_insert(View *v, Cache *k, long long addr, PyObject *addr_obj,
             int state, int dirty, Gone *victim)
{
    victim->line = NULL;
    long long line;
    PyObject *key = line_key(k, addr, addr_obj, &line);
    if (key == NULL) {
        return -1;
    }
    if (cache_open(v, k) < 0) {
        goto error;
    }
    long long clock = k->clock + 1;
    k->clock = clock;
    k->changed |= C_CLOCK;
    Py_ssize_t slot = where_get(k, key);
    if (slot == -2) {
        goto error;
    }
    if (slot >= 0) {
        long long stamp;
        if (lru_at(k, slot, &stamp) < 0
            || ck_add(k, 7 * (long long)(state - k->state[slot])) < 0
            || ck_add(k, 131 * (clock - stamp)) < 0) {
            goto error;
        }
        k->state[slot] = (uint8_t)state;
        if (list_set_ll(k->lru, slot, clock) < 0) {
            goto error;
        }
        if (dirty && !k->dirty[slot]) {
            k->dirty[slot] = 1;
            k->dirty_lines += 1;
            k->changed |= C_DIRTY_LINES;
        }
        Py_DECREF(key);
        return 0;
    }
    long long index = floor_mod(floor_div(line, k->line_bytes), k->num_sets);
    long long base = index * k->ways, used;
    if (as_ll(PyList_GET_ITEM(k->fill, index), &used) < 0) {
        goto error;
    }
    if (used < 0 || used > k->ways) {
        PyErr_SetString(PyExc_IndexError, "set fill out of range");
        goto error;
    }
    if (used < k->ways) {
        slot = (Py_ssize_t)(base + used);
        if (list_set_ll(k->fill, index, used + 1) < 0) {
            goto error;
        }
        k->resident += 1;
        k->changed |= C_RESIDENT;
    }
    else {
        /* The set's minimum-LRU slot (stamps are unique). */
        long long best = 0, stamp;
        slot = -1;
        for (long long s = base; s < base + k->ways; s++) {
            if (lru_at(k, s, &stamp) < 0) {
                goto error;
            }
            if (slot < 0 || stamp < best) {
                best = stamp;
                slot = (Py_ssize_t)s;
            }
        }
        PyObject *old = PyList_GET_ITEM(k->tag, slot);
        long long old_line;
        if (as_ll(old, &old_line) < 0) {
            goto error;
        }
        Py_INCREF(old);
        victim->line = old;
        victim->state = k->state[slot];
        victim->dirty = k->dirty[slot];
        if (PyDict_DelItem(k->where, old) < 0) {
            goto error;
        }
        k->dirty_lines -= k->dirty[slot];
        k->changed |= C_DIRTY_LINES;
        if (ck_remove(k, old_line, slot) < 0) {
            goto error;
        }
    }
    PyObject *slot_obj = PyLong_FromSsize_t(slot);
    if (slot_obj == NULL) {
        goto error;
    }
    int failed = PyDict_SetItem(k->where, key, slot_obj);
    Py_DECREF(slot_obj);
    if (failed) {
        goto error;
    }
    list_set(k->tag, slot, key);
    if (list_set_ll(k->lru, slot, clock) < 0) {
        goto error;
    }
    k->state[slot] = (uint8_t)state;
    k->dirty[slot] = (uint8_t)dirty;
    if (dirty) {
        k->dirty_lines += 1;
        k->changed |= C_DIRTY_LINES;
    }
    Py_DECREF(key);
    return ck_add(k, line) < 0 || ck_add(k, 131 * clock) < 0
        || ck_add(k, 7 * (long long)state) < 0 ? -1 : 0;

error:
    Py_CLEAR(victim->line);
    Py_DECREF(key);
    return -1;
}

/* SetAssociativeCache.invalidate; ``gone->line`` is NULL if the line was
 * not resident. */
static int
cache_invalidate(View *v, Cache *k, long long addr, PyObject *addr_obj,
                 Gone *gone)
{
    gone->line = NULL;
    long long line;
    PyObject *key = line_key(k, addr, addr_obj, &line);
    if (key == NULL) {
        return -1;
    }
    Py_ssize_t slot = where_get(k, key);
    if (slot < 0) {
        Py_DECREF(key);
        return slot == -2 ? -1 : 0;
    }
    if (cache_open(v, k) < 0) {
        Py_DECREF(key);
        return -1;
    }
    /* The popped slot int: ``where[moved]`` takes it below. */
    PyObject *slot_obj = PyDict_GetItemWithError(k->where, key);
    if (slot_obj == NULL) {
        Py_DECREF(key);
        return -1;
    }
    Py_INCREF(slot_obj);
    if (PyDict_DelItem(k->where, key) < 0) {
        goto error;
    }
    gone->line = key;  /* takes the reference */
    key = NULL;
    gone->state = k->state[slot];
    gone->dirty = k->dirty[slot];
    k->resident -= 1;
    k->dirty_lines -= k->dirty[slot];
    k->changed |= C_RESIDENT | C_DIRTY_LINES;
    if (ck_remove(k, line, slot) < 0) {
        goto error;
    }
    long long index = slot / k->ways, used;
    if (as_ll(PyList_GET_ITEM(k->fill, index), &used) < 0) {
        goto error;
    }
    if (used < 1 || used > k->ways) {
        PyErr_SetString(PyExc_IndexError, "set fill out of range");
        goto error;
    }
    Py_ssize_t last = (Py_ssize_t)(index * k->ways + used - 1);
    if (list_set_ll(k->fill, index, used - 1) < 0) {
        goto error;
    }
    if (slot != last) {
        PyObject *moved = PyList_GET_ITEM(k->tag, last);
        Py_INCREF(moved);
        list_set(k->tag, slot, moved);
        list_set(k->lru, slot, PyList_GET_ITEM(k->lru, last));
        k->state[slot] = k->state[last];
        k->dirty[slot] = k->dirty[last];
        int failed = PyDict_SetItem(k->where, moved, slot_obj);
        Py_DECREF(moved);
        if (failed) {
            goto error;
        }
    }
    Py_DECREF(slot_obj);
    return 0;

error:
    Py_XDECREF(key);
    Py_DECREF(slot_obj);
    Py_CLEAR(gone->line);
    return -1;
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

/* ``args[0].name(*args[1:])`` (the last names in ``kwnames`` by keyword)
 * after writing every open cache back; a new reference. */
static PyObject *
call_out(View *v, PyObject *name, PyObject **args, size_t nargs,
         PyObject *kwnames)
{
    if (close_all(v) < 0) {
        return NULL;
    }
    return PyObject_VectorcallMethod(
        name, args, nargs | PY_VECTORCALL_ARGUMENTS_OFFSET, kwnames);
}

static int
call_out_discard(View *v, PyObject *name, PyObject **args, size_t nargs,
                 PyObject *kwnames)
{
    PyObject *result = call_out(v, name, args, nargs, kwnames);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* ``fn(*args)`` after writing every open cache back. */
static int
call_fn(View *v, PyObject *fn, PyObject **args, size_t nargs)
{
    if (close_all(v) < 0) {
        return -1;
    }
    PyObject *result = PyObject_Vectorcall(fn, args, nargs, NULL);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* ``functools.partial(fn, *args)`` */
static PyObject *
make_partial(PyObject *fn, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *items[6];
    items[0] = fn;
    for (Py_ssize_t k = 0; k < nargs; k++) {
        items[k + 1] = args[k];
    }
    return PyObject_Vectorcall(partial_type, items, nargs + 1, NULL);
}

/* ``self.events.schedule(cycle, partial(fn, *args))`` */
static int
schedule(View *v, PyObject *cycle, PyObject *fn, PyObject *const *args,
         Py_ssize_t nargs)
{
    PyObject *callback = make_partial(fn, args, nargs);
    if (callback == NULL) {
        return -1;
    }
    PyObject *call[] = {v->events, cycle, callback};
    int failed = call_out_discard(v, str_schedule, call, 3, NULL);
    Py_DECREF(callback);
    return failed;
}

/* The same with ``self.<method>`` (a bound method) as ``fn``. */
static int
schedule_method(Ctx *c, PyObject *cycle, PyObject *method,
                PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fn = PyObject_GetAttr(c->hier, method);
    if (fn == NULL) {
        return -1;
    }
    int failed = schedule(c->v, cycle, fn, args, nargs);
    Py_DECREF(fn);
    return failed;
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
    return call_out_discard(c->v, method, call, nargs + 1, NULL);
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

/* ``self.stats.<name> += delta`` */
static int
stat_add(View *v, PyObject *name, PyObject *delta)
{
    PyObject *value = dict_attr(v->stats, name);
    PyObject *sum = value ? PyNumber_InPlaceAdd(value, delta) : NULL;
    int failed = sum == NULL || PyDict_SetItem(v->stats, name, sum) < 0;
    Py_XDECREF(sum);
    return failed ? -1 : 0;
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
    long long line64 = line - floor_mod(line, v->l2_line);
    PyObject *key = PyLong_FromLongLong(line64);
    if (key == NULL) {
        return -1;
    }
    Py_ssize_t slot = cache_peek(l2, line64, key);
    Py_DECREF(key);
    if (slot == -2) {
        return -1;
    }
    return slot >= 0 ? cache_set_dirty(v, l2, slot, 1) : 0;
}

/* ----------------------------------------------------- coherence, evictions */

/* One covered line ``line32`` (``key``) of _resolve_remote_copies: its
 * remote copies resolved, ``*penalty`` raised on an intervention. */
static int
resolve_line(Ctx *c, long long core, long long line32, PyObject *key,
             long long line64, PyObject *line64_obj, int is_rfo,
             long long *penalty)
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
        Py_ssize_t slot = cache_peek(l1, line32, key);
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
            Py_ssize_t l2slot = cache_peek(l2, line64, line64_obj);
            if (l2slot == -2
                || (l2slot >= 0 && cache_set_dirty(v, l2, l2slot, 1) < 0)) {
                return -1;
            }
            *penalty = intervention_penalty;
            if (stat_add(v, str_interventions, small_one) < 0) {
                return -1;
            }
            if (!is_rfo) {
                if (cache_set_state(v, l1, slot, SHARED) < 0
                    || cache_set_dirty(v, l1, slot, 0) < 0) {
                    return -1;
                }
                continue;
            }
        }
        else if (!is_rfo) {
            continue;
        }
        /* RFO: the remote copy goes. */
        Gone gone;
        if (cache_invalidate(v, l1, line32, key, &gone) < 0) {
            return -1;
        }
        Py_XDECREF(gone.line);
        sharers ^= bit;
        if (stat_add(v, str_invalidations, small_one) < 0
            || trace_cache(c, str_inval, other, key, NULL) < 0) {
            return -1;
        }
    }
    return dir_set(v, key, sharers);
}

/* MemoryHierarchy._resolve_remote_copies: the extra latency, or -1.
 * Sharers are visited in ascending core id. */
static long long
resolve_remote_copies(Ctx *c, long long core, long long line64,
                      PyObject *line64_obj, int is_rfo)
{
    View *v = c->v;
    long long penalty = 0;
    for (long long line32 = line64; line32 < line64 + v->l2_line;
         line32 += v->l1_line) {
        PyObject *key = PyLong_FromLongLong(line32);
        if (key == NULL) {
            return -1;
        }
        int failed = resolve_line(c, core, line32, key, line64, line64_obj,
                                  is_rfo, &penalty);
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
            || cache_invalidate(v, &v->caches[other], line32, key, &gone) < 0) {
            return -1;
        }
        if (gone.line != NULL) {
            Py_DECREF(gone.line);
            if ((gone.state == MODIFIED && dirty_l2_line(v, line32) < 0)
                || stat_add(v, str_invalidations, small_one) < 0
                || trace_cache(c, str_inval, other, key, now) < 0) {
                return -1;
            }
        }
    }
    return dir_set(v, key, mine);
}

/* MemoryHierarchy._evict_l1_line */
static int
evict_l1_line(Ctx *c, long long core, PyObject *line_obj, int state,
              int dirty)
{
    View *v = c->v;
    long long line;
    uint64_t sharers;
    int present;
    if (as_ll(line_obj, &line) < 0
        || dir_get(v, line_obj, &sharers, &present) < 0) {
        return -1;
    }
    if (present) {
        sharers &= ~((uint64_t)1 << core);
        if (sharers) {
            if (dir_set(v, line_obj, sharers) < 0) {
                return -1;
            }
        }
        else if (PyDict_DelItem(v->dir, line_obj) < 0) {
            return -1;
        }
    }
    if (dirty || state == MODIFIED) {
        return dirty_l2_line(v, line);
    }
    return 0;
}

/* MemoryHierarchy._evict_l2_line */
static int
evict_l2_line(Ctx *c, PyObject *line64_obj, int dirty)
{
    View *v = c->v;
    long long line64;
    if (as_ll(line64_obj, &line64) < 0) {
        return -1;
    }
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
                || cache_invalidate(v, &v->caches[core], line32, key,
                                    &gone) < 0) {
                Py_DECREF(key);
                return -1;
            }
            if (gone.line != NULL) {
                Py_DECREF(gone.line);
                if (gone.state == MODIFIED || gone.dirty) {
                    dirty = 1;
                }
                if (stat_add(v, str_invalidations, small_one) < 0
                    || trace_cache(c, str_inval, core, key, NULL) < 0) {
                    Py_DECREF(key);
                    return -1;
                }
            }
        }
        Py_DECREF(key);
    }
    if (PySet_Discard(v->prefetched, line64_obj) < 0) {
        return -1;
    }
    if (dirty) {
        PyObject *args[] = {line64_obj};
        if (trace_cache(c, str_dirty_evict, -1, line64_obj, NULL) < 0
            || call_self(c, str_writeback, args, 1) < 0) {
            return -1;
        }
    }
    return 0;
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
    PyObject *key = PyLong_FromLongLong(line32);
    if (key == NULL) {
        return NULL;
    }
    PyObject *entry = NULL, *handle = NULL, *cycle = NULL;
    Py_ssize_t slot = where_get(l1, key);
    if (slot == -2) {
        goto error;
    }
    if (slot >= 0) {
        /* L1 hit. */
        if (cache_touch(v, l1, slot) < 0
            || stat_add(v, str_loads, small_one) < 0
            || stat_add(v, str_l1_load_hits, small_one) < 0
            || (cycle = PyLong_FromLongLong(now + v->l1_hit_lat)) == NULL
            || schedule(v, cycle, callback, &cycle, 1) < 0) {
            goto error;
        }
        Py_DECREF(cycle);
        Py_DECREF(key);
        Py_INCREF(l1_hit);
        return l1_hit;
    }
    Mshr *mshr = &v->mshrs[core];
    entry = mshr_get(mshr, key);
    if (entry != NULL) {
        if (stat_add(v, str_loads, small_one) < 0
            || (handle = new_load_access(pc, now_obj, critical)) == NULL
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
    if (stat_add(v, str_loads, small_one) < 0
        || (handle = new_load_access(pc, now_obj, critical)) == NULL
        || append_waiter(entry, PyTuple_Pack(2, handle, callback)) < 0
        || (cycle = PyLong_FromLongLong(now + v->l2_delay)) == NULL) {
        goto error;
    }
    PyObject *args[] = {core_obj, key, critical, magnitude, Py_False};
    if (schedule_method(c, cycle, str_access_l2, args, 5) < 0) {
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
    Py_DECREF(key);
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
    if (!retry && stat_add(v, str_stores, small_one) < 0) {
        return -1;
    }
    Cache *l1 = &v->caches[core];
    long long line32 = address - floor_mod(address, v->l1_line);
    PyObject *key = PyLong_FromLongLong(line32);
    if (key == NULL) {
        return -1;
    }
    PyObject *entry = NULL, *cycle = NULL;
    Py_ssize_t slot = where_get(l1, key);
    if (slot == -2) {
        goto error;
    }
    if (slot >= 0) {
        if (cache_touch(v, l1, slot) < 0
            || (retry && drain_one(c, core, core_obj) < 0)) {
            goto error;
        }
        if (l1->state[slot] != MODIFIED) {
            /* Upgrade S -> M: invalidate remote sharers. */
            if (invalidate_remote(c, core, line32, key, now_obj) < 0
                || cache_set_state(v, l1, slot, MODIFIED) < 0) {
                goto error;
            }
        }
        if (!l1->dirty[slot] && cache_set_dirty(v, l1, slot, 1) < 0) {
            goto error;
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
        if (schedule_method(c, cycle, str_store, args, 4) < 0) {
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
    if (schedule_method(c, cycle, str_access_l2, args, 5) < 0) {
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
    PyObject *now_obj = call_out(v, str_now, args0, 1, NULL);
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
    Py_ssize_t slot = cache_lookup(v, L2_OF(v), line64, key64);
    if (slot == -2) {
        goto error;
    }
    int hit = slot >= 0;
    if (v->prefetch_on) {
        PyObject *args[] = {c->hier, key64, hit ? Py_False : Py_True};
        if (call_out_discard(v, str_train_prefetcher, args, 2,
                             kw_is_miss) < 0) {
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
            || (prefetched
                && (PySet_Discard(v->prefetched, key64) < 0
                    || stat_add(v, str_prefetches_useful, small_one) < 0))) {
            goto error;
        }
        long long penalty = resolve_remote_copies(c, core, line64, key64,
                                                  is_rfo);
        if (penalty < 0
            || (!is_rfo && stat_add(v, str_l2_load_hits, small_one) < 0)
            || (cycle = PyLong_FromLongLong(now + v->l2_half + penalty))
                   == NULL) {
            goto error;
        }
        PyObject *args[] = {core_obj, line32_obj, is_rfo_obj, cycle};
        if (schedule_method(c, cycle, str_fill_l1_and_respond, args, 4) < 0) {
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
                if (call_out_discard(v, str_presettle, args, 3,
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
        if (schedule_method(c, cycle, str_access_l2, args, 5) < 0) {
            goto error;
        }
        goto done;
    }
    if (append_waiter(entry, PyTuple_Pack(3, core_obj, line32_obj,
                                          is_rfo_obj)) < 0) {
        goto error;
    }
    PyObject *fill = PyObject_GetAttr(c->hier, str_dram_fill);
    callback = fill ? make_partial(fill, &key64, 1) : NULL;
    Py_XDECREF(fill);
    if (callback == NULL) {
        goto error;
    }
    PyObject *args[] = {v->memsys, key64, Py_False, core_obj, critical,
                        magnitude, callback};
    txn = call_out(v, str_make_transaction, args, 2, kw_make_transaction);
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
    PyObject *waiters = NULL, *respond_at = NULL, *fill = NULL;
    Gone victim;
    if (trace_cache(c, str_l2_fill, -1, line64_obj, NULL) < 0
        || cache_insert(v, L2_OF(v), line64, line64_obj, SHARED, 0,
                        &victim) < 0) {
        goto error;
    }
    if (victim.line != NULL) {
        int failed = evict_l2_line(c, victim.line, victim.dirty);
        Py_DECREF(victim.line);
        if (failed) {
            goto error;
        }
    }
    if ((respond_at = PyLong_FromLongLong(now + v->l2_half)) == NULL
        || (fill = PyObject_GetAttr(c->hier, str_fill_l1_and_respond))
               == NULL
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
        int failed = schedule(v, respond_at, fill, args, 4);
        Py_DECREF(item);
        if (failed) {
            goto error;
        }
    }
    if (PyList_GET_SIZE(waiters)
        && stat_add(v, str_dram_loads, small_one) < 0) {
        goto error;
    }
    Py_DECREF(waiters);
    Py_DECREF(fill);
    Py_DECREF(respond_at);
    Py_DECREF(entry);
    return 0;

error:
    Py_XDECREF(waiters);
    Py_XDECREF(fill);
    Py_XDECREF(respond_at);
    Py_DECREF(entry);
    return -1;
}

/* ``stats.<hist>.record(latency)`` and the per-PC histogram's, for one
 * DRAM-serviced load ``handle``. */
static int
record_latency(Ctx *c, PyObject *handle, PyObject *now_obj)
{
    View *v = c->v;
    PyObject *issue = slot_get(handle, load_access_type,
                               la_offset[LA_ISSUE_CYCLE], str_issue_cycle);
    PyObject *latency = issue ? PyNumber_Subtract(now_obj, issue) : NULL;
    PyObject *pc = NULL, *hist = NULL;
    Py_XDECREF(issue);
    if (latency == NULL) {
        return -1;
    }
    int critical = slot_true(handle, load_access_type,
                             la_offset[LA_CRITICAL], str_critical);
    if (critical < 0) {
        goto error;
    }
    PyObject *histogram = dict_attr(
        v->stats, critical ? str_crit_latency : str_noncrit_latency);
    if (histogram == NULL) {
        goto error;
    }
    PyObject *args[] = {histogram, latency};
    Py_INCREF(histogram);
    int failed = call_out_discard(v, str_record, args, 2, NULL);
    Py_DECREF(histogram);
    if (failed) {
        goto error;
    }
    PyObject *pc_latency = dict_attr(v->stats, str_pc_latency);
    if (pc_latency == NULL) {
        goto error;
    }
    Py_INCREF(pc_latency);
    pc = slot_get(handle, load_access_type, la_offset[LA_PC], str_pc);
    if (pc != NULL && PyDict_CheckExact(pc_latency)) {
        hist = PyDict_GetItemWithError(pc_latency, pc);
        if (hist != NULL && hist != Py_None) {
            Py_INCREF(hist);
        }
        else if (!PyErr_Occurred()) {
            hist = NULL;
            if (close_all(v) == 0
                && (hist = PyObject_CallNoArgs(latency_histogram)) != NULL
                && PyDict_SetItem(pc_latency, pc, hist) < 0) {
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
    Py_DECREF(pc_latency);
    if (hist == NULL) {
        goto error;
    }
    PyObject *record[] = {hist, latency};
    if (call_out_discard(v, str_record, record, 2, NULL) < 0) {
        goto error;
    }
    Py_DECREF(hist);
    Py_DECREF(pc);
    Py_DECREF(latency);
    return 0;

error:
    Py_XDECREF(hist);
    Py_XDECREF(pc);
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
    if (rfo < 0
        || (rfo && invalidate_remote(c, core, line32, line32_obj,
                                     Py_None) < 0)) {
        goto error;
    }
    Gone victim;
    if (cache_insert(v, &v->caches[core], line32, line32_obj,
                     rfo ? MODIFIED : SHARED, rfo, &victim) < 0) {
        goto error;
    }
    if (victim.line != NULL) {
        int failed = evict_l1_line(c, core, victim.line, victim.state,
                                   victim.dirty);
        Py_DECREF(victim.line);
        if (failed) {
            goto error;
        }
    }
    uint64_t sharers;
    int present;
    if (dir_get(v, line32_obj, &sharers, &present) < 0
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
            failed = went < 0 || (went && record_latency(c, handle, now_obj) < 0)
                || call_fn(v, callback, &now_obj, 1) < 0;
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

/* Write every open cache back and close; ``result`` on success, else
 * NULL. */
static PyObject *
leave(Ctx *c, PyObject *result)
{
    if (result == NULL) {
        close_all_raising(c->v);
    }
    else if (close_all(c->v) < 0) {
        Py_CLEAR(result);
    }
    Py_DECREF(c->v);
    Py_DECREF(c->dict);
    return result;
}

static PyObject *
none_unless(int failed)
{
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
k_load(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "load", args, nargs, 8) < 0) {
        return NULL;
    }
    return leave(&c, load(&c, args + 1));
}

static PyObject *
k_store(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "store", args, nargs, 5) < 0) {
        return NULL;
    }
    return leave(&c, none_unless(store(&c, args[1], args[2], args[3],
                                       args[4]) < 0));
}

static PyObject *
k_can_accept_store(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "can_accept_store", args, nargs, 2) < 0) {
        return NULL;
    }
    return leave(&c, can_accept_store(&c, args[1]));
}

static PyObject *
k_access_l2(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "access_l2", args, nargs, 6) < 0) {
        return NULL;
    }
    return leave(&c, none_unless(access_l2(&c, args[1], args[2], args[3],
                                           args[4], args[5]) < 0));
}

static PyObject *
k_install_l2_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "install_l2_fill", args, nargs, 3) < 0) {
        return NULL;
    }
    return leave(&c, none_unless(install_l2_fill(&c, args[1], args[2]) < 0));
}

static PyObject *
k_fill_l1_and_respond(PyObject *module, PyObject *const *args,
                      Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "fill_l1_and_respond", args, nargs, 5) < 0) {
        return NULL;
    }
    return leave(&c, none_unless(fill_l1_and_respond(&c, args[1], args[2],
                                                     args[3], args[4]) < 0));
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
        return leave(&c, NULL);
    }
    long long penalty = resolve_remote_copies(&c, core, line64, args[2],
                                              is_rfo);
    return leave(&c, penalty < 0 ? NULL : PyLong_FromLongLong(penalty));
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
        return leave(&c, NULL);
    }
    return leave(&c, none_unless(invalidate_remote(&c, core, line32, args[2],
                                                   args[3]) < 0));
}

static PyObject *
k_evict_l1_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    long long core, state;
    if (enter(&c, "evict_l1_line", args, nargs, 5) < 0) {
        return NULL;
    }
    int dirty = PyObject_IsTrue(args[4]);
    if (dirty < 0 || core_index(c.v, args[1], &core) < 0
        || as_ll(args[3], &state) < 0) {
        return leave(&c, NULL);
    }
    return leave(&c, none_unless(evict_l1_line(&c, core, args[2], (int)state,
                                               dirty) < 0));
}

static PyObject *
k_evict_l2_line(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    if (enter(&c, "evict_l2_line", args, nargs, 3) < 0) {
        return NULL;
    }
    int dirty = PyObject_IsTrue(args[2]);
    if (dirty < 0) {
        return leave(&c, NULL);
    }
    return leave(&c, none_unless(evict_l2_line(&c, args[1], dirty) < 0));
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
    if ((small_zero = PyLong_FromLong(0)) == NULL
        || (small_one = PyLong_FromLong(1)) == NULL
        || (small_minus_one = PyLong_FromLong(-1)) == NULL
        || (kw_make_transaction = names_tuple(
                5, str_is_write, str_core, str_critical, str_magnitude,
                str_callback)) == NULL
        || (kw_event_phase = names_tuple(1, str_event_phase)) == NULL
        || (kw_is_miss = names_tuple(1, str_is_miss)) == NULL
        || PyType_Ready(&ViewType) < 0) {
        return NULL;
    }
    PyObject *functools = PyImport_ImportModule("functools");
    if (functools == NULL) {
        return NULL;
    }
    partial_type = PyObject_GetAttrString(functools, "partial");
    Py_DECREF(functools);
    if (partial_type == NULL) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddIntConstant(module, "MAX_CORES",
                                                  MAX_CORES) < 0) {
        Py_CLEAR(module);
    }
    return module;
}
