/* Compiled per-cycle stages of the out-of-order core (repro.cpu.core).
 *
 * OutOfOrderCore.step, _complete_at, _do_load_issues, _do_dispatch,
 * _do_commit and the ring helpers _book_and_schedule and _take_bucket
 * each open with one guard that hands the call to the function of the
 * same stage here; the Python body after the guard is the reference this
 * file transliterates, statement for statement.  The kernel keeps no
 * state of its own: it works on the core's objects, so skip_plan,
 * step_window, det_state, the run-end ledger and both engines read the
 * same state whichever path ran.
 *
 * - Containers.  The ROB columns (_done, _pending, _waiters, _consumers,
 *   _bstart, _handle), the cycle rings and the trace's typed columns are
 *   bound once per core in a View, kept in the core's attribute
 *   _kernel_view.  The core binds each of them once in __init__ and only
 *   mutates them in place.  The View holds the trace's columns and the
 *   rings as buffers, so none of them can be resized while the core
 *   lives.
 * - Rings.  Slot c & _ring_mask serves cycle c, for every cycle from the
 *   current one to the ring's reach (ring_size in core.py): per itype the
 *   units booked at c when the slot's tag (_fu_tag) is c (_fu_count), and
 *   for each schedule (_wake_head/_wake_tail, _issue_head/_issue_tail)
 *   the first and last trace index of c's bucket, chained in order
 *   through _link at the entries' ROB positions.  An insert at or beyond
 *   the current cycle plus the ring size, a completion before the core's
 *   clock (stats.cycles) and a scheduled cycle that was never stepped
 *   raise RuntimeError, on both paths.
 * - Scalars.  _ptr, _rob_len, _lq_used, _sq_used, _fetch_blocker,
 *   _fetch_resume, _next_local and _tick_at are C fields of CoreBase, the
 *   base type of OutOfOrderCore, and the 13 counters of the core's stats
 *   are C fields of StatsBase, the base type of CoreStats.  Member
 *   descriptors of the same names expose them to Python.  The kernel
 *   updates them in place where the Python bodies assign them, so every
 *   caller and callee sees the values the Python bodies would have
 *   written, also when a stage raises.  A core that is not a CoreBase,
 *   or stats that are not a StatsBase, raise TypeError.
 * - Ticks.  provider.tick(now) runs only at cycles at or after _tick_at:
 *   the provider's next_tick_cycle (the core's _next_tick), asked after
 *   each real tick.  A provider without one has _next_tick None, and
 *   _tick_at stays 0: it ticks every cycle.
 * - Calls out.  Hierarchy load/store/can_accept_store, the provider's
 *   hooks, the tracer and the wake hook stay Python calls, looked up by
 *   name on each call (as the Python bodies do), in the bodies' order and
 *   with their arguments.  Exceptions they raise propagate unchanged.
 * - Completions.  The callback a load hands the hierarchy is a
 *   Completion: a GC-tracked callable holding the core and the trace
 *   index, which runs _complete_at((index,), cycle) here when called with
 *   the cycle its data returns, where the Python body builds a lambda.
 *
 * Built by repro.cpu.native with the interpreter's compiler and headers;
 * it uses only the C API of CPython 3.9 and later.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#if PY_VERSION_HEX < 0x030C0000
#include <structmember.h>
#endif
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#ifndef Py_T_LONGLONG
#define Py_T_LONGLONG T_LONGLONG
#endif

/* Instruction types (repro.cpu.instruction). */
#define LOAD 3
#define STORE 4
#define N_ITYPES 5
/* Dispatch classes (_DC_* in repro.cpu.core). */
#define DC_LOAD 1
#define DC_STORE 2
#define DC_MISP_BRANCH 3
/* Nothing scheduled (_FAR in repro.cpu.core). */
#define FAR (1LL << 62)

/* ------------------------------------------------------------------ names */

/* Interned attribute and method names, as NAME(identifier, text). */
#define NAMES(NAME)                                                        \
    NAME(kernel_view, "_kernel_view") NAME(done, "done")                  \
    NAME(stats, "stats") NAME(provider, "provider")                       \
    NAME(hierarchy, "hierarchy") NAME(tracer, "tracer")                   \
    NAME(wake_hook, "_wake_hook") NAME(skip_until, "skip_until")          \
    NAME(trace, "trace") NAME(dclass, "_dclass") NAME(core_id, "core_id") \
    NAME(rob_entries, "_rob_entries") NAME(n, "_n")                       \
    NAME(fetch_width, "_fetch_width") NAME(commit_width, "_commit_width") \
    NAME(lq_entries, "_lq_entries") NAME(sq_entries, "_sq_entries")       \
    NAME(misp_penalty, "_misp_penalty") NAME(fu_caps, "_fu_caps")         \
    NAME(latency, "_latency") NAME(done_col, "_done")                     \
    NAME(pending, "_pending") NAME(waiters, "_waiters")                   \
    NAME(consumers, "_consumers") NAME(bstart, "_bstart")                 \
    NAME(handle, "_handle") NAME(ring_mask, "_ring_mask")                 \
    NAME(wake_head, "_wake_head") NAME(wake_tail, "_wake_tail")           \
    NAME(issue_head, "_issue_head") NAME(issue_tail, "_issue_tail")       \
    NAME(link, "_link") NAME(fu_tag, "_fu_tag")                           \
    NAME(fu_count, "_fu_count")                                           \
    NAME(on_block_start, "on_block_start")                                \
    NAME(on_blocked_commit, "on_blocked_commit")                          \
    NAME(on_load_consumers, "on_load_consumers") NAME(tick, "tick")       \
    NAME(next_tick, "_next_tick") NAME(annotate, "annotate")              \
    NAME(load, "load") NAME(can_accept_store, "can_accept_store")         \
    NAME(store, "store") NAME(block_episode, "block_episode")             \
    NAME(prediction, "prediction") NAME(went_to_dram, "went_to_dram")     \
    NAME(txn, "txn")

#define DECLARE_NAME(id, text) static PyObject *str_##id;
NAMES(DECLARE_NAME)

static PyObject *small_zero, *small_minus_one;

/* ------------------------------------------------------------ base types */

/* The base type of OutOfOrderCore: its scalars (see core.py). */
typedef struct {
    PyObject_HEAD
    long long ptr, rob_len, lq_used, sq_used, fetch_blocker, fetch_resume,
        next_local, tick_at;
} CoreBase;

#define CORE_MEMBER(name) \
    {"_" #name, Py_T_LONGLONG, offsetof(CoreBase, name), 0, NULL}

static PyMemberDef core_members[] = {
    CORE_MEMBER(ptr), CORE_MEMBER(rob_len), CORE_MEMBER(lq_used),
    CORE_MEMBER(sq_used), CORE_MEMBER(fetch_blocker),
    CORE_MEMBER(fetch_resume), CORE_MEMBER(next_local),
    CORE_MEMBER(tick_at), {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CoreBaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._kernel.CoreBase",
    .tp_basicsize = sizeof(CoreBase),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The scalars of an OutOfOrderCore, as C fields.",
    .tp_members = core_members,
    .tp_new = PyType_GenericNew,
};

/* The base type of CoreStats: its counters (see core.py). */
typedef struct {
    PyObject_HEAD
    long long committed, cycles, loads, blocking_loads, blocking_dram_loads,
        blocked_cycles, blocked_dram_cycles, total_block_stall,
        lq_full_cycles, sq_full_cycles, rob_full_cycles,
        dispatch_stall_cycles, critical_loads_sent;
} StatsBase;

#define STATS_MEMBER(name) \
    {#name, Py_T_LONGLONG, offsetof(StatsBase, name), 0, NULL}

static PyMemberDef stats_members[] = {
    STATS_MEMBER(committed), STATS_MEMBER(cycles), STATS_MEMBER(loads),
    STATS_MEMBER(blocking_loads), STATS_MEMBER(blocking_dram_loads),
    STATS_MEMBER(blocked_cycles), STATS_MEMBER(blocked_dram_cycles),
    STATS_MEMBER(total_block_stall), STATS_MEMBER(lq_full_cycles),
    STATS_MEMBER(sq_full_cycles), STATS_MEMBER(rob_full_cycles),
    STATS_MEMBER(dispatch_stall_cycles), STATS_MEMBER(critical_loads_sent),
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject StatsBaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._kernel.StatsBase",
    .tp_basicsize = sizeof(StatsBase),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The counters of a CoreStats, as C fields.",
    .tp_members = stats_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------- View */

enum { B_ITYPES, B_DCLASS, B_PCS, B_ADDRS, B_DEP1, B_DEP2, N_COLUMNS };
/* The cycle rings, each an array("q"): the schedules' heads and tails,
 * the bucket links, and per itype the FU tags and counts. */
enum {
    R_WAKE_HEAD, R_WAKE_TAIL, R_ISSUE_HEAD, R_ISSUE_TAIL, R_LINK,
    R_FU_TAG, R_FU_COUNT = R_FU_TAG + N_ITYPES,
    N_RINGS = R_FU_COUNT + N_ITYPES
};
#define N_BUFFERS (N_COLUMNS + N_RINGS)

typedef struct {
    PyObject_HEAD
    /* ROB columns: lists of length cap, one slot per ring position. */
    PyObject *done, *pending, *waiters, *consumers, *bstart, *handle;
    PyObject *core_id;
    Py_buffer buffers[N_BUFFERS];
    int held;  /* buffers acquired so far */
    const uint8_t *itypes, *dclass;
    const uint32_t *pcs;
    const uint64_t *addrs;
    const uint16_t *dep1, *dep2;
    long long *ring[N_RINGS];
    long long cap, n, fetch_width, commit_width, lq_entries, sq_entries,
        misp_penalty, mask;
    long long fu_caps[N_ITYPES], latency[N_ITYPES];
} View;

static int
view_traverse(View *self, visitproc visit, void *arg)
{
    Py_VISIT(self->done);
    Py_VISIT(self->pending);
    Py_VISIT(self->waiters);
    Py_VISIT(self->consumers);
    Py_VISIT(self->bstart);
    Py_VISIT(self->handle);
    Py_VISIT(self->core_id);
    return 0;
}

static int
view_clear(View *self)
{
    Py_CLEAR(self->done);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->waiters);
    Py_CLEAR(self->consumers);
    Py_CLEAR(self->bstart);
    Py_CLEAR(self->handle);
    Py_CLEAR(self->core_id);
    return 0;
}

static void
view_dealloc(View *self)
{
    PyObject_GC_UnTrack(self);
    view_clear(self);
    for (int k = 0; k < self->held; k++) {
        PyBuffer_Release(&self->buffers[k]);
    }
    PyObject_GC_Del(self);
}

static PyTypeObject ViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._kernel.View",
    .tp_basicsize = sizeof(View),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One core's containers and trace columns, bound for the kernel.",
    .tp_traverse = (traverseproc)view_traverse,
    .tp_clear = (inquiry)view_clear,
    .tp_dealloc = (destructor)view_dealloc,
};

/* Borrowed ``dict[name]``, or NULL with AttributeError set. */
static PyObject *
dict_attr(PyObject *dict, PyObject *name)
{
    PyObject *value = PyDict_GetItemWithError(dict, name);
    if (value == NULL && !PyErr_Occurred()) {
        PyErr_Format(PyExc_AttributeError,
                     "'OutOfOrderCore' object has no attribute '%U'", name);
    }
    return value;
}

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

static int
dict_ll(PyObject *dict, PyObject *name, long long *out)
{
    PyObject *value = dict_attr(dict, name);
    return value == NULL ? -1 : as_ll(value, out);
}

/* A new reference to ``dict[name]`` if it is a list of ``size`` items. */
static PyObject *
bind_list(PyObject *dict, PyObject *name, Py_ssize_t size)
{
    PyObject *value = dict_attr(dict, name);
    if (value == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(value) || PyList_GET_SIZE(value) != size) {
        PyErr_Format(PyExc_TypeError, "%U must be a list of %zd items",
                     name, size);
        return NULL;
    }
    Py_INCREF(value);
    return value;
}

static int
bind_table(PyObject *dict, PyObject *name, long long *out)
{
    PyObject *value = dict_attr(dict, name);
    if (value == NULL) {
        return -1;
    }
    if (!PyTuple_Check(value) || PyTuple_GET_SIZE(value) != N_ITYPES) {
        PyErr_Format(PyExc_TypeError, "%U must be a tuple of %d ints",
                     name, N_ITYPES);
        return -1;
    }
    for (int k = 0; k < N_ITYPES; k++) {
        if (as_ll(PyTuple_GET_ITEM(value, k), &out[k]) < 0) {
            return -1;
        }
    }
    return 0;
}

/* Acquire the next buffer of ``self`` on ``column``: at least
 * ``self->n`` items of struct ``format`` (one letter), ``itemsize`` bytes
 * each. */
static const void *
bind_column(View *self, PyObject *column, const char *name,
            const char *format, Py_ssize_t itemsize)
{
    Py_buffer *view = &self->buffers[self->held];
    if (PyObject_GetBuffer(column, view, PyBUF_FORMAT) < 0) {
        return NULL;
    }
    self->held++;
    if (view->itemsize != itemsize || view->format == NULL
        || strcmp(view->format, format) != 0
        || view->len / itemsize < self->n) {
        PyErr_Format(PyExc_TypeError,
                     "%s must hold %lld items of type '%s'", name, self->n,
                     format);
        return NULL;
    }
    return view->buf;
}

/* Acquire the next buffer of ``self`` on the ring ``ring``: exactly
 * ``size`` writable items of type 'q'. */
static long long *
bind_ring(View *self, PyObject *ring, PyObject *name, Py_ssize_t size)
{
    Py_buffer *view = &self->buffers[self->held];
    if (PyObject_GetBuffer(ring, view, PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {
        return NULL;
    }
    self->held++;
    if (view->itemsize != sizeof(long long) || view->format == NULL
        || strcmp(view->format, "q") != 0
        || view->len != size * (Py_ssize_t)sizeof(long long)) {
        PyErr_Format(PyExc_TypeError, "%U must hold %zd items of type 'q'",
                     name, size);
        return NULL;
    }
    return view->buf;
}

/* Bind the rings in R_* order. */
static int
bind_rings(View *self, PyObject *dict)
{
    Py_ssize_t ring = (Py_ssize_t)(self->mask + 1);
    PyObject *schedules[] = {str_wake_head, str_wake_tail, str_issue_head,
                             str_issue_tail, str_link};
    for (int k = 0; k <= R_LINK; k++) {
        PyObject *value = dict_attr(dict, schedules[k]);
        Py_ssize_t size = k == R_LINK ? (Py_ssize_t)self->cap : ring;
        if (value == NULL
            || (self->ring[k] = bind_ring(self, value, schedules[k], size))
                   == NULL) {
            return -1;
        }
    }
    PyObject *names[] = {str_fu_tag, str_fu_count};
    for (int t = 0; t < 2; t++) {
        PyObject *table = dict_attr(dict, names[t]);
        if (table == NULL) {
            return -1;
        }
        if (!PyTuple_Check(table) || PyTuple_GET_SIZE(table) != N_ITYPES) {
            PyErr_Format(PyExc_TypeError, "%U must be a tuple of %d rings",
                         names[t], N_ITYPES);
            return -1;
        }
        for (int k = 0; k < N_ITYPES; k++) {
            long long *buf = bind_ring(self, PyTuple_GET_ITEM(table, k),
                                       names[t], ring);
            if (buf == NULL) {
                return -1;
            }
            self->ring[(t ? R_FU_COUNT : R_FU_TAG) + k] = buf;
        }
    }
    return 0;
}

static PyObject *
view_bind(PyObject *dict)
{
    View *self = PyObject_GC_New(View, &ViewType);
    if (self == NULL) {
        return NULL;
    }
    self->done = self->pending = self->waiters = NULL;
    self->consumers = self->bstart = self->handle = self->core_id = NULL;
    self->held = 0;
    PyObject_GC_Track(self);

    PyObject *trace = NULL, *column = NULL;
    if (dict_ll(dict, str_rob_entries, &self->cap) < 0
        || dict_ll(dict, str_n, &self->n) < 0
        || dict_ll(dict, str_fetch_width, &self->fetch_width) < 0
        || dict_ll(dict, str_commit_width, &self->commit_width) < 0
        || dict_ll(dict, str_lq_entries, &self->lq_entries) < 0
        || dict_ll(dict, str_sq_entries, &self->sq_entries) < 0
        || dict_ll(dict, str_misp_penalty, &self->misp_penalty) < 0
        || dict_ll(dict, str_ring_mask, &self->mask) < 0
        || bind_table(dict, str_fu_caps, self->fu_caps) < 0
        || bind_table(dict, str_latency, self->latency) < 0) {
        goto error;
    }
    /* A ring is a power of two; a type needs a unit to book (its booking
     * scan would not end) and no latency goes back in time. */
    int sizes_ok = self->cap > 0 && self->n >= 0 && self->mask > 0
        && (self->mask & (self->mask + 1)) == 0;
    for (int k = 0; k < N_ITYPES; k++) {
        sizes_ok = sizes_ok && self->fu_caps[k] >= 1 && self->latency[k] >= 0;
    }
    if (!sizes_ok) {
        PyErr_SetString(PyExc_ValueError, "core sizes out of range");
        goto error;
    }
    Py_ssize_t cap = (Py_ssize_t)self->cap;
    if ((self->done = bind_list(dict, str_done_col, cap)) == NULL
        || (self->pending = bind_list(dict, str_pending, cap)) == NULL
        || (self->waiters = bind_list(dict, str_waiters, cap)) == NULL
        || (self->consumers = bind_list(dict, str_consumers, cap)) == NULL
        || (self->bstart = bind_list(dict, str_bstart, cap)) == NULL
        || (self->handle = bind_list(dict, str_handle, cap)) == NULL) {
        goto error;
    }
    if ((self->core_id = dict_attr(dict, str_core_id)) == NULL) {
        goto error;
    }
    Py_INCREF(self->core_id);

    if ((trace = dict_attr(dict, str_trace)) == NULL) {
        goto error;
    }
    Py_INCREF(trace);
    /* The trace's typed columns (repro.cpu.instruction.Trace) and the
     * core's dispatch classes, in B_* order. */
    static const struct {
        const char *name;
        const char *format;
        Py_ssize_t size;
    } columns[N_COLUMNS] = {
        {"itypes", "B", 1}, {"_dclass", "B", 1}, {"pcs", "I", 4},
        {"addrs", "Q", 8}, {"dep1", "H", 2}, {"dep2", "H", 2},
    };
    const void *bufs[N_COLUMNS];
    for (int k = 0; k < N_COLUMNS; k++) {
        if (k == B_DCLASS) {
            column = dict_attr(dict, str_dclass);
            Py_XINCREF(column);
        }
        else {
            column = PyObject_GetAttrString(trace, columns[k].name);
        }
        if (column == NULL) {
            goto error;
        }
        bufs[k] = bind_column(self, column, columns[k].name,
                              columns[k].format, columns[k].size);
        Py_CLEAR(column);
        if (bufs[k] == NULL) {
            goto error;
        }
    }
    Py_CLEAR(trace);
    self->itypes = bufs[B_ITYPES];
    self->dclass = bufs[B_DCLASS];
    self->pcs = bufs[B_PCS];
    self->addrs = bufs[B_ADDRS];
    self->dep1 = bufs[B_DEP1];
    self->dep2 = bufs[B_DEP2];
    if (bind_rings(self, dict) < 0) {
        goto error;
    }
    return (PyObject *)self;

error:
    Py_XDECREF(column);
    Py_XDECREF(trace);
    Py_DECREF(self);
    return NULL;
}

/* -------------------------------------------------------------- call state */

/* One kernel call: the core, its __dict__ and its View. */
typedef struct {
    CoreBase *core;  /* borrowed: the caller's argument */
    PyObject *dict;
    View *v;
} Ctx;

static int
ctx_open(Ctx *c, PyObject *core)
{
    if (!PyObject_TypeCheck(core, &CoreBaseType)) {
        PyErr_Format(PyExc_TypeError,
                     "the core kernel takes an OutOfOrderCore built on "
                     "CoreBase, not '%s'", Py_TYPE(core)->tp_name);
        return -1;
    }
    c->core = (CoreBase *)core;
    c->v = NULL;
    c->dict = PyObject_GenericGetDict(core, NULL);
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
    if (c->v->done == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the core's kernel view is cleared");
        goto error;
    }
    return 0;

error:
    Py_CLEAR(c->v);
    Py_CLEAR(c->dict);
    return -1;
}

static void
ctx_close(Ctx *c)
{
    Py_DECREF(c->v);
    Py_DECREF(c->dict);
}

/* Check the ranges the kernel indexes by: 0 <= _rob_len <= min(_ptr, cap)
 * and _ptr <= n. */
static int
check_scalars(Ctx *c)
{
    long long ptr = c->core->ptr, rob_len = c->core->rob_len;
    if (ptr < 0 || ptr > c->v->n || rob_len < 0 || rob_len > ptr
        || rob_len > c->v->cap) {
        PyErr_SetString(PyExc_RuntimeError, "core ROB state out of range");
        return -1;
    }
    return 0;
}

/* Borrowed ``core.stats``, or NULL with an exception set. */
static StatsBase *
stats_of(Ctx *c)
{
    PyObject *stats = dict_attr(c->dict, str_stats);
    if (stats != NULL && !PyObject_TypeCheck(stats, &StatsBaseType)) {
        PyErr_Format(PyExc_TypeError,
                     "the core's stats must be a CoreStats built on "
                     "StatsBase, not '%s'", Py_TYPE(stats)->tp_name);
        return NULL;
    }
    return (StatsBase *)stats;
}

/* ``args[0].name(*args[1:nargs])``; a new reference.  The callee may
 * change ``args[0]`` and the core while it runs. */
static PyObject *
call_out(PyObject *name, PyObject **args, size_t nargs)
{
    return PyObject_VectorcallMethod(
        name, args, nargs | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

static int
call_out_discard(PyObject *name, PyObject **args, size_t nargs)
{
    PyObject *result = call_out(name, args, nargs);
    if (result == NULL) {
        return -1;
    }
    Py_DECREF(result);
    return 0;
}

/* ``list[index] = value`` for a list the View owns (index in range). */
static inline void
list_put(PyObject *list, Py_ssize_t index, PyObject *value)
{
    PyObject *old = PyList_GET_ITEM(list, index);
    Py_INCREF(value);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
}

static inline int
list_put_ll(PyObject *list, Py_ssize_t index, long long x)
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

static inline int
list_ll(PyObject *list, Py_ssize_t index, long long *out)
{
    return as_ll(PyList_GET_ITEM(list, index), out);
}

/* A trace index read from a schedule or waiter list: 0 <= i < n. */
static int
trace_index(View *v, PyObject *item, long long *out)
{
    if (as_ll(item, out) < 0) {
        return -1;
    }
    if (*out < 0 || *out >= v->n) {
        PyErr_Format(PyExc_IndexError, "trace index %lld out of range", *out);
        return -1;
    }
    return 0;
}

/* A trace index read from a ring: below n, or RuntimeError (a negative
 * one ends a bucket). */
static int
ring_index(View *v, long long i)
{
    if (i >= v->n) {
        PyErr_Format(PyExc_RuntimeError,
                     "trace index %lld in a schedule ring is out of range", i);
        return -1;
    }
    return 0;
}

/* The trace index after ``i`` in its bucket into ``*next`` (-1: none). */
static inline int
bucket_next(View *v, long long i, long long *next)
{
    *next = v->ring[R_LINK][i % v->cap];
    return ring_index(v, *next);
}

/* OutOfOrderCore._book_and_schedule; ``i`` is a trace index. */
static int
book_and_schedule(Ctx *c, long long i, long long earliest, long long now)
{
    View *v = c->v;
    int itype = v->itypes[i];
    if (itype >= N_ITYPES) {
        PyErr_SetString(PyExc_IndexError, "itype out of range");
        return -1;
    }
    long long *tags = v->ring[R_FU_TAG + itype];
    long long *counts = v->ring[R_FU_COUNT + itype];
    long long limit = v->fu_caps[itype];
    long long mask = v->mask;
    long long cycle = earliest;
    long long slot = cycle & mask;
    long long used = tags[slot] == cycle ? counts[slot] : 0;
    while (used >= limit) {
        cycle += 1;
        slot = cycle & mask;
        used = tags[slot] == cycle ? counts[slot] : 0;
    }
    long long at, *head, *tail;
    if (itype == LOAD) {
        at = cycle;
        head = v->ring[R_ISSUE_HEAD];
        tail = v->ring[R_ISSUE_TAIL];
    }
    else {
        at = cycle + v->latency[itype];
        head = v->ring[R_WAKE_HEAD];
        tail = v->ring[R_WAKE_TAIL];
    }
    if (at - now > mask) {
        PyErr_Format(PyExc_RuntimeError,
                     "core %S: cycle %lld is beyond its %lld-slot cycle "
                     "rings at cycle %lld", v->core_id, at, mask + 1, now);
        return -1;
    }
    tags[slot] = cycle;
    counts[slot] = used + 1;
    long long *link = v->ring[R_LINK];
    slot = at & mask;
    if (head[slot] < 0) {
        head[slot] = i;
    }
    else {
        long long last = tail[slot];
        if (last < 0 || last >= v->n) {
            PyErr_Format(PyExc_RuntimeError, "trace index %lld in a "
                         "schedule ring is out of range", last);
            return -1;
        }
        link[last % v->cap] = i;
    }
    tail[slot] = i;
    link[i % v->cap] = -1;
    if (at < c->core->next_local) {
        c->core->next_local = at;
    }
    return 0;
}

/* OutOfOrderCore._take_bucket up to its list: detach the bucket of cycle
 * ``now`` from the schedule ``head`` and return its first trace index
 * (-1: empty) into ``*first``. */
static int
take_bucket(Ctx *c, long long *head, long long now, long long *first)
{
    View *v = c->v;
    long long mask = v->mask;
    long long slot = now & mask;
    *first = head[slot];
    head[slot] = -1;
    /* Every scheduled cycle lies in [now, now + ring size). */
    const long long *wake = v->ring[R_WAKE_HEAD];
    const long long *issue = v->ring[R_ISSUE_HEAD];
    long long next = FAR;
    for (long long cycle = now; cycle <= now + mask; cycle++) {
        slot = cycle & mask;
        if (wake[slot] >= 0 || issue[slot] >= 0) {
            next = cycle;
            break;
        }
    }
    c->core->next_local = next;
    return ring_index(v, *first);
}

/* ----------------------------------------------------------- completions */

/* The callback a load hands the hierarchy: calling it with the cycle the
 * load's data returns runs _complete_at((index,), cycle) in the kernel. */
typedef struct {
    PyObject_HEAD
    PyObject *core;
    long long index;
    vectorcallfunc vectorcall;
} Completion;

static PyTypeObject CompletionType;
static PyObject *completion_call(PyObject *callable, PyObject *const *args,
                                 size_t nargsf, PyObject *kwnames);

static PyObject *
completion_new(PyObject *core, long long index)
{
    Completion *self = PyObject_GC_New(Completion, &CompletionType);
    if (self == NULL) {
        return NULL;
    }
    Py_INCREF(core);
    self->core = core;
    self->index = index;
    self->vectorcall = completion_call;
    PyObject_GC_Track(self);
    return (PyObject *)self;
}

static int
completion_traverse(Completion *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    return 0;
}

static int
completion_clear(Completion *self)
{
    Py_CLEAR(self->core);
    return 0;
}

static void
completion_dealloc(Completion *self)
{
    PyObject_GC_UnTrack(self);
    completion_clear(self);
    PyObject_GC_Del(self);
}

/* ------------------------------------------------------------------ stages */

/* OutOfOrderCore._complete_at up to its loop: the clock check, then
 * skip_until and the wake hook. */
static int
complete_begin(Ctx *c, long long cycle)
{
    StatsBase *stats = stats_of(c);
    if (stats == NULL) {
        return -1;
    }
    long long clock = stats->cycles;
    if (cycle < clock) {
        /* The rings serve cycles from the current one on. */
        PyErr_Format(PyExc_RuntimeError,
                     "core %S: completion at cycle %lld, before its clock "
                     "%lld", c->v->core_id, cycle, clock);
        return -1;
    }
    if (PyDict_SetItem(c->dict, str_skip_until, small_zero) < 0) {
        return -1;
    }
    PyObject *hook = dict_attr(c->dict, str_wake_hook);
    if (hook == NULL) {
        return -1;
    }
    if (hook != Py_None) {
        Py_INCREF(hook);
        PyObject *result = PyObject_CallOneArg(hook, (PyObject *)c->core);
        Py_DECREF(hook);
        if (result == NULL) {
            return -1;
        }
        Py_DECREF(result);
    }
    return 0;
}

/* One pass of OutOfOrderCore._complete_at's loop: the trace index ``i``. */
static int
complete_one(Ctx *c, long long i, long long cycle)
{
    View *v = c->v;
    long long cap = v->cap;
    Py_ssize_t pos = (Py_ssize_t)(i % cap);
    list_put(v->done, pos, Py_True);
    if (i == c->core->fetch_blocker) {
        c->core->fetch_blocker = -1;
        c->core->fetch_resume = cycle + v->misp_penalty;
    }
    PyObject *deps = PyList_GET_ITEM(v->waiters, pos);
    if (deps == Py_None) {
        return 0;
    }
    if (!PyList_Check(deps)) {
        PyErr_SetString(PyExc_TypeError, "_waiters must hold lists");
        return -1;
    }
    Py_INCREF(deps);
    list_put(v->waiters, pos, Py_None);
    int failed = 0;
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(deps) && !failed; k++) {
        long long d, left;
        if (trace_index(v, PyList_GET_ITEM(deps, k), &d) < 0) {
            failed = 1;
            break;
        }
        Py_ssize_t dpos = (Py_ssize_t)(d % cap);
        failed = list_ll(v->pending, dpos, &left) < 0
            || list_put_ll(v->pending, dpos, left - 1) < 0
            /* Last operand arrived: book a unit from this cycle on (the
             * waiter dispatched before it), schedule the result. */
            || (left == 1 && book_and_schedule(c, d, cycle, cycle) < 0);
    }
    Py_DECREF(deps);
    return failed ? -1 : 0;
}

/* OutOfOrderCore._do_commit: the number of entries retired, or -1. */
static long long
commit(Ctx *c, PyObject *now_obj, long long now)
{
    View *v = c->v;
    CoreBase *core = c->core;
    long long rob_len = core->rob_len;
    if (!rob_len) {
        return 0;
    }
    StatsBase *stats = stats_of(c);
    PyObject *provider = stats ? dict_attr(c->dict, str_provider) : NULL;
    if (provider == NULL) {
        return -1;
    }
    Py_INCREF((PyObject *)stats);
    Py_INCREF(provider);
    PyObject *pc = NULL, *a = NULL, *b = NULL, *handle = NULL;
    long long cap = v->cap;
    long long head = core->ptr - rob_len, first = head;
    long long stop = head + (rob_len < v->commit_width ? rob_len
                                                        : v->commit_width);
    while (head < stop) {
        Py_ssize_t pos = (Py_ssize_t)(head % cap);
        int done = PyObject_IsTrue(PyList_GET_ITEM(v->done, pos));
        if (done < 0) {
            goto error;
        }
        if (!done) {
            break;
        }
        int itype = v->itypes[head];
        if (itype == LOAD) {
            long long start;
            if ((pc = PyLong_FromUnsignedLong(v->pcs[head])) == NULL
                || list_ll(v->bstart, pos, &start) < 0) {
                goto error;
            }
            if (start >= 0) {
                long long stall = now - start;
                stats->total_block_stall += stall;
                if ((b = PyLong_FromLongLong(stall)) == NULL) {
                    goto error;
                }
                PyObject *tracer = dict_attr(c->dict, str_tracer);
                if (tracer == NULL) {
                    goto error;
                }
                if (tracer != Py_None) {
                    if ((a = PyLong_FromLongLong(start)) == NULL) {
                        goto error;
                    }
                    Py_INCREF(tracer);
                    PyObject *args[] = {tracer, a, v->core_id, pc, b};
                    int failed = call_out_discard(str_block_episode, args,
                                                  5);
                    Py_DECREF(tracer);
                    Py_CLEAR(a);
                    if (failed) {
                        goto error;
                    }
                }
                PyObject *args[] = {provider, pc, b, now_obj};
                if (call_out_discard(str_on_blocked_commit, args, 4) < 0) {
                    goto error;
                }
                Py_CLEAR(b);
                list_put(v->bstart, pos, small_minus_one);
            }
            a = PyList_GET_ITEM(v->consumers, pos);
            Py_INCREF(a);
            PyObject *args[] = {provider, pc, a};
            if (call_out_discard(str_on_load_consumers, args, 3) < 0) {
                goto error;
            }
            Py_CLEAR(a);
            Py_CLEAR(pc);
            list_put(v->consumers, pos, small_zero);
            list_put(v->handle, pos, Py_None);
            core->lq_used -= 1;
        }
        else if (itype == STORE) {
            PyObject *hierarchy = dict_attr(c->dict, str_hierarchy);
            if (hierarchy == NULL) {
                goto error;
            }
            Py_INCREF(hierarchy);
            PyObject *args[] = {hierarchy, v->core_id};
            PyObject *result = call_out(str_can_accept_store, args, 2);
            int accepts = result ? PyObject_IsTrue(result) : -1;
            Py_XDECREF(result);
            if (accepts <= 0) {
                Py_DECREF(hierarchy);
                if (accepts < 0) {
                    goto error;
                }
                /* Store buffer full: commit stalls until it drains. */
                stats->sq_full_cycles += 1;
                break;
            }
            core->sq_used -= 1;
            a = PyLong_FromUnsignedLongLong(v->addrs[head]);
            PyObject *store_args[] = {hierarchy, v->core_id, a, now_obj};
            int failed = a == NULL
                || call_out_discard(str_store, store_args, 4) < 0;
            Py_DECREF(hierarchy);
            Py_CLEAR(a);
            if (failed) {
                goto error;
            }
        }
        head += 1;
    }
    long long committed = head - first;
    if (committed) {
        core->rob_len = rob_len - committed;
        stats->committed += committed;
    }
    if (head < stop && v->itypes[head] == LOAD) {
        /* An incomplete load blocks the head; only DRAM-bound loads count
         * as ROB-head blockers (see the Python body). */
        Py_ssize_t pos = (Py_ssize_t)(head % cap);
        handle = PyList_GET_ITEM(v->handle, pos);
        Py_INCREF(handle);
        int dram_bound = 0;
        if (handle != Py_None) {
            PyObject *went = PyObject_GetAttr(handle, str_went_to_dram);
            dram_bound = went ? PyObject_IsTrue(went) : -1;
            Py_XDECREF(went);
            if (dram_bound < 0) {
                goto error;
            }
        }
        long long start = 0;
        if (dram_bound) {
            if (list_ll(v->bstart, pos, &start) < 0) {
                goto error;
            }
        }
        if (dram_bound && start < 0) {
            if (list_put_ll(v->bstart, pos, now) < 0) {
                goto error;
            }
            stats->blocking_loads += 1;
            stats->blocking_dram_loads += 1;
            if ((pc = PyLong_FromUnsignedLong(v->pcs[head])) == NULL
                || (a = PyObject_GetAttr(handle, str_txn)) == NULL) {
                goto error;
            }
            PyObject *args[] = {provider, pc, now_obj, a};
            if (call_out_discard(str_on_block_start, args, 4) < 0) {
                goto error;
            }
            Py_CLEAR(a);
            Py_CLEAR(pc);
        }
        Py_CLEAR(handle);
        stats->blocked_cycles += 1;
        if (dram_bound) {
            stats->blocked_dram_cycles += 1;
        }
    }
    Py_DECREF(provider);
    Py_DECREF((PyObject *)stats);
    return committed;

error:
    Py_XDECREF(pc);
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(handle);
    Py_DECREF(provider);
    Py_DECREF((PyObject *)stats);
    return -1;
}

/* The dependency on producer ``p`` of the entry ``item`` being dispatched
 * (see the Python body); adds one to ``*pending`` if ``p`` is in flight. */
static int
resolve_operand(View *v, long long p, long long ptr, long long first,
                PyObject *item, int *pending)
{
    if (!(p < ptr && p >= first)) {
        return 0;
    }
    Py_ssize_t ppos = (Py_ssize_t)(p % v->cap);
    if (v->itypes[p] == LOAD) {
        /* Direct-consumer count, as CLPT tracks at rename. */
        long long consumers;
        if (list_ll(v->consumers, ppos, &consumers) < 0
            || list_put_ll(v->consumers, ppos, consumers + 1) < 0) {
            return -1;
        }
    }
    int done = PyObject_IsTrue(PyList_GET_ITEM(v->done, ppos));
    if (done < 0) {
        return -1;
    }
    if (done) {
        return 0;
    }
    PyObject *deps = PyList_GET_ITEM(v->waiters, ppos);
    if (deps == Py_None) {
        deps = PyList_New(1);
        if (deps == NULL) {
            return -1;
        }
        Py_INCREF(item);
        PyList_SET_ITEM(deps, 0, item);
        PyObject *old = PyList_GET_ITEM(v->waiters, ppos);
        PyList_SET_ITEM(v->waiters, ppos, deps);
        Py_DECREF(old);
    }
    else if (!PyList_Check(deps) || PyList_Append(deps, item) < 0) {
        if (!PyErr_Occurred()) {
            PyErr_SetString(PyExc_TypeError, "_waiters must hold lists");
        }
        return -1;
    }
    *pending += 1;
    return 0;
}

/* OutOfOrderCore._do_dispatch: the number dispatched, or -1. */
static long long
dispatch(Ctx *c, long long now)
{
    View *v = c->v;
    CoreBase *core = c->core;
    StatsBase *stats;
    if (core->fetch_blocker >= 0 || now < core->fetch_resume) {
        if ((stats = stats_of(c)) == NULL) {
            return -1;
        }
        stats->dispatch_stall_cycles += 1;
        return 0;
    }
    long long ptr = core->ptr, start = ptr;
    long long stop = ptr + v->fetch_width;
    if (stop > v->n) {
        stop = v->n;
    }
    if (ptr >= stop) {
        return 0;  /* trace exhausted */
    }
    long long cap = v->cap;
    /* Constant across the loop: dispatch grows ptr and rob_len together. */
    long long first = ptr - core->rob_len;
    while (ptr < stop) {
        if (ptr - first >= cap) {
            if ((stats = stats_of(c)) == NULL) {
                return -1;
            }
            stats->rob_full_cycles += 1;
            break;
        }
        int cls = v->dclass[ptr];
        if (cls == DC_LOAD) {
            if (core->lq_used >= v->lq_entries) {
                if ((stats = stats_of(c)) == NULL) {
                    return -1;
                }
                stats->lq_full_cycles += 1;
                break;
            }
            core->lq_used += 1;
        }
        else if (cls == DC_STORE) {
            if (core->sq_used >= v->sq_entries) {
                break;
            }
            core->sq_used += 1;
        }
        PyObject *item = PyLong_FromLongLong(ptr);
        if (item == NULL) {
            return -1;
        }
        /* Producer p is in flight iff p >= first, and then sits at ring
         * position p % cap; a retired producer is long complete. */
        int pending = 0;
        if (resolve_operand(v, ptr - v->dep1[ptr], ptr, first, item,
                            &pending) < 0
            || resolve_operand(v, ptr - v->dep2[ptr], ptr, first, item,
                               &pending) < 0) {
            Py_DECREF(item);
            return -1;
        }
        Py_ssize_t pos = (Py_ssize_t)(ptr % cap);
        list_put(v->done, pos, Py_False);
        int failed;
        if (pending) {
            failed = list_put_ll(v->pending, pos, pending);
        }
        else {
            /* Operands ready: book a unit, schedule the result. */
            failed = book_and_schedule(c, ptr, now + 1, now);
        }
        Py_DECREF(item);
        if (failed) {
            return -1;
        }
        ptr += 1;
        if (cls == DC_MISP_BRANCH) {
            /* Fetch stalls until the branch resolves, plus the refill
             * penalty (applied when the branch completes). */
            core->fetch_blocker = ptr - 1;
            break;
        }
    }
    core->ptr = ptr;
    core->rob_len = ptr - first;
    return ptr - start;
}

/* What OutOfOrderCore._do_load_issues binds before its loop. */
typedef struct {
    PyObject *hierarchy, *provider, *tracer;
    StatsBase *stats;
} Issue;

static void
issue_close(Issue *s)
{
    Py_XDECREF(s->hierarchy);
    Py_XDECREF(s->provider);
    Py_XDECREF((PyObject *)s->stats);
    Py_XDECREF(s->tracer);
}

static int
issue_open(Ctx *c, Issue *s)
{
    PyObject *names[] = {str_hierarchy, str_provider, str_stats, str_tracer};
    PyObject **slots[] = {&s->hierarchy, &s->provider,
                          (PyObject **)&s->stats, &s->tracer};
    s->hierarchy = s->provider = s->tracer = NULL;
    s->stats = NULL;
    for (int k = 0; k < 4; k++) {
        PyObject *value = names[k] == str_stats
            ? (PyObject *)stats_of(c) : dict_attr(c->dict, names[k]);
        if (value == NULL) {
            issue_close(s);
            return -1;
        }
        Py_INCREF(value);
        *slots[k] = value;
    }
    return 0;
}

/* ``a, b = value``: new references. */
static int
unpack2(PyObject *value, PyObject **a, PyObject **b)
{
    PyObject *items = PySequence_Tuple(value);
    if (items == NULL) {
        return -1;
    }
    if (PyTuple_GET_SIZE(items) != 2) {
        PyErr_Format(PyExc_ValueError,
                     PyTuple_GET_SIZE(items) > 2
                         ? "too many values to unpack (expected 2)"
                         : "not enough values to unpack (expected 2, got %zd)",
                     PyTuple_GET_SIZE(items));
        Py_DECREF(items);
        return -1;
    }
    *a = PyTuple_GET_ITEM(items, 0);
    *b = PyTuple_GET_ITEM(items, 1);
    Py_INCREF(*a);
    Py_INCREF(*b);
    Py_DECREF(items);
    return 0;
}

/* One pass of OutOfOrderCore._do_load_issues' loop: the load ``i``. */
static int
issue_load(Ctx *c, Issue *s, long long i, PyObject *now_obj, long long now)
{
    View *v = c->v;
    PyObject *pc = NULL, *result = NULL, *critical = NULL, *magnitude = NULL;
    PyObject *addr = NULL, *callback = NULL, *handle = NULL;
    int failed = 1;
    if ((pc = PyLong_FromUnsignedLong(v->pcs[i])) == NULL) {
        goto done;
    }
    PyObject *annotate_args[] = {s->provider, pc};
    if ((result = call_out(str_annotate, annotate_args, 2)) == NULL
        || unpack2(result, &critical, &magnitude) < 0
        || (addr = PyLong_FromUnsignedLongLong(v->addrs[i])) == NULL
        || (callback = completion_new((PyObject *)c->core, i)) == NULL) {
        goto done;
    }
    PyObject *load_args[] = {s->hierarchy, v->core_id, pc, addr, critical,
                             magnitude, callback, now_obj};
    if ((handle = call_out(str_load, load_args, 8)) == NULL) {
        goto done;
    }
    if (handle == Py_None) {
        /* L1 MSHRs full: replay next cycle through a fresh port slot. */
        failed = book_and_schedule(c, i, now + 1, now) < 0;
        goto done;
    }
    list_put(v->handle, (Py_ssize_t)(i % v->cap), handle);
    int truth = PyObject_IsTrue(critical);
    if (truth < 0) {
        goto done;
    }
    if (truth) {
        s->stats->critical_loads_sent += 1;
        if (s->tracer != Py_None) {
            PyObject *args[] = {s->tracer, now_obj, v->core_id, pc,
                                magnitude};
            if (call_out_discard(str_prediction, args, 5) < 0) {
                goto done;
            }
        }
    }
    s->stats->loads += 1;
    failed = 0;

done:
    Py_XDECREF(pc);
    Py_XDECREF(result);
    Py_XDECREF(critical);
    Py_XDECREF(magnitude);
    Py_XDECREF(addr);
    Py_XDECREF(callback);
    Py_XDECREF(handle);
    return failed ? -1 : 0;
}

/* OutOfOrderCore._tick: provider.tick(now), then the cycle the next tick
 * is due, from _next_tick (the provider's next_tick_cycle) if it has one. */
static int
tick(Ctx *c, PyObject *now_obj)
{
    PyObject *provider = dict_attr(c->dict, str_provider);
    if (provider == NULL) {
        return -1;
    }
    Py_INCREF(provider);
    PyObject *tick_args[] = {provider, now_obj};
    int failed = call_out_discard(str_tick, tick_args, 2);
    Py_DECREF(provider);
    if (failed) {
        return -1;
    }
    PyObject *next_tick = dict_attr(c->dict, str_next_tick);
    if (next_tick == NULL) {
        return -1;
    }
    if (next_tick == Py_None) {
        return 0;
    }
    Py_INCREF(next_tick);
    PyObject *due = PyObject_CallOneArg(next_tick, now_obj);
    Py_DECREF(next_tick);
    if (due == NULL) {
        return -1;
    }
    long long at = FAR;
    failed = due != Py_None && as_ll(due, &at) < 0;
    Py_DECREF(due);
    if (failed) {
        return -1;
    }
    c->core->tick_at = at;
    return 0;
}

/* OutOfOrderCore.step */
static int
step(Ctx *c, PyObject *now_obj, long long now)
{
    View *v = c->v;
    long long next_local = c->core->next_local;
    if (next_local <= now) {
        if (next_local < now) {
            PyErr_Format(PyExc_RuntimeError,
                         "core %S: cycle %lld was scheduled but not stepped",
                         v->core_id, next_local);
            return -1;
        }
        /* Completions first: they may add loads to this cycle's issues. */
        long long slot = now & v->mask, i, next;
        if (v->ring[R_WAKE_HEAD][slot] >= 0) {
            if (take_bucket(c, v->ring[R_WAKE_HEAD], now, &i) < 0
                || complete_begin(c, now) < 0) {
                return -1;
            }
            for (; i >= 0; i = next) {
                if (bucket_next(v, i, &next) < 0
                    || complete_one(c, i, now) < 0) {
                    return -1;
                }
            }
        }
        if (v->ring[R_ISSUE_HEAD][slot] >= 0) {
            Issue s;
            if (take_bucket(c, v->ring[R_ISSUE_HEAD], now, &i) < 0
                || issue_open(c, &s) < 0) {
                return -1;
            }
            int failed = 0;
            for (; i >= 0 && !failed; i = next) {
                failed = bucket_next(v, i, &next) < 0
                    || issue_load(c, &s, i, now_obj, now) < 0;
            }
            issue_close(&s);
            if (failed) {
                return -1;
            }
        }
    }
    if (commit(c, now_obj, now) < 0 || dispatch(c, now) < 0
        || (now >= c->core->tick_at && tick(c, now_obj) < 0)) {
        return -1;
    }
    StatsBase *stats = stats_of(c);
    if (stats == NULL) {
        return -1;
    }
    stats->cycles = now + 1;
    if (c->core->ptr >= v->n && !c->core->rob_len) {
        return PyDict_SetItem(c->dict, str_done, Py_True);
    }
    return 0;
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

/* Open a call on ``core``, its scalars checked. */
static int
enter(Ctx *c, PyObject *core)
{
    if (ctx_open(c, core) < 0) {
        return -1;
    }
    if (check_scalars(c) < 0) {
        ctx_close(c);
        return -1;
    }
    return 0;
}

/* Close; ``result`` on success, else NULL. */
static PyObject *
leave(Ctx *c, PyObject *result)
{
    ctx_close(c);
    return result;
}

static PyObject *
none_unless(int failed)
{
    if (failed) {
        return NULL;
    }
    Py_INCREF(Py_None);
    return Py_None;
}

static PyObject *
k_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    Ctx c;
    if (check_args("step", nargs, 2) < 0 || as_ll(args[1], &now) < 0
        || ctx_open(&c, args[0]) < 0) {
        return NULL;
    }
    PyObject *done = dict_attr(c.dict, str_done);
    int truth = done ? PyObject_IsTrue(done) : -1;
    if (truth) {
        ctx_close(&c);
        if (truth < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    if (check_scalars(&c) < 0) {
        ctx_close(&c);
        return NULL;
    }
    return leave(&c, none_unless(step(&c, args[1], now) < 0));
}

/* The next trace index of the iterator ``iter`` into ``*i``: 1, or 0 at
 * its end, or -1. */
static int
next_index(View *v, PyObject *iter, long long *i)
{
    PyObject *item = PyIter_Next(iter);
    if (item == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    int failed = trace_index(v, item, i) < 0;
    Py_DECREF(item);
    return failed ? -1 : 1;
}

static PyObject *
k_complete_at(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long cycle, i;
    Ctx c;
    if (check_args("complete_at", nargs, 3) < 0 || as_ll(args[2], &cycle) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    PyObject *iter = complete_begin(&c, cycle) < 0 ? NULL
                                                   : PyObject_GetIter(args[1]);
    int more = iter == NULL ? -1 : 1;
    while (more > 0 && (more = next_index(c.v, iter, &i)) > 0) {
        more = complete_one(&c, i, cycle) < 0 ? -1 : 1;
    }
    Py_XDECREF(iter);
    return leave(&c, none_unless(more < 0));
}

static PyObject *
k_load_issues(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now, i;
    Issue s;
    Ctx c;
    if (check_args("load_issues", nargs, 3) < 0 || as_ll(args[2], &now) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    if (issue_open(&c, &s) < 0) {
        return leave(&c, NULL);
    }
    PyObject *iter = PyObject_GetIter(args[1]);
    int more = iter == NULL ? -1 : 1;
    while (more > 0 && (more = next_index(c.v, iter, &i)) > 0) {
        more = issue_load(&c, &s, i, args[2], now) < 0 ? -1 : 1;
    }
    Py_XDECREF(iter);
    issue_close(&s);
    return leave(&c, none_unless(more < 0));
}

static PyObject *
k_book_and_schedule(PyObject *module, PyObject *const *args,
                    Py_ssize_t nargs)
{
    long long i, earliest, now;
    Ctx c;
    if (check_args("book_and_schedule", nargs, 4) < 0
        || as_ll(args[2], &earliest) < 0 || as_ll(args[3], &now) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    return leave(&c, none_unless(
        trace_index(c.v, args[1], &i) < 0
        || book_and_schedule(&c, i, earliest, now) < 0));
}

static PyObject *
k_take_bucket(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now, i, next;
    Ctx c;
    if (check_args("take_bucket", nargs, 3) < 0 || as_ll(args[2], &now) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    PyObject *wake = dict_attr(c.dict, str_wake_head);
    PyObject *issue = wake ? dict_attr(c.dict, str_issue_head) : NULL;
    if (issue == NULL) {
        return leave(&c, NULL);
    }
    if (args[1] != wake && args[1] != issue) {
        PyErr_SetString(PyExc_TypeError,
                        "take_bucket() takes the core's _wake_head or "
                        "_issue_head");
        return leave(&c, NULL);
    }
    long long *head = c.v->ring[args[1] == wake ? R_WAKE_HEAD : R_ISSUE_HEAD];
    PyObject *bucket = PyList_New(0);
    if (bucket == NULL || take_bucket(&c, head, now, &i) < 0) {
        Py_XDECREF(bucket);
        return leave(&c, NULL);
    }
    for (; i >= 0; i = next) {
        PyObject *item = PyLong_FromLongLong(i);
        int failed = item == NULL || PyList_Append(bucket, item) < 0
            || bucket_next(c.v, i, &next) < 0;
        Py_XDECREF(item);
        if (failed) {
            Py_DECREF(bucket);
            return leave(&c, NULL);
        }
    }
    return leave(&c, bucket);
}

static PyObject *
k_commit(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    Ctx c;
    if (check_args("commit", nargs, 2) < 0 || as_ll(args[1], &now) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    long long committed = commit(&c, args[1], now);
    return leave(&c, committed < 0 ? NULL : PyLong_FromLongLong(committed));
}

static PyObject *
k_dispatch(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now;
    Ctx c;
    if (check_args("dispatch", nargs, 2) < 0 || as_ll(args[1], &now) < 0
        || enter(&c, args[0]) < 0) {
        return NULL;
    }
    long long dispatched = dispatch(&c, now);
    return leave(&c, dispatched < 0 ? NULL : PyLong_FromLongLong(dispatched));
}

/* Completion.__call__(cycle) */
static PyObject *
completion_call(PyObject *callable, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    Completion *self = (Completion *)callable;
    long long cycle;
    Ctx c;
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames)) {
        PyErr_SetString(PyExc_TypeError,
                        "a completion takes no keyword arguments");
        return NULL;
    }
    if (check_args("completion", PyVectorcall_NARGS(nargsf), 1) < 0
        || as_ll(args[0], &cycle) < 0) {
        return NULL;
    }
    PyObject *core = self->core;
    if (core == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the completion is cleared");
        return NULL;
    }
    Py_INCREF(core);
    PyObject *result = NULL;
    if (enter(&c, core) == 0) {
        result = leave(&c, none_unless(
            complete_begin(&c, cycle) < 0
            || complete_one(&c, self->index, cycle) < 0));
    }
    Py_DECREF(core);
    return result;
}

static PyTypeObject CompletionType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.cpu._kernel.Completion",
    .tp_basicsize = sizeof(Completion),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "A load's completion callback: call it with the cycle its "
              "data returns.",
    .tp_vectorcall_offset = offsetof(Completion, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_traverse = (traverseproc)completion_traverse,
    .tp_clear = (inquiry)completion_clear,
    .tp_dealloc = (destructor)completion_dealloc,
};

#define METHOD(name, doc) \
    {#name, (PyCFunction)(void (*)(void))k_##name, METH_FASTCALL, doc}

static PyMethodDef kernel_methods[] = {
    METHOD(step, "step(core, now): OutOfOrderCore.step"),
    METHOD(complete_at, "complete_at(core, finished, cycle): "
                        "OutOfOrderCore._complete_at"),
    METHOD(load_issues, "load_issues(core, issues, now): "
                        "OutOfOrderCore._do_load_issues"),
    METHOD(commit, "commit(core, now): OutOfOrderCore._do_commit"),
    METHOD(dispatch, "dispatch(core, now): OutOfOrderCore._do_dispatch"),
    METHOD(book_and_schedule, "book_and_schedule(core, i, earliest, now): "
                              "OutOfOrderCore._book_and_schedule"),
    METHOD(take_bucket, "take_bucket(core, head, now): "
                        "OutOfOrderCore._take_bucket"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled per-cycle stages of repro.cpu.core.OutOfOrderCore.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
#define INTERN_NAME(id, text)                                      \
    if ((str_##id = PyUnicode_InternFromString(text)) == NULL) { \
        return NULL;                                               \
    }
    NAMES(INTERN_NAME)
    if ((small_zero = PyLong_FromLong(0)) == NULL
        || (small_minus_one = PyLong_FromLong(-1)) == NULL
        || PyType_Ready(&ViewType) < 0
        || PyType_Ready(&CompletionType) < 0
        || PyType_Ready(&CoreBaseType) < 0
        || PyType_Ready(&StatsBaseType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&CoreBaseType);
    Py_INCREF(&StatsBaseType);
    if (PyModule_AddObject(module, "CoreBase", (PyObject *)&CoreBaseType) < 0
        || PyModule_AddObject(module, "StatsBase",
                              (PyObject *)&StatsBaseType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
