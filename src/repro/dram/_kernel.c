/* Compiled per-edge path of the DRAM controller (repro.dram.controller).
 *
 * ChannelController.step, next_wake_window and account_window, and
 * MemorySystem.step and step_window, each open with one guard that hands
 * the call to the function here (step, next_wake_window, account_window,
 * memory_step and step_window); the Python body after the guard is the
 * reference this file transliterates, statement for statement.  Inside
 * the kernel, step runs the refresh service (_service_refresh), the
 * write-drain hysteresis (_drain_writes_now), candidate building
 * (_build_candidates) and command execution (_execute) as C, with C
 * copies of the bank, channel-timing and histogram operations they use
 * (Bank.do_activate, do_read, do_write, do_precharge and block_until;
 * ChannelTiming.can_activate, cas_issue_ok, did_activate and did_cas;
 * LatencyHistogram.record).  Those Python methods stay the reference and
 * serve every Python caller.
 *
 * The kernel keeps no state of its own: it works on the models' objects,
 * so det_state, the schedulers, the sanitizer and both engines see the
 * same state whichever path ran.
 *
 * - Containers.  Each controller's queues, banks (flattened, rank by
 *   rank), refresh lists, ChannelTiming's per-rank lists and deques and
 *   its stats are bound once in a GC-tracked View, kept in the
 *   controller's attribute _kernel_view; the timing constants, the
 *   channel id, the clock ratio and the drain watermarks are read once
 *   there too.  The controller binds each of them once in __init__ and
 *   only mutates them in place.  At bind, every Bank's and the
 *   ChannelTiming's _t must be the controller's timings.  The View holds
 *   no reference to the controller.
 * - Fields.  Bank, Transaction, ChannelTiming, ChannelStats,
 *   CandidateCommand and LatencyHistogram fields are read and written at
 *   their __slots__ offsets (their member descriptors), after a check
 *   that the object is exactly of that class: any other class raises
 *   TypeError, and so does a controller that is not exactly a
 *   ChannelController.  A DramLocation's coordinates are read as
 *   attributes.  Candidates are built straight into their slots, as
 *   CandidateCommand.__init__ sets them.
 * - Calls out.  The scheduler's select, note_decision (when its
 *   _m_decisions is set) and on_command; each transaction's callback;
 *   the sanitizer's hooks and trace.command when attached; next_wake on
 *   next_wake_window's fallback; and, from MemorySystem, each channel's
 *   account_window and next_wake_window stay Python calls, looked up by
 *   name on every call, in the bodies' order and with their arguments.
 *   Exceptions they raise propagate unchanged.  MemorySystem steps a
 *   channel here, without the ChannelController.step frame, while
 *   ``channel.step`` resolves to the class's own function
 *   (controller._CHANNEL_STEP, bound with the models): neither the class
 *   nor the channel replaces it.  Otherwise it calls step by name too.
 * - Range.  Cycles are C long long within +-2**62 (OverflowError
 *   beyond), and counters must stay below 2**63.  Bank coordinates
 *   outside the controller's geometry raise IndexError, where the Python
 *   bodies would wrap a negative one.  cpu_now % ratio and // keep
 *   Python's floor semantics.
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
#include <string.h>

#ifndef Py_T_OBJECT_EX
#define Py_T_OBJECT_EX T_OBJECT_EX
#endif
/* Cycles are kept within +-CYCLE_LIMIT, so a cycle plus or minus another
 * and a timing constant (below 2**31) stays inside a long long. */
#define CYCLE_LIMIT (1LL << 62)
#define TIMING_LIMIT (1LL << 31)

/* ------------------------------------------------------------------ names */

/* Interned attribute, method and string names, as NAME(identifier, text). */
#define NAMES(NAME)                                                         \
    NAME(kernel_view, "_kernel_view") NAME(read_queue, "read_queue")       \
    NAME(write_queue, "write_queue") NAME(banks, "banks")                  \
    NAME(timing, "timing") NAME(timings, "timings") NAME(stats, "stats")   \
    NAME(config, "config") NAME(next_refresh, "_next_refresh")             \
    NAME(refresh_due, "_refresh_due") NAME(scheduler, "scheduler")         \
    NAME(sanitizer, "sanitizer") NAME(trace, "trace")                      \
    NAME(draining, "_draining") NAME(channel_id, "channel_id")             \
    NAME(cpu_ratio, "_cpu_ratio") NAME(drain_high, "_drain_high")          \
    NAME(drain_low, "_drain_low") NAME(unified_queue, "unified_queue")     \
    NAME(select, "select")                                                 \
    NAME(note_decision, "note_decision") NAME(on_command, "on_command")    \
    NAME(m_decisions, "_m_decisions") NAME(on_activate, "on_activate")     \
    NAME(on_precharge, "on_precharge") NAME(on_cas, "on_cas")              \
    NAME(on_refresh, "on_refresh") NAME(command, "command")                \
    NAME(append, "append") NAME(rank, "rank") NAME(bank, "bank")           \
    NAME(row, "row") NAME(next_wake, "next_wake")                          \
    NAME(next_wake_window, "next_wake_window")                             \
    NAME(account_window, "account_window") NAME(step, "step")              \
    NAME(ratio, "_ratio") NAME(channels, "channels")                       \
    NAME(chan_wake, "_chan_wake") NAME(chan_settled, "_chan_settled")      \
    NAME(PRE, "PRE") NAME(REF, "REF") NAME(ACT, "ACT") NAME(READ, "READ")  \
    NAME(WRITE, "WRITE")

#define DECLARE_NAME(id, text) static PyObject *str_##id;
NAMES(DECLARE_NAME)

/* The DramTimings constants the bodies read, in View order. */
static const char *const timing_names[] = {
    "tRCD", "tCL", "tWL", "tCCD", "tWTR", "tWR", "tRTP", "tRP", "tRRD",
    "tRTRS", "tRAS", "tRC", "tRFC", "burst_cycles", "refresh_interval_cycles",
};
enum {
    K_RCD, K_CL, K_WL, K_CCD, K_WTR, K_WR, K_RTP, K_RP, K_RRD, K_RTRS, K_RAS,
    K_RC, K_RFC, K_BURST, K_REFI, N_K
};

/* ----------------------------------------------------------------- models */

#define MAX_SLOTS 16

/* A slotted model class: the slots the kernel reaches and their offsets. */
typedef struct {
    const char *module, *name;
    const char *const *slots;
    int n;
    PyTypeObject *type;
    Py_ssize_t off[MAX_SLOTS];
} Model;

enum { B_RANK, B_INDEX, B_OPEN_ROW, B_ACT_READY, B_CAS_READY, B_PRE_READY,
       B_T, B_OPENED_BY, B_LAST_USE, N_B };
static const char *const bank_slots[N_B] = {
    "rank", "index", "open_row", "act_ready", "cas_ready", "pre_ready", "_t",
    "opened_by", "last_use",
};
enum { X_ADDRESS, X_LOC, X_IS_WRITE, X_CORE, X_CRITICAL, X_MAGNITUDE,
       X_ARRIVAL, X_SEQ, X_CALLBACK, X_ROW_HIT, X_MARKED, N_X };
static const char *const txn_slots[N_X] = {
    "address", "loc", "is_write", "core", "critical", "magnitude", "arrival",
    "seq", "callback", "row_hit", "marked",
};
enum { CT_T, CT_NEXT_CAS, CT_BUS_FREE, CT_LAST_RANK, CT_ACT_READY, CT_RAW,
       CT_HISTORY, CT_TFAW, N_CT };
static const char *const timing_slots[N_CT] = {
    "_t", "next_cas_allowed", "data_bus_free", "last_data_rank",
    "rank_act_ready", "rank_read_after_write", "rank_act_history", "_tFAW",
};
enum { S_READS, S_WRITES, S_ACTIVATES, S_PRECHARGES, S_REFRESHES,
       S_ROW_HIT_READS, S_BUSY, S_OCCUPANCY, S_SAMPLES, S_CRIT_CYCLES,
       S_MULTI_CYCLES, S_PROMOTIONS, S_CRIT_WAIT, S_NONCRIT_WAIT,
       S_WRITE_WAIT, N_S };
static const char *const stats_slots[N_S] = {
    "reads_done", "writes_done", "activates", "precharges", "refreshes",
    "row_hit_reads", "busy_cycles", "queue_occupancy_sum", "queue_samples",
    "critical_queue_cycles", "multi_critical_queue_cycles",
    "starvation_promotions", "crit_wait", "noncrit_wait", "write_wait_sum",
};
enum { C_KIND, C_TXN, C_RANK, C_BANK, C_ROW, C_IS_CAS, C_BLOCKED,
       C_HIT_CRITICAL, C_ROW_IDLE, N_C };
static const char *const cand_slots[N_C] = {
    "kind", "txn", "rank", "bank", "row", "is_cas", "blocked_by_hits",
    "hit_is_critical", "row_idle",
};
enum { H_COUNTS, H_COUNT, H_TOTAL, H_MAX, H_MIN, N_H };
static const char *const hist_slots[N_H] = {
    "counts", "count", "total", "max", "min",
};

static Model BANK = {"repro.dram.bank", "Bank", bank_slots, N_B};
static Model TXN = {"repro.dram.transaction", "Transaction", txn_slots, N_X};
static Model TIMING = {"repro.dram.channel", "ChannelTiming", timing_slots,
                       N_CT};
static Model STATS = {"repro.dram.controller", "ChannelStats", stats_slots,
                      N_S};
static Model CAND = {"repro.dram.command", "CandidateCommand", cand_slots,
                     N_C};
static Model HIST = {"repro.telemetry.registry", "LatencyHistogram",
                     hist_slots, N_H};
static Model *const models[] = {&BANK, &TXN, &TIMING, &STATS, &CAND, &HIST};

/* Bound with the models: the controller class and its own step function
 * (_CHANNEL_STEP), CommandKind's members, the deque type, the defaults of
 * CandidateCommand.__init__ (blocked_by_hits, hit_is_critical, row_idle)
 * and the bucket count. */
static PyTypeObject *controller_type, *deque_type;
static PyObject *own_step;
enum { KIND_ACT, KIND_PRE, KIND_READ, KIND_WRITE, N_KIND };
static PyObject *kinds[N_KIND];
static PyObject *cand_defaults;
static long long histogram_buckets;

#define FIELD(obj, m, k) (*(PyObject **)((char *)(obj) + (m).off[k]))

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

static int
as_cycle(PyObject *value, long long *out)
{
    if (as_ll(value, out) < 0) {
        return -1;
    }
    if (*out > CYCLE_LIMIT || *out < -CYCLE_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "a DRAM cycle beyond the compiled controller's range");
        return -1;
    }
    return 0;
}

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "a DRAM counter beyond a C long long");
    return -1;
}

/* ``bool(value)``, or -1. */
static inline int
truth(PyObject *value)
{
    if (value == Py_True) {
        return 1;
    }
    if (value == Py_False || value == Py_None) {
        return 0;
    }
    return PyObject_IsTrue(value);
}

/* ``a % b`` and ``a // b`` with Python's floor semantics (b != 0). */
static inline long long
floor_mod(long long a, long long b)
{
    long long m = a % b;
    return (m != 0 && ((m < 0) != (b < 0))) ? m + b : m;
}

static inline long long
floor_div(long long a, long long b)
{
    return (a - floor_mod(a, b)) / b;
}

static int
check(PyObject *obj, const Model *m)
{
    if (Py_IS_TYPE(obj, m->type)) {
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "the compiled controller needs a %s, "
                 "not %.200s", m->name, Py_TYPE(obj)->tp_name);
    return -1;
}

/* Borrowed ``obj.<slot k>`` of an object already checked to be ``m``'s
 * class, or NULL with AttributeError set when the slot is unset. */
static inline PyObject *
get(PyObject *obj, const Model *m, int k)
{
    PyObject *value = FIELD(obj, *m, k);
    if (value == NULL) {
        PyErr_Format(PyExc_AttributeError, "'%s' object has no attribute "
                     "'%s'", m->name, m->slots[k]);
    }
    return value;
}

static inline int
get_ll(PyObject *obj, const Model *m, int k, long long *out)
{
    PyObject *value = get(obj, m, k);
    return value == NULL ? -1 : as_ll(value, out);
}

static inline int
get_cycle(PyObject *obj, const Model *m, int k, long long *out)
{
    PyObject *value = get(obj, m, k);
    return value == NULL ? -1 : as_cycle(value, out);
}

/* ``obj.<slot k> = value``, stealing ``value`` (NULL: an error is set). */
static inline int
put(PyObject *obj, const Model *m, int k, PyObject *value)
{
    if (value == NULL) {
        return -1;
    }
    PyObject **field = &FIELD(obj, *m, k);
    PyObject *old = *field;
    *field = value;
    Py_XDECREF(old);
    return 0;
}

static inline int
put_ref(PyObject *obj, const Model *m, int k, PyObject *value)
{
    Py_INCREF(value);
    return put(obj, m, k, value);
}

static inline int
put_ll(PyObject *obj, const Model *m, int k, long long x)
{
    return put(obj, m, k, PyLong_FromLongLong(x));
}

/* ``obj.<slot k> += delta``. */
static int
add_ll(PyObject *obj, const Model *m, int k, long long delta)
{
    long long x;
    if (get_ll(obj, m, k, &x) < 0) {
        return -1;
    }
    if ((delta > 0 && x > LLONG_MAX - delta)
        || (delta < 0 && x < LLONG_MIN - delta)) {
        return overflow();
    }
    return put_ll(obj, m, k, x + delta);
}

/* ``obj.<slot k> = max(obj.<slot k>, x)``. */
static int
raise_to(PyObject *obj, const Model *m, int k, long long x)
{
    long long current;
    if (get_cycle(obj, m, k, &current) < 0) {
        return -1;
    }
    return x > current ? put_ll(obj, m, k, x) : 0;
}

/* ``list[i]`` as a cycle, and ``list[i] = x``, for a list bound at View
 * creation with its length checked (the controller never resizes it). */
static inline int
item_cycle(PyObject *list, Py_ssize_t i, long long *out)
{
    return as_cycle(PyList_GET_ITEM(list, i), out);
}

static int
set_item(PyObject *list, Py_ssize_t i, PyObject *value)
{
    if (value == NULL) {
        return -1;
    }
    if (i >= PyList_GET_SIZE(list)) {
        Py_DECREF(value);
        PyErr_SetString(PyExc_IndexError,
                        "list assignment index out of range");
        return -1;
    }
    return PyList_SetItem(list, i, value);
}

/* ``obj.name(*args)``, the method looked up by name; a new reference. */
static PyObject *
call_method(PyObject *name, PyObject *obj, PyObject *const *args,
            size_t nargs)
{
    PyObject *stack[8];
    stack[0] = obj;
    for (size_t k = 0; k < nargs; k++) {
        stack[k + 1] = args[k];
    }
    return PyObject_VectorcallMethod(name, stack, (nargs + 1)
                                     | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* The same, for a call whose result is discarded: 0 or -1. */
static int
call_void(PyObject *name, PyObject *obj, PyObject *const *args, size_t nargs)
{
    PyObject *result = call_method(name, obj, args, nargs);
    if (result == NULL) {
        return -1;
    }
    Py_DECREF(result);
    return 0;
}

/* A new reference to ``dict[name]``, or NULL with AttributeError set. */
static PyObject *
dict_get(PyObject *dict, PyObject *name)
{
    PyObject *value = PyDict_GetItemWithError(dict, name);
    if (value == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_AttributeError, "no attribute '%U'", name);
        }
        return NULL;
    }
    Py_INCREF(value);
    return value;
}

static int
dict_ll(PyObject *dict, PyObject *name, long long *out)
{
    PyObject *value = dict_get(dict, name);
    if (value == NULL) {
        return -1;
    }
    int failed = as_ll(value, out);
    Py_DECREF(value);
    return failed;
}

static int
attr_ll(PyObject *obj, const char *name, long long *out)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    if (value == NULL) {
        return -1;
    }
    int failed = as_ll(value, out);
    Py_DECREF(value);
    return failed;
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

/* Bind ``m``: its class, which must hold exactly the listed slots, and
 * their offsets. */
static int
bind_model(Model *m)
{
    PyObject *type = module_attr(m->module, m->name);
    if (type == NULL) {
        return -1;
    }
    if (!PyType_Check(type)) {
        PyErr_Format(PyExc_TypeError, "%s is not a class", m->name);
        goto error;
    }
    PyTypeObject *t = (PyTypeObject *)type;
    if (t->tp_basicsize
        != (Py_ssize_t)(sizeof(PyObject) + m->n * sizeof(PyObject *))) {
        PyErr_Format(PyExc_TypeError, "%s holds other fields than the slots "
                     "the kernel reaches", m->name);
        goto error;
    }
    for (int k = 0; k < m->n; k++) {
        PyObject *descr = PyDict_GetItemString(t->tp_dict, m->slots[k]);
        if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a slot", m->name,
                         m->slots[k]);
            goto error;
        }
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type != Py_T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not an object slot",
                         m->name, m->slots[k]);
            goto error;
        }
        m->off[k] = member->offset;
    }
    m->type = t;
    return 0;

error:
    Py_DECREF(type);
    return -1;
}

/* Bind the model classes and constants once per process (the modules are
 * fully imported by the first call). */
static int
bind_models(void)
{
    if (controller_type != NULL) {
        return 0;
    }
    static const char *const kind_names[N_KIND] = {
        "ACTIVATE", "PRECHARGE", "READ", "WRITE",
    };
    for (size_t i = 0; i < sizeof(models) / sizeof(models[0]); i++) {
        if (models[i]->type == NULL && bind_model(models[i]) < 0) {
            return -1;
        }
    }
    PyObject *kind_type = module_attr("repro.dram.command", "CommandKind");
    if (kind_type == NULL) {
        return -1;
    }
    for (int k = 0; k < N_KIND; k++) {
        if (kinds[k] == NULL) {
            kinds[k] = PyObject_GetAttrString(kind_type, kind_names[k]);
            long long value;
            if (kinds[k] == NULL || as_ll(kinds[k], &value) < 0
                || value != k) {
                if (kinds[k] != NULL && !PyErr_Occurred()) {
                    PyErr_Format(PyExc_ValueError, "CommandKind.%s is not "
                                 "%d", kind_names[k], k);
                }
                Py_CLEAR(kinds[k]);
                Py_DECREF(kind_type);
                return -1;
            }
        }
    }
    Py_DECREF(kind_type);
    PyObject *buckets = module_attr("repro.telemetry.registry",
                                    "HISTOGRAM_BUCKETS");
    if (buckets == NULL) {
        return -1;
    }
    int failed = as_ll(buckets, &histogram_buckets);
    Py_DECREF(buckets);
    if (failed) {
        return -1;
    }
    if (histogram_buckets < 1 || histogram_buckets > 64) {
        PyErr_SetString(PyExc_ValueError, "HISTOGRAM_BUCKETS out of range");
        return -1;
    }
    if (deque_type == NULL) {
        PyObject *deque = module_attr("collections", "deque");
        if (deque == NULL) {
            return -1;
        }
        deque_type = (PyTypeObject *)deque;
    }
    if (cand_defaults == NULL) {
        PyObject *init = PyObject_GetAttrString((PyObject *)CAND.type,
                                                "__init__");
        cand_defaults = init ? PyObject_GetAttrString(init, "__defaults__")
                             : NULL;
        Py_XDECREF(init);
        if (cand_defaults == NULL) {
            return -1;
        }
        if (!PyTuple_CheckExact(cand_defaults)
            || PyTuple_GET_SIZE(cand_defaults) != 3) {
            Py_CLEAR(cand_defaults);
            PyErr_SetString(PyExc_TypeError, "CandidateCommand.__init__ must "
                            "default blocked_by_hits, hit_is_critical and "
                            "row_idle");
            return -1;
        }
    }
    if (own_step == NULL
        && (own_step = module_attr("repro.dram.controller",
                                   "_CHANNEL_STEP")) == NULL) {
        return -1;
    }
    PyObject *controller = module_attr("repro.dram.controller",
                                       "ChannelController");
    if (controller == NULL) {
        return -1;
    }
    if (!PyType_Check(controller)) {
        Py_DECREF(controller);
        PyErr_SetString(PyExc_TypeError, "ChannelController is not a class");
        return -1;
    }
    controller_type = (PyTypeObject *)controller;
    return 0;
}

/* ------------------------------------------------------------------- View */

/* One queued transaction as _build_candidates reads it, with new
 * references to it and its location's coordinates. */
typedef struct {
    PyObject *txn;
    PyObject *rank, *bank, *row;
    long long r, b, row_v;
    Py_ssize_t flat;  /* r * banks per rank + b */
    int critical, is_write;
} Work;

/* Per-bank marks of one _build_candidates call: the Python body's
 * ``protected``, ``protected_critical`` and ``seen_bank_cmd`` sets. */
enum { PROTECTED = 1, PROTECTED_CRITICAL = 2, SEEN_ACT = 4, SEEN_PRE = 8 };

typedef struct {
    PyObject_HEAD
    Py_ssize_t nranks, nbanks;  /* ranks, banks per rank */
    PyObject **bank;            /* nranks * nbanks Banks, rank by rank */
    PyObject *read_queue, *write_queue, *next_refresh, *refresh_due;
    PyObject *timing, *rank_act_ready, *rank_raw, *history;
    PyObject *stats, *channel_id;
    long long ratio, drain_high, drain_low, tFAW;
    long long t[N_K];
    int unified;
    unsigned char *mark;
    Work *work;
    Py_ssize_t work_cap;
} View;

#define NBANKS(v) ((v)->nranks * (v)->nbanks)

static int
view_traverse(View *self, visitproc visit, void *arg)
{
    if (self->bank != NULL) {
        for (Py_ssize_t i = 0; i < NBANKS(self); i++) {
            Py_VISIT(self->bank[i]);
        }
    }
    Py_VISIT(self->read_queue);
    Py_VISIT(self->write_queue);
    Py_VISIT(self->next_refresh);
    Py_VISIT(self->refresh_due);
    Py_VISIT(self->timing);
    Py_VISIT(self->rank_act_ready);
    Py_VISIT(self->rank_raw);
    Py_VISIT(self->history);
    Py_VISIT(self->stats);
    Py_VISIT(self->channel_id);
    return 0;
}

static int
view_clear(View *self)
{
    PyObject **bank = self->bank;
    Py_ssize_t n = NBANKS(self);
    self->bank = NULL;
    if (bank != NULL) {
        for (Py_ssize_t i = 0; i < n; i++) {
            Py_XDECREF(bank[i]);
        }
        PyMem_Free(bank);
    }
    Py_CLEAR(self->read_queue);
    Py_CLEAR(self->write_queue);
    Py_CLEAR(self->next_refresh);
    Py_CLEAR(self->refresh_due);
    Py_CLEAR(self->timing);
    Py_CLEAR(self->rank_act_ready);
    Py_CLEAR(self->rank_raw);
    Py_CLEAR(self->history);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->channel_id);
    return 0;
}

static void
view_dealloc(View *self)
{
    PyObject_GC_UnTrack(self);
    view_clear(self);
    PyMem_Free(self->mark);
    PyMem_Free(self->work);
    PyObject_GC_Del(self);
}

static PyTypeObject ViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.dram._kernel.View",
    .tp_basicsize = sizeof(View),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One channel controller's banks, queues and timing state, "
              "bound for the kernel.",
    .tp_traverse = (traverseproc)view_traverse,
    .tp_clear = (inquiry)view_clear,
    .tp_dealloc = (destructor)view_dealloc,
};

/* A new reference to the list ``value`` of ``size`` items (any size when
 * ``size`` < 0). */
static PyObject *
bind_list(PyObject *value, const char *name, Py_ssize_t size)
{
    if (value == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(value)
        || (size >= 0 && PyList_GET_SIZE(value) != size)) {
        if (size >= 0) {
            PyErr_Format(PyExc_TypeError, "%s must be a list of %zd items",
                         name, size);
        }
        else {
            PyErr_Format(PyExc_TypeError, "%s must be a list", name);
        }
        return NULL;
    }
    Py_INCREF(value);
    return value;
}

static PyObject *
view_bind(PyObject *dict)
{
    if (bind_models() < 0) {
        return NULL;
    }
    View *self = PyObject_GC_New(View, &ViewType);
    if (self == NULL) {
        return NULL;
    }
    self->nranks = self->nbanks = 0;
    self->bank = NULL;
    self->read_queue = self->write_queue = NULL;
    self->next_refresh = self->refresh_due = NULL;
    self->timing = self->rank_act_ready = self->rank_raw = NULL;
    self->history = self->stats = self->channel_id = NULL;
    self->mark = NULL;
    self->work = NULL;
    self->work_cap = 0;
    PyObject_GC_Track(self);

    PyObject *config = NULL, *timings = NULL, *banks = NULL, *value = NULL;
    long long nranks;
    if ((config = dict_get(dict, str_config)) == NULL
        || (timings = dict_get(dict, str_timings)) == NULL
        || attr_ll(config, "ranks_per_channel", &nranks) < 0
        || (value = PyObject_GetAttr(config, str_unified_queue)) == NULL
        || (self->unified = truth(value)) < 0) {
        goto error;
    }
    Py_CLEAR(value);
    if (nranks < 1) {
        PyErr_SetString(PyExc_ValueError, "a channel needs a rank");
        goto error;
    }
    self->nranks = nranks;
    for (int k = 0; k < N_K; k++) {
        if (attr_ll(timings, timing_names[k], &self->t[k]) < 0) {
            goto error;
        }
        if (self->t[k] < 0 || self->t[k] >= TIMING_LIMIT) {
            PyErr_Format(PyExc_ValueError, "timing %s out of range",
                         timing_names[k]);
            goto error;
        }
    }
    if ((banks = dict_get(dict, str_banks)) == NULL) {
        goto error;
    }
    if (!PyList_CheckExact(banks) || PyList_GET_SIZE(banks) != nranks
        || !PyList_CheckExact(PyList_GET_ITEM(banks, 0))
        || PyList_GET_SIZE(PyList_GET_ITEM(banks, 0)) < 1) {
        PyErr_SetString(PyExc_TypeError, "banks must be a list of one "
                        "non-empty list of banks per rank");
        goto error;
    }
    self->nbanks = PyList_GET_SIZE(PyList_GET_ITEM(banks, 0));
    self->bank = PyMem_Calloc(NBANKS(self), sizeof(PyObject *));
    self->mark = PyMem_Calloc(NBANKS(self), 1);
    if (self->bank == NULL || self->mark == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    for (Py_ssize_t r = 0; r < self->nranks; r++) {
        PyObject *rank = PyList_GET_ITEM(banks, r);
        if (!PyList_CheckExact(rank)
            || PyList_GET_SIZE(rank) != self->nbanks) {
            PyErr_SetString(PyExc_TypeError, "every rank must hold a list "
                            "of the same number of banks");
            goto error;
        }
        for (Py_ssize_t b = 0; b < self->nbanks; b++) {
            PyObject *bank = PyList_GET_ITEM(rank, b);
            if (check(bank, &BANK) < 0) {
                goto error;
            }
            if (FIELD(bank, BANK, B_T) != timings) {
                PyErr_SetString(PyExc_ValueError, "a bank's timings are not "
                                "its controller's");
                goto error;
            }
            Py_INCREF(bank);
            self->bank[r * self->nbanks + b] = bank;
        }
    }
    if ((self->timing = dict_get(dict, str_timing)) == NULL
        || check(self->timing, &TIMING) < 0) {
        goto error;
    }
    if (FIELD(self->timing, TIMING, CT_T) != timings) {
        PyErr_SetString(PyExc_ValueError, "the channel timing's timings are "
                        "not its controller's");
        goto error;
    }
    PyObject *tfaw = get(self->timing, &TIMING, CT_TFAW);
    if (tfaw == NULL || as_ll(tfaw, &self->tFAW) < 0) {
        goto error;
    }
    if (self->tFAW < 0 || self->tFAW >= TIMING_LIMIT) {
        PyErr_SetString(PyExc_ValueError, "tFAW out of range");
        goto error;
    }
    if ((self->rank_act_ready = bind_list(
             get(self->timing, &TIMING, CT_ACT_READY), "rank_act_ready",
             nranks)) == NULL
        || (self->rank_raw = bind_list(
                get(self->timing, &TIMING, CT_RAW), "rank_read_after_write",
                nranks)) == NULL
        || (self->history = bind_list(
                get(self->timing, &TIMING, CT_HISTORY), "rank_act_history",
                nranks)) == NULL) {
        goto error;
    }
    for (Py_ssize_t r = 0; r < nranks; r++) {
        if (!Py_IS_TYPE(PyList_GET_ITEM(self->history, r), deque_type)) {
            PyErr_SetString(PyExc_TypeError,
                            "rank_act_history must hold deques");
            goto error;
        }
    }
    if ((value = dict_get(dict, str_read_queue)) == NULL
        || (self->read_queue = bind_list(value, "read_queue", -1)) == NULL) {
        goto error;
    }
    Py_CLEAR(value);
    if ((value = dict_get(dict, str_write_queue)) == NULL
        || (self->write_queue = bind_list(value, "write_queue",
                                          -1)) == NULL) {
        goto error;
    }
    Py_CLEAR(value);
    if ((value = dict_get(dict, str_next_refresh)) == NULL
        || (self->next_refresh = bind_list(value, "_next_refresh",
                                           nranks)) == NULL) {
        goto error;
    }
    Py_CLEAR(value);
    if ((value = dict_get(dict, str_refresh_due)) == NULL
        || (self->refresh_due = bind_list(value, "_refresh_due",
                                          nranks)) == NULL) {
        goto error;
    }
    Py_CLEAR(value);
    if ((self->stats = dict_get(dict, str_stats)) == NULL
        || check(self->stats, &STATS) < 0
        || (self->channel_id = dict_get(dict, str_channel_id)) == NULL
        || dict_ll(dict, str_cpu_ratio, &self->ratio) < 0
        || dict_ll(dict, str_drain_high, &self->drain_high) < 0
        || dict_ll(dict, str_drain_low, &self->drain_low) < 0) {
        goto error;
    }
    if (self->ratio < 1 || self->ratio >= TIMING_LIMIT) {
        PyErr_SetString(PyExc_ValueError, "clock ratio out of range");
        goto error;
    }
    Py_DECREF(config);
    Py_DECREF(timings);
    Py_DECREF(banks);
    return (PyObject *)self;

error:
    Py_XDECREF(config);
    Py_XDECREF(timings);
    Py_XDECREF(banks);
    Py_XDECREF(value);
    Py_DECREF(self);
    return NULL;
}

/* -------------------------------------------------------------- call state */

/* One kernel call on a controller: its __dict__ and its View. */
typedef struct {
    PyObject *self;  /* borrowed: the caller's argument */
    PyObject *dict;
    View *v;
} Ctl;

static int
ctl_open(Ctl *c, PyObject *self)
{
    c->self = self;
    c->dict = NULL;
    c->v = NULL;
    if (bind_models() < 0) {
        return -1;
    }
    if (!Py_IS_TYPE(self, controller_type)) {
        PyErr_Format(PyExc_TypeError, "the compiled controller runs a "
                     "ChannelController, not %.200s", Py_TYPE(self)->tp_name);
        return -1;
    }
    c->dict = PyObject_GenericGetDict(self, NULL);
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
    if (c->v->bank == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the controller's kernel view is cleared");
        goto error;
    }
    return 0;

error:
    Py_CLEAR(c->v);
    Py_CLEAR(c->dict);
    return -1;
}

static void
ctl_close(Ctl *c)
{
    Py_CLEAR(c->v);
    Py_CLEAR(c->dict);
}

/* --------------------------------------------------- Bank and timing copies */

/* Bank.do_activate(row, now, opened_by) */
static int
bank_activate(View *v, PyObject *bank, PyObject *row, long long now,
              PyObject *opened_by)
{
    if (put_ref(bank, &BANK, B_OPEN_ROW, row) < 0
        || put_ref(bank, &BANK, B_OPENED_BY, opened_by) < 0
        || put_ll(bank, &BANK, B_LAST_USE, now) < 0
        || raise_to(bank, &BANK, B_CAS_READY, now + v->t[K_RCD]) < 0
        || raise_to(bank, &BANK, B_PRE_READY, now + v->t[K_RAS]) < 0
        || raise_to(bank, &BANK, B_ACT_READY, now + v->t[K_RC]) < 0) {
        return -1;
    }
    return 0;
}

/* Bank.do_read(now) */
static int
bank_read(View *v, PyObject *bank, long long now)
{
    if (raise_to(bank, &BANK, B_PRE_READY, now + v->t[K_RTP]) < 0
        || put_ll(bank, &BANK, B_LAST_USE, now) < 0) {
        return -1;
    }
    return 0;
}

/* Bank.do_write(now) */
static int
bank_write(View *v, PyObject *bank, long long now)
{
    long long ready = now + v->t[K_WL] + v->t[K_BURST] + v->t[K_WR];
    if (raise_to(bank, &BANK, B_PRE_READY, ready) < 0
        || put_ll(bank, &BANK, B_LAST_USE, now) < 0) {
        return -1;
    }
    return 0;
}

/* Bank.do_precharge(now) */
static int
bank_precharge(View *v, PyObject *bank, long long now)
{
    if (put_ref(bank, &BANK, B_OPEN_ROW, Py_None) < 0
        || put_ll(bank, &BANK, B_OPENED_BY, -1) < 0
        || raise_to(bank, &BANK, B_ACT_READY, now + v->t[K_RP]) < 0) {
        return -1;
    }
    return 0;
}

/* Bank.block_until(cycle) */
static int
bank_block_until(PyObject *bank, long long cycle)
{
    if (raise_to(bank, &BANK, B_ACT_READY, cycle) < 0
        || raise_to(bank, &BANK, B_CAS_READY, cycle) < 0
        || raise_to(bank, &BANK, B_PRE_READY, cycle) < 0) {
        return -1;
    }
    return 0;
}

/* ChannelTiming.can_activate(rank, now): 1, 0 or -1. */
static int
can_activate(View *v, Py_ssize_t r, long long now)
{
    long long ready;
    if (item_cycle(v->rank_act_ready, r, &ready) < 0) {
        return -1;
    }
    if (now < ready) {
        return 0;
    }
    PyObject *history = PyList_GET_ITEM(v->history, r);
    Py_ssize_t n = PyObject_Size(history);
    if (n < 0) {
        return -1;
    }
    if (n == 4) {
        PyObject *oldest = PySequence_GetItem(history, 0);
        long long first;
        if (oldest == NULL) {
            return -1;
        }
        int failed = as_cycle(oldest, &first);
        Py_DECREF(oldest);
        if (failed) {
            return -1;
        }
        if (now < first + v->tFAW) {
            return 0;
        }
    }
    return 1;
}

/* ChannelTiming.cas_issue_ok(rank, is_write, now): 1, 0 or -1. */
static int
cas_issue_ok(View *v, Py_ssize_t r, int is_write, long long now)
{
    long long next_cas, ready;
    if (get_cycle(v->timing, &TIMING, CT_NEXT_CAS, &next_cas) < 0) {
        return -1;
    }
    if (now < next_cas) {
        return 0;
    }
    if (!is_write) {
        if (item_cycle(v->rank_raw, r, &ready) < 0) {
            return -1;
        }
        if (now < ready) {
            return 0;
        }
    }
    return 1;
}

/* ChannelTiming.did_activate(rank, now) */
static int
did_activate(View *v, Py_ssize_t r, long long now, PyObject *now_obj)
{
    long long ready;
    if (item_cycle(v->rank_act_ready, r, &ready) < 0) {
        return -1;
    }
    if (now + v->t[K_RRD] > ready
        && set_item(v->rank_act_ready, r,
                    PyLong_FromLongLong(now + v->t[K_RRD])) < 0) {
        return -1;
    }
    return call_void(str_append, PyList_GET_ITEM(v->history, r), &now_obj, 1);
}

/* ChannelTiming.did_cas(rank, is_write, now): the cycle the burst ends, or
 * -1 (the data ends at a cycle above ``now``, never at -1). */
static int
did_cas(View *v, Py_ssize_t r, PyObject *rank, int is_write, long long now,
        long long *data_end)
{
    PyObject *timing = v->timing;
    long long bus_free, last, ready;
    if (raise_to(timing, &TIMING, CT_NEXT_CAS, now + v->t[K_CCD]) < 0
        || get_cycle(timing, &TIMING, CT_BUS_FREE, &bus_free) < 0
        || get_ll(timing, &TIMING, CT_LAST_RANK, &last) < 0) {
        return -1;
    }
    long long data_start = now + (is_write ? v->t[K_WL] : v->t[K_CL]);
    if (last != -1 && last != r) {
        bus_free += v->t[K_RTRS];
    }
    if (data_start < bus_free) {
        data_start = bus_free;
    }
    long long end = data_start + v->t[K_BURST];
    if (put_ll(timing, &TIMING, CT_BUS_FREE, end) < 0
        || put_ref(timing, &TIMING, CT_LAST_RANK, rank) < 0) {
        return -1;
    }
    if (is_write) {
        if (item_cycle(v->rank_raw, r, &ready) < 0) {
            return -1;
        }
        if (end + v->t[K_WTR] > ready
            && set_item(v->rank_raw, r,
                        PyLong_FromLongLong(end + v->t[K_WTR])) < 0) {
            return -1;
        }
    }
    *data_end = end;
    return 0;
}

/* LatencyHistogram.record(value) */
static int
record(PyObject *hist, long long value)
{
    if (check(hist, &HIST) < 0) {
        return -1;
    }
    long long idx = 0;
    if (value > 0) {
        unsigned long long x = (unsigned long long)value;
        while (x) {
            idx++;
            x >>= 1;
        }
    }
    if (idx >= histogram_buckets) {
        idx = histogram_buckets - 1;
    }
    PyObject *counts = get(hist, &HIST, H_COUNTS);
    long long n, extreme;
    if (counts == NULL) {
        return -1;
    }
    if (!PyList_CheckExact(counts) || PyList_GET_SIZE(counts) <= idx) {
        PyErr_SetString(PyExc_TypeError, "a histogram's counts must be a "
                        "list of one item per bucket");
        return -1;
    }
    if (as_ll(PyList_GET_ITEM(counts, idx), &n) < 0) {
        return -1;
    }
    if (n == LLONG_MAX) {
        return overflow();
    }
    if (PyList_SetItem(counts, idx, PyLong_FromLongLong(n + 1)) < 0
        || add_ll(hist, &HIST, H_COUNT, 1) < 0
        || add_ll(hist, &HIST, H_TOTAL, value) < 0
        || get_ll(hist, &HIST, H_MAX, &extreme) < 0) {
        return -1;
    }
    if (value > extreme && put_ll(hist, &HIST, H_MAX, value) < 0) {
        return -1;
    }
    if (get_ll(hist, &HIST, H_MIN, &extreme) < 0) {
        return -1;
    }
    if ((extreme < 0 || value < extreme)
        && put_ll(hist, &HIST, H_MIN, value) < 0) {
        return -1;
    }
    return 0;
}

/* ---------------------------------------------------- the controller's path */

/* Whether ``open_row`` (a bank's slot) equals the row ``row``: 1, 0 or -1. */
static inline int
row_open(PyObject *open_row, long long row)
{
    if (open_row == Py_None) {
        return 0;
    }
    long long value;
    if (as_ll(open_row, &value) < 0) {
        return -1;
    }
    return value == row;
}

/* How many of the read queue's transactions are critical, counting to 2. */
static int
count_critical(PyObject *queue, int *ncrit)
{
    *ncrit = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(queue); i++) {
        PyObject *txn = PyList_GET_ITEM(queue, i);
        if (check(txn, &TXN) < 0) {
            return -1;
        }
        PyObject *critical = get(txn, &TXN, X_CRITICAL);
        int flag = critical == NULL ? -1 : truth(critical);
        if (flag < 0) {
            return -1;
        }
        if (flag) {
            *ncrit += 1;
            if (*ncrit > 1) {
                break;
            }
        }
    }
    return 0;
}

/* The channel's current sanitizer and recorder (new references, None when
 * not attached). */
static int
hooks(Ctl *c, PyObject **sanitizer, PyObject **trace)
{
    *sanitizer = dict_get(c->dict, str_sanitizer);
    if (*sanitizer == NULL) {
        return -1;
    }
    *trace = dict_get(c->dict, str_trace);
    if (*trace == NULL) {
        Py_CLEAR(*sanitizer);
        return -1;
    }
    return 0;
}

/* trace.command(now * ratio, channel_id, rank, bank, kind, row, dur * ratio) */
static int
trace_command(View *v, PyObject *trace, long long now, PyObject *rank,
              PyObject *bank, PyObject *kind, PyObject *row, long long dur)
{
    if (now > LLONG_MAX / v->ratio || now < LLONG_MIN / v->ratio) {
        return overflow();
    }
    PyObject *ts = PyLong_FromLongLong(now * v->ratio);
    PyObject *span = ts ? PyLong_FromLongLong(dur * v->ratio) : NULL;
    if (span == NULL) {
        Py_XDECREF(ts);
        return -1;
    }
    PyObject *args[7] = {ts, v->channel_id, rank, bank, kind, row, span};
    int failed = call_void(str_command, trace, args, 7);
    Py_DECREF(ts);
    Py_DECREF(span);
    return failed;
}

/* The same for an executed candidate: its rank, bank and row. */
static int
trace_candidate(View *v, PyObject *trace, long long now, PyObject *cmd,
                PyObject *kind, long long dur)
{
    if (trace == Py_None) {
        return 0;
    }
    PyObject *rank = get(cmd, &CAND, C_RANK);
    PyObject *bank = rank ? get(cmd, &CAND, C_BANK) : NULL;
    PyObject *row = bank ? get(cmd, &CAND, C_ROW) : NULL;
    if (row == NULL) {
        return -1;
    }
    return trace_command(v, trace, now, rank, bank, kind, row, dur);
}

/* ChannelController._service_refresh(now): 1 if this cycle's slot was
 * used, 0 if not, -1 on error. */
static int
service_refresh(Ctl *c, long long now, PyObject *now_obj)
{
    View *v = c->v;
    PyObject *sanitizer, *trace, *rank_obj = NULL;
    if (hooks(c, &sanitizer, &trace) < 0) {
        return -1;
    }
    int used = 0;
    for (Py_ssize_t r = 0; r < v->nranks && !used; r++) {
        int due = truth(PyList_GET_ITEM(v->refresh_due, r));
        if (due < 0) {
            goto error;
        }
        if (!due) {
            long long deadline;
            if (item_cycle(v->next_refresh, r, &deadline) < 0) {
                goto error;
            }
            if (now < deadline) {
                continue;
            }
            Py_INCREF(Py_True);
            if (set_item(v->refresh_due, r, Py_True) < 0) {
                goto error;
            }
        }
        PyObject **banks = v->bank + r * v->nbanks;
        int all_closed = 1;
        for (Py_ssize_t b = 0; b < v->nbanks; b++) {
            PyObject *bank = banks[b];
            PyObject *open_row = get(bank, &BANK, B_OPEN_ROW);
            long long pre_ready;
            if (open_row == NULL) {
                goto error;
            }
            if (open_row == Py_None) {
                continue;
            }
            all_closed = 0;
            if (get_cycle(bank, &BANK, B_PRE_READY, &pre_ready) < 0) {
                goto error;
            }
            if (now < pre_ready) {
                continue;
            }
            if (bank_precharge(v, bank, now) < 0
                || add_ll(v->stats, &STATS, S_PRECHARGES, 1) < 0
                || (rank_obj = PyLong_FromSsize_t(r)) == NULL) {
                goto error;
            }
            if (sanitizer != Py_None) {
                PyObject *index = get(bank, &BANK, B_INDEX);
                PyObject *args[3] = {rank_obj, index, now_obj};
                if (index == NULL
                    || call_void(str_on_precharge, sanitizer, args, 3) < 0) {
                    goto error;
                }
            }
            if (trace != Py_None) {
                PyObject *index = get(bank, &BANK, B_INDEX);
                PyObject *minus_one = PyLong_FromLong(-1);
                int failed = index == NULL || minus_one == NULL
                    || trace_command(v, trace, now, rank_obj, index, str_PRE,
                                     minus_one, v->t[K_RP]) < 0;
                Py_XDECREF(minus_one);
                if (failed) {
                    goto error;
                }
            }
            used = 1;
            break;
        }
        if (used || !all_closed) {
            continue;
        }
        int ready = 1;
        for (Py_ssize_t b = 0; b < v->nbanks && ready; b++) {
            long long act_ready;
            if (get_cycle(banks[b], &BANK, B_ACT_READY, &act_ready) < 0) {
                goto error;
            }
            ready = now >= act_ready;
        }
        if (!ready) {
            continue;
        }
        long long done = now + v->t[K_RFC], deadline;
        for (Py_ssize_t b = 0; b < v->nbanks; b++) {
            if (bank_block_until(banks[b], done) < 0) {
                goto error;
            }
        }
        if (item_cycle(v->next_refresh, r, &deadline) < 0
            || set_item(v->next_refresh, r,
                        PyLong_FromLongLong(deadline + v->t[K_REFI])) < 0) {
            goto error;
        }
        Py_INCREF(Py_False);
        if (set_item(v->refresh_due, r, Py_False) < 0
            || add_ll(v->stats, &STATS, S_REFRESHES, 1) < 0
            || (rank_obj = PyLong_FromSsize_t(r)) == NULL) {
            goto error;
        }
        if (sanitizer != Py_None) {
            PyObject *args[2] = {rank_obj, now_obj};
            if (call_void(str_on_refresh, sanitizer, args, 2) < 0) {
                goto error;
            }
        }
        if (trace != Py_None) {
            PyObject *zero = PyLong_FromLong(0);
            PyObject *minus_one = zero ? PyLong_FromLong(-1) : NULL;
            int failed = minus_one == NULL
                || trace_command(v, trace, now, rank_obj, zero, str_REF,
                                 minus_one, v->t[K_RFC]) < 0;
            Py_XDECREF(zero);
            Py_XDECREF(minus_one);
            if (failed) {
                goto error;
            }
        }
        used = 1;
    }
    Py_XDECREF(rank_obj);
    Py_DECREF(sanitizer);
    Py_DECREF(trace);
    return used;

error:
    Py_XDECREF(rank_obj);
    Py_DECREF(sanitizer);
    Py_DECREF(trace);
    return -1;
}

/* ChannelController._drain_writes_now(): 1, 0 or -1. */
static int
drain_writes_now(Ctl *c)
{
    View *v = c->v;
    Py_ssize_t nwrites = PyList_GET_SIZE(v->write_queue);
    if (v->unified) {
        return nwrites > 0;
    }
    PyObject *value = dict_get(c->dict, str_draining);
    if (value == NULL) {
        return -1;
    }
    int draining = truth(value);
    Py_DECREF(value);
    if (draining < 0) {
        return -1;
    }
    PyObject *flip = NULL;
    if (draining) {
        if (nwrites <= v->drain_low) {
            flip = Py_False;
        }
    }
    else if (nwrites >= v->drain_high
             || (!PyList_GET_SIZE(v->read_queue) && nwrites)) {
        flip = Py_True;
    }
    if (flip != NULL) {
        if (PyDict_SetItem(c->dict, str_draining, flip) < 0) {
            return -1;
        }
        return flip == Py_True;
    }
    return draining;
}

static void
release_work(Work *work, Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_XDECREF(work[i].txn);
        Py_XDECREF(work[i].rank);
        Py_XDECREF(work[i].bank);
        Py_XDECREF(work[i].row);
    }
}

/* Read one queued transaction into ``w``. */
static int
read_work(View *v, PyObject *txn, Work *w)
{
    Py_INCREF(txn);
    w->txn = txn;
    w->rank = w->bank = w->row = NULL;
    if (check(txn, &TXN) < 0) {
        return -1;
    }
    PyObject *loc = get(txn, &TXN, X_LOC);
    PyObject *critical = get(txn, &TXN, X_CRITICAL);
    PyObject *is_write = get(txn, &TXN, X_IS_WRITE);
    if (loc == NULL || critical == NULL || is_write == NULL
        || (w->critical = truth(critical)) < 0
        || (w->is_write = truth(is_write)) < 0
        || (w->rank = PyObject_GetAttr(loc, str_rank)) == NULL
        || (w->bank = PyObject_GetAttr(loc, str_bank)) == NULL
        || (w->row = PyObject_GetAttr(loc, str_row)) == NULL
        || as_ll(w->rank, &w->r) < 0 || as_ll(w->bank, &w->b) < 0
        || as_ll(w->row, &w->row_v) < 0) {
        return -1;
    }
    if (w->r < 0 || w->r >= v->nranks || w->b < 0 || w->b >= v->nbanks) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    w->flat = w->r * v->nbanks + w->b;
    return 0;
}

/* A candidate built straight into its slots, as
 * CandidateCommand(kind, txn, rank, bank, row, *policy) sets them; without
 * ``policy`` (a PRE's blocked_by_hits, hit_is_critical and row_idle), the
 * defaults of __init__. */
static PyObject *
new_candidate(PyObject *kind, Work *w, PyObject *row, PyObject *const *policy)
{
    PyObject *cand = CAND.type->tp_alloc(CAND.type, 0);
    if (cand == NULL) {
        return NULL;
    }
    int is_cas = kind == kinds[KIND_READ] || kind == kinds[KIND_WRITE];
    PyObject *values[N_C] = {
        kind, w->txn, w->rank, w->bank, row, is_cas ? Py_True : Py_False,
        NULL, NULL, NULL,
    };
    for (int k = 0; k < 3; k++) {
        values[C_BLOCKED + k] = policy != NULL
            ? policy[k] : PyTuple_GET_ITEM(cand_defaults, k);
    }
    for (int k = 0; k < N_C; k++) {
        Py_INCREF(values[k]);
        FIELD(cand, CAND, k) = values[k];
    }
    return cand;
}

static int
append_candidate(PyObject *list, PyObject *cand)
{
    if (cand == NULL) {
        return -1;
    }
    int failed = PyList_Append(list, cand);
    Py_DECREF(cand);
    return failed;
}

/* ChannelController._build_candidates(now): a new list. */
static PyObject *
build_candidates(Ctl *c, long long now)
{
    View *v = c->v;
    int drain = drain_writes_now(c);
    if (drain < 0) {
        return NULL;
    }
    Py_ssize_t nreads = PyList_GET_SIZE(v->read_queue);
    Py_ssize_t nwork = nreads + (drain ? PyList_GET_SIZE(v->write_queue) : 0);
    if (nwork > v->work_cap) {
        Work *work = PyMem_Realloc(v->work, nwork * sizeof(Work));
        if (work == NULL) {
            return PyErr_NoMemory();
        }
        v->work = work;
        v->work_cap = nwork;
    }
    Py_ssize_t n = 0;
    PyObject *candidates = NULL;
    for (; n < nwork; n++) {
        PyObject *txn = n < nreads
            ? PyList_GET_ITEM(v->read_queue, n)
            : PyList_GET_ITEM(v->write_queue, n - nreads);
        if (read_work(v, txn, &v->work[n]) < 0) {
            n++;
            goto error;
        }
    }

    /* Banks whose open row still has pending hits. */
    memset(v->mark, 0, NBANKS(v));
    for (Py_ssize_t i = 0; i < nwork; i++) {
        Work *w = &v->work[i];
        PyObject *open_row = get(v->bank[w->flat], &BANK, B_OPEN_ROW);
        int hit = open_row == NULL ? -1 : row_open(open_row, w->row_v);
        if (hit < 0) {
            goto error;
        }
        if (hit) {
            v->mark[w->flat] |= PROTECTED;
            if (w->critical) {
                v->mark[w->flat] |= PROTECTED_CRITICAL;
            }
        }
    }

    if ((candidates = PyList_New(0)) == NULL) {
        goto error;
    }
    for (Py_ssize_t i = 0; i < nwork; i++) {
        Work *w = &v->work[i];
        int due = truth(PyList_GET_ITEM(v->refresh_due, w->r));
        if (due < 0) {
            goto error;
        }
        if (due) {
            continue;
        }
        PyObject *bank = v->bank[w->flat];
        PyObject *open_row = get(bank, &BANK, B_OPEN_ROW);
        int hit = open_row == NULL ? -1 : row_open(open_row, w->row_v);
        long long ready;
        if (hit < 0) {
            goto error;
        }
        if (hit) {
            if (get_cycle(bank, &BANK, B_CAS_READY, &ready) < 0) {
                goto error;
            }
            if (now < ready) {
                continue;
            }
            int ok = cas_issue_ok(v, w->r, w->is_write, now);
            if (ok < 0) {
                goto error;
            }
            if (ok) {
                PyObject *kind = kinds[w->is_write ? KIND_WRITE : KIND_READ];
                if (append_candidate(candidates,
                                     new_candidate(kind, w, w->row,
                                                   NULL)) < 0) {
                    goto error;
                }
            }
        }
        else if (open_row == Py_None) {
            if (v->mark[w->flat] & SEEN_ACT) {
                continue;
            }
            if (get_cycle(bank, &BANK, B_ACT_READY, &ready) < 0) {
                goto error;
            }
            if (now < ready) {
                continue;
            }
            int ok = can_activate(v, w->r, now);
            if (ok < 0) {
                goto error;
            }
            if (ok) {
                v->mark[w->flat] |= SEEN_ACT;
                if (append_candidate(candidates,
                                     new_candidate(kinds[KIND_ACT], w,
                                                   w->row, NULL)) < 0) {
                    goto error;
                }
            }
        }
        else {
            if (v->mark[w->flat] & SEEN_PRE) {
                continue;
            }
            long long last_use;
            if (get_cycle(bank, &BANK, B_PRE_READY, &ready) < 0) {
                goto error;
            }
            if (now < ready) {
                continue;
            }
            v->mark[w->flat] |= SEEN_PRE;
            if (get_cycle(bank, &BANK, B_LAST_USE, &last_use) < 0) {
                goto error;
            }
            PyObject *idle = PyLong_FromLongLong(now - last_use);
            if (idle == NULL) {
                goto error;
            }
            unsigned char mark = v->mark[w->flat];
            PyObject *policy[3] = {
                mark & PROTECTED ? Py_True : Py_False,
                mark & PROTECTED_CRITICAL ? Py_True : Py_False, idle,
            };
            PyObject *cand = new_candidate(kinds[KIND_PRE], w, open_row,
                                           policy);
            Py_DECREF(idle);
            if (append_candidate(candidates, cand) < 0) {
                goto error;
            }
        }
    }
    release_work(v->work, nwork);
    return candidates;

error:
    release_work(v->work, n);
    Py_XDECREF(candidates);
    return NULL;
}

/* Remove the first item equal to ``item``, as list.remove does. */
static int
list_remove(PyObject *list, PyObject *item)
{
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(list); i++) {
        PyObject *x = PyList_GET_ITEM(list, i);
        Py_INCREF(x);
        int equal = PyObject_RichCompareBool(x, item, Py_EQ);
        Py_DECREF(x);
        if (equal < 0) {
            return -1;
        }
        if (equal) {
            return PyList_SetSlice(list, i, i + 1, NULL);
        }
    }
    PyErr_SetString(PyExc_ValueError, "list.remove(x): x not in list");
    return -1;
}

/* The chosen candidate's transaction: a new reference. */
static PyObject *
candidate_txn(PyObject *cmd)
{
    PyObject *txn = get(cmd, &CAND, C_TXN);
    if (txn == NULL || check(txn, &TXN) < 0) {
        return NULL;
    }
    Py_INCREF(txn);
    return txn;
}

/* A READ or WRITE: the body's two CAS branches. */
static int
execute_cas(Ctl *c, PyObject *cmd, PyObject *bank, Py_ssize_t r, int is_write,
            long long now, PyObject *now_obj, PyObject *sanitizer,
            PyObject *trace)
{
    View *v = c->v;
    PyObject *txn = candidate_txn(cmd), *end_obj = NULL, *field;
    long long data_end, arrival, seq, opened_by;
    if (txn == NULL) {
        return -1;
    }
    if (!is_write) {
        /* A read is a row-buffer hit if it reused a row someone else's
         * ACTIVATE (or a previous access) opened. */
        if (get_ll(bank, &BANK, B_OPENED_BY, &opened_by) < 0
            || get_ll(txn, &TXN, X_SEQ, &seq) < 0
            || put_ref(txn, &TXN, X_ROW_HIT,
                       opened_by != seq ? Py_True : Py_False) < 0
            || bank_read(v, bank, now) < 0) {
            goto error;
        }
    }
    else if (bank_write(v, bank, now) < 0) {
        goto error;
    }
    if ((field = get(cmd, &CAND, C_RANK)) == NULL
        || did_cas(v, r, field, is_write, now, &data_end) < 0
        || (end_obj = PyLong_FromLongLong(data_end)) == NULL) {
        goto error;
    }
    if (sanitizer != Py_None) {
        PyObject *args[7] = {
            get(cmd, &CAND, C_RANK), get(cmd, &CAND, C_BANK),
            get(cmd, &CAND, C_ROW), now_obj,
            is_write ? Py_True : Py_False, end_obj, get(txn, &TXN, X_ARRIVAL),
        };
        if (args[0] == NULL || args[1] == NULL || args[2] == NULL
            || args[6] == NULL
            || call_void(str_on_cas, sanitizer, args, 7) < 0) {
            goto error;
        }
    }
    if (list_remove(is_write ? v->write_queue : v->read_queue, txn) < 0
        || add_ll(v->stats, &STATS, is_write ? S_WRITES : S_READS, 1) < 0
        || get_cycle(txn, &TXN, X_ARRIVAL, &arrival) < 0) {
        goto error;
    }
    if (!is_write) {
        PyObject *row_hit = get(txn, &TXN, X_ROW_HIT);
        PyObject *critical = get(txn, &TXN, X_CRITICAL);
        int hit = row_hit == NULL ? -1 : truth(row_hit);
        if (hit < 0
            || (hit && add_ll(v->stats, &STATS, S_ROW_HIT_READS, 1) < 0)) {
            goto error;
        }
        int crit = critical == NULL ? -1 : truth(critical);
        PyObject *hist = crit < 0 ? NULL
            : get(v->stats, &STATS, crit ? S_CRIT_WAIT : S_NONCRIT_WAIT);
        if (hist == NULL || record(hist, now - arrival) < 0) {
            goto error;
        }
    }
    else if (add_ll(v->stats, &STATS, S_WRITE_WAIT, now - arrival) < 0) {
        goto error;
    }
    if (trace_candidate(v, trace, now, cmd, is_write ? str_WRITE : str_READ,
                        data_end - now) < 0) {
        goto error;
    }
    PyObject *callback = get(txn, &TXN, X_CALLBACK);
    if (callback == NULL) {
        goto error;
    }
    if (callback != Py_None) {
        Py_INCREF(callback);
        PyObject *result = PyObject_CallOneArg(callback, end_obj);
        Py_DECREF(callback);
        if (result == NULL) {
            goto error;
        }
        Py_DECREF(result);
    }
    Py_DECREF(end_obj);
    Py_DECREF(txn);
    return 0;

error:
    Py_XDECREF(end_obj);
    Py_DECREF(txn);
    return -1;
}

/* ChannelController._execute(cmd, now) */
static int
execute(Ctl *c, PyObject *cmd, long long now, PyObject *now_obj)
{
    View *v = c->v;
    if (check(cmd, &CAND) < 0) {
        return -1;
    }
    PyObject *rank = get(cmd, &CAND, C_RANK), *index = get(cmd, &CAND, C_BANK);
    long long r, b;
    if (rank == NULL || index == NULL || as_ll(rank, &r) < 0
        || as_ll(index, &b) < 0) {
        return -1;
    }
    if (r < 0 || r >= v->nranks || b < 0 || b >= v->nbanks) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    PyObject *bank = v->bank[r * v->nbanks + b];
    PyObject *sanitizer, *trace, *kind;
    if (add_ll(v->stats, &STATS, S_BUSY, 1) < 0
        || (kind = get(cmd, &CAND, C_KIND)) == NULL) {
        return -1;
    }
    long long k = -1;
    if (PyLong_Check(kind) && as_ll(kind, &k) < 0) {
        PyErr_Clear();
        k = -1;
    }
    if (k < KIND_ACT || k > KIND_WRITE) {
        PyErr_Format(PyExc_ValueError,
                     "scheduler returned unexpected command %R", cmd);
        return -1;
    }
    if (hooks(c, &sanitizer, &trace) < 0) {
        return -1;
    }
    int failed = -1;
    if (k == KIND_ACT) {
        if (sanitizer != Py_None) {
            PyObject *args[4] = {
                get(cmd, &CAND, C_RANK), get(cmd, &CAND, C_BANK),
                get(cmd, &CAND, C_ROW), now_obj,
            };
            if (args[0] == NULL || args[1] == NULL || args[2] == NULL
                || call_void(str_on_activate, sanitizer, args, 4) < 0) {
                goto done;
            }
        }
        PyObject *txn = candidate_txn(cmd);
        PyObject *row = txn ? get(cmd, &CAND, C_ROW) : NULL;
        PyObject *seq = row ? get(txn, &TXN, X_SEQ) : NULL;
        int bad = seq == NULL || bank_activate(v, bank, row, now, seq) < 0;
        Py_XDECREF(txn);
        if (bad || did_activate(v, r, now, now_obj) < 0
            || add_ll(v->stats, &STATS, S_ACTIVATES, 1) < 0
            || trace_candidate(v, trace, now, cmd, str_ACT,
                               v->t[K_RCD]) < 0) {
            goto done;
        }
    }
    else if (k == KIND_PRE) {
        if (sanitizer != Py_None) {
            PyObject *args[3] = {
                get(cmd, &CAND, C_RANK), get(cmd, &CAND, C_BANK), now_obj,
            };
            if (args[0] == NULL || args[1] == NULL
                || call_void(str_on_precharge, sanitizer, args, 3) < 0) {
                goto done;
            }
        }
        if (bank_precharge(v, bank, now) < 0
            || add_ll(v->stats, &STATS, S_PRECHARGES, 1) < 0
            || trace_candidate(v, trace, now, cmd, str_PRE,
                               v->t[K_RP]) < 0) {
            goto done;
        }
    }
    else if (execute_cas(c, cmd, bank, r, k == KIND_WRITE, now, now_obj,
                         sanitizer, trace) < 0) {
        goto done;
    }
    failed = 0;

done:
    Py_DECREF(sanitizer);
    Py_DECREF(trace);
    return failed;
}

/* The controller's scheduler: a new reference. */
static PyObject *
scheduler(Ctl *c)
{
    return dict_get(c->dict, str_scheduler);
}

/* ------------------------------------------------------------- entry points */

static int
nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected) {
        return 1;
    }
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, expected, nargs);
    return 0;
}

/* ChannelController.step on the opened controller ``c``: 0 or -1. */
static int
channel_step(Ctl *c, PyObject *now_obj)
{
    long long now;
    PyObject *candidates = NULL, *sched = NULL, *chosen = NULL;
    int result = -1;
    if (as_cycle(now_obj, &now) < 0) {
        return -1;
    }
    View *v = c->v;
    Py_ssize_t nreads = PyList_GET_SIZE(v->read_queue);
    /* Sample occupancy every DRAM cycle (empty cycles included). */
    if (add_ll(v->stats, &STATS, S_OCCUPANCY, nreads) < 0
        || add_ll(v->stats, &STATS, S_SAMPLES, 1) < 0) {
        goto done;
    }
    if (nreads) {
        int ncrit;
        if (count_critical(v->read_queue, &ncrit) < 0
            || (ncrit >= 1
                && add_ll(v->stats, &STATS, S_CRIT_CYCLES, 1) < 0)
            || (ncrit > 1
                && add_ll(v->stats, &STATS, S_MULTI_CYCLES, 1) < 0)) {
            goto done;
        }
    }
    int used = service_refresh(c, now, now_obj);
    if (used < 0) {
        goto done;
    }
    if (used || (!PyList_GET_SIZE(v->read_queue)
                 && !PyList_GET_SIZE(v->write_queue))) {
        result = 0;
        goto done;
    }
    if ((candidates = build_candidates(c, now)) == NULL) {
        goto done;
    }
    if (!PyList_GET_SIZE(candidates)) {
        result = 0;
        goto done;
    }
    if ((sched = scheduler(c)) == NULL) {
        goto done;
    }
    PyObject *select_args[3] = {candidates, c->self, now_obj};
    chosen = call_method(str_select, sched, select_args, 3);
    Py_CLEAR(sched);
    if (chosen == NULL || (sched = scheduler(c)) == NULL) {
        goto done;
    }
    PyObject *decisions = PyObject_GetAttr(sched, str_m_decisions);
    if (decisions == NULL) {
        goto done;
    }
    int counting = decisions != Py_None;
    Py_DECREF(decisions);
    if (counting) {
        Py_CLEAR(sched);
        if ((sched = scheduler(c)) == NULL
            || call_void(str_note_decision, sched, &chosen, 1) < 0) {
            goto done;
        }
    }
    if (chosen != Py_None) {
        Py_CLEAR(sched);
        PyObject *command_args[2] = {chosen, now_obj};
        if (execute(c, chosen, now, now_obj) < 0
            || (sched = scheduler(c)) == NULL
            || call_void(str_on_command, sched, command_args, 2) < 0) {
            goto done;
        }
    }
    result = 0;

done:
    Py_XDECREF(sched);
    Py_XDECREF(chosen);
    Py_XDECREF(candidates);
    return result;
}

/* step(controller, now): ChannelController.step */
static PyObject *
k_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("step", nargs, 2)) {
        return NULL;
    }
    Ctl c;
    if (ctl_open(&c, args[0]) < 0) {
        return NULL;
    }
    int failed = channel_step(&c, args[1]);
    ctl_close(&c);
    if (failed) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* next_wake_window(controller, dram_now): ChannelController.next_wake_window */
static PyObject *
k_next_wake_window(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("next_wake_window", nargs, 2)) {
        return NULL;
    }
    Ctl c;
    long long now;
    PyObject *result = NULL;
    if (ctl_open(&c, args[0]) < 0) {
        return NULL;
    }
    View *v = c.v;
    int fall_back = PyList_GET_SIZE(v->write_queue) > 0;
    if (!fall_back) {
        PyObject *draining = dict_get(c.dict, str_draining);
        if (draining == NULL) {
            goto done;
        }
        fall_back = truth(draining);
        Py_DECREF(draining);
        for (Py_ssize_t r = 0; r < v->nranks && !fall_back; r++) {
            fall_back = truth(PyList_GET_ITEM(v->refresh_due, r));
        }
        if (fall_back < 0) {
            goto done;
        }
    }
    if (fall_back) {
        result = call_method(str_next_wake, args[0], &args[1], 1);
        goto done;
    }
    if (as_cycle(args[1], &now) < 0) {
        goto done;
    }
    long long best, deadline;
    if (item_cycle(v->next_refresh, 0, &best) < 0) {
        goto done;
    }
    for (Py_ssize_t r = 1; r < v->nranks; r++) {
        if (item_cycle(v->next_refresh, r, &deadline) < 0) {
            goto done;
        }
        if (deadline < best) {
            best = deadline;
        }
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(v->read_queue); i++) {
        Work w;
        int failed = read_work(v, PyList_GET_ITEM(v->read_queue, i), &w);
        release_work(&w, 1);
        if (failed) {
            goto done;
        }
        PyObject *bank = v->bank[w.flat];
        PyObject *open_row = get(bank, &BANK, B_OPEN_ROW);
        int hit = open_row == NULL ? -1 : row_open(open_row, w.row_v);
        long long ready;
        if (hit < 0
            || get_cycle(bank, &BANK,
                         hit ? B_CAS_READY
                         : open_row == Py_None ? B_ACT_READY : B_PRE_READY,
                         &ready) < 0) {
            goto done;
        }
        if (ready < best) {
            best = ready;
            if (best <= now + 1) {
                break;
            }
        }
    }
    result = PyLong_FromLongLong(best > now + 1 ? best : now + 1);

done:
    ctl_close(&c);
    return result;
}

/* account_window(controller, cycles): ChannelController.account_window */
static PyObject *
k_account_window(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("account_window", nargs, 2)) {
        return NULL;
    }
    Ctl c;
    long long cycles;
    PyObject *result = NULL;
    if (ctl_open(&c, args[0]) < 0) {
        return NULL;
    }
    if (as_cycle(args[1], &cycles) < 0) {
        goto done;
    }
    if (cycles > 0) {
        View *v = c.v;
        Py_ssize_t nreads = PyList_GET_SIZE(v->read_queue);
        if (nreads > LLONG_MAX / cycles) {
            overflow();
            goto done;
        }
        if (add_ll(v->stats, &STATS, S_OCCUPANCY, nreads * cycles) < 0
            || add_ll(v->stats, &STATS, S_SAMPLES, cycles) < 0) {
            goto done;
        }
        if (nreads) {
            int ncrit;
            if (count_critical(v->read_queue, &ncrit) < 0
                || (ncrit >= 1
                    && add_ll(v->stats, &STATS, S_CRIT_CYCLES, cycles) < 0)
                || (ncrit > 1
                    && add_ll(v->stats, &STATS, S_MULTI_CYCLES,
                              cycles) < 0)) {
                goto done;
            }
        }
    }
    result = Py_None;
    Py_INCREF(result);

done:
    ctl_close(&c);
    return result;
}

/* ``channel.step(dram_obj)``: 0 or -1.  The step runs here, with no Python
 * frame, while ``channel.step`` resolves to the class's own
 * ChannelController.step (neither the class nor the channel replaces it);
 * otherwise it is called by name, so a wrapper sees every call. */
static int
step_channel(PyObject *channel, PyObject *dram_obj)
{
    if (bind_models() < 0) {
        return -1;
    }
    PyObject *step = PyObject_GetAttr((PyObject *)Py_TYPE(channel), str_step);
    int own = step == own_step;
    Py_XDECREF(step);
    if (own) {
        PyObject *dict = PyObject_GenericGetDict(channel, NULL);
        if (dict == NULL) {
            return -1;
        }
        PyObject *mine = PyDict_GetItemWithError(dict, str_step);
        Py_DECREF(dict);
        if (mine == NULL && PyErr_Occurred()) {
            return -1;
        }
        own = mine == NULL;
    }
    else if (step == NULL) {
        /* The call by name raises the lookup's error again. */
        PyErr_Clear();
    }
    if (!own) {
        return call_void(str_step, channel, &dram_obj, 1);
    }
    Ctl c;
    if (ctl_open(&c, channel) < 0) {
        return -1;
    }
    int failed = channel_step(&c, dram_obj);
    ctl_close(&c);
    return failed;
}

/* The DRAM edge ``cpu_now`` falls on, or 0 when it is not an edge (-1 on
 * error); ``*dict`` is a new reference to the memory system's __dict__. */
static int
dram_edge(PyObject *memory, PyObject *cpu_obj, PyObject **dict,
          PyObject **dram_obj, long long *dram_now)
{
    long long cpu_now, ratio;
    *dram_obj = NULL;
    if ((*dict = PyObject_GenericGetDict(memory, NULL)) == NULL) {
        return -1;
    }
    if (dict_ll(*dict, str_ratio, &ratio) < 0
        || as_cycle(cpu_obj, &cpu_now) < 0) {
        return -1;
    }
    if (ratio == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "integer division or modulo by zero");
        return -1;
    }
    if (floor_mod(cpu_now, ratio)) {
        return 0;
    }
    *dram_now = floor_div(cpu_now, ratio);
    *dram_obj = PyLong_FromLongLong(*dram_now);
    return *dram_obj == NULL ? -1 : 1;
}

/* memory_step(memory, cpu_now): MemorySystem.step */
static PyObject *
k_memory_step(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("memory_step", nargs, 2)) {
        return NULL;
    }
    PyObject *dict, *dram_obj, *channels = NULL, *result = NULL;
    long long dram_now;
    int edge = dram_edge(args[0], args[1], &dict, &dram_obj, &dram_now);
    if (edge <= 0) {
        if (edge == 0) {
            result = Py_None;
            Py_INCREF(result);
        }
        goto done;
    }
    if ((channels = dict_get(dict, str_channels)) == NULL) {
        goto done;
    }
    if (!PyList_CheckExact(channels)) {
        PyErr_SetString(PyExc_TypeError, "channels must be a list");
        goto done;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(channels); i++) {
        PyObject *channel = PyList_GET_ITEM(channels, i);
        Py_INCREF(channel);
        int failed = step_channel(channel, dram_obj);
        Py_DECREF(channel);
        if (failed) {
            goto done;
        }
    }
    result = Py_None;
    Py_INCREF(result);

done:
    Py_XDECREF(channels);
    Py_XDECREF(dram_obj);
    Py_XDECREF(dict);
    return result;
}

/* step_window(memory, cpu_now): MemorySystem.step_window */
static PyObject *
k_step_window(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("step_window", nargs, 2)) {
        return NULL;
    }
    PyObject *dict, *dram_obj, *result = NULL;
    PyObject *wakes = NULL, *settled = NULL, *channels = NULL;
    long long dram_now;
    int edge = dram_edge(args[0], args[1], &dict, &dram_obj, &dram_now);
    if (edge <= 0) {
        if (edge == 0) {
            result = Py_None;
            Py_INCREF(result);
        }
        goto done;
    }
    if ((wakes = dict_get(dict, str_chan_wake)) == NULL
        || (settled = dict_get(dict, str_chan_settled)) == NULL
        || (channels = dict_get(dict, str_channels)) == NULL) {
        goto done;
    }
    if (!PyList_CheckExact(wakes) || !PyList_CheckExact(settled)
        || !PyList_CheckExact(channels)) {
        PyErr_SetString(PyExc_TypeError,
                        "channels, _chan_wake and _chan_settled must be lists");
        goto done;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(channels); i++) {
        long long wake, done_to;
        if (i >= PyList_GET_SIZE(wakes) || i >= PyList_GET_SIZE(settled)) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            goto done;
        }
        if (as_cycle(PyList_GET_ITEM(wakes, i), &wake) < 0) {
            goto done;
        }
        if (wake > dram_now) {
            continue;
        }
        if (as_cycle(PyList_GET_ITEM(settled, i), &done_to) < 0) {
            goto done;
        }
        PyObject *channel = PyList_GET_ITEM(channels, i);
        Py_INCREF(channel);
        int failed = 0;
        if (dram_now - done_to > 0) {
            PyObject *gap = PyLong_FromLongLong(dram_now - done_to);
            failed = gap == NULL
                || call_void(str_account_window, channel, &gap, 1) < 0;
            Py_XDECREF(gap);
        }
        PyObject *next = NULL;
        failed = failed || step_channel(channel, dram_obj) < 0
            || set_item(settled, i, PyLong_FromLongLong(dram_now + 1)) < 0
            || (next = call_method(str_next_wake_window, channel, &dram_obj,
                                   1)) == NULL
            || set_item(wakes, i, next) < 0;
        Py_DECREF(channel);
        if (failed) {
            goto done;
        }
    }
    result = Py_None;
    Py_INCREF(result);

done:
    Py_XDECREF(wakes);
    Py_XDECREF(settled);
    Py_XDECREF(channels);
    Py_XDECREF(dram_obj);
    Py_XDECREF(dict);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"step", (PyCFunction)(void (*)(void))k_step, METH_FASTCALL,
     "step(controller, now): ChannelController.step."},
    {"next_wake_window", (PyCFunction)(void (*)(void))k_next_wake_window,
     METH_FASTCALL,
     "next_wake_window(controller, dram_now): "
     "ChannelController.next_wake_window."},
    {"account_window", (PyCFunction)(void (*)(void))k_account_window,
     METH_FASTCALL,
     "account_window(controller, cycles): ChannelController.account_window."},
    {"memory_step", (PyCFunction)(void (*)(void))k_memory_step,
     METH_FASTCALL, "memory_step(memory, cpu_now): MemorySystem.step."},
    {"step_window", (PyCFunction)(void (*)(void))k_step_window,
     METH_FASTCALL, "step_window(memory, cpu_now): MemorySystem.step_window."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled per-edge path of repro.dram.controller.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
#define INTERN(id, text)                                                    \
    if (str_##id == NULL                                                    \
        && (str_##id = PyUnicode_InternFromString(text)) == NULL) {         \
        return NULL;                                                        \
    }
    NAMES(INTERN)
#undef INTERN
    if (PyType_Ready(&ViewType) < 0) {
        return NULL;
    }
    return PyModule_Create(&kernel_module);
}
