/* Compiled event queue of the simulator (repro.sim.events), the
 * determinism chain's fold (repro.analysis.detchain) and the naive
 * engine's cycle loop (repro.sim.system).
 *
 * EventQueue here is the base type of repro.sim.events.EventQueue: a
 * binary min-heap of (cycle, seq, fn) entries in a C array, ordered by
 * (cycle, seq).  schedule, run_due, next_cycle, clear, pending and
 * __len__ are C methods that do what HeapEventQueue (the heapq body in
 * events.py, the reference and the no-compiler fallback) does:
 *
 * - schedule(cycle, fn) numbers the event with the next sequence number
 *   (the first is 1), so events of one cycle fire in scheduling order;
 *   clear() drops every event and the numbering goes on.
 * - run_due(now) pops the earliest event and calls it while one at or
 *   before ``now`` remains, so a callback's own events at or before
 *   ``now`` fire in the same call (the reentrancy contract in
 *   HeapEventQueue.run_due).  An event is popped before its callback
 *   runs, and nothing in the heap is held across a callback, which may
 *   schedule, clear or run the queue.  An exception from a callback
 *   propagates unchanged; the events still due stay queued.
 * - Cycles are C long long: a cycle that is not an int, or beyond one,
 *   raises TypeError or OverflowError.
 *
 * The queue is GC-tracked: the callbacks close over the models that
 * scheduled them.  Python subclasses it so that the methods stay class
 * attributes that a tracer can wrap by name.
 *
 * fold(digest, cycle, words) is the determinism chain's FNV-1a fold
 * (repro.analysis.detchain.DetChain.sample and finalize, whose Python
 * loops are the reference): the cycle, then each word, each taken mod
 * 2**64 as ``value & (2**64 - 1)`` takes it (negative and wider ints
 * included), folded eight bytes at a time, least significant first.
 *
 * run_cycles(system, core_phase, memory_step, now, remaining, stop, cap)
 * is the naive engine's cycle loop (repro.sim.system.System._run_naive,
 * whose Python body is the reference and the fallback).  From cycle
 * ``now`` it runs, cycle after cycle, what that body runs:
 *
 * - the cap: at the top of a cycle at or past ``cap`` (None: no cap) it
 *   returns before running the cycle;
 * - run_due(now) on the system's queue, which must be this file's heap;
 * - memory_step(memory, now), the DRAM kernel's MemorySystem.step;
 * - core_phase(system.cores, system._finish_cycles, now), the core
 *   kernel's core phase: for each core of the list that is not ``done``,
 *   in list order, OutOfOrderCore.step's kernel, and for a core that is
 *   ``done`` after it _finish_cycles[core.core_id] = now + 1; it returns
 *   how many finished, and ``remaining`` counts down by that;
 * - at the sample cycle ``stop`` (None: none) it returns after the core
 *   phase, leaving the det-chain fold and the clock's advance to the
 *   caller; otherwise system._now = now + 1 ends the cycle, and it returns
 *   once ``remaining`` is 0.
 *
 * It returns (now, remaining, sampled): ``sampled`` is True at ``stop``.
 * core_phase and memory_step are called by vectorcall, once per cycle
 * each, so no Python frame sits between them and the models; the events,
 * the cores' hooks and the schedulers call out to Python as they do from
 * the Python loop.  PyErr_CheckSignals() runs at the top of every cycle,
 * so Python signal handlers run on the Python loop's cadence, and an
 * exception from any call or handler propagates with _now,
 * _finish_cycles and every model as the Python loop leaves them.  The
 * caller chooses this loop only while nothing it bypasses is replaced
 * and no telemetry sampler is attached (System._compiled_loop): each
 * core's step must resolve to OutOfOrderCore.step, checked when the run
 * starts and again each time this function returns.
 *
 * Built by repro.cpu.native with the interpreter's compiler and headers;
 * it uses only the C API of CPython 3.9 and later.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    long long cycle, seq;
    PyObject *fn;
} Entry;

typedef struct {
    PyObject_HEAD
    Entry *heap;
    Py_ssize_t n, cap;
    long long seq;
} Queue;

static inline int
before(const Entry *a, const Entry *b)
{
    return a->cycle < b->cycle || (a->cycle == b->cycle && a->seq < b->seq);
}

static void
sift_up(Entry *heap, Py_ssize_t k)
{
    Entry item = heap[k];
    while (k > 0) {
        Py_ssize_t parent = (k - 1) >> 1;
        if (!before(&item, &heap[parent])) {
            break;
        }
        heap[k] = heap[parent];
        k = parent;
    }
    heap[k] = item;
}

static void
sift_down(Entry *heap, Py_ssize_t n, Py_ssize_t k)
{
    Entry item = heap[k];
    for (;;) {
        Py_ssize_t child = 2 * k + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && before(&heap[child + 1], &heap[child])) {
            child += 1;
        }
        if (!before(&heap[child], &item)) {
            break;
        }
        heap[k] = heap[child];
        k = child;
    }
    heap[k] = item;
}

/* Remove the earliest entry; its callback is the caller's reference. */
static Entry
pop(Queue *self)
{
    Entry first = self->heap[0];
    self->n -= 1;
    if (self->n > 0) {
        self->heap[0] = self->heap[self->n];
        sift_down(self->heap, self->n, 0);
    }
    return first;
}

static PyObject *
queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "EventQueue() takes no arguments");
        return NULL;
    }
    Queue *self = (Queue *)type->tp_alloc(type, 0);
    if (self != NULL) {
        self->heap = NULL;
        self->n = self->cap = 0;
        self->seq = 0;
    }
    return (PyObject *)self;
}

static int
queue_traverse(Queue *self, visitproc visit, void *arg)
{
    for (Py_ssize_t k = 0; k < self->n; k++) {
        Py_VISIT(self->heap[k].fn);
    }
    return 0;
}

/* Drop every entry.  The array is detached first: releasing a callback
 * may run code that schedules into this queue. */
static int
queue_clear(Queue *self)
{
    Entry *heap = self->heap;
    Py_ssize_t n = self->n;
    self->heap = NULL;
    self->n = self->cap = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        Py_DECREF(heap[k].fn);
    }
    PyMem_Free(heap);
    return 0;
}

static void
queue_dealloc(Queue *self)
{
    PyObject_GC_UnTrack(self);
    queue_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
as_cycle(PyObject *value, long long *out)
{
    long long x = PyLong_AsLongLong(value);
    if (x == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

/* EventQueue.schedule(cycle, fn) */
static PyObject *
queue_schedule(Queue *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long cycle;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "schedule() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (as_cycle(args[0], &cycle) < 0) {
        return NULL;
    }
    if (self->n == self->cap) {
        Py_ssize_t cap = self->cap ? 2 * self->cap : 64;
        Entry *heap = PyMem_Realloc(self->heap, cap * sizeof(Entry));
        if (heap == NULL) {
            return PyErr_NoMemory();
        }
        self->heap = heap;
        self->cap = cap;
    }
    self->seq += 1;
    Entry *slot = &self->heap[self->n];
    slot->cycle = cycle;
    slot->seq = self->seq;
    Py_INCREF(args[1]);
    slot->fn = args[1];
    self->n += 1;
    sift_up(self->heap, self->n - 1);
    Py_RETURN_NONE;
}

/* Fire every event at or before ``now``: the number fired, or -1. */
static long long
run_due(Queue *self, long long now)
{
    long long fired = 0;
    while (self->n > 0 && self->heap[0].cycle <= now) {
        PyObject *fn = pop(self).fn;
        PyObject *result = PyObject_CallNoArgs(fn);
        Py_DECREF(fn);
        if (result == NULL) {
            return -1;
        }
        Py_DECREF(result);
        fired += 1;
    }
    return fired;
}

/* EventQueue.run_due(now): the number of events fired. */
static PyObject *
queue_run_due(Queue *self, PyObject *now_obj)
{
    long long now, fired;
    if (as_cycle(now_obj, &now) < 0 || (fired = run_due(self, now)) < 0) {
        return NULL;
    }
    return PyLong_FromLongLong(fired);
}

/* EventQueue.next_cycle() */
static PyObject *
queue_next_cycle(Queue *self, PyObject *unused)
{
    if (self->n == 0) {
        Py_RETURN_NONE;
    }
    return PyLong_FromLongLong(self->heap[0].cycle);
}

/* EventQueue.clear() */
static PyObject *
queue_clear_method(Queue *self, PyObject *unused)
{
    queue_clear(self);
    Py_RETURN_NONE;
}

/* EventQueue.pending(): the pending events as sorted (cycle, seq, fn). */
static PyObject *
queue_pending(Queue *self, PyObject *unused)
{
    PyObject *events = PyList_New(self->n);
    if (events == NULL) {
        return NULL;
    }
    for (Py_ssize_t k = 0; k < self->n; k++) {
        Entry *e = &self->heap[k];
        PyObject *item = Py_BuildValue("(LLO)", e->cycle, e->seq, e->fn);
        if (item == NULL) {
            Py_DECREF(events);
            return NULL;
        }
        PyList_SET_ITEM(events, k, item);
    }
    /* Sequence numbers are unique, so no two items compare their fn. */
    if (PyList_Sort(events) < 0) {
        Py_DECREF(events);
        return NULL;
    }
    return events;
}

static Py_ssize_t
queue_len(Queue *self)
{
    return self->n;
}

static PyMethodDef queue_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))queue_schedule, METH_FASTCALL,
     "schedule(cycle, fn): run fn() when the clock reaches cycle."},
    {"run_due", (PyCFunction)queue_run_due, METH_O,
     "run_due(now): fire every event at or before now; return the count."},
    {"next_cycle", (PyCFunction)queue_next_cycle, METH_NOARGS,
     "next_cycle(): the earliest pending event's cycle, or None."},
    {"clear", (PyCFunction)queue_clear_method, METH_NOARGS,
     "clear(): drop every pending event (numbering goes on)."},
    {"pending", (PyCFunction)queue_pending, METH_NOARGS,
     "pending(): the pending events as a sorted list of (cycle, seq, fn)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = (lenfunc)queue_len,
};

#define FNV_PRIME 0x100000001B3ULL

/* Fold the eight bytes of ``v`` into ``h``, least significant first. */
static inline unsigned long long
fold_word(unsigned long long h, unsigned long long v)
{
    for (int k = 0; k < 8; k++) {
        h = (h ^ (v & 0xFF)) * FNV_PRIME;
        v >>= 8;
    }
    return h;
}

/* ``value & (2**64 - 1)``, or -1 with an error set. */
static int
word(PyObject *value, unsigned long long *out)
{
    unsigned long long x = PyLong_AsUnsignedLongLongMask(value);
    if (x == (unsigned long long)-1 && PyErr_Occurred()) {
        return -1;
    }
    *out = x;
    return 0;
}

/* fold(digest, cycle, words): the digest after folding one sample. */
static PyObject *
kernel_fold(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    unsigned long long h, v;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "fold() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (word(args[0], &h) < 0 || word(args[1], &v) < 0) {
        return NULL;
    }
    h = fold_word(h, v);
    PyObject *words = PySequence_Fast(args[2], "words must be iterable");
    if (words == NULL) {
        return NULL;
    }
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(words); k++) {
        if (word(PySequence_Fast_GET_ITEM(words, k), &v) < 0) {
            Py_DECREF(words);
            return NULL;
        }
        h = fold_word(h, v);
    }
    Py_DECREF(words);
    return PyLong_FromUnsignedLongLong(h);
}

static PyTypeObject QueueType;

/* Interned attribute names, as NAME(identifier, text). */
#define NAMES(NAME)                                                        \
    NAME(events, "events") NAME(memory, "memory") NAME(cores, "cores")    \
    NAME(finish, "_finish_cycles") NAME(now, "_now")

#define DECLARE_NAME(id, text) static PyObject *str_##id;
NAMES(DECLARE_NAME)

/* A cycle argument that may be None (``*set`` is then 0). */
static int
optional_cycle(PyObject *value, long long *out, int *set)
{
    *set = value != Py_None;
    return *set ? as_cycle(value, out) : 0;
}

/* run_cycles(system, core_phase, memory_step, now, remaining, stop, cap) */
static PyObject *
kernel_run_cycles(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    long long now, remaining, stop = 0, cap = 0;
    int has_stop, has_cap, sampled = 0;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "run_cycles() takes 7 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *system = args[0], *core_phase = args[1];
    PyObject *memory_step = args[2];
    if (as_cycle(args[3], &now) < 0 || as_cycle(args[4], &remaining) < 0
        || optional_cycle(args[5], &stop, &has_stop) < 0
        || optional_cycle(args[6], &cap, &has_cap) < 0) {
        return NULL;
    }
    PyObject *events = NULL, *memory = NULL, *cores = NULL, *finish = NULL;
    PyObject *now_obj = NULL, *result = NULL;
    if ((events = PyObject_GetAttr(system, str_events)) == NULL
        || (memory = PyObject_GetAttr(system, str_memory)) == NULL
        || (cores = PyObject_GetAttr(system, str_cores)) == NULL
        || (finish = PyObject_GetAttr(system, str_finish)) == NULL) {
        goto done;
    }
    if (!PyObject_TypeCheck(events, &QueueType) || !PyList_Check(cores)) {
        PyErr_SetString(PyExc_TypeError, "the compiled loop runs a compiled "
                        "EventQueue and a list of cores");
        goto done;
    }
    if ((now_obj = PyLong_FromLongLong(now)) == NULL) {
        goto done;
    }
    for (;;) {
        if (PyErr_CheckSignals() < 0) {
            goto done;
        }
        if (has_cap && now >= cap) {
            break;
        }
        if (run_due((Queue *)events, now) < 0) {
            goto done;
        }
        PyObject *memory_args[] = {memory, now_obj};
        PyObject *out = PyObject_Vectorcall(memory_step, memory_args, 2, NULL);
        if (out == NULL) {
            goto done;
        }
        Py_DECREF(out);
        /* The core phase returns how many cores finished. */
        PyObject *phase_args[] = {cores, finish, now_obj};
        long long finished;
        out = PyObject_Vectorcall(core_phase, phase_args, 3, NULL);
        int failed = out == NULL || as_cycle(out, &finished) < 0;
        Py_XDECREF(out);
        if (failed) {
            goto done;
        }
        remaining -= finished;
        if (has_stop && now == stop) {
            sampled = 1;
            break;
        }
        PyObject *next = PyLong_FromLongLong(now + 1);
        if (next == NULL) {
            goto done;
        }
        Py_DECREF(now_obj);
        now_obj = next;
        if (PyObject_SetAttr(system, str_now, now_obj) < 0) {
            goto done;
        }
        now += 1;
        if (!remaining) {
            break;
        }
    }
    result = Py_BuildValue("(LLO)", now, remaining,
                           sampled ? Py_True : Py_False);

done:
    Py_XDECREF(now_obj);
    Py_XDECREF(finish);
    Py_XDECREF(cores);
    Py_XDECREF(memory);
    Py_XDECREF(events);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"fold", (PyCFunction)(void (*)(void))kernel_fold, METH_FASTCALL,
     "fold(digest, cycle, words): the det-chain digest after one sample."},
    {"run_cycles", (PyCFunction)(void (*)(void))kernel_run_cycles,
     METH_FASTCALL,
     "run_cycles(system, core_phase, memory_step, now, remaining, stop, "
     "cap): "
     "the naive engine's cycles, up to a sample cycle, the cap or the end; "
     "returns (now, remaining, sampled)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject QueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._kernel.EventQueue",
    .tp_basicsize = sizeof(Queue),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Min-heap of (cycle, seq, fn) callbacks.",
    .tp_new = queue_new,
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_clear,
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_methods = queue_methods,
    .tp_as_sequence = &queue_as_sequence,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled event queue of repro.sim.events, the determinism "
             "chain's fold and the naive engine's cycle loop.",
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
    if (PyType_Ready(&QueueType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&QueueType);
    if (PyModule_AddObject(module, "EventQueue", (PyObject *)&QueueType) < 0) {
        Py_DECREF(&QueueType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
