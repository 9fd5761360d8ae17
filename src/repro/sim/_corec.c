/* Compiled engine core: Event / SeriesEvent / Simulator in C.
 *
 * A hand-written CPython extension mirroring repro/sim/engine.py
 * statement for statement where it matters: the binary heap, series
 * events, handle-free fire-and-forget events (schedule_anon), and lazy
 * postpone.  The contract is *bit-exact equivalence* with the
 * pure-Python engine — same (time, priority, seq) total order, same seq
 * draws on every path (including error paths: validation happens before
 * the seq draw, exactly like the pure code), same counters in
 * queue_stats(), same exception types and messages.
 *
 * The golden-master suite and the scheduler fuzz test pin this: any
 * divergence from engine.py is a bug here, not a tolerance.
 *
 * Built optionally (setup.py marks the extension optional, and stamps it
 * with a hash of this file); the selector in repro/sim/_core.py falls
 * back to the pure engine when this module is absent, was built from
 * some other state of this file, or REPRO_NO_COMPILED is set.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

/* ---------------------------------------------------------------- tuning */

#define COMPACT_MIN_DEAD 64   /* never compact below this many dead */

/* sha256 of this file at build time (-D from setup.py); compared with
 * the source on disk by repro/sim/_core.py. */
#ifndef COREC_SOURCE_HASH
#define COREC_SOURCE_HASH "unstamped"
#endif

enum { EV_PLAIN = 0, EV_SERIES = 1 };

/* ------------------------------------------------------------- entries */

/* One queued entry: the (time, priority, seq) tuple of the pure engine,
 * flattened into a struct.  `ev` is a strong reference: to the handle,
 * or — a handle-free schedule_anon entry — to that call's own argument
 * tuple (time, fn, *args), which is all there is to remember of it.
 * Nothing can cancel or postpone such an entry; it is always live. */
typedef struct {
    double time;
    long prio;
    long long seq;
    PyObject *ev;
} Entry;

/* A growable Entry array, kept as a binary heap. */
typedef struct {
    Entry *a;
    Py_ssize_t len;
    Py_ssize_t cap;
} EVec;

static void
evec_init(EVec *v)
{
    v->a = NULL;
    v->len = 0;
    v->cap = 0;
}

static void
evec_free(EVec *v)
{
    PyMem_Free(v->a);
    v->a = NULL;
    v->len = 0;
    v->cap = 0;
}

static int
evec_reserve(EVec *v, Py_ssize_t need)
{
    if (need <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 8;
    while (cap < need)
        cap += cap;
    Entry *a = (Entry *)PyMem_Realloc(v->a, (size_t)cap * sizeof(Entry));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->a = a;
    v->cap = cap;
    return 0;
}

static inline int
entry_lt(const Entry *x, const Entry *y)
{
    if (x->time != y->time)
        return x->time < y->time;
    if (x->prio != y->prio)
        return x->prio < y->prio;
    return x->seq < y->seq;
}

/* Binary-heap ops over an EVec; same sift algorithm as heapq. */
static int
eheap_push(EVec *v, Entry e)
{
    if (evec_reserve(v, v->len + 1) < 0)
        return -1;
    Py_ssize_t pos = v->len++;
    Entry *a = v->a;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&e, &a[parent]))
            break;
        a[pos] = a[parent];
        pos = parent;
    }
    a[pos] = e;
    return 0;
}

/* Pop the min entry; caller owns the returned reference. */
static Entry
eheap_pop(EVec *v)
{
    Entry *a = v->a;
    Entry top = a[0];
    Py_ssize_t n = --v->len;
    if (n > 0) {
        Entry last = a[n];
        Py_ssize_t pos = 0, child;
        while ((child = 2 * pos + 1) < n) {
            if (child + 1 < n && entry_lt(&a[child + 1], &a[child]))
                child += 1;
            if (!entry_lt(&a[child], &last))
                break;
            a[pos] = a[child];
            pos = child;
        }
        a[pos] = last;
    }
    return top;
}

static void
eheap_heapify(EVec *v)
{
    Py_ssize_t n = v->len;
    Entry *a = v->a;
    for (Py_ssize_t i = n / 2 - 1; i >= 0; i--) {
        Entry item = a[i];
        Py_ssize_t pos = i, child;
        while ((child = 2 * pos + 1) < n) {
            if (child + 1 < n && entry_lt(&a[child + 1], &a[child]))
                child += 1;
            if (!entry_lt(&a[child], &item))
                break;
            a[pos] = a[child];
            pos = child;
        }
        a[pos] = item;
    }
}

/* --------------------------------------------------------------- types */

typedef struct {
    PyObject_HEAD
    double time;
    long priority;
    long long seq;
    PyObject *fn;      /* NULL = cancelled or fired */
    PyObject *args;    /* tuple; NULL means () */
    PyObject *sim;     /* owning Simulator (strong ref; cycle via queue) */
    PyObject *times;   /* list of floats, series only */
    Py_ssize_t index;  /* series: position currently queued / just fired */
    int kind;          /* EV_PLAIN / EV_SERIES */
    char stop_flag;    /* series: end after the current firing */
    char queued;       /* series: an entry for this handle is in the queue */
} CoreEvent;

typedef struct {
    PyObject_HEAD
    double now;
    long long next_seq;
    int running;
    int stopped;
    long long events_executed;
    /* queue counters (queue_stats); queued is heap.len, live the rest */
    long long dead;          /* cancelled entries not yet discarded */
    long long peak;
    long long pushes;
    EVec heap;
} CoreSim;

static PyTypeObject Event_Type;
static PyTypeObject SeriesEvent_Type;
static PyTypeObject Simulator_Type;

static PyObject *empty_tuple;   /* shared () */

/* A handle-free entry holds an argument tuple where others hold a handle. */
#define ENTRY_IS_ANON(e) PyTuple_CheckExact((e)->ev)

static void sim_note_cancel(CoreSim *sim);

/* ---------------------------------------------------------------- Event */

/* Cancel bookkeeping shared by every kind: null the callback in place,
 * tell the simulator (dead++, maybe compact).  Mirrors
 * Event.cancel + Simulator._on_cancel in the pure engine. */
static void
event_cancel_impl(CoreEvent *ev)
{
    if (ev->fn == NULL)
        return;
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    if (ev->sim != NULL)
        sim_note_cancel((CoreSim *)ev->sim);
}

static PyObject *
event_cancel(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->kind == EV_SERIES) {
        /* SeriesEvent.cancel: drop the queued entry, or stop mid-fire. */
        if (ev->fn != NULL) {
            if (ev->queued)
                event_cancel_impl(ev);
            else
                ev->stop_flag = 1;
        }
    }
    else {
        event_cancel_impl(ev);
    }
    Py_RETURN_NONE;
}

static PyObject *
series_stop(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->queued) {
        if (ev->fn != NULL)
            event_cancel_impl(ev);
    }
    else {
        ev->stop_flag = 1;
    }
    Py_RETURN_NONE;
}

static PyObject *
series_extend(PyObject *self, PyObject *more_times)
{
    CoreEvent *ev = (CoreEvent *)self;
    PyObject *times = ev->times;
    if (times == NULL || !PyList_CheckExact(times)) {
        PyErr_SetString(PyExc_ValueError, "not a series event");
        return NULL;
    }
    /* [float(t) for t in more_times] */
    PyObject *fresh = PySequence_List(more_times);
    if (fresh == NULL)
        return NULL;
    Py_ssize_t n = PyList_GET_SIZE(fresh);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyNumber_Float(PyList_GET_ITEM(fresh, i));
        if (f == NULL) {
            Py_DECREF(fresh);
            return NULL;
        }
        PyList_SET_ITEM(fresh, i, f);   /* steals f, drops the old item */
    }
    /* Validate everything before mutating: nothing is appended unless
     * every time passes (same contract as the pure engine). */
    double prev = PyFloat_AsDouble(
        PyList_GET_ITEM(times, PyList_GET_SIZE(times) - 1));
    if (prev == -1.0 && PyErr_Occurred()) {
        Py_DECREF(fresh);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AS_DOUBLE(PyList_GET_ITEM(fresh, i));
        if (!(prev <= t && t < INFINITY)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *po = PyFloat_FromDouble(prev);
            PyErr_Format(PyExc_ValueError,
                         "series times must be finite and ascending "
                         "(got %S after %S)", to, po);
            Py_XDECREF(to);
            Py_XDECREF(po);
            Py_DECREF(fresh);
            return NULL;
        }
        prev = t;
    }
    /* Prune the consumed prefix (current time stays at position 0). */
    if (ev->index) {
        if (PyList_SetSlice(times, 0, ev->index, NULL) < 0) {
            Py_DECREF(fresh);
            return NULL;
        }
        ev->index = 0;
    }
    Py_ssize_t base = PyList_GET_SIZE(times);
    if (PyList_SetSlice(times, base, base, fresh) < 0) {
        Py_DECREF(fresh);
        return NULL;
    }
    Py_DECREF(fresh);
    Py_RETURN_NONE;
}

static PyObject *
event_get_fn(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->fn == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(ev->fn);
}

static PyObject *
event_get_args(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->args == NULL)
        return Py_NewRef(empty_tuple);
    return Py_NewRef(ev->args);
}

static PyObject *
event_get_cancelled(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    return PyBool_FromLong(ev->fn == NULL);
}

static PyObject *
event_get_times(PyObject *self, void *Py_UNUSED(closure))
{
    CoreEvent *ev = (CoreEvent *)self;
    if (ev->kind == EV_PLAIN || ev->times == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(ev->times);
}

static PyObject *
event_repr(PyObject *self)
{
    CoreEvent *ev = (CoreEvent *)self;
    PyObject *t = PyFloat_FromDouble(ev->time);
    if (t == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "Event(t=%S, prio=%ld, %s)", t, ev->priority,
        ev->fn == NULL ? "cancelled" : "pending");
    Py_DECREF(t);
    return r;
}

static int
event_traverse(PyObject *self, visitproc visit, void *arg)
{
    CoreEvent *ev = (CoreEvent *)self;
    Py_VISIT(ev->fn);
    Py_VISIT(ev->args);
    Py_VISIT(ev->sim);
    Py_VISIT(ev->times);
    return 0;
}

static int
event_clear(PyObject *self)
{
    CoreEvent *ev = (CoreEvent *)self;
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    Py_CLEAR(ev->sim);
    Py_CLEAR(ev->times);
    return 0;
}

static void
event_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyMemberDef event_members[] = {
    {"time", T_DOUBLE, offsetof(CoreEvent, time), READONLY,
     "Absolute fire time (seconds)."},
    {"priority", T_LONG, offsetof(CoreEvent, priority), READONLY,
     "Tie-break priority (lower fires first)."},
    {"seq", T_LONGLONG, offsetof(CoreEvent, seq), READONLY,
     "Monotone scheduling-order tie-breaker."},
    {NULL}
};

static PyGetSetDef event_getset[] = {
    {"fn", event_get_fn, NULL, "The callback, or None once cancelled/fired.", NULL},
    {"args", event_get_args, NULL, "Callback arguments.", NULL},
    {"cancelled", event_get_cancelled, NULL,
     "True once cancel() has been called (or the event ran).", NULL},
    {"times", event_get_times, NULL,
     "Series schedule (list), or None for a plain event.", NULL},
    {NULL}
};

static PyMethodDef event_methods[] = {
    {"cancel", event_cancel, METH_NOARGS,
     "Mark the event as cancelled; it is skipped when popped."},
    {NULL}
};

static PyMemberDef series_members[] = {
    {"index", T_PYSSIZET, offsetof(CoreEvent, index), READONLY,
     "Position currently queued (or just fired) in times."},
    {NULL}
};

static PyMethodDef series_methods[] = {
    {"extend", series_extend, METH_O,
     "Append further ascending fire times to the schedule."},
    {"stop", series_stop, METH_NOARGS,
     "End the series: no further firings."},
    {NULL}
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.Event",
    .tp_basicsize = sizeof(CoreEvent),
    .tp_dealloc = event_dealloc,
    .tp_repr = event_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Handle to one scheduled callback (compiled core).",
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_methods = event_methods,
    .tp_members = event_members,
    .tp_getset = event_getset,
    .tp_new = PyType_GenericNew,
};

static PyTypeObject SeriesEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.SeriesEvent",
    .tp_basicsize = sizeof(CoreEvent),
    .tp_dealloc = event_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "One handle that fires at every time of a precomputed schedule.",
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_methods = series_methods,
    .tp_members = series_members,
    .tp_base = &Event_Type,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------ queue plumbing */

/* Compaction: drop every cancelled entry, re-file stale (postponed)
 * ones at their true deadlines, re-heapify. */
static void
heap_compact(CoreSim *sim)
{
    EVec *heap = &sim->heap;
    Entry *a = heap->a;
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < heap->len; i++) {
        if (!ENTRY_IS_ANON(&a[i])) {
            CoreEvent *ev = (CoreEvent *)a[i].ev;
            if (ev->fn == NULL) {
                Py_DECREF((PyObject *)ev);
                continue;
            }
            if (a[i].seq != ev->seq) {
                a[i].time = ev->time;
                a[i].prio = ev->priority;
                a[i].seq = ev->seq;
            }
        }
        a[out++] = a[i];
    }
    heap->len = out;
    eheap_heapify(heap);
    sim->dead = 0;
}

static void
sim_note_cancel(CoreSim *sim)
{
    sim->dead++;
    if (sim->dead > COMPACT_MIN_DEAD && sim->dead > sim->heap.len - sim->dead)
        heap_compact(sim);
}

/* Insert one entry (ref transferred), counters included. */
static int
sim_push_entry(CoreSim *sim, Entry e)
{
    if (eheap_push(&sim->heap, e) < 0)
        return -1;
    sim->pushes++;
    if (sim->heap.len > sim->peak)
        sim->peak = sim->heap.len;
    return 0;
}

/* The top entry is cancelled (discard it) or stale (re-file it at the
 * handle's true deadline without executing).  Returns 1 when it was
 * either, 0 when it is live, -1 on OOM. */
static int
heap_settle_top(CoreSim *sim)
{
    EVec *heap = &sim->heap;
    Entry *top = &heap->a[0];
    if (ENTRY_IS_ANON(top))
        return 0;
    CoreEvent *ev = (CoreEvent *)top->ev;
    if (ev->fn == NULL) {
        Entry e = eheap_pop(heap);
        Py_DECREF(e.ev);
        sim->dead--;
        return 1;
    }
    if (top->seq != ev->seq) {
        Entry e = eheap_pop(heap);
        e.time = ev->time;
        e.prio = ev->priority;
        e.seq = ev->seq;
        if (eheap_push(heap, e) < 0) {
            Py_DECREF(e.ev);
            return -1;
        }
        sim->pushes++;
        return 1;
    }
    return 0;
}

/* ------------------------------------------------------------ execution */

/* Execute one popped entry (ref transferred).  Kept in lockstep with
 * the pure run loop: a handle-free entry just calls fn(*args) out of
 * the argument tuple it holds, plain events null their callback *before*
 * it runs, series handles re-insert with a seq drawn *after* the
 * callback. */
static int
exec_entry(CoreSim *sim, Entry *e)
{
    sim->now = e->time;
    if (ENTRY_IS_ANON(e)) {
        /* (time, fn, *args): call fn on the tail, in place. */
        PyObject **items = ((PyTupleObject *)e->ev)->ob_item;
        PyObject *res = PyObject_Vectorcall(
            items[1], items + 2, (size_t)(PyTuple_GET_SIZE(e->ev) - 2), NULL);
        Py_DECREF(e->ev);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        sim->events_executed++;
        return 0;
    }
    CoreEvent *ev = (CoreEvent *)e->ev;
    if (ev->kind == EV_SERIES) {
        ev->queued = 0;
        PyObject *res = PyObject_Call(
            ev->fn, ev->args ? ev->args : empty_tuple, NULL);
        if (res == NULL) {
            Py_DECREF(e->ev);
            return -1;
        }
        Py_DECREF(res);
        Py_ssize_t index = ev->index + 1;
        if (!ev->stop_flag && index < PyList_GET_SIZE(ev->times)) {
            ev->index = index;
            /* Items are exact floats (validated on entry); guard
             * anyway in case user code mutated the exposed list. */
            PyObject *item = PyList_GET_ITEM(ev->times, index);
            double t2 = PyFloat_CheckExact(item)
                            ? PyFloat_AS_DOUBLE(item)
                            : PyFloat_AsDouble(item);
            if (t2 == -1.0 && PyErr_Occurred()) {
                Py_DECREF(e->ev);
                return -1;
            }
            long long seq = sim->next_seq++;
            ev->time = t2;
            ev->seq = seq;
            ev->queued = 1;
            Entry ne = {t2, e->prio, seq, e->ev};  /* ref transferred */
            if (sim_push_entry(sim, ne) < 0) {
                Py_DECREF(e->ev);
                return -1;
            }
        }
        else {
            Py_CLEAR(ev->fn);
            Py_DECREF(e->ev);
        }
    }
    else {
        PyObject *fn = ev->fn;   /* consumed; a late cancel() is a no-op */
        ev->fn = NULL;
        PyObject *res = PyObject_Call(
            fn, ev->args ? ev->args : empty_tuple, NULL);
        Py_DECREF(fn);
        Py_DECREF(e->ev);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    sim->events_executed++;
    return 0;
}

/* ------------------------------------------------------------- run loop */

static int
heap_run(CoreSim *sim, double limit, long long cap)
{
    long long executed = 0;
    EVec *heap = &sim->heap;
    while (!sim->stopped && heap->len) {
        int settled = heap_settle_top(sim);
        if (settled < 0)
            return -1;
        if (settled)
            continue;
        if (heap->a[0].time > limit)
            break;
        Entry e = eheap_pop(heap);
        if (exec_entry(sim, &e) < 0)
            return -1;
        executed++;
        if (executed >= cap)
            break;
    }
    return 0;
}

/* Time of the earliest live entry, INFINITY when empty, -2.0 with an
 * exception set on OOM. */
static double
heap_first_time(CoreSim *sim)
{
    EVec *heap = &sim->heap;
    while (heap->len) {
        int settled = heap_settle_top(sim);
        if (settled < 0)
            return -2.0;
        if (!settled)
            return heap->a[0].time;
    }
    return INFINITY;
}

/* ----------------------------------------------------------- Simulator */

/* float(obj) — accepts exactly what the pure engine's float() does. */
static int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    PyObject *f = PyNumber_Float(o);
    if (f == NULL)
        return -1;
    *out = PyFloat_AS_DOUBLE(f);
    Py_DECREF(f);
    return 0;
}

/* Shared time/fn validation; mirrors schedule_at exactly, including the
 * messages and the one-interval check that catches NaN and +inf. */
static int
check_time_fn(CoreSim *sim, double t, PyObject *fn)
{
    if (!(sim->now <= t && t < INFINITY)) {
        if (isfinite(t)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *no = PyFloat_FromDouble(sim->now);
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule into the past (time=%S, now=%S)",
                         to, no);
            Py_XDECREF(to);
            Py_XDECREF(no);
        }
        else {
            PyObject *to = PyFloat_FromDouble(t);
            PyErr_Format(PyExc_ValueError,
                         "event time must be finite, got %S", to);
            Py_XDECREF(to);
        }
        return -1;
    }
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "fn must be callable");
        return -1;
    }
    return 0;
}

/* Split (first, fn, *args, priority=0) out of a VARARGS call.  With
 * cbargs NULL the callback arguments are left where they are. */
static int
parse_sched(PyObject *args, PyObject *kwds, const char *name,
            PyObject **first, PyObject **fn, PyObject **cbargs, long *priority)
{
    Py_ssize_t n = PyTuple_GET_SIZE(args);
    if (n < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a time and a callback", name);
        return -1;
    }
    *priority = 0;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) > 0) {
        PyObject *p = PyDict_GetItemString(kwds, "priority");
        if (p == NULL || PyDict_GET_SIZE(kwds) != 1) {
            PyErr_Format(PyExc_TypeError,
                         "%s() accepts only the 'priority' keyword", name);
            return -1;
        }
        *priority = PyLong_AsLong(p);
        if (*priority == -1 && PyErr_Occurred())
            return -1;
    }
    *first = PyTuple_GET_ITEM(args, 0);
    *fn = PyTuple_GET_ITEM(args, 1);
    if (cbargs == NULL)
        return 0;
    *cbargs = PyTuple_GetSlice(args, 2, n);   /* new ref */
    return *cbargs == NULL ? -1 : 0;
}

/* The shared tail of schedule / schedule_at / postpone: validate, draw
 * ONE seq, build the handle, insert.  `cbargs` is stolen. */
static PyObject *
sim_schedule_common(CoreSim *self, double t, PyObject *fn, PyObject *cbargs,
                    long priority)
{
    if (check_time_fn(self, t, fn) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    long long seq = self->next_seq++;
    PyTypeObject *tp = &Event_Type;
    CoreEvent *ev = (CoreEvent *)tp->tp_alloc(tp, 0);
    if (ev == NULL) {
        Py_DECREF(cbargs);
        return NULL;
    }
    ev->sim = Py_NewRef((PyObject *)self);
    ev->kind = EV_PLAIN;
    ev->time = t;
    ev->priority = priority;
    ev->seq = seq;
    ev->fn = Py_NewRef(fn);
    ev->args = cbargs;   /* stolen */
    Entry e = {t, priority, seq, Py_NewRef((PyObject *)ev)};
    if (sim_push_entry(self, e) < 0) {
        Py_DECREF((PyObject *)ev);   /* the entry's ref */
        Py_DECREF((PyObject *)ev);   /* the caller's ref */
        return NULL;
    }
    return (PyObject *)ev;
}

static PyObject *
sim_schedule_at(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *time_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule_at", &time_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    double t;
    if (as_double(time_o, &t) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    return sim_schedule_common(self, t, fn, cbargs, priority);
}

static PyObject *
sim_schedule(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *delay_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule", &delay_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    double delay;
    if (as_double(delay_o, &delay) < 0) {
        Py_DECREF(cbargs);
        return NULL;
    }
    if (delay < 0) {
        PyErr_Format(PyExc_ValueError,
                     "cannot schedule into the past (delay=%S)", delay_o);
        Py_DECREF(cbargs);
        return NULL;
    }
    return sim_schedule_common(self, self->now + delay, fn, cbargs,
                               priority);
}

/* schedule_at without a handle: the entry keeps this call's argument
 * tuple and exec_entry calls fn straight out of it.  Same validation
 * and the same single seq draw as schedule_at; returns None. */
static PyObject *
sim_schedule_anon(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *time_o, *fn;
    long priority;
    if (parse_sched(args, kwds, "schedule_anon", &time_o, &fn, NULL,
                    &priority) < 0)
        return NULL;
    double t;
    if (as_double(time_o, &t) < 0)
        return NULL;
    if (check_time_fn(self, t, fn) < 0)
        return NULL;
    Entry e = {t, priority, self->next_seq++, Py_NewRef(args)};
    if (sim_push_entry(self, e) < 0) {
        Py_DECREF(args);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
sim_postpone(PyObject *self_o, PyObject *args)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *ev_o, *time_o;
    if (!PyArg_ParseTuple(args, "OO:postpone", &ev_o, &time_o))
        return NULL;
    if (!PyObject_TypeCheck(ev_o, &Event_Type)) {
        PyErr_SetString(PyExc_ValueError,
                        "event belongs to a different simulator");
        return NULL;
    }
    CoreEvent *ev = (CoreEvent *)ev_o;
    if (ev->fn == NULL) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot postpone a cancelled or fired event");
        return NULL;
    }
    if (ev->kind != EV_PLAIN) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot postpone a series event");
        return NULL;
    }
    if (ev->sim != (PyObject *)self) {
        PyErr_SetString(PyExc_ValueError,
                        "event belongs to a different simulator");
        return NULL;
    }
    double t;
    if (as_double(time_o, &t) < 0)
        return NULL;
    if (ev->time <= t && t < INFINITY) {
        /* Lazy path: update the handle in place; the queued entry goes
         * stale and is silently re-filed when it surfaces. */
        ev->time = t;
        ev->seq = self->next_seq++;
        return Py_NewRef(ev_o);
    }
    /* Deadline moved earlier (or non-finite): eager cancel+reschedule —
     * still exactly one seq draw, in schedule_at. */
    PyObject *fn = Py_NewRef(ev->fn);
    PyObject *cbargs = ev->args ? Py_NewRef(ev->args) : Py_NewRef(empty_tuple);
    long priority = ev->priority;
    event_cancel_impl(ev);
    PyObject *res = sim_schedule_common(self, t, fn, cbargs, priority);
    Py_DECREF(fn);
    return res;
}

static PyObject *
sim_schedule_series(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *times_o, *fn, *cbargs;
    long priority;
    if (parse_sched(args, kwds, "schedule_series", &times_o, &fn, &cbargs,
                    &priority) < 0)
        return NULL;
    PyObject *times = PySequence_List(times_o);
    if (times == NULL) {
        Py_DECREF(cbargs);
        return NULL;
    }
    Py_ssize_t n = PyList_GET_SIZE(times);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyNumber_Float(PyList_GET_ITEM(times, i));
        if (f == NULL)
            goto fail;
        PyList_SET_ITEM(times, i, f);
    }
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "schedule_series needs at least one time");
        goto fail;
    }
    double prev = self->now;
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AS_DOUBLE(PyList_GET_ITEM(times, i));
        if (!(prev <= t && t < INFINITY)) {
            PyObject *to = PyFloat_FromDouble(t);
            PyObject *po = PyFloat_FromDouble(prev);
            PyErr_Format(PyExc_ValueError,
                         "series times must be finite, ascending, and not "
                         "in the past (got %S after %S)", to, po);
            Py_XDECREF(to);
            Py_XDECREF(po);
            goto fail;
        }
        prev = t;
    }
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "fn must be callable");
        goto fail;
    }
    {
        long long seq = self->next_seq++;
        double t0 = PyFloat_AS_DOUBLE(PyList_GET_ITEM(times, 0));
        PyTypeObject *tp = &SeriesEvent_Type;
        CoreEvent *ev = (CoreEvent *)tp->tp_alloc(tp, 0);
        if (ev == NULL)
            goto fail;
        ev->time = t0;
        ev->priority = priority;
        ev->seq = seq;
        ev->fn = Py_NewRef(fn);
        ev->args = cbargs;          /* stolen */
        ev->sim = Py_NewRef((PyObject *)self);
        ev->times = times;          /* stolen */
        ev->index = 0;
        ev->kind = EV_SERIES;
        ev->stop_flag = 0;
        ev->queued = 1;
        Entry e = {t0, priority, seq, Py_NewRef((PyObject *)ev)};
        if (sim_push_entry(self, e) < 0) {
            Py_DECREF((PyObject *)ev);
            Py_DECREF((PyObject *)ev);
            return NULL;
        }
        return (PyObject *)ev;
    }
fail:
    Py_DECREF(cbargs);
    Py_DECREF(times);
    return NULL;
}

static PyObject *
sim_run(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_o = Py_None, *max_o = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO:run", kwlist,
                                     &until_o, &max_o))
        return NULL;
    if (self->running) {
        PyErr_SetString(PyExc_RuntimeError, "simulator is already running");
        return NULL;
    }
    double limit = INFINITY, until_v = 0.0;
    int has_until = 0;
    if (until_o != Py_None) {
        if (as_double(until_o, &until_v) < 0)
            return NULL;
        limit = until_v;
        has_until = 1;
    }
    long long cap = LLONG_MAX;
    if (max_o != Py_None) {
        double c;
        if (as_double(max_o, &c) < 0)
            return NULL;
        if (c < (double)LLONG_MAX)
            cap = (long long)c;
    }
    self->running = 1;
    self->stopped = 0;
    int rc = heap_run(self, limit, cap);
    self->running = 0;
    if (rc < 0)
        return NULL;
    if (has_until && self->now < until_v && !self->stopped)
        self->now = until_v;
    return PyFloat_FromDouble(self->now);
}

static PyObject *
sim_stop(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    ((CoreSim *)self_o)->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
sim_pending(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    CoreSim *self = (CoreSim *)self_o;
    return PyLong_FromLongLong(self->heap.len - self->dead);
}

static PyObject *
sim_peek_time(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    CoreSim *self = (CoreSim *)self_o;
    double t = heap_first_time(self);
    if (t == -2.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(t);
}

static PyObject *
sim_queue_stats(PyObject *self_o, PyObject *Py_UNUSED(ignored))
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
    int rc = 0;
    PyObject *v;
#define PUT_LL(key, val) \
    do { \
        v = PyLong_FromLongLong(val); \
        if (v == NULL || PyDict_SetItemString(d, key, v) < 0) rc = -1; \
        Py_XDECREF(v); \
    } while (0)
    v = PyUnicode_FromString("heap");
    if (v == NULL || PyDict_SetItemString(d, "backend", v) < 0)
        rc = -1;
    Py_XDECREF(v);
    PUT_LL("queued", self->heap.len);
    PUT_LL("live", self->heap.len - self->dead);
    PUT_LL("peak_occupancy", self->peak);
    PUT_LL("dead", self->dead);
    PUT_LL("pushes", self->pushes);
    PUT_LL("resizes", 0);
    /* No handle, so no free list: always 0.  The keys stay because the
     * perf ledger reads them from every build it compares. */
    PUT_LL("event_pool_created", 0);
    PUT_LL("event_pool_reused", 0);
#undef PUT_LL
    if (rc < 0) {
        Py_DECREF(d);
        return NULL;
    }
    return d;
}

static PyObject *
sim_get_now(PyObject *self_o, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(((CoreSim *)self_o)->now);
}

static PyObject *
sim_repr(PyObject *self_o)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject *now = PyFloat_FromDouble(self->now);
    PyObject *r = PyUnicode_FromFormat(
        "Simulator(now=%S, pending=%lld)",
        now, (long long)self->heap.len - self->dead);
    Py_XDECREF(now);
    return r;
}

/* Drop every reference the queue holds. */
static void
sim_drop_refs(CoreSim *self)
{
    for (Py_ssize_t i = 0; i < self->heap.len; i++)
        Py_DECREF(self->heap.a[i].ev);
    self->heap.len = 0;
    self->dead = 0;
}

static int
sim_traverse(PyObject *self_o, visitproc visit, void *arg)
{
    CoreSim *self = (CoreSim *)self_o;
    for (Py_ssize_t i = 0; i < self->heap.len; i++)
        Py_VISIT(self->heap.a[i].ev);
    return 0;
}

static int
sim_clear(PyObject *self_o)
{
    sim_drop_refs((CoreSim *)self_o);
    return 0;
}

static void
sim_dealloc(PyObject *self_o)
{
    CoreSim *self = (CoreSim *)self_o;
    PyObject_GC_UnTrack(self_o);
    sim_drop_refs(self);
    evec_free(&self->heap);
    Py_TYPE(self_o)->tp_free(self_o);
}

static int
sim_init(PyObject *self_o, PyObject *args, PyObject *kwds)
{
    CoreSim *self = (CoreSim *)self_o;
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":Simulator", kwlist))
        return -1;

    /* Re-init safety (Simulator.__init__ called twice). */
    sim_drop_refs(self);
    evec_free(&self->heap);

    self->now = 0.0;
    self->next_seq = 0;
    self->running = 0;
    self->stopped = 0;
    self->events_executed = 0;
    self->dead = self->peak = self->pushes = 0;
    evec_init(&self->heap);
    return 0;
}

static PyMemberDef sim_members[] = {
    {"events_executed", T_LONGLONG, offsetof(CoreSim, events_executed), 0,
     "Total events executed across all run() calls."},
    {NULL}
};

static PyGetSetDef sim_getset[] = {
    {"now", sim_get_now, NULL, "Current simulation time in seconds.", NULL},
    {NULL}
};

static PyMethodDef sim_methods[] = {
    {"schedule", (PyCFunction)sim_schedule, METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) to run `delay` seconds from now."},
    {"schedule_at", (PyCFunction)sim_schedule_at, METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) at absolute simulation time `time`."},
    {"schedule_anon", (PyCFunction)sim_schedule_anon,
     METH_VARARGS | METH_KEYWORDS,
     "schedule_at for fire-and-forget callbacks: no handle, returns None."},
    {"schedule_series", (PyCFunction)sim_schedule_series,
     METH_VARARGS | METH_KEYWORDS,
     "Schedule fn(*args) at every time of an ascending schedule."},
    {"postpone", (PyCFunction)sim_postpone, METH_VARARGS,
     "Move a pending event's deadline, cheaply when it moves later."},
    {"run", (PyCFunction)sim_run, METH_VARARGS | METH_KEYWORDS,
     "Execute events until the queue drains, `until` passes, or "
     "`max_events` have run."},
    {"stop", sim_stop, METH_NOARGS,
     "Stop the run loop after the current event returns."},
    {"pending", sim_pending, METH_NOARGS,
     "Number of non-cancelled events currently queued (O(1))."},
    {"peek_time", sim_peek_time, METH_NOARGS,
     "Time of the next pending event, or inf when the queue is empty."},
    {"queue_stats", sim_queue_stats, METH_NOARGS,
     "Occupancy counters of the event queue (for benchmarks)."},
    {NULL}
};

static PyTypeObject Simulator_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._corec.Simulator",
    .tp_basicsize = sizeof(CoreSim),
    .tp_dealloc = sim_dealloc,
    .tp_repr = sim_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "The discrete-event clock and event queue (compiled core).",
    .tp_traverse = sim_traverse,
    .tp_clear = sim_clear,
    .tp_methods = sim_methods,
    .tp_members = sim_members,
    .tp_getset = sim_getset,
    .tp_init = sim_init,
    .tp_new = PyType_GenericNew,
};

/* ---------------------------------------------------------------- module */

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._corec",
    .m_doc = "Compiled simulation core (bit-exact twin of repro.sim.engine).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    empty_tuple = PyTuple_New(0);
    if (empty_tuple == NULL)
        return NULL;
    if (PyType_Ready(&Event_Type) < 0 ||
        PyType_Ready(&SeriesEvent_Type) < 0 ||
        PyType_Ready(&Simulator_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&corec_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "Event", (PyObject *)&Event_Type) < 0 ||
        PyModule_AddObjectRef(mod, "SeriesEvent",
                              (PyObject *)&SeriesEvent_Type) < 0 ||
        PyModule_AddObjectRef(mod, "Simulator",
                              (PyObject *)&Simulator_Type) < 0 ||
        PyModule_AddStringConstant(mod, "SOURCE_HASH",
                                   COREC_SOURCE_HASH) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
