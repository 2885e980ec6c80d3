"""Fused gather-potential-scatter kernel compiled with the system C compiler.

The batched NumPy RHS is memory-bound at large N: every evaluation
streams several ``(R, E)`` scratch arrays (two gathers, the difference,
the potential values, the flattened ``bincount`` weights) through the
cache hierarchy.  This module compiles a C kernel that walks the edge
list once per member in cache-resident blocks:

1. **gather** — ``d[e] = theta[cols[e]] - theta[rows[e]]`` for one block,
2. **potential** — the coefficient family evaluated in a flat pass that
   GCC auto-vectorises against ``libmvec`` (AVX2/AVX-512 ``tanh``/``sin``
   on glibc >= 2.35),
3. **scatter** — per-row accumulation in edge-list order (row-major, as
   in the NumPy ``bincount`` path), so results agree to the last few
   ulps (the only differences come from the SIMD transcendentals).

The kernel is built on first use as a CPython extension module, with
the system ``cc`` (honouring ``$CC``) and the interpreter's headers, into
a content-addressed cache directory under the user's temp dir — no
build-time dependency, no third-party package.  Without a working
compiler or ``Python.h`` the module reports unavailability and the
``"auto"`` kernel resolution falls back to the NumPy path.

Entry points and prebound calls
-------------------------------
Three entries.  Two couple a stacked ``(R, N)`` super-state with
per-member coefficients: :func:`fused_batched` (any edge lists, a 2-D
torus included: each row runs its own edge range of one concatenated
list, so members may differ in topology) and :func:`ring_batched` (one
shared distance ring).  A single state is the ``R = 1`` stack
``(1, N)``.  The third, :func:`mean_cos_sin`, is the order-parameter
reduction the streaming observer runs after every accepted step: the
per-row means of ``cos`` and ``sin`` of a ``(rows, n)`` state.  It keeps
``cos`` and ``sin`` in two separate flat loops, because GCC fuses one
loop holding both into a scalar ``sincos`` call that libmvec does not
vectorise (about 10x slower at N = 1e4).

A backend evaluates the coupling thousands of times per solve with the
same topology, coefficients and thread count, so :func:`bind` resolves
all of those once into a :class:`KernelCall`, whose capsule holds the
kernel's static arguments as raw pointers together with the arrays
that own them.  Each evaluation is then one C call: it checks
``theta`` and ``out`` through the buffer protocol, takes the calling OS
thread's scratch and runs the kernel with the GIL released.

Thread parallelism
------------------
Every kernel takes a trailing ``threads`` argument.  With ``threads > 1``
and an OpenMP-capable compiler the work is split over **disjoint output
rows** (edge spans are row-aligned via binary search on the sorted row
array; ring element ranges are contiguous; the reduction hands each
thread whole rows), so no two threads ever write the same accumulator
and no atomics are needed.  Because each row's contributions are
accumulated in exactly the serial order, results are **bit-identical
for any thread count** — the parallel path is a pure wall-clock knob,
never a numerics knob.  When OpenMP is unavailable the
kernels quietly run serial (``openmp_available()`` reports which), and
so does a process forked after its parent ran a parallel region, whose
first own region would hang (libgomp is not fork-safe).

The one topology specialisation is detected from the edge list, never
from builder metadata: a distance ring (:func:`ring_offsets`) replaces
the gather/scatter with contiguous shifted passes, unit-stride and
row-partitionable.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import ExtensionFileLoader

import numpy as np

__all__ = [
    "build_tag",
    "cc_available",
    "openmp_available",
    "load_library",
    "KernelCall",
    "bind",
    "ring_offsets",
    "fused_batched",
    "ring_batched",
    "mean_cos_sin",
]

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <unistd.h>
#ifdef _OPENMP
#include <omp.h>
#endif

/* Potential kinds: keep in sync with repro/kernels/coeffs.py. */
enum { KIND_TANH = 0, KIND_BOTTLENECK = 1, KIND_KURAMOTO = 2, KIND_LINEAR = 3 };

/* Edge-block length (doubles); two scratch blocks per thread stay
 * L2-resident. */
#define BLOCK_EDGES 16384

/* Evaluate one coefficient family on a block of phase differences.
 * Each case is a flat loop over the block so the compiler can
 * auto-vectorise the transcendental against libmvec.
 *
 * Determinism contract: with -ffast-math the *vectorised* libmvec
 * tanh/sin differ from the scalar libm ones by ulps, so an element's
 * value would depend on whether it lands in a SIMD body or a scalar
 * epilogue — i.e. on the loop trip count, which thread chunking
 * changes.  Two measures make the evaluation a pure function of the
 * element value: (1) the block is padded up to a PAD_BLOCK multiple
 * (padding lanes read/write scratch only), so no scalar epilogue ever
 * executes for a real element; (2) the function is noinline, so every
 * call site — serial or parallel, any layout — runs the same
 * machine code.  This is what makes threads=K bit-identical to
 * threads=1. */
#define PAD_BLOCK 64
#if defined(__GNUC__)
__attribute__((noinline))
#endif
static void potential_block(int64_t kind, double p0, double p1,
                            double *d, double *v, int64_t m) {
    int64_t e;
    int64_t mp = (m + (PAD_BLOCK - 1)) & ~(int64_t)(PAD_BLOCK - 1);
    for (e = m; e < mp; ++e)
        d[e] = 0.0;
    switch (kind) {
    case KIND_TANH:
        for (e = 0; e < mp; ++e)
            v[e] = tanh(p0 * d[e]);
        break;
    case KIND_BOTTLENECK:
        /* -sin inside the horizon |d| < sigma (=p0), sign(d) outside;
         * the sin pass runs on the whole block (vectorisable), then the
         * outside lanes are overwritten. */
        for (e = 0; e < mp; ++e)
            v[e] = -sin(p1 * d[e]);
        for (e = 0; e < m; ++e)
            if (!(fabs(d[e]) < p0))
                v[e] = (double)((d[e] > 0.0) - (d[e] < 0.0));
        break;
    case KIND_KURAMOTO:
        for (e = 0; e < mp; ++e)
            v[e] = sin(d[e]);
        break;
    default: /* KIND_LINEAR */
        for (e = 0; e < mp; ++e)
            v[e] = p0 * d[e];
        break;
    }
}

/* First edge index whose row is >= value (rows are sorted row-major,
 * guaranteed by Topology.from_edge_arrays).  Row-aligned edge spans are
 * what make the parallel scatter race-free without atomics. */
static int64_t row_lower_bound(const int32_t *rows, int64_t n_edges,
                               int64_t value) {
    int64_t lo = 0, hi = n_edges;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if ((int64_t)rows[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Fused coupling restricted to output rows [r0, r1): zero, accumulate
 * the row-aligned edge span in row-major order, scale.  The full-range
 * call (0, n) is arithmetically identical to the pre-threading serial
 * kernel; chunked calls touch disjoint rows, so any row-aligned
 * decomposition reproduces the serial bits. */
static void fused_span(const int32_t *rows, const int32_t *cols,
                       int64_t n_edges, const double *theta, double *out,
                       int64_t r0, int64_t r1, int64_t kind, double p0,
                       double p1, double vp, double *sd, double *sv,
                       int64_t block) {
    int64_t i, e, b0;
    int64_t e0 = row_lower_bound(rows, n_edges, r0);
    int64_t e1 = row_lower_bound(rows, n_edges, r1);
    for (i = r0; i < r1; ++i)
        out[i] = 0.0;
    for (b0 = e0; b0 < e1; b0 += block) {
        int64_t b1 = b0 + block < e1 ? b0 + block : e1;
        int64_t m = b1 - b0;
        const int32_t *rb = rows + b0;
        const int32_t *cb = cols + b0;
        for (e = 0; e < m; ++e)
            sd[e] = theta[cb[e]] - theta[rb[e]];
        potential_block(kind, p0, p1, sd, sv, m);
        for (e = 0; e < m; ++e)
            out[rb[e]] += sv[e];
    }
    for (i = r0; i < r1; ++i)
        out[i] *= vp;
}

/* Fused coupling for a stacked (R, N) super-state with per-member
 * potential coefficients, coupling strengths and edge lists: row rr owns
 * the edge range [edge_lo[rr], edge_hi[rr]) of the concatenated lists (a
 * shared list is one range for every row).  The parallel path flattens
 * (member, row-chunk) work items so small-R stacks still fill the thread
 * pool. */
void pom_fused_batched(const int32_t *rows, const int32_t *cols,
                       const int64_t *edge_lo, const int64_t *edge_hi,
                       const double *theta, double *out, int64_t r_count,
                       int64_t n, const int64_t *kinds, const double *p0,
                       const double *p1, const double *vp, double *sd,
                       double *sv, int64_t block, int64_t threads) {
    int64_t r;
#ifdef _OPENMP
    if (threads > 1) {
        int64_t splits = (threads + r_count - 1) / r_count;
        int64_t total = r_count * splits;
        int64_t w;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
        for (w = 0; w < total; ++w) {
            int64_t tid = (int64_t)omp_get_thread_num();
            int64_t rr = w / splits;
            int64_t c = w % splits;
            fused_span(rows + edge_lo[rr], cols + edge_lo[rr],
                       edge_hi[rr] - edge_lo[rr], theta + rr * n,
                       out + rr * n, n * c / splits, n * (c + 1) / splits,
                       kinds[rr], p0[rr], p1[rr], vp[rr], sd + tid * block,
                       sv + tid * block, block);
        }
        return;
    }
#endif
    (void)threads;
    for (r = 0; r < r_count; ++r)
        fused_span(rows + edge_lo[r], cols + edge_lo[r], edge_hi[r] - edge_lo[r],
                   theta + r * n, out + r * n, 0, n, kinds[r], p0[r], p1[r],
                   vp[r], sd, sv, block);
}

/* Distance-ring specialisation: every row couples to i + d (mod n) for
 * each offset d — the paper's halo-exchange topologies.  The gather
 * becomes two contiguous shifted segments per offset and the scatter a
 * contiguous accumulate, so every pass auto-vectorises with unit
 * stride.  Accumulation runs offset-by-offset (not column order), which
 * changes the row sums only at the ulp level. */
static void ring_segment(const double *shifted, const double *th, double *o,
                         int64_t m, int64_t kind, double p0, double p1,
                         double *sd, double *sv, int64_t block) {
    int64_t b0, e;
    /* Every kind goes through the blocked scratch form: the gather and
     * the accumulate are exact IEEE ops (vectorisation-invariant), and
     * the transcendental runs inside the one noinline potential_block
     * instance — the determinism contract that keeps thread chunking
     * bit-exact.  (A streaming pass with the transcendental inlined
     * would re-tie element values to the segment trip count.) */
    for (b0 = 0; b0 < m; b0 += block) {
        int64_t b1 = b0 + block < m ? b0 + block : m;
        int64_t len = b1 - b0;
        for (e = 0; e < len; ++e)
            sd[e] = shifted[b0 + e] - th[b0 + e];
        potential_block(kind, p0, p1, sd, sv, len);
        for (e = 0; e < len; ++e)
            o[b0 + e] += sv[e];
    }
}

/* Ring coupling restricted to elements [i0, i1): per offset, the main
 * segment (partner i + d) and the wrapped segment (partner i + d - n)
 * are clipped against the chunk.  The full-range call (0, n) is the
 * pre-threading serial pass order. */
static void ring_chunk(const int64_t *offsets, int64_t n_offsets,
                       const double *theta, double *out, int64_t n,
                       int64_t i0, int64_t i1, int64_t kind, double p0,
                       double p1, double vp, double *sd, double *sv,
                       int64_t block) {
    int64_t i, k;
    for (i = i0; i < i1; ++i)
        out[i] = 0.0;
    for (k = 0; k < n_offsets; ++k) {
        int64_t d = offsets[k];      /* normalised to [1, n-1] */
        int64_t a1 = (n - d) < i1 ? (n - d) : i1;
        int64_t b0 = (n - d) > i0 ? (n - d) : i0;
        if (a1 > i0)
            ring_segment(theta + d + i0, theta + i0, out + i0, a1 - i0,
                         kind, p0, p1, sd, sv, block);
        if (i1 > b0)
            ring_segment(theta + (d - n) + b0, theta + b0, out + b0,
                         i1 - b0, kind, p0, p1, sd, sv, block);
    }
    for (i = i0; i < i1; ++i)
        out[i] *= vp;
}

void pom_fused_ring_batched(const int64_t *offsets, int64_t n_offsets,
                            const double *theta, double *out,
                            int64_t r_count, int64_t n, const int64_t *kinds,
                            const double *p0, const double *p1,
                            const double *vp, double *sd, double *sv,
                            int64_t block, int64_t threads) {
    int64_t r;
#ifdef _OPENMP
    if (threads > 1) {
        int64_t splits = (threads + r_count - 1) / r_count;
        int64_t total = r_count * splits;
        int64_t w;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
        for (w = 0; w < total; ++w) {
            int64_t tid = (int64_t)omp_get_thread_num();
            int64_t rr = w / splits;
            int64_t c = w % splits;
            ring_chunk(offsets, n_offsets, theta + rr * n, out + rr * n, n,
                       n * c / splits, n * (c + 1) / splits, kinds[rr],
                       p0[rr], p1[rr], vp[rr], sd + tid * block,
                       sv + tid * block, block);
        }
        return;
    }
#endif
    (void)threads;
    for (r = 0; r < r_count; ++r)
        ring_chunk(offsets, n_offsets, theta + r * n, out + r * n, n, 0, n,
                   kinds[r], p0[r], p1[r], vp[r], sd, sv, block);
}

/* Sum of v[0, mp), mp a PAD_BLOCK multiple of at most BLOCK_EDGES:
 * PAD_BLOCK-element partial sums, then their sum, so the rounding error
 * grows with mp / PAD_BLOCK + PAD_BLOCK rather than with mp.  One running
 * sum over a synchronised row of 1e4 cosines (each ~1) drifts ~1e-15
 * from NumPy's pairwise sum; this stays within a few ulps of it. */
static double padded_sum(const double *v, int64_t mp) {
    double part[BLOCK_EDGES / PAD_BLOCK], sum = 0.0;
    int64_t k, e, chunks = mp / PAD_BLOCK;
    for (k = 0; k < chunks; ++k) {
        double acc = 0.0;
        for (e = 0; e < PAD_BLOCK; ++e)
            acc += v[k * PAD_BLOCK + e];
        part[k] = acc;
    }
    for (k = 0; k < chunks; ++k)
        sum += part[k];
    return sum;
}

/* Order-parameter reduction: the means of cos and sin over one row of
 * n phases, summed block by block in a fixed order.  It keeps the
 * determinism contract of potential_block: each block is copied into
 * the 64-byte-aligned scratch and padded to PAD_BLOCK, so the vectorised
 * libmvec cos/sin never meet a scalar epilogue, and the one noinline
 * instance serves the serial and the parallel path.  cos and sin run as
 * two flat loops: in one loop GCC fuses them into a scalar sincos call
 * and vectorises neither. */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
static void cos_sin_row(const double *x, int64_t n, double *sd, double *sv,
                        int64_t block, double *c, double *s) {
    int64_t b0, e;
    double cs = 0.0, ss = 0.0;
    for (b0 = 0; b0 < n; b0 += block) {
        int64_t m = b0 + block < n ? block : n - b0;
        int64_t mp = (m + (PAD_BLOCK - 1)) & ~(int64_t)(PAD_BLOCK - 1);
        for (e = 0; e < m; ++e)
            sd[e] = x[b0 + e];
        for (e = m; e < mp; ++e)
            sd[e] = 0.0;
        for (e = 0; e < mp; ++e)
            sv[e] = cos(sd[e]);
        for (e = m; e < mp; ++e)
            sv[e] = 0.0;
        cs += padded_sum(sv, mp);
        for (e = 0; e < mp; ++e)
            sv[e] = sin(sd[e]);
        for (e = m; e < mp; ++e)
            sv[e] = 0.0;
        ss += padded_sum(sv, mp);
    }
    *c = cs / (double)n;
    *s = ss / (double)n;
}

/* Per-row cos and sin means of a (rows, n) state into out[0][r] and
 * out[1][r].  Threads split rows only, so every row is one serial
 * cos_sin_row call whatever the thread count. */
void pom_mean_cos_sin(const double *theta, double *out, int64_t rows,
                      int64_t n, double *sd, double *sv, int64_t block,
                      int64_t threads) {
    int64_t r;
#ifdef _OPENMP
    if (threads > 1) {
#pragma omp parallel for schedule(static) num_threads((int)threads)
        for (r = 0; r < rows; ++r) {
            int64_t tid = (int64_t)omp_get_thread_num();
            cos_sin_row(theta + r * n, n, sd + tid * block, sv + tid * block,
                        block, out + r, out + rows + r);
        }
        return;
    }
#endif
    (void)threads;
    for (r = 0; r < rows; ++r)
        cos_sin_row(theta + r * n, n, sd, sv, block, out + r, out + rows + r);
}

/* ---- CPython binding: bind() once per KernelCall, run() per call. ---- */
static const char *const ENTRIES[] = {"fused_batched", "ring_batched"};

typedef struct {
    int layout;          /* index into ENTRIES */
    const void *arr[8];  /* static index arrays (C order), then kind, p0, p1, vp */
    long long count;     /* the ring's offset count */
    Py_ssize_t r, n;
    long long threads;
    PyObject *owner;     /* bind()'s arguments: they own every array */
} pom_call;

static void call_free(PyObject *cap) {
    pom_call *c = PyCapsule_GetPointer(cap, "pom_call");
    Py_XDECREF(c->owner);
    PyMem_Free(c);
}

/* O& converters: the data pointer of a C-contiguous 4- or 8-byte array. */
static int data_of(PyObject *obj, const void **p, Py_ssize_t itemsize) {
    Py_buffer v;
    if (PyObject_GetBuffer(obj, &v, PyBUF_C_CONTIGUOUS) < 0)
        return 0;
    *p = v.buf;
    PyBuffer_Release(&v);
    if (v.itemsize != itemsize)
        PyErr_SetString(PyExc_TypeError, "kernel array of the wrong dtype");
    return v.itemsize == itemsize;
}
static int i32(PyObject *obj, void *p) { return data_of(obj, p, 4); }
static int i64(PyObject *obj, void *p) { return data_of(obj, p, 8); }

/* bind(layout, (R, N), threads, static, (kind, p0, p1, vp)) -> capsule;
 * the static index arrays take slots 0-3, the coefficients slots 4-7. */
static PyObject *py_bind(PyObject *self, PyObject *args) {
    PyObject *st, *cap;
    pom_call *c = PyMem_Calloc(1, sizeof *c);
    const void **a = c ? c->arr : NULL;
    if (!c)
        return PyErr_NoMemory();
    if (PyArg_ParseTuple(args, "i(nn)LO!(O&O&O&O&)", &c->layout, &c->r, &c->n,
                         &c->threads, &PyTuple_Type, &st, i64, &a[4], i64, &a[5],
                         i64, &a[6], i64, &a[7]) && c->threads > 0 &&
        (c->layout == 0 ? PyArg_ParseTuple(st, "O&O&O&O&", i32, a, i32, a + 1, i64,
                                           a + 2, i64, a + 3)
         : c->layout == 1 && PyArg_ParseTuple(st, "O&L", i64, a, &c->count)) &&
        (cap = PyCapsule_New(c, "pom_call", call_free))) {
        Py_INCREF(args);
        c->owner = args;
        return cap;
    }
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "malformed kernel call");
    PyMem_Free(c);
    return NULL;
}

/* Export `obj` into `v` if it is a C-contiguous float64 (r, n) array; a
 * negative r or n matches any extent. */
static int float_view(PyObject *obj, Py_buffer *v, Py_ssize_t r, Py_ssize_t n) {
    if (!PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)) {
        if (v->ndim == 2 && (r < 0 || v->shape[0] == r) &&
            (n < 0 || v->shape[1] == n) && !strcmp(v->format, "d"))
            return 0;
        PyBuffer_Release(v);
    }
    return -1;
}

static int state_view(PyObject *obj, Py_buffer *v, const pom_call *c, const char *arg) {
    if (!float_view(obj, v, c->r, c->n))
        return 0;
    PyErr_Format(PyExc_ValueError, "states must be C-contiguous float64 arrays of the "
                 "bound shape (%zd, %zd); %s is not", c->r, c->n, arg);
    return -1;
}

/* 0 if `ou` may take a result computed from `th`, else a ValueError. */
static int out_apart(const Py_buffer *th, const Py_buffer *ou) {
    const char *t = th->buf, *o = ou->buf;
    if (ou->readonly)
        PyErr_SetString(PyExc_ValueError, "out is read-only");
    else if (o < t + th->len && t < o + ou->len)
        PyErr_SetString(PyExc_ValueError, "out overlaps theta");
    else
        return 0;
    return -1;
}

/* The calling OS thread's scratch (run() releases the GIL), freed at
 * thread exit: two threads * BLOCK_EDGES doubles behind a 64-byte
 * capacity header.  OpenMP thread tid works in slice tid of each block.
 * 64-byte alignment: a compiler that peels iterations until a pointer
 * is aligned peels the same count on every call. */
static pthread_key_t scratch_key;

static double *scratch(long long threads) {
    long long *s = pthread_getspecific(scratch_key);
    if (!s || s[0] < threads) {
        free(s);
        s = aligned_alloc(64, 64 + threads * BLOCK_EDGES * 2 * sizeof(double));
        pthread_setspecific(scratch_key, s);
        if (!s)
            return NULL;
        s[0] = threads;
    }
    return (double *)s + 8;
}

/* libgomp is not fork-safe: a process forked after its parent ran a
 * parallel region hangs in its own first one.  So only the process that
 * runs the first parallel region (or one forked before it) goes
 * parallel; a process forked after it runs every call serially, which
 * gives the same bits.  Read and written with the GIL held. */
static pid_t omp_pid;

static long long usable_threads(long long threads) {
    if (threads > 1 && !omp_pid)
        omp_pid = getpid();
    return threads > 1 && omp_pid == getpid() ? threads : 1;
}

/* run(call, theta, out, layout) -> out */
static PyObject *py_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    const pom_call *c;
    Py_buffer th, ou;
    long want;
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError, "run() takes 4 arguments");
    if (!(c = PyCapsule_GetPointer(args[0], "pom_call")) ||
        ((want = PyLong_AsLong(args[3])) == -1 && PyErr_Occurred()))
        return NULL;
    if (want != c->layout)
        return PyErr_Format(PyExc_ValueError, "%s got a call bound for %s",
                            (unsigned long)want < 2 ? ENTRIES[want] : "?",
                            ENTRIES[c->layout]);
    if (state_view(args[1], &th, c, "theta"))
        return NULL;
    if (state_view(args[2], &ou, c, "out"))
        return PyBuffer_Release(&th), NULL;
    const void *const *a = c->arr;
    double *t = th.buf, *o = ou.buf, *sd = NULL;
    if (!out_apart(&th, &ou) && !(sd = scratch(c->threads)))
        PyErr_NoMemory();
    if (sd) {
        double *sv = sd + c->threads * BLOCK_EDGES;
        long long threads = usable_threads(c->threads);
        Py_BEGIN_ALLOW_THREADS
        if (c->layout == 0)
            pom_fused_batched(a[0], a[1], a[2], a[3], t, o, c->r, c->n, a[4], a[5],
                              a[6], a[7], sd, sv, BLOCK_EDGES, threads);
        else
            pom_fused_ring_batched(a[0], c->count, t, o, c->r, c->n, a[4], a[5], a[6],
                                   a[7], sd, sv, BLOCK_EDGES, threads);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&th);
    PyBuffer_Release(&ou);
    if (!sd)
        return NULL;
    Py_INCREF(args[2]);
    return args[2];
}

/* mean_cos_sin(theta, out, threads) -> out: the per-row cos and sin
 * means of a (rows, n) state into out of shape (2, rows).  The team never
 * exceeds the row count, so a huge `threads` allocates no more scratch. */
static PyObject *py_mean_cos_sin(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs) {
    Py_buffer th, ou;
    long long threads;
    double *sd = NULL;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "mean_cos_sin() takes 3 arguments");
    if ((threads = PyLong_AsLongLong(args[2])) == -1 && PyErr_Occurred())
        return NULL;
    if (threads < 1)
        return PyErr_Format(PyExc_ValueError, "threads must be positive");
    if (float_view(args[0], &th, -1, -1))
        return PyErr_Format(PyExc_ValueError, "theta must be a C-contiguous "
                            "float64 (rows, n) array");
    Py_ssize_t rows = th.shape[0], n = th.shape[1];
    if (n < 1) {
        PyBuffer_Release(&th);
        return PyErr_Format(PyExc_ValueError, "theta has no phases to average");
    }
    if (float_view(args[1], &ou, 2, rows)) {
        PyBuffer_Release(&th);
        return PyErr_Format(PyExc_ValueError, "out must be a C-contiguous "
                            "float64 array of shape (2, %zd)", rows);
    }
#ifndef _OPENMP
    threads = 1;
#endif
    if (threads > rows)
        threads = rows > 1 ? rows : 1;
    if (!out_apart(&th, &ou) && !(sd = scratch(threads)))
        PyErr_NoMemory();
    if (sd) {
        double *sv = sd + threads * BLOCK_EDGES;
        long long team = usable_threads(threads);
        Py_BEGIN_ALLOW_THREADS
        pom_mean_cos_sin(th.buf, ou.buf, rows, n, sd, sv, BLOCK_EDGES, team);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&th);
    PyBuffer_Release(&ou);
    if (!sd)
        return NULL;
    Py_INCREF(args[1]);
    return args[1];
}

/* Whether this binary has OpenMP (the flag-set chain may end serial). */
static PyObject *py_openmp(PyObject *self, PyObject *unused) {
#ifdef _OPENMP
    Py_RETURN_TRUE;
#endif
    Py_RETURN_FALSE;
}

static PyMethodDef methods[] = {
    {"bind", py_bind, METH_VARARGS, NULL},
    {"run", (PyCFunction)(void (*)(void))py_run, METH_FASTCALL, NULL},
    {"mean_cos_sin", (PyCFunction)(void (*)(void))py_mean_cos_sin, METH_FASTCALL,
     NULL},
    {"openmp_available", py_openmp, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}};

static PyModuleDef module = {PyModuleDef_HEAD_INIT, "_pom_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__pom_kernel(void) {
    if (pthread_key_create(&scratch_key, free))
        return PyErr_NoMemory();
    return PyModule_Create(&module);
}
"""

#: (compile flags, extra link flags) tried in order until one builds.
#: NOTE: the object is compiled with -ffast-math (needed for the libmvec
#: SIMD transcendentals) but LINKED without it — linking a shared
#: library with -ffast-math pulls in crtfastmath.o, whose constructor
#: flips the process-wide FTZ/DAZ bits at import time and silently
#: breaks subnormal arithmetic for the whole interpreter.  -fopenmp *is*
#: needed on the link line (libgomp); it does not pull crtfastmath.o.
_NATIVE = ["-O3", "-march=native", "-mprefer-vector-width=512", "-ffast-math"]
_FLAG_SETS = (
    # glibc + x86: vectorised libm via libmvec, widest SIMD available,
    # OpenMP row-parallel loops
    (_NATIVE + ["-fopenmp-simd", "-fopenmp", "-fPIC"], ["-fopenmp"]),
    # same without OpenMP (serial kernels, threads knob is a no-op)
    (_NATIVE + ["-fopenmp-simd", "-fPIC"], []),
    # portable optimised builds
    (["-O3", "-ffast-math", "-fopenmp", "-fPIC"], ["-fopenmp"]),
    (["-O3", "-ffast-math", "-fPIC"], []),
    # last resort
    (["-O2", "-fPIC"], []),
)

#: the directory of ``Python.h``, and the file suffix of extension modules
_INCLUDE = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

_lib = None  # the loaded extension module
_lib_failed = False


def _compiler() -> str | None:
    cand = os.environ.get("CC") or "cc"
    return shutil.which(cand)


def _cpu_tag() -> str:
    """Host signature for the cache key — -march=native binaries are not
    portable across CPU generations, so the ISA feature set must be part
    of the content address (shared TMPDIR across heterogeneous nodes)."""
    flags = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    flags = line
                    break
    except OSError:
        pass
    return platform.machine() + platform.system() + flags


def _compiler_tag(compiler: str | None) -> str:
    """Compiler identity for the cache key: the resolved binary and its
    size and mtime, so switching ``$CC`` (or upgrading the compiler
    behind a stable path) rebuilds the kernel.  Read from the file
    system rather than from ``--version``: spawning the compiler on
    every cache lookup would cost each importing process a child.
    """
    if compiler is None:
        return ""
    real = os.path.realpath(compiler)
    try:
        st = os.stat(real)
    except OSError:
        return real
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


def build_tag() -> str:
    """sha1 identity of the extension this host builds (source, Python,
    NumPy, CPU flags, compiler, flag sets, include path, ``EXT_SUFFIX``):
    names the build cache and enters every cc shard's cache key."""
    key = _SOURCE + sys.version + np.__version__ + _cpu_tag()
    key += _compiler_tag(_compiler()) + repr(_FLAG_SETS) + _INCLUDE + _EXT_SUFFIX
    return hashlib.sha1(key.encode()).hexdigest()[:16]


def _cache_path() -> str | None:
    tag = build_tag()
    uid = os.getuid() if hasattr(os, "getuid") else "u"
    d = os.path.join(tempfile.gettempdir(), f"pom-cc-kernel-{uid}-{tag}")
    # The directory sits in a world-writable location: create it private
    # and refuse to trust it unless we own it, so another local user
    # cannot pre-plant a malicious extension module at the predictable path.
    os.makedirs(d, mode=0o700, exist_ok=True)
    if hasattr(os, "getuid") and os.stat(d).st_uid != os.getuid():
        return None
    return os.path.join(d, "_pom_kernel" + _EXT_SUFFIX)


def _build(path: str) -> bool:
    compiler = _compiler()
    if compiler is None or not os.path.exists(os.path.join(_INCLUDE, "Python.h")):
        return False
    src = os.path.join(os.path.dirname(path), "_pom_kernel.c")
    with open(src, "w") as fh:
        fh.write(_SOURCE)
    for flags, link_extra in _FLAG_SETS:
        obj = f"{path}.o{os.getpid()}"
        tmp = f"{path}.tmp{os.getpid()}"
        compile_cmd = [compiler, "-c", *flags, "-I", _INCLUDE, "-o", obj, src]
        link_cmd = [compiler, "-shared", *link_extra, "-o", tmp, obj, "-lm"]
        try:
            proc = subprocess.run(compile_cmd, capture_output=True, timeout=120)
            if proc.returncode == 0:
                proc = subprocess.run(link_cmd, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            continue
        finally:
            if os.path.exists(obj):
                os.unlink(obj)
        if proc.returncode == 0:
            os.replace(tmp, path)  # atomic: concurrent builders agree
            return True
        if os.path.exists(tmp):
            os.unlink(tmp)
    return False


def load_library():
    """Build (once) and import the kernel extension; ``None`` if unavailable."""
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    try:
        path = _cache_path()
        if path is None or (not os.path.exists(path) and not _build(path)):
            _lib_failed = True
            return None
        loader = ExtensionFileLoader("_pom_kernel", path)
        spec = importlib.util.spec_from_loader("_pom_kernel", loader)
        _lib = importlib.util.module_from_spec(spec)
    except Exception:
        # Any failure (no compiler, exotic platform, unloadable binary)
        # must degrade to "cc unavailable" so the auto resolution falls
        # back to the NumPy kernel instead of crashing simulate().
        _lib_failed = True
        return None
    return _lib


def cc_available() -> bool:
    """True when the compiled kernel can be built and loaded."""
    return load_library() is not None


def openmp_available() -> bool:
    """True when the compiled kernel binary carries OpenMP support.

    False either because no kernel builds at all or because the
    flag-set fallback chain landed on a serial build — in both cases
    ``threads > 1`` silently degrades to the serial (bit-identical)
    path.
    """
    lib = load_library()
    return bool(lib is not None and lib.openmp_available())


def ring_offsets(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray | None:
    """Offset set of a distance-ring topology, or ``None``.

    A topology is a distance ring iff every row couples to ``i + d (mod
    n)`` for one shared offset set — then the fused C kernel can replace
    its gathers and scatters with contiguous shifted passes.  Verified
    from the edge list itself (O(E)), not from builder metadata, so any
    equivalent construction qualifies.
    """
    if rows.size == 0:
        return None
    offs = (cols - rows) % n
    uniq, counts = np.unique(offs, return_counts=True)
    if uniq.size * n != rows.size or not np.all(counts == n):
        return None
    return np.ascontiguousarray(uniq, dtype=np.int64)


class KernelCall:
    """One backend's coupling-kernel call with its static arguments bound.

    Its capsule holds raw pointers into the call's arrays (topology,
    per-member coefficients and coupling strengths) and a strong
    reference to them.  Pickling or copying a call rebuilds it on the
    copied arrays with a new capsule, so a raw pointer never outlives
    its buffer or crosses a process.

    Parameters
    ----------
    entry:
        Module function that runs it: ``"fused_batched"`` or
        ``"ring_batched"``.
    static:
        The kernel's leading topology arguments in C order: ``(rows32,
        cols32, edge_lo, edge_hi)`` or ``(offsets, n_offsets)``.
        ``edge_lo`` and ``edge_hi`` are length-R: member ``r`` runs the
        edges ``[edge_lo[r], edge_hi[r])`` of ``rows32``/``cols32``.
    coeffs:
        ``(kind, p0, p1, vp_over_n)`` as length-R arrays.
    shape:
        State shape ``(R, N)``; a single state is ``(1, N)``.
    threads:
        Requested OpenMP team size (clamped to 1 without OpenMP).
    """

    def __init__(
        self,
        entry: str,
        static: tuple,
        coeffs: tuple,
        shape: tuple[int, ...],
        threads: int = 1,
    ) -> None:
        if entry not in _STATIC_TYPES:
            raise ValueError(f"unknown kernel entry {entry!r}")
        if len(shape) != 2:
            raise ValueError(f"shape {shape} is not an (R, N) state shape")
        self.entry = entry
        types = _STATIC_TYPES[entry]
        if len(static) != len(types):
            raise ValueError(f"{entry} takes {len(types)} static arguments")
        self.static = tuple(
            int(a) if t is int else np.ascontiguousarray(a, dtype=t)
            for a, t in zip(static, types)
        )
        dtypes = (np.int64, np.float64, np.float64, np.float64)  # kind, p0, p1, vp
        self.coeffs = tuple(
            np.ascontiguousarray(c, dtype=t) for c, t in zip(coeffs, dtypes)
        )
        self.shape = tuple(int(x) for x in shape)
        r_count = self.shape[0]
        if any(c.shape != (r_count,) for c in self.coeffs):
            raise ValueError("coefficients must have length R")
        if entry == "fused_batched":
            rows, cols, lo, hi = self.static
            if (
                rows.shape != cols.shape
                or lo.shape != (r_count,)
                or hi.shape != lo.shape
                or np.any(lo < 0)
                or np.any(lo > hi)
                or np.any(hi > rows.size)
            ):
                raise ValueError(
                    "edge ranges must be length-R arrays with "
                    "0 <= edge_lo <= edge_hi <= len(rows) == len(cols)"
                )
        threads = int(threads)  # serial unless the binary has OpenMP
        self.threads = threads if threads > 1 and openmp_available() else 1
        lib = load_library()
        if lib is None:
            raise RuntimeError("the cc kernel is unavailable")
        self._capsule = lib.bind(
            _LAYOUTS[entry], self.shape, self.threads, self.static, self.coeffs
        )

    def __reduce__(self):
        args = (self.entry, self.static, self.coeffs, self.shape, self.threads)
        return KernelCall, args


#: C types of each entry's static arguments (``int``: a scalar count)
_STATIC_TYPES = {
    "fused_batched": (np.int32, np.int32, np.int64, np.int64),
    "ring_batched": (np.int64, int),
}

#: module function name -> its index in the C ``ENTRIES`` table
_LAYOUTS = {entry: i for i, entry in enumerate(_STATIC_TYPES)}


def _kernel_order(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One edge list re-sorted, within each row, into the order the
    kernel :func:`bind` picks for it alone accumulates in.

    A distance ring accumulates by ascending offset ``(col - row) mod
    n``; any other list in its own row-major order.  Run through the
    general edge-list entry in this order, a ring member's row sums are
    bit-equal to the ring kernel's.
    """
    if ring_offsets(rows, cols, n) is None:
        return rows, cols
    order = np.lexsort(((cols - rows) % n, rows))
    return rows[order], cols[order]


def bind(
    rows: list[np.ndarray],
    cols: list[np.ndarray],
    n: int,
    coeffs: tuple,
    vp_over_n,
    threads: int = 1,
) -> KernelCall:
    """The fastest :class:`KernelCall` for ``len(rows)`` stacked states,
    member ``r`` coupling along the edge list ``(rows[r], cols[r])``.

    When every member shares one edge list, a distance ring gets the
    ring kernel, and anything else (a 2-D torus included) the general
    edge-list kernel in its own row-major order, with one edge range
    for every row.  Otherwise (a topology-axis batch) the distinct lists are stored
    once each, in :func:`_kernel_order`, and concatenated for the
    general kernel, every row's edge range pointing at its own list —
    so each row matches its member's one-member call bit for bit.
    ``coeffs`` is the ``(kind, p0, p1)`` triple and ``vp_over_n`` the
    coupling strength, each as length-R arrays.
    """
    distinct: list[tuple[np.ndarray, np.ndarray]] = []
    which = np.empty(len(rows), dtype=np.int64)
    for r, (rr, cc) in enumerate(zip(rows, cols)):
        for k, (dr, dc) in enumerate(distinct):
            if np.array_equal(rr, dr) and np.array_equal(cc, dc):
                break
        else:
            k = len(distinct)
            distinct.append((rr, cc))
        which[r] = k
    coeffs = (*coeffs, vp_over_n)
    shape = (len(rows), n)
    if len(distinct) > 1:
        lists = [_kernel_order(rr, cc, n) for rr, cc in distinct]
    else:
        lists = distinct
        offsets = ring_offsets(*distinct[0], n)
        if offsets is not None:
            static = (offsets, offsets.size)
            return KernelCall("ring_batched", static, coeffs, shape, threads)
    starts = np.cumsum([0] + [rr.size for rr, _ in lists])
    static = (
        np.concatenate([rr for rr, _ in lists]),
        np.concatenate([cc for _, cc in lists]),
        starts[which],
        starts[which + 1],
    )
    return KernelCall("fused_batched", static, coeffs, shape, threads)


def fused_batched(call: KernelCall, theta: np.ndarray, out: np.ndarray):
    """Coupling terms for a contiguous ``(R, N)`` super-state into ``out``."""
    return _lib.run(call._capsule, theta, out, 0)


def ring_batched(call: KernelCall, theta: np.ndarray, out: np.ndarray):
    """Distance-ring coupling for an ``(R, N)`` super-state into ``out``."""
    return _lib.run(call._capsule, theta, out, 1)


def mean_cos_sin(theta: np.ndarray, out: np.ndarray, threads: int = 1):
    """Per-row means of ``cos`` and ``sin`` of a C-contiguous float64
    ``(rows, n)`` state into ``out`` of shape ``(2, rows)``: ``out[0]``
    holds the cosine means, ``out[1]`` the sine means.

    Threads split rows, never a row, so the bits do not depend on
    ``threads``; without OpenMP the call runs serially.
    """
    return load_library().mean_cos_sin(theta, out, int(threads))
