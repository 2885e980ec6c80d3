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
Five entries.  Two couple a stacked ``(R, N)`` super-state with
per-member coefficients, and differ only in the span function that
computes one member's block of output rows: :func:`fused_batched`
(any edge lists, a 2-D torus included: each row runs its own edge
range of one concatenated list, so members may differ in topology) and
:func:`ring_batched` (one shared distance ring).  A single state is
the ``R = 1`` stack ``(1, N)``.  Both take an optional ``(R, N)``
``base`` and then write ``base + acc*vp`` in their final pass over a
block, while it is cache-hot: the backend's RHS adds the intrinsic
frequency there.  The third, :func:`mean_cos_sin`, is the
order-parameter reduction the streaming observer runs after every
accepted step: the per-row means of ``cos`` and ``sin`` of a ``(rows,
n)`` state, a third span function of the same driver.  It keeps
``cos`` and ``sin`` in two separate flat loops, because GCC fuses one
loop holding both into a scalar ``sincos`` call that libmvec does not
vectorise (about 10x slower at N = 1e4).  The last two are the
fixed-step march's elementwise passes over C-contiguous float64 arrays
of one shape, serial: :func:`rk4_stage` (``y + c*k``) and
:func:`rk4_update` (``y + h6*(((k1 + 2k2) + 2k3) + k4)``).

Uncontracted arithmetic
-----------------------
The extension is compiled with ``-ffast-math``, which the libmvec loops
need, but fast-math lets the compiler reassociate sums and contract
``a*b + c`` into an FMA, and either changes the rounding.  The stage
loops and the coupling entries' ``base`` tail are therefore compiled
without fast-math and without FP contraction (GCC's ``optimize``
function attribute, clang's ``fp`` pragma) and kept out of line: each
element rounds exactly as NumPy's operator chain of the same formula,
so their results are bit-identical to the NumPy expressions (a NaN's
sign and payload aside).  That is a contract, not a numerics choice,
so it enters no cache key.

A backend evaluates the coupling thousands of times per solve with the
same topology, coefficients and thread count, so :func:`bind` resolves
all of those once into a :class:`KernelCall`, whose capsule holds the
kernel's static arguments as raw pointers together with the arrays
that own them.  Every entry is then one C call with one skeleton: it
checks its arrays through one buffer validator (C-contiguous float64
of the expected shape, ``out`` writable and apart from every input),
takes the calling OS thread's scratch and runs with the GIL released.

Thread parallelism
------------------
The coupling and reduction entries take a trailing ``threads``
argument (the stage loops have none).  One driver runs them: with
``threads > 1`` and an OpenMP-capable compiler it splits each member's
output rows into ``ceil(threads / R)`` chunks and hands the (member,
chunk) work items to the team under one dynamic schedule (the
reduction never runs more threads than rows, so its items are whole
rows).  Edge spans are row-aligned via binary search on the sorted row
array and ring element ranges are contiguous, so no two threads ever
write the same accumulator and no atomics are needed.  Each thread
works in its own 64-byte-aligned scratch slice, ``[sd | sv | the
ring's lead buffers]``.  Because each row's contributions are
accumulated in exactly the serial order, results are **bit-identical
for any thread count** — the parallel path is a pure wall-clock knob,
never a numerics knob.  When OpenMP is unavailable the
kernels quietly run serial (``openmp_available()`` reports which), and
so does a process forked after its parent ran a parallel region, whose
first own region would hang (libgomp is not fork-safe).

The one topology specialisation is detected from the edge list, never
from builder metadata: a distance ring (:func:`ring_offsets`) replaces
the gather/scatter with contiguous shifted passes, unit-stride and
row-partitionable.  It evaluates each undirected pair once: every
potential kind is odd, so for a *lead* offset ``d`` whose partner
``n - d`` is present, the *mirror* term at element ``i`` is exactly
``-V(theta[i] - theta[i - d])``, read back from the lead's buffer; a
*direct* offset (no partner, ``d = n/2``, or a halo that does not fit
the block) evaluates its own terms.  Every element still sums its terms
in ascending offset order, so the bits match a per-offset evaluation.
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
    "rk4_stage",
    "rk4_update",
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

/* Potential kinds: keep in sync with repro/kernels/coeffs.py.  Every
 * kind must be odd, V(-x) == -V(x) bit for bit: the ring entry evaluates
 * each undirected pair once and negates it for the mirror offset. */
enum { KIND_TANH = 0, KIND_BOTTLENECK = 1, KIND_KURAMOTO = 2, KIND_LINEAR = 3 };

/* Edge-block length (doubles); a thread's two scratch blocks (and a
 * ring's lead buffers, LEAD_BUDGET at most) stay L2-resident. */
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

static int64_t pad_up(int64_t m) {
    return (m + (PAD_BLOCK - 1)) & ~(int64_t)(PAD_BLOCK - 1);
}

#if defined(__GNUC__)
__attribute__((noinline))
#endif
static void potential_block(int64_t kind, double p0, double p1,
                            double *d, double *v, int64_t m) {
    int64_t e;
    int64_t mp = pad_up(m);
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

/* Exact elementwise arithmetic.  The TU is built with -ffast-math for the
 * libmvec loops above, which lets the compiler reassociate sums and
 * contract a*b + c into one FMA: both change the rounding.  The loops
 * below must round every element exactly as NumPy's ufunc chain of the
 * same formula does, so they are compiled without fast-math and without
 * FP contraction (GCC: the optimize attribute; clang: the fp pragma at
 * the start of each body), and kept out of line so no fast-math caller
 * absorbs them.  Each parenthesis in a formula is one rounding. */
#if defined(__clang__)
#define EXACT_FN __attribute__((noinline))
#define EXACT_BODY _Pragma("clang fp reassociate(off) contract(off)")
#elif defined(__GNUC__)
#define EXACT_FN __attribute__((noinline, optimize("no-fast-math", "fp-contract=off")))
#define EXACT_BODY
#else
#define EXACT_FN
#define EXACT_BODY
#endif

/* The coupling entries' tail over one block: o = base + o*vp, or o *= vp
 * without a base.  Written while the block is cache-hot, it folds the
 * intrinsic frequency into the coupling pass with freq + coupling's bits
 * (IEEE addition is commutative). */
EXACT_FN static void scale_block(double *o, const double *base, double vp,
                                 int64_t m) {
    EXACT_BODY
    int64_t e;
    if (base)
        for (e = 0; e < m; ++e)
            o[e] = base[e] + o[e] * vp;
    else
        for (e = 0; e < m; ++e)
            o[e] *= vp;
}

/* A fixed-step stage argument, out = y + c*k (c = h/2 or h). */
EXACT_FN static void stage_loop(const double *y, const double *k, double c,
                                double *out, int64_t m) {
    EXACT_BODY
    int64_t e;
    for (e = 0; e < m; ++e)
        out[e] = y[e] + c * k[e];
}

/* The RK4 update, out = y + h6*(((k1 + 2k2) + 2k3) + k4) (h6 = h/6). */
EXACT_FN static void update_loop(const double *y, const double *k1,
                                 const double *k2, const double *k3,
                                 const double *k4, double h6, double *out,
                                 int64_t m) {
    EXACT_BODY
    int64_t e;
    for (e = 0; e < m; ++e)
        out[e] = y[e] + h6 * (((k1[e] + 2.0 * k2[e]) + 2.0 * k3[e]) + k4[e]);
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

/* ---- Work items: one span function per layout, one driver. ---- */

/* A bound kernel call: bind() resolves one per KernelCall, and run()
 * reads it on every call; mean_cos_sin fills one on its stack. */
typedef struct {
    int layout;          /* index into SPANS (and ENTRIES) */
    const void *arr[8];  /* static index arrays (C order), then kind, p0, p1, vp */
    long long count;     /* the ring's offset count */
    int64_t *buf;        /* the ring's offset classes (ring_pairs) */
    long long stride;    /* scratch doubles per thread: sd | sv | lead buffers */
    Py_ssize_t r, n;
    long long threads;
    PyObject *owner;     /* bind()'s arguments: they own every array */
} pom_call;

/* A span function writes member rr's output elements [i0, i1) of the
 * (R, N) out, working in its thread's scratch slice (sd, sv, then the
 * ring's lead buffers). */
typedef void (*span_fn)(const pom_call *c, int64_t rr, int64_t i0, int64_t i1,
                        const double *theta, double *out, const double *base,
                        double *work);

/* Member rr's potential kind; p gets its p0, p1 and vp (slots 4-7). */
static int64_t coeffs(const pom_call *c, int64_t rr, double p[3]) {
    int k;
    for (k = 0; k < 3; ++k)
        p[k] = ((const double *)c->arr[5 + k])[rr];
    return ((const int64_t *)c->arr[4])[rr];
}

/* Edge-list coupling of member rr, restricted to output rows [r0, r1):
 * zero, accumulate the row-aligned span of the member's edge range
 * [edge_lo[rr], edge_hi[rr]) in row-major order, scale (and add base,
 * when given).  Chunks touch disjoint rows, so any row-aligned
 * decomposition reproduces the serial bits. */
static void fused_span(const pom_call *c, int64_t rr, int64_t r0, int64_t r1,
                       const double *theta, double *out, const double *base,
                       double *work) {
    int64_t lo = ((const int64_t *)c->arr[2])[rr];
    int64_t n_edges = ((const int64_t *)c->arr[3])[rr] - lo;
    const int32_t *rows = (const int32_t *)c->arr[0] + lo;
    const int32_t *cols = (const int32_t *)c->arr[1] + lo;
    double *sd = work, *sv = work + BLOCK_EDGES, p[3];
    int64_t kind = coeffs(c, rr, p), i, e, b0;
    int64_t e0 = row_lower_bound(rows, n_edges, r0);
    int64_t e1 = row_lower_bound(rows, n_edges, r1);
    theta += rr * c->n;
    out += rr * c->n;
    for (i = r0; i < r1; ++i)
        out[i] = 0.0;
    for (b0 = e0; b0 < e1; b0 += BLOCK_EDGES) {
        int64_t b1 = b0 + BLOCK_EDGES < e1 ? b0 + BLOCK_EDGES : e1;
        int64_t m = b1 - b0;
        const int32_t *rb = rows + b0;
        const int32_t *cb = cols + b0;
        for (e = 0; e < m; ++e)
            sd[e] = theta[cb[e]] - theta[rb[e]];
        potential_block(kind, p[0], p[1], sd, sv, m);
        for (e = 0; e < m; ++e)
            out[rb[e]] += sv[e];
    }
    scale_block(out + r0, base ? base + rr * c->n + r0 : NULL, p[2], r1 - r0);
}

/* Distance-ring specialisation: every row couples to i + d (mod n) for
 * each offset d — the paper's halo-exchange topologies.  The gather
 * becomes contiguous shifted segments and the scatter a contiguous
 * accumulate, so every pass runs at unit stride with no index arrays.
 *
 * Each undirected pair is evaluated once.  Every kind is odd,
 * V(-x) == -V(x) bit for bit, and a - b == -(b - a) in IEEE
 * arithmetic, so the term of offset n - d at element i is exactly
 * -w_d(i - d), where w_d(j) = V(theta[j + d] - theta[j]).  ring_pairs
 * sorts the ascending offsets into three classes:
 *   lead   — d < n - d whose partner n - d is present and whose buffer
 *            (the block plus a halo of d) fits LEAD_BUDGET, smallest d
 *            first; it evaluates w_d over [b0 - d, b1) once per block,
 *   mirror — the partner n - d of a lead; it reads the lead's buffer,
 *   direct — every other offset (no partner, d = n/2, or a lead whose
 *            halo does not fit); it evaluates its own block, as before.
 * Each element is accumulated in ascending offset order,
 * out[i] = ((0 + V_d1) + V_d2 + ...) * vp, so the sums do not depend on
 * the classes.  Accumulating offset by offset (not column order)
 * changes the row sums against the edge-list order at the ulp level. */

/* Lead buffers per thread, in doubles: eight blocks with their halos. */
#define LEAD_BUDGET (8 * BLOCK_EDGES)

/* The classes of the strictly ascending offsets in [1, n - 1]: buf[k] is
 * the offset of a lead's buffer in the lead scratch (its mirror holds the
 * same value), -1 for a direct offset.  Returns the doubles the leads'
 * buffers take. */
static int64_t ring_pairs(const int64_t *offsets, int64_t count, int64_t n,
                          int64_t *buf) {
    int64_t k, hi = count - 1, used = 0;
    for (k = 0; k < count; ++k)
        buf[k] = -1;
    for (k = 0; k < count && 2 * offsets[k] < n; ++k) {
        int64_t d = offsets[k], size = pad_up(BLOCK_EDGES + d);
        while (hi > k && offsets[hi] > n - d)
            --hi;
        if (offsets[hi] == n - d && d < BLOCK_EDGES &&
            used + size <= LEAD_BUDGET) {
            buf[k] = buf[hi] = used;
            used += size;
        }
    }
    return used;
}

/* sd[j - j0] = theta[(j + d) mod n] - theta[j mod n] for j in [j0, j1),
 * -d <= j0 <= j1 <= n: a wrap-free contiguous middle [a, b) between the
 * wrapped ends j < 0 and j + d >= n. */
static void ring_gather(const double *th, int64_t n, int64_t d, int64_t j0,
                        int64_t j1, double *sd) {
    int64_t j;
    int64_t a = j0 > 0 ? j0 : (j1 < 0 ? j1 : 0);
    int64_t b = n - d > a ? (n - d < j1 ? n - d : j1) : a;
    for (j = j0; j < a; ++j)
        sd[j - j0] = th[j + d] - th[j + n];
    for (j = a; j < b; ++j)
        sd[j - j0] = th[j + d] - th[j];
    for (j = b; j < j1; ++j)
        sd[j - j0] = th[j + d - n] - th[j];
}

/* v[j - j0] = V(theta[j + d] - theta[j]) for j in [j0, j1), gathered
 * block by block through the one noinline potential_block (the
 * determinism contract: an element's value does not depend on the
 * block it lands in).  v must hold pad_up(j1 - j0) doubles. */
static void ring_eval(const double *th, int64_t n, int64_t d, int64_t j0,
                      int64_t j1, int64_t kind, const double *p, double *sd,
                      double *v) {
    int64_t s;
    for (s = j0; s < j1; s += BLOCK_EDGES) {
        int64_t t = s + BLOCK_EDGES < j1 ? s + BLOCK_EDGES : j1;
        ring_gather(th, n, d, s, t, sd);
        potential_block(kind, p[0], p[1], sd, v + (s - j0), t - s);
    }
}

/* Ring coupling of member rr, restricted to elements [i0, i1), one
 * element block at a time; the offset classes come from ring_pairs.  Any
 * chunking gives the serial bits: every element sees the same terms in
 * the same order. */
static void ring_chunk(const pom_call *c, int64_t rr, int64_t i0, int64_t i1,
                       const double *theta, double *out, const double *base,
                       double *work) {
    const int64_t *offsets = c->arr[0], *buf = c->buf;
    double *sd = work, *sv = work + BLOCK_EDGES, *lead = sv + BLOCK_EDGES, p[3];
    int64_t n = c->n, kind = coeffs(c, rr, p), b0, e, k;
    theta += rr * n;
    out += rr * n;
    for (b0 = i0; b0 < i1; b0 += BLOCK_EDGES) {
        int64_t b1 = b0 + BLOCK_EDGES < i1 ? b0 + BLOCK_EDGES : i1;
        int64_t m = b1 - b0;
        double *o = out + b0;
        for (e = 0; e < m; ++e)
            o[e] = 0.0;
        for (k = 0; k < c->count; ++k) {
            int64_t d = offsets[k];
            const double *w;
            if (buf[k] < 0) {               /* direct */
                ring_eval(theta, n, d, b0, b1, kind, p, sd, sv);
                w = sv;
            } else if (2 * d < n) {         /* lead: w_d over [b0 - d, b1) */
                ring_eval(theta, n, d, b0 - d, b1, kind, p, sd, lead + buf[k]);
                w = lead + buf[k] + d;
            } else {                        /* mirror of the lead n - d */
                w = lead + buf[k];
                for (e = 0; e < m; ++e)
                    o[e] += -w[e];
                continue;
            }
            for (e = 0; e < m; ++e)
                o[e] += w[e];
        }
        scale_block(o, base ? base + rr * n + b0 : NULL, p[2], m);
    }
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

/* Order-parameter reduction: the means of cos and sin over row rr's n
 * phases into out[rr] and out[R + rr] of a (2, R) out, summed block by
 * block in a fixed order.  mean_cos_sin never runs more threads than
 * rows, so every work item is a whole row ([i0, i1) = [0, n)).  It keeps
 * the determinism contract of potential_block: each block is copied into
 * the 64-byte-aligned scratch and padded to PAD_BLOCK, so the vectorised
 * libmvec cos/sin never meet a scalar epilogue, and the one noinline
 * instance serves the serial and the parallel path.  cos and sin run as
 * two flat loops: in one loop GCC fuses them into a scalar sincos call
 * and vectorises neither. */
#if defined(__GNUC__)
__attribute__((noinline))
#endif
static void cos_sin_row(const pom_call *c, int64_t rr, int64_t i0, int64_t i1,
                        const double *theta, double *out, const double *base,
                        double *work) {
    const double *x = theta + rr * c->n;
    double *sd = work, *sv = work + BLOCK_EDGES, cs = 0.0, ss = 0.0;
    int64_t n = c->n, b0, e;
    for (b0 = 0; b0 < n; b0 += BLOCK_EDGES) {
        int64_t m = b0 + BLOCK_EDGES < n ? BLOCK_EDGES : n - b0;
        int64_t mp = pad_up(m);
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
    out[rr] = cs / (double)n;
    out[c->r + rr] = ss / (double)n;
}

static const span_fn SPANS[] = {fused_span, ring_chunk, cos_sin_row};

/* The one driver.  With threads > 1 the (member, row-chunk) work items
 * of every member run under one dynamic schedule, so small-R stacks still
 * fill the team, and OpenMP thread tid works in scratch slice tid;
 * serially each member is one item.  Chunks split a member's output rows
 * only, so each element is computed exactly as in the serial call. */
static void pom_couple(const pom_call *c, const double *theta, double *out,
                       const double *base, double *work, int64_t threads) {
    span_fn span = SPANS[c->layout];
    int64_t n = c->n, w;
#ifdef _OPENMP
    if (threads > 1) {
        int64_t splits = (threads + c->r - 1) / c->r;
#pragma omp parallel for schedule(dynamic, 1) num_threads((int)threads)
        for (w = 0; w < c->r * splits; ++w) {
            int64_t k = w % splits;
            span(c, w / splits, n * k / splits, n * (k + 1) / splits, theta, out,
                 base, work + omp_get_thread_num() * c->stride);
        }
        return;
    }
#endif
    (void)threads;
    for (w = 0; w < c->r; ++w)
        span(c, w, 0, n, theta, out, base, work);
}

/* ---- CPython binding: bind() once per KernelCall, run() per call. ---- */
static const char *const ENTRIES[] = {"fused_batched", "ring_batched"};

static void call_free(PyObject *cap) {
    pom_call *c = PyCapsule_GetPointer(cap, "pom_call");
    Py_XDECREF(c->owner);
    PyMem_Free(c->buf);
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
 * the static index arrays take slots 0-3, the coefficients slots 4-7.
 * R must be positive; a ring's offsets strictly ascending in [1, N - 1]. */
static PyObject *py_bind(PyObject *self, PyObject *args) {
    PyObject *st, *cap;
    pom_call *c = PyMem_Calloc(1, sizeof *c);
    const void **a = c ? c->arr : NULL;
    if (!c)
        return PyErr_NoMemory();
    c->stride = 2 * BLOCK_EDGES;
    if (PyArg_ParseTuple(args, "i(nn)LO!(O&O&O&O&)", &c->layout, &c->r, &c->n,
                         &c->threads, &PyTuple_Type, &st, i64, &a[4], i64, &a[5],
                         i64, &a[6], i64, &a[7]) && c->threads > 0 && c->r > 0 &&
        (c->layout == 0 ? PyArg_ParseTuple(st, "O&O&O&O&", i32, a, i32, a + 1, i64,
                                           a + 2, i64, a + 3)
         : c->layout == 1 && PyArg_ParseTuple(st, "O&L", i64, a, &c->count) &&
               c->count >= 0)) {
        if (c->layout == 1 &&
            !(c->buf = PyMem_Malloc((c->count + 1) * sizeof(int64_t))))
            PyErr_NoMemory();
        else if (c->layout == 1)
            c->stride += ring_pairs(a[0], c->count, c->n, c->buf);
        if (!PyErr_Occurred() && (cap = PyCapsule_New(c, "pom_call", call_free))) {
            Py_INCREF(args);
            c->owner = args;
            return cap;
        }
    }
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "malformed kernel call");
    PyMem_Free(c->buf);
    PyMem_Free(c);
    return NULL;
}

/* The one buffer validator: export `obj` into `v` if it is a C-contiguous
 * float64 array of `ndim` dimensions whose extents match `shape` (a
 * negative extent matches any; a negative ndim, any shape).  It sets no
 * error: the caller says what it expected. */
static int view(PyObject *obj, Py_buffer *v, int ndim, const Py_ssize_t *shape) {
    int k = 0;
    if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)) {
        PyErr_Clear();
        return -1;
    }
    while (k < ndim && k < v->ndim && (shape[k] < 0 || v->shape[k] == shape[k]))
        ++k;
    if (!strcmp(v->format, "d") && (ndim < 0 || (v->ndim == ndim && k == ndim)))
        return 0;
    PyBuffer_Release(v);
    return -1;
}

/* Export objs[0, n) through view() with `ndim` and `shape` (a negative
 * ndim: the first of any shape, the rest shaped like it).  Returns -1, or
 * the index of the first that fails, with the ones before it released. */
static int export_views(PyObject *const *objs, int n, Py_buffer *v, int ndim,
                        const Py_ssize_t *shape) {
    int i, bad;
    for (i = 0; i < n; ++i) {
        if (ndim < 0 && i)
            bad = view(objs[i], &v[i], v[0].ndim, v[0].shape);
        else
            bad = view(objs[i], &v[i], ndim, shape);
        if (bad) {
            for (bad = i; i--;)
                PyBuffer_Release(&v[i]);
            return bad;
        }
    }
    return -1;
}

/* 0 if `ou` may take a result computed from the input `th` (called
 * `name`), else a ValueError. */
static int out_apart(const Py_buffer *th, const Py_buffer *ou, const char *name) {
    const char *t = th->buf, *o = ou->buf;
    if (ou->readonly)
        PyErr_SetString(PyExc_ValueError, "out is read-only");
    else if (o < t + th->len && t < o + ou->len)
        PyErr_Format(PyExc_ValueError, "out overlaps %s", name);
    else
        return 0;
    return -1;
}

/* The calling OS thread's scratch (calls release the GIL), freed at
 * thread exit: at least `doubles` doubles behind a 64-byte capacity
 * header, one slice of `stride` doubles per OpenMP thread.  64-byte
 * alignment (every slice and lead buffer is a PAD_BLOCK multiple): a
 * compiler that peels iterations until a pointer is aligned peels the
 * same count on every call. */
static pthread_key_t scratch_key;

static double *scratch(long long doubles) {
    long long *s = pthread_getspecific(scratch_key);
    if (!s || s[0] < doubles) {
        free(s);
        s = aligned_alloc(64, 64 + doubles * sizeof(double));
        pthread_setspecific(scratch_key, s);
        if (!s)
            return NULL;
        s[0] = doubles;
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

typedef void (*body_fn)(const void *ctx, Py_buffer *v, int n, double *work,
                        long long threads);

/* The call skeleton every entry ends in, once its n arrays are exported
 * into v (out, then the inputs, v[i] called names[i]): out must lie apart
 * from every input; then `threads` scratch slices of `stride` doubles,
 * the team this process may run, `body` with the GIL released, and the
 * views released.  Returns `out`. */
static PyObject *finish(PyObject *out, Py_buffer *v, int n, const char *const *names,
                        long long threads, long long stride, body_fn body,
                        const void *ctx) {
    double *work = NULL;
    int i = 1;
    while (i < n && !out_apart(&v[i], &v[0], names[i]))
        ++i;
    if (i == n && !(work = scratch(threads * stride)))
        PyErr_NoMemory();
    if (work) {
        threads = usable_threads(threads);
        Py_BEGIN_ALLOW_THREADS
        body(ctx, v, n, work, threads);
        Py_END_ALLOW_THREADS
    }
    while (n--)
        PyBuffer_Release(&v[n]);
    if (!work)
        return NULL;
    Py_INCREF(out);
    return out;
}

/* v = out, theta[, base] */
static void couple_body(const void *c, Py_buffer *v, int n, double *work,
                        long long threads) {
    pom_couple(c, v[1].buf, v[0].buf, n == 3 ? v[2].buf : NULL, work, threads);
}

/* run(call, layout, out, theta[, base]) -> out; a base (None: none) of
 * the bound shape is added to every row's scaled sum: out = base + acc*vp. */
static PyObject *py_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs) {
    static const char *const names[] = {"out", "theta", "base"};
    Py_buffer v[3];
    const pom_call *c;
    long want;
    int n = nargs == 5 && args[4] != Py_None ? 3 : 2, bad;
    if (nargs != 4 && nargs != 5)
        return PyErr_Format(PyExc_TypeError, "run() takes 4 or 5 arguments");
    if (!(c = PyCapsule_GetPointer(args[0], "pom_call")) ||
        ((want = PyLong_AsLong(args[1])) == -1 && PyErr_Occurred()))
        return NULL;
    if (want != c->layout)
        return PyErr_Format(PyExc_ValueError, "%s got a call bound for %s",
                            (unsigned long)want < 2 ? ENTRIES[want] : "?",
                            ENTRIES[c->layout]);
    Py_ssize_t shape[2] = {c->r, c->n};
    if ((bad = export_views(args + 2, n, v, 2, shape)) >= 0)
        return PyErr_Format(PyExc_ValueError, "states must be C-contiguous float64 "
                            "arrays of the bound shape (%zd, %zd); %s is not",
                            c->r, c->n, names[bad]);
    return finish(args[2], v, n, names, c->threads, c->stride, couple_body, c);
}

/* mean_cos_sin(theta, out, threads) -> out: the per-row cos and sin
 * means of a (rows, n) state into out of shape (2, rows), through the
 * driver with cos_sin_row.  The team never exceeds the row count, so a
 * huge `threads` allocates no more scratch. */
static PyObject *py_mean_cos_sin(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs) {
    static const char *const names[] = {"out", "theta"};
    static const Py_ssize_t any[2] = {-1, -1};
    pom_call c = {.layout = 2, .stride = 2 * BLOCK_EDGES};
    Py_buffer v[2];
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "mean_cos_sin() takes 3 arguments");
    if ((c.threads = PyLong_AsLongLong(args[2])) == -1 && PyErr_Occurred())
        return NULL;
    if (c.threads < 1)
        return PyErr_Format(PyExc_ValueError, "threads must be positive");
    if (view(args[0], &v[1], 2, any))
        return PyErr_Format(PyExc_ValueError, "theta must be a C-contiguous "
                            "float64 (rows, n) array");
    c.r = v[1].shape[0];
    c.n = v[1].shape[1];
    Py_ssize_t shape[2] = {2, c.r};
    if (c.n < 1 || view(args[1], &v[0], 2, shape)) {
        PyBuffer_Release(&v[1]);
        if (c.n < 1)
            return PyErr_Format(PyExc_ValueError, "theta has no phases to average");
        return PyErr_Format(PyExc_ValueError, "out must be a C-contiguous "
                            "float64 array of shape (2, %zd)", c.r);
    }
#ifndef _OPENMP
    c.threads = 1;
#endif
    if (c.threads > c.r)
        c.threads = c.r > 1 ? c.r : 1;
    return finish(args[1], v, 2, names, c.threads, c.stride, couple_body, &c);
}

/* v = out, y, k or out, y, k1, k2, k3, k4; *s is c or h6 */
static void elementwise_body(const void *s, Py_buffer *v, int n, double *work,
                             long long threads) {
    int64_t m = v[0].len / (Py_ssize_t)sizeof(double);
    double h = *(const double *)s;
    if (n == 3)
        stage_loop(v[1].buf, v[2].buf, h, v[0].buf, m);
    else
        update_loop(v[1].buf, v[2].buf, v[3].buf, v[4].buf, v[5].buf, h, v[0].buf, m);
}

/* The fixed-step march's elementwise passes over C-contiguous float64
 * arrays of one shape, serial, GIL released:
 *   rk4_stage(c, out, y, k) -> out          out = y + c*k
 *   rk4_update(h6, out, y, k1, k2, k3, k4)  out = y + h6*(((k1 + 2k2) + 2k3) + k4)
 * `n` counts out and the inputs. */
static PyObject *elementwise(PyObject *const *args, Py_ssize_t nargs, int n,
                             const char *name, const char *const *names) {
    Py_buffer v[6];
    double s;
    if (nargs != n + 1)
        return PyErr_Format(PyExc_TypeError, "%s() takes %d arguments", name, n + 1);
    if ((s = PyFloat_AsDouble(args[0])) == -1.0 && PyErr_Occurred())
        return NULL;
    if (export_views(args + 1, n, v, -1, NULL) >= 0)
        return PyErr_Format(PyExc_ValueError, "%s takes C-contiguous float64 "
                            "arrays of one shape", name);
    return finish(args[1], v, n, names, 1, 0, elementwise_body, &s);
}

static PyObject *py_rk4_stage(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs) {
    static const char *const names[] = {"out", "y", "k"};
    return elementwise(args, nargs, 3, "rk4_stage", names);
}

static PyObject *py_rk4_update(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs) {
    static const char *const names[] = {"out", "y", "k1", "k2", "k3", "k4"};
    return elementwise(args, nargs, 6, "rk4_update", names);
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
    {"rk4_stage", (PyCFunction)(void (*)(void))py_rk4_stage, METH_FASTCALL, NULL},
    {"rk4_update", (PyCFunction)(void (*)(void))py_rk4_update, METH_FASTCALL, NULL},
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
        else:
            offsets, count = self.static
            n = self.shape[1]
            if (
                offsets.shape != (count,)
                or np.any(offsets < 1)
                or np.any(offsets >= n)
                or np.any(np.diff(offsets) <= 0)
            ):
                raise ValueError(
                    "ring offsets must be n_offsets strictly ascending "
                    "values in [1, N - 1]"
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


def fused_batched(call: KernelCall, theta: np.ndarray, out: np.ndarray,
                  base: np.ndarray | None = None):
    """Coupling terms for a contiguous ``(R, N)`` super-state into ``out``;
    with an ``(R, N)`` ``base``, ``out = base + coupling`` in the same
    bits as that sum in NumPy."""
    return _lib.run(call._capsule, 0, out, theta, base)


def ring_batched(call: KernelCall, theta: np.ndarray, out: np.ndarray,
                 base: np.ndarray | None = None):
    """Distance-ring coupling for an ``(R, N)`` super-state into ``out``
    (plus ``base``, as in :func:`fused_batched`)."""
    return _lib.run(call._capsule, 1, out, theta, base)


def mean_cos_sin(theta: np.ndarray, out: np.ndarray, threads: int = 1):
    """Per-row means of ``cos`` and ``sin`` of a C-contiguous float64
    ``(rows, n)`` state into ``out`` of shape ``(2, rows)``: ``out[0]``
    holds the cosine means, ``out[1]`` the sine means.

    Threads split rows, never a row, so the bits do not depend on
    ``threads``; without OpenMP the call runs serially.
    """
    return load_library().mean_cos_sin(theta, out, int(threads))


def rk4_stage(y: np.ndarray, k: np.ndarray, c: float, out: np.ndarray):
    """``out = y + c*k`` over C-contiguous float64 arrays of one shape,
    with the bits of that NumPy expression (serial, GIL released)."""
    return _lib.rk4_stage(c, out, y, k)


def rk4_update(y: np.ndarray, k1: np.ndarray, k2: np.ndarray,
               k3: np.ndarray, k4: np.ndarray, h6: float, out: np.ndarray):
    """``out = y + h6*(k1 + 2.0*k2 + 2.0*k3 + k4)`` with the bits of that
    NumPy expression (left to right; ``h6 = h / 6.0``), as
    :func:`rk4_stage`."""
    return _lib.rk4_update(h6, out, y, k1, k2, k3, k4)
