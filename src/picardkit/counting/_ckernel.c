/* Compiled counting kernel: the same contract as kernel_py, in plain C.

   Field elements are int64 table indices; see kernel_py for the table
   conventions.  Every slice is resolved as in kernel_py, by counting the
   distinct roots of the gcd of its univariate polynomials (closed forms for
   degrees 1 and 2, gcd with x^Q - x beyond).  count_chart copies its term
   records into C memory and runs the chart loop without the GIL, so
   count_points can spread outer-coordinate ranges across threads.  Only a
   C compiler and the Python headers are needed:
   python setup.py build_ext --inplace  */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef long long i64;

/* degrees and prefix exponents above this are rejected, which keeps every
   buffer size computed below far from overflow */
#define MAX_DEG (1LL << 24)

static PyObject *array_type; /* array.array */

/* A C-contiguous buffer of 8-byte 'q' items; TypeError otherwise. */
static int get_q(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != 8 || view->format == NULL || strcmp(view->format, "q") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, "expected a buffer of 8-byte 'q' items");
        return -1;
    }
    return 0;
}

/* A zeroed array('q') of n items, with a writable buffer on it in view. */
static PyObject *new_array(i64 n, Py_buffer *view)
{
    PyObject *zero = PyObject_CallFunction(array_type, "s(i)", "q", 0), *arr;
    if (zero == NULL)
        return NULL;
    arr = PySequence_Repeat(zero, (Py_ssize_t)n);
    Py_DECREF(zero);
    if (arr && PyObject_GetBuffer(arr, view, PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS) < 0)
        Py_CLEAR(arr);
    return arr;
}

/* ------------------------------------------------------------------------
   table construction: the powers of x, walked on base-p digit indices */

static PyObject *build_tables(PyObject *self, PyObject *args)
{
    /* q fits in a Py_ssize_t, so e < 64 */
    i64 p, e, q = 1, lead = 1, i, k, pi, nt = 0, pw[64], nm[64];
    i64 top, cur, *exp, *log, *zech, sizes[3];
    PyObject *modulus, *seq, *arrs[3] = {NULL, NULL, NULL}, *out = NULL;
    Py_buffer views[3];
    int nv = 0;

    if (!PyArg_ParseTuple(args, "LLO", &p, &e, &modulus))
        return NULL;
    if (p < 2 || e < 1) {
        PyErr_SetString(PyExc_ValueError, "need p >= 2 and e >= 1");
        return NULL;
    }
    for (i = 0; i < e; i++) {
        if (q > PY_SSIZE_T_MAX / 32 / p)
            return PyErr_NoMemory();
        lead = q;
        q *= p;
    }
    if ((seq = PySequence_Fast(modulus, "modulus must be a sequence")) == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != e + 1) {
        PyErr_SetString(PyExc_ValueError, "modulus must have e + 1 coefficients");
        goto done;
    }
    /* x^e = -(m_0 + ... + m_{e-1} x^(e-1)): keep its nonzero terms, as
       pw = p^j and the coefficient nm = -m_j */
    for (i = 0, pi = 1; i < e; i++, pi *= p) {
        i64 c = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (c == -1 && PyErr_Occurred())
            goto done;
        if ((c = (c % p + p) % p) != 0)
            pw[nt] = pi, nm[nt++] = p - c;
    }
    sizes[0] = q - 1, sizes[1] = q, sizes[2] = q - 1;
    for (; nv < 3; nv++)
        if ((arrs[nv] = new_array(sizes[nv], &views[nv])) == NULL)
            goto done;
    exp = views[0].buf, log = views[1].buf, zech = views[2].buf;

    for (i = 0; i < q; i++)
        log[i] = -1;
    /* exp[i] is the index cur of x^i, walked as in kernel_py: times x
       shifts the digits up and subtracts top * m, top the digit shifted
       out, each digit d = cur / p^j % p read by division */
    for (i = 0, cur = 1; i < q - 1; i++) {
        if (cur == 0 || log[cur] >= 0)
            break;
        exp[i] = cur;
        log[cur] = i;
        top = cur / lead;
        cur = (cur - top * lead) * p;
        for (k = 0; top && k < nt; k++) {
            i64 d = cur / pw[k] % p;
            cur += ((d + top * nm[k]) % p - d) * pw[k];
        }
    }
    if (i < q - 1 || cur != 1) {
        PyErr_SetString(PyExc_ValueError, "modulus is not primitive");
        goto done;
    }
    /* adding one increments the constant digit mod p */
    for (i = 0; i < q - 1; i++) {
        i64 t = exp[i], t1 = t % p < p - 1 ? t + 1 : t - (p - 1);
        zech[i] = t1 ? log[t1] : -1;
    }

    out = PyTuple_Pack(3, arrs[0], arrs[1], arrs[2]);
done:
    while (nv > 0)
        PyBuffer_Release(&views[--nv]);
    for (i = 0; i < 3; i++)
        Py_XDECREF(arrs[i]);
    Py_DECREF(seq);
    return out;
}

/* ------------------------------------------------------------------------
   field and small-degree polynomial arithmetic on table indices */

typedef struct {
    const i64 *exp, *log, *zech;
    i64 Q, Qm1, negone, p, tmask;
} FOps;

static inline i64 el_mul(const FOps *F, i64 a, i64 b)
{
    i64 s;
    if (a == 0 || b == 0)
        return 0;
    s = F->log[a] + F->log[b];
    return F->exp[s >= F->Qm1 ? s - F->Qm1 : s];
}

static inline i64 el_add(const FOps *F, i64 a, i64 b)
{
    i64 d, z, s;
    if (a == 0 || b == 0)
        return a + b;
    d = F->log[b] - F->log[a];
    z = F->zech[d < 0 ? d + F->Qm1 : d];
    if (z < 0)
        return 0;
    s = F->log[a] + z;
    return F->exp[s >= F->Qm1 ? s - F->Qm1 : s];
}

static inline i64 el_neg(const FOps *F, i64 a) { return el_mul(F, a, F->negone); }

static inline i64 el_inv(const FOps *F, i64 a)
{
    i64 s = F->Qm1 - F->log[a];
    return F->exp[s >= F->Qm1 ? s - F->Qm1 : s];
}

/* Dense polynomials are (coefficient pointer, length), index = degree. */

static i64 ptrim(const i64 *a, i64 n)
{
    while (n > 0 && a[n - 1] == 0)
        n--;
    return n;
}

static void pmonic(const FOps *F, i64 *a, i64 n)
{
    i64 s, i;
    if (n == 0 || a[n - 1] == 1)
        return;
    s = el_inv(F, a[n - 1]);
    for (i = 0; i < n; i++)
        a[i] = el_mul(F, a[i], s);
}

/* a mod monic m, in place; returns the new length of a */
static i64 pmod(const FOps *F, i64 *a, i64 na, const i64 *m, i64 nm)
{
    i64 dm = nm - 1, c, off, i;
    while (na > 0 && na - 1 >= dm) {
        c = a[na - 1];
        if (c) {
            c = el_neg(F, c);
            off = na - 1 - dm;
            for (i = 0; i < dm; i++)
                a[off + i] = el_add(F, a[off + i], el_mul(F, c, m[i]));
        }
        na = ptrim(a, na - 1);
    }
    return na;
}

/* monic gcd into a; returns its length; clobbers b */
static i64 pgcd(const FOps *F, i64 *a, i64 na, i64 *b, i64 nb)
{
    i64 *pa = a, *pb = b, *t, n;
    while (nb > 0) {
        pmonic(F, pb, nb);
        na = pmod(F, pa, na, pb, nb);
        t = pa, pa = pb, pb = t;
        n = na, na = nb, nb = n;
    }
    if (pa != a)
        memcpy(a, pa, sizeof(i64) * na);
    return na;
}

/* out = a*b mod monic m; returns the length of out */
static i64 pmulmod(const FOps *F, const i64 *a, i64 na, const i64 *b, i64 nb,
                   const i64 *m, i64 nm, i64 *out)
{
    i64 i, j, n;
    if (na == 0 || nb == 0)
        return 0;
    n = na + nb - 1;
    memset(out, 0, sizeof(i64) * n);
    for (i = 0; i < na; i++)
        if (a[i])
            for (j = 0; j < nb; j++)
                if (b[j])
                    out[i + j] = el_add(F, out[i + j], el_mul(F, a[i], b[j]));
    return pmod(F, out, n, m, nm);
}

/* Number of distinct roots in F_Q of g (nonconstant, length ng): closed
   forms for degrees 1 and 2, gcd(g, x^Q - x) beyond.  g is clobbered;
   s1, s2, s3 hold at least 2 * ng entries each. */
static i64 root_count(const FOps *F, i64 *g, i64 ng, i64 *s1, i64 *s2, i64 *s3)
{
    i64 a, b, c, v, disc, k, nb, nr, nt;
    if (ng == 2)
        return 1;
    if (ng == 3) {
        c = g[0], b = g[1], a = g[2];
        if (F->p == 2) {
            unsigned long long bits;
            if (b == 0)
                return 1; /* squaring is bijective */
            v = el_mul(F, el_mul(F, a, c), el_inv(F, el_mul(F, b, b)));
            if (v == 0)
                return 2;
            /* absolute trace of v: parity of its masked digit bits */
            bits = (unsigned long long)(v & F->tmask);
            for (k = 32; k; k >>= 1)
                bits ^= bits >> k;
            return (bits & 1) ? 0 : 2;
        }
        /* constant elements are their own index */
        disc = el_add(F, el_mul(F, b, b), el_neg(F, el_mul(F, 4 % F->p, el_mul(F, a, c))));
        if (disc == 0)
            return 1;
        return F->log[disc] % 2 == 0 ? 2 : 0;
    }
    pmonic(F, g, ng);
    /* s2 = x^Q mod g by square and multiply; s1 holds x^(2^i) mod g */
    s1[0] = 0, s1[1] = 1;
    nb = pmod(F, s1, 2, g, ng);
    s2[0] = 1, nr = 1;
    for (k = F->Q; k; k >>= 1) {
        if (k & 1) {
            nr = pmulmod(F, s2, nr, s1, nb, g, ng, s3);
            memcpy(s2, s3, sizeof(i64) * nr);
        }
        nb = pmulmod(F, s1, nb, s1, nb, g, ng, s3);
        memcpy(s1, s3, sizeof(i64) * nb);
    }
    /* s2 -= x */
    for (nt = nr; nt < 2; nt++)
        s2[nt] = 0;
    s2[1] = el_add(F, s2[1], el_neg(F, 1));
    nt = ptrim(s2, nt);
    if (nt == 0)
        return ng - 1;
    return pgcd(F, g, ng, s2, nt) - 1;
}

/* ------------------------------------------------------------------------
   chart counting */

typedef struct {
    i64 *flat, *goff, *gdeg, *pmax; /* term records, per generator */
    i64 ngens, stride, nprefix, D, powstride;
    i64 *powcache, *values, *ucoef, *udeg, *g, *s1, *s2, *s3; /* scratch */
} Chart;

/* row t of powcache = v^0 .. v^md */
static void fill_pow(const FOps *F, Chart *C, i64 t, i64 v)
{
    i64 *row = C->powcache + t * C->powstride, k, md = C->pmax[t];
    row[0] = 1;
    for (k = 1; k <= md; k++)
        row[k] = el_mul(F, row[k - 1], v);
}

/* points on the slice fixed by the current prefix powers */
static i64 run_slice(const FOps *F, Chart *C)
{
    i64 gi, t, i, m, ex, nu, ng, nactive = 0, D = C->D;
    for (gi = 0; gi < C->ngens; gi++) {
        i64 *u = C->ucoef + nactive * D;
        memset(u, 0, sizeof(i64) * (C->gdeg[gi] + 1));
        for (t = C->goff[gi]; t < C->goff[gi + 1]; t += C->stride) {
            m = C->flat[t];
            for (i = 0; i < C->nprefix && m; i++) {
                ex = C->flat[t + 2 + i];
                if (ex)
                    m = el_mul(F, m, C->powcache[i * C->powstride + ex]);
            }
            if (m)
                u[C->flat[t + 1]] = el_add(F, u[C->flat[t + 1]], m);
        }
        nu = ptrim(u, C->gdeg[gi] + 1);
        if (nu == 0)
            continue; /* identically zero: imposes nothing */
        if (nu == 1)
            return 0; /* nonzero constant: no solutions */
        C->udeg[nactive++] = nu;
    }
    if (nactive == 0)
        return F->Q;
    ng = C->udeg[0];
    memcpy(C->g, C->ucoef, sizeof(i64) * ng);
    for (gi = 1; gi < nactive; gi++) {
        memcpy(C->s1, C->ucoef + gi * D, sizeof(i64) * C->udeg[gi]);
        ng = pgcd(F, C->g, ng, C->s1, C->udeg[gi]);
        if (ng == 1)
            return 0;
    }
    return root_count(F, C->g, ng, C->s1, C->s2, C->s3);
}

/* Odometer over the prefix coordinates, the outermost restricted to
   [lo, hi).  Touches no Python object. */
static i64 chart_loop(const FOps *F, Chart *C, i64 lo, i64 hi)
{
    i64 i, level, count = 0, *values = C->values;
    if (C->nprefix == 0)
        return run_slice(F, C);
    if (lo >= hi)
        return 0;
    memset(values, 0, sizeof(i64) * C->nprefix);
    values[0] = lo;
    for (i = 0; i < C->nprefix; i++)
        fill_pow(F, C, i, values[i]);
    for (;;) {
        count += run_slice(F, C);
        for (level = C->nprefix - 1; level >= 0; level--) {
            if (++values[level] < (level == 0 ? hi : F->Q)) {
                fill_pow(F, C, level, values[level]);
                break;
            }
            values[level] = 0;
            fill_pow(F, C, level, 0);
        }
        if (level < 0)
            return count;
    }
}

static PyObject *count_chart(PyObject *self, PyObject *args)
{
    i64 Q, p, tmask, nprefix, use_gcd, lo, hi, count, n, total = 0, gi, t, i, bufsz;
    PyObject *tabs[3], *gen_terms, *seq = NULL, *out = NULL;
    Py_buffer tv[3], b;
    int ntv, ok;
    i64 *meta = NULL, *work = NULL;
    FOps F;
    Chart C = {0};

    if (!PyArg_ParseTuple(args, "LLLOOOOLLLL", &Q, &p, &tmask, &tabs[0], &tabs[1],
                          &tabs[2], &gen_terms, &nprefix, &use_gcd, &lo, &hi))
        return NULL;
    if (use_gcd != 1) {
        PyErr_SetString(PyExc_ValueError,
                        "use_gcd must be 1: slices are resolved by gcd root counting");
        return NULL;
    }
    for (ntv = 0; ntv < 3; ntv++)
        if (get_q(tabs[ntv], &tv[ntv]) < 0)
            goto done;
    if (Q < 2 || p < 2 || nprefix < 0 || tv[0].len / 8 < Q - 1 || tv[1].len / 8 < Q
        || tv[2].len / 8 < Q - 1 || (nprefix > 0 && (lo < 0 || hi > Q))) {
        PyErr_SetString(PyExc_ValueError, "tables, nprefix or range do not fit Q");
        goto done;
    }
    if ((seq = PySequence_Fast(gen_terms, "gen_terms must be a sequence")) == NULL)
        goto done;
    C.ngens = PySequence_Fast_GET_SIZE(seq), C.stride = 2 + nprefix;
    C.nprefix = nprefix, C.D = 1, C.powstride = 1;

    /* copy the generators' term records into one block */
    for (gi = 0; gi < C.ngens; gi++) {
        if (get_q(PySequence_Fast_GET_ITEM(seq, gi), &b) < 0)
            goto done;
        total += b.len / 8;
        PyBuffer_Release(&b);
    }
    if ((meta = PyMem_Calloc((size_t)(total + 2 * C.ngens + nprefix + 1), sizeof(i64))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    C.flat = meta, C.goff = meta + total, C.gdeg = C.goff + C.ngens + 1;
    C.pmax = C.gdeg + C.ngens;
    for (gi = 0, n = 0; gi < C.ngens; gi++) {
        if (get_q(PySequence_Fast_GET_ITEM(seq, gi), &b) < 0)
            goto done;
        C.goff[gi] = n;
        ok = (b.len / 8) % C.stride == 0 && n + b.len / 8 <= total;
        if (ok)
            memcpy(C.flat + n, b.buf, (size_t)b.len), n += b.len / 8;
        PyBuffer_Release(&b);
        if (!ok) {
            PyErr_SetString(PyExc_ValueError, "term array length is not a multiple of 2 + nprefix");
            goto done;
        }
    }
    C.goff[C.ngens] = n;

    /* degrees in the inner variable and in each prefix coordinate */
    for (gi = 0; gi < C.ngens; gi++)
        for (t = C.goff[gi]; t < C.goff[gi + 1]; t += C.stride) {
            i64 d = C.flat[t + 1];
            if (C.flat[t] < 0 || C.flat[t] >= Q || d < 0 || d >= MAX_DEG)
                goto bad_term;
            C.gdeg[gi] = d > C.gdeg[gi] ? d : C.gdeg[gi];
            C.D = d + 1 > C.D ? d + 1 : C.D;
            for (i = 0; i < nprefix; i++) {
                i64 ex = C.flat[t + 2 + i];
                if (ex < 0 || ex >= MAX_DEG)
                    goto bad_term;
                C.pmax[i] = ex > C.pmax[i] ? ex : C.pmax[i];
                C.powstride = ex + 1 > C.powstride ? ex + 1 : C.powstride;
            }
        }

    bufsz = 2 * C.D + 2;
    work = PyMem_Calloc((size_t)(nprefix * (C.powstride + 1) + C.ngens * (C.D + 1) + 4 * bufsz),
                        sizeof(i64));
    if (work == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    C.powcache = work, C.values = work + nprefix * C.powstride, C.ucoef = C.values + nprefix;
    C.udeg = C.ucoef + C.ngens * C.D, C.g = C.udeg + C.ngens;
    C.s1 = C.g + bufsz, C.s2 = C.s1 + bufsz, C.s3 = C.s2 + bufsz;

    F = (FOps){tv[0].buf, tv[1].buf, tv[2].buf, Q, Q - 1, 1, p, tmask};
    /* index of -1: char 2 has -1 = 1; otherwise g^((Q-1)/2) */
    if (Q % 2)
        F.negone = F.exp[(Q - 1) / 2];

    Py_BEGIN_ALLOW_THREADS
    count = chart_loop(&F, &C, lo, hi);
    Py_END_ALLOW_THREADS
    out = PyLong_FromLongLong(count);
    goto done;

bad_term:
    PyErr_SetString(PyExc_ValueError, "term record out of range");
done:
    PyMem_Free(work);
    PyMem_Free(meta);
    Py_XDECREF(seq);
    while (ntv > 0)
        PyBuffer_Release(&tv[--ntv]);
    return out;
}

static PyMethodDef methods[] = {
    {"build_tables", build_tables, METH_VARARGS,
     "build_tables(p, e, modulus) -> (exp, log, zech)\n\n"
     "exp/log/Zech tables for F_{p^e}; identical output to kernel_py."},
    {"count_chart", count_chart, METH_VARARGS,
     "count_chart(Q, p, tmask, exp, log, zech, gen_terms, nprefix, use_gcd, lo, hi)\n\n"
     "Count points of one affine chart; same contract as kernel_py (use_gcd must be 1)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled counting kernel; exact mirror of kernel_py (same contracts).",
    -1, methods,
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *m, *array_mod = PyImport_ImportModule("array");
    if (array_mod == NULL)
        return NULL;
    array_type = PyObject_GetAttrString(array_mod, "array");
    Py_DECREF(array_mod);
    if (array_type == NULL)
        return NULL;
    m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
