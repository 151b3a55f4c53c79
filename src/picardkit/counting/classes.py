"""Point counts of separable hypersurfaces over cyclotomic classes.

Let f = f_1(x_B1) + ... + f_r(x_Br), each f_j homogeneous of degree D in
its own block B_j of variables.  Scaling x_Bj by lambda multiplies f_j by
lambda^D, so #{x_Bj : f_j(x_Bj) = v} is the same for v and lambda^D v: it
is a function on {0} and the g = gcd(D, Q - 1) classes C_i = g^i (F_Q^*)^D,
class(v) = log v mod g.  The affine cone's count #{f = 0} is then a
convolution of r such functions, which is a DP over g + 1 values.  One step
needs only the cyclotomic numbers N[i][j] = #{s != 0, 1 : s in C_i,
1 - s in C_j}, one pass over the Zech table (Weil, "Numbers of solutions of
equations in finite fields", 1949; Berndt, Evans and Williams, "Gauss and
Jacobi Sums", ch. 2).

A block a x^D of one variable takes the value 0 once and each element of
the class of a exactly g times.  A block of k > 1 variables is evaluated on
the Q^(k-1) + ... + 1 points of P^(k-1)(F_Q); each point's nonzero
multiples cover the elements of its value's class g times each.

Elements of F_Q are handled by their discrete logs in its tables
(`kernel.field_tables`), with -1 standing for zero; the coefficients of f
reach them through `kernel.embedding`.
"""

from itertools import product
from math import gcd

from .kernel import log_add


def count_separable(blocks, nvars, image, tables):
    """#X(F_Q) for the hypersurface f = sum of the blocks' forms in P^(nvars-1).

    `blocks` is `separable_blocks(ideal)`: per block, its variables and the
    generator's terms in them, coefficients as base-field indices.  `image`
    sends each base-field index to its index in F_Q, whose tables are
    `tables`.
    Variables in no block are free: each multiplies the cone by Q.
    """
    _, log, zech = tables
    Q = len(log)
    Qm1 = Q - 1
    degree = sum(blocks[0][1][0][0])
    g = gcd(degree, Qm1)
    # log(-1): 0 in characteristic 2, (Q - 1)/2 otherwise
    neg = 0 if Q % 2 == 0 else Qm1 // 2
    cyc = _cyclotomic_numbers(zech, g, neg)

    cone = None
    used = 0
    for variables, terms in blocks:
        used += len(variables)
        logs = [(log[image[c]], [e[v] for v in variables]) for e, c in terms]
        block = _block_values(logs, len(variables), Qm1, g, zech)
        cone = block if cone is None else _convolve(cone, block, cyc, g, Qm1 // g, neg)
    return (cone[0] * Q ** (nvars - used) - 1) // Qm1


def _cyclotomic_numbers(zech, g, neg):
    """N[i][j] = #{s != 0, 1 : class(s) = i, class(1 - s) = j}, for
    1 - s = 1 + g^(log s + log(-1))."""
    cyc = [[0] * g for _ in range(g)]
    if g == 1:
        cyc[0][0] = len(zech) - 1
        return cyc
    shifted = zech[neg:] + zech[:neg]  # shifted[k] = log(1 - g^k), -1 at s = 1
    for i, row in enumerate(cyc):
        column = shifted[i::g]
        classes = [z % g for z in column]  # s = 1, z = -1, lands in class g - 1
        for j in range(g):
            row[j] = classes.count(j)
        row[g - 1] -= column.count(-1)
    return cyc


def _block_values(logs, k, Qm1, g, zech):
    """(#{f_j = 0}, #{f_j = v} for one v in each class) over F_Q^k, for the
    form with terms (log of coefficient, exponents)."""
    zeros = 0
    by_class = [0] * g
    # the points of P^(k-1) whose first nonzero coordinate, t, is 1; all
    # later coordinates but the last run over {-1 (zero)} + the logs
    # 0..Q-2, and the last is resolved for all of F_Q at once
    for t in range(k):
        live = [(c, e[t + 1:]) for c, e in logs if not any(e[:t])]
        if t == k - 1:  # the point (0, ..., 0, 1)
            value = -1
            for c, _ in live:
                value = log_add(value, c, zech, Qm1)
            if value < 0:
                zeros += 1
            else:
                by_class[value % g] += 1
            continue
        for prefix in product(range(-1, Qm1), repeat=k - 2 - t):
            # the univariate polynomial left in the last coordinate
            coeffs = {}
            for c, e in live:
                for x, ei in zip(prefix, e):
                    if ei:
                        if x < 0:
                            break
                        c += ei * x
                else:
                    coeffs[e[-1]] = log_add(coeffs.get(e[-1], -1), c % Qm1, zech, Qm1)
            z, classes = _univariate_values(coeffs, Qm1, g, zech)
            zeros += z
            for i, m in enumerate(classes):
                by_class[i] += m
    return 1 + Qm1 * zeros, [g * m for m in by_class]


def _univariate_values(coeffs, Qm1, g, zech):
    """(#{y : c(y) = 0}, #{y : c(y) in C_i} per class i) over y in F_Q, for
    the polynomial with coefficient logs {exponent: log}.  The values at
    y = g^l are computed for all l together, one list pass per term."""
    terms = sorted((m, c) for m, c in coeffs.items() if c >= 0)
    by_class = [0] * g
    const = coeffs.get(0, -1)  # the value at y = 0
    zeros = int(const < 0)
    if const >= 0:
        by_class[const % g] += 1
    if not terms:
        return zeros + Qm1, by_class
    span = range(Qm1)
    # c(g^l) = g^(c1 + m1 l) (1 + the sum of g^((c - c1) + (m - m1) l) over
    # the other terms); acc holds the log of the bracket, -1 for zero
    (m1, c1), rest = terms[0], terms[1:]
    acc = [0] * Qm1
    for k, (m, c) in enumerate(rest):
        d, dm = c - c1, m - m1
        if k == 0:  # log(1 + g^b) is zech[b]
            acc = [zech[(d + dm * l) % Qm1] for l in span]
            continue
        acc = [
            b if a < 0 else -1 if (z := zech[(b - a) % Qm1]) < 0 else (a + z) % Qm1
            for a, b in zip(acc, [(d + dm * l) % Qm1 for l in span])
        ]
    at_zero = acc.count(-1)
    if g == 1:
        by_class[0] += Qm1 - at_zero
        return zeros + at_zero, by_class
    classes = [(c1 + m1 * l + a) % g for l, a in zip(span, acc)]
    for i in range(g):
        by_class[i] += classes.count(i)
    # a nonzero polynomial has at most its degree of zeros: take each back
    # out of the class its -1 was counted in
    l = -1
    for _ in range(at_zero):
        l = acc.index(-1, l + 1)
        by_class[(c1 + m1 * l - 1) % g] -= 1
    return zeros + at_zero, by_class


def _convolve(a, b, cyc, g, size, neg):
    """The class function of w -> sum over v of a(v) b(w - v), for class
    functions given as (value at 0, value at one element of each class);
    every class holds `size` elements and -1 lies in class neg mod g."""
    a0, av = a
    b0, bv = b
    zero = a0 * b0 + size * sum(av[i] * bv[(i + neg) % g] for i in range(g))
    values = []
    for k in range(g):
        # w in class k: v = 0, v = w, and v = w s with s != 0, 1
        total = a0 * bv[k] + av[k] * b0
        for i, row in enumerate(cyc):
            ai = av[(k + i) % g]
            if ai:
                total += ai * sum(n * bv[(k + j) % g] for j, n in enumerate(row))
        values.append(total)
    return zero, values
