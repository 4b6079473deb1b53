"""The four benchmark workloads.

Each workload turns a seed into a fixed list of ops, each op one call (or
one relation) through msym's public API.  The benchmark times every op
separately and checks the results outside the timed interval.  The seed
fixes the inputs: the order in which the ops run (which decides which op
pays for a cache entry that several ops share), the coefficients of the
random polynomials of ``operators``, and which results get the expensive
extra checks.  The sizes stay the same for every seed, so figures from
different seeds compare.

Workloads reach msym only through the module namespace they are given, and
look functions up at call time, so a Tracer installed on those modules sees
every call.  Why each workload exists is in NOTES.md.
"""

import random


class Failed:
    """Result of an op that raised; never equal to a real result."""

    def __init__(self, error):
        self.error = error


class Workload:
    """A list of ``(label, thunk)`` ops plus their set-up and checks."""

    name = None
    cold_ops = False  # reset the caches before every op, not every pass

    def __init__(self, ms, seed):
        self.ms = ms
        self.rng = random.Random("%s-%d" % (self.name, seed))
        self.ops = []

    def setup(self):
        """Work done once before the timed passes."""

    def reset(self):
        """Bring the caches to the state every pass (with ``cold_ops``,
        every op) starts from."""
        clear_caches(self.ms)

    def check(self, results):
        """Exact verdict (True when correct) for each first-pass result."""
        return [not isinstance(r, Failed) and self.check_one(k, r, results)
                for k, r in enumerate(results)]

    def check_one(self, k, result, results):
        raise NotImplementedError


def cache_sizes(ms):
    mac = ms.macdonald
    return {"E": len(mac._E_CACHE), "H": len(mac._H_CACHE),
            "P": len(mac._P_CACHE),
            "basis_inverse": len(ms.structure._BASIS_INVERSE_CACHE)}


def clear_caches(ms):
    """Empty the E/H/P and basis-inverse caches.  ``clear_caches()`` leaves
    the basis-inverse cache alone, so it is cleared here as well; once the
    program clears it itself, what a cold pass measures does not change."""
    ms.macdonald.clear_caches()
    ms.structure._BASIS_INVERSE_CACHE.clear()
    sizes = cache_sizes(ms)
    if any(sizes.values()):
        raise RuntimeError("caches not empty after clearing: %s" % sizes)


class Construct(Workload):
    """msym_P from empty caches, one label per op, as a user building one
    P_Lambda in a fresh process pays it: m = 0 at degree <= 4 with N = 4,
    m = 1, 2 at degree <= 3 with N = 5 (51 labels).  Each op starts cold,
    so its time does not depend on the order the seed gives the ops."""

    name = "construct"
    cold_ops = True
    POOL = ((0, 4, 4), (1, 3, 5), (2, 3, 5))  # (m, max degree, N)
    EIGEN_CHECKED = 10

    def __init__(self, ms, seed):
        super().__init__(ms, seed)
        enum = ms.combinatorics.enumerate_mpartitions
        labels = [(lab, N) for m, dmax, N in self.POOL
                  for d in range(dmax + 1)
                  for lab in enum(m, d, max_sym_length=N - m)]
        self.rng.shuffle(labels)
        self.labels = labels
        self.ops = [("P%s N=%d" % (lab, N), self._op(lab, N))
                    for lab, N in labels]
        self.eigen_checked = set(self.rng.sample(range(len(labels)),
                                                 self.EIGEN_CHECKED))

    def _op(self, lab, N):
        mac = self.ms.macdonald
        return lambda: mac.msym_P(lab, N).poly

    def check_one(self, k, P, results):
        lab, N = self.labels[k]
        lead = lab.a + lab.lam + (0,) * (N - lab.m - len(lab.lam))
        if P.nvars != N or not P.coefficient_of(lead).is_one():
            return False
        if k not in self.eigen_checked:
            return True
        hecke = self.ms.hecke_ops
        ev = self.ms.macdonald.eigenvalues(lab)
        return (all(hecke.apply_Y(P, i) == P.scale(ev.y_eigs[i - 1])
                    for i in range(1, lab.m + 1))
                and hecke.apply_D(P, lab.m) == P.scale(ev.d_eig))


class Pairing(Workload):
    """Every in-degree Gram entry <P_A, P_B>_m for m = 2, degree <= 3, N = 5
    (25 labels, 140 pairs), with P_Lambda and H_a prebuilt in set-up."""

    name = "pairing"
    M, N, DMAX = 2, 5, 3

    def __init__(self, ms, seed):
        super().__init__(ms, seed)
        enum = ms.combinatorics.enumerate_mpartitions
        self.labels = [lab for d in range(self.DMAX + 1)
                       for lab in enum(self.M, d,
                                       max_sym_length=self.N - self.M)]
        pairs = []
        for d in range(self.DMAX + 1):
            same = [lab for lab in self.labels if lab.degree() == d]
            pairs += [(a, b) for i, a in enumerate(same) for b in same[i:]]
        self.rng.shuffle(pairs)
        self.pairs = pairs
        self.ops = [("<%s,%s>" % (a, b), self._op(a, b)) for a, b in pairs]
        self.warm = None

    def _op(self, a, b):
        mac, st = self.ms.macdonald, self.ms.structure
        m, N = self.M, self.N
        return lambda: st.scalar_product_m(mac.msym_P(a, N).poly,
                                           mac.msym_P(b, N).poly, m,
                                           verify=False)

    def setup(self):
        clear_caches(self.ms)
        mac = self.ms.macdonald
        for lab in self.labels:
            mac.msym_P(lab, self.N)
            mac.hall_littlewood_H(lab.a)
        self.warm = cache_sizes(self.ms)

    def reset(self):
        self.ms.structure._BASIS_INVERSE_CACHE.clear()
        sizes = cache_sizes(self.ms)
        if sizes != self.warm:
            raise RuntimeError("pairing caches %s differ from the prebuilt "
                               "state %s" % (sizes, self.warm))

    def check_one(self, k, value, results):
        a, b = self.pairs[k]
        if a == b:
            return value == self.ms.structure.norm_formula(a)
        return value == self.ms.qt_field.ZERO


class Operators(Workload):
    """Hecke-algebra relations on seeded random polynomials with integer
    coefficients in n = 4..7 variables, one relation per op."""

    name = "operators"
    BUNDLES = 200
    KINDS = ("quadratic", "inverse", "braid", "exchange", "symmetrizer")
    NAIVE_MAX = 4  # naive symmetrizer oracle sums (n-m)! words

    def __init__(self, ms, seed):
        super().__init__(ms, seed)
        # Kinds, variable counts, generator indices, symmetrizer widths and
        # the monomials of each polynomial follow a fixed schedule, so every
        # seed does the same work; the seed draws the coefficients.
        shapes = random.Random("%s-shapes" % self.name)
        self.specs = []
        for k in range(self.BUNDLES * len(self.KINDS)):
            kind = self.KINDS[k % len(self.KINDS)]
            n = 4 + (k // 5) % 4
            turn = k // 20
            if kind == "symmetrizer":
                arg = n - 2 - turn % (min(5, n) - 1)  # m, for n - m in 2..5
            elif kind == "braid":
                arg = 1 + turn % (n - 2)
            else:
                arg = 1 + turn % (n - 1)
            self.specs.append((kind, self._rand_poly(n, shapes), arg))
        self.ops = [("%s n=%d arg=%d" % (kind, f.nvars, arg),
                     self._op(kind, f, arg)) for kind, f, arg in self.specs]

    def _rand_poly(self, n, shapes, nterms=8, deg=3):
        """Homogeneous of degree ``deg`` with ``nterms`` monomials drawn from
        ``shapes`` and nonzero integer coefficients in [-4, 4] drawn from
        the seed."""
        qt, poly = self.ms.qt_field, self.ms.polyring
        monomials = set()
        while len(monomials) < nterms:
            e = [0] * n
            for _ in range(deg):
                e[shapes.randrange(n)] += 1
            monomials.add(tuple(e))
        return poly.MultiPoly(n, {
            e: qt.QtRational.from_int(self.rng.choice((-4, -3, -2, -1,
                                                       1, 2, 3, 4)))
            for e in sorted(monomials)})

    def _op(self, kind, f, arg):
        h = self.ms.hecke_ops
        t = self.ms.qt_field.T
        one = self.ms.qt_field.ONE
        i = arg
        if kind == "quadratic":
            def op():
                tf = h.apply_T(f, i)
                return (h.apply_T(tf, i) + tf - tf.scale(t)
                        - f.scale(t)).is_zero()
        elif kind == "inverse":
            def op():
                return h.apply_Tbar(h.apply_T(f, i), i) == f
        elif kind == "braid":
            def op():
                return (h.apply_T(h.apply_T(h.apply_T(f, i), i + 1), i)
                        == h.apply_T(h.apply_T(h.apply_T(f, i + 1), i), i + 1))
        elif kind == "exchange":
            def op():
                yi = h.apply_Y(f, i)
                return h.apply_T(yi, i) == (h.apply_Y(h.apply_T(f, i), i + 1)
                                            + yi.scale(t - one))
        else:
            m, n = arg, f.nvars

            def op():
                s = h.symmetrize_t(f, m)
                ok = (s == h.symmetrize_t(h.apply_R(f, m, n), m + 1)
                      and s == h.apply_L(h.symmetrize_t(f, m + 1), m, n))
                return ok, s
        return op

    def check_one(self, k, result, results):
        kind, f, m = self.specs[k]
        if kind != "symmetrizer":
            return result is True
        ok, s = result
        if ok is True and f.nvars - m <= self.NAIVE_MAX:
            return s == self.ms.hecke_ops.symmetrize_t(f, m, naive=True)
        return ok is True


class Kernels(Workload):
    """Truncated kernels K_m(x_1..x_Nx; y_1..y_Ny) for m <= 2, maxdeg 2..4,
    small alphabets, plus the Cauchy identity at maxdeg 2."""

    name = "kernels"
    cold_ops = True
    SIZE_LIMIT = 9        # keep Nx + Ny + maxdeg <= this
    EXPANSION_MAXDEG = 3  # km_expansion_check on square kernels up to this

    def __init__(self, ms, seed):
        super().__init__(ms, seed)
        specs = [("km", m, nx, ny, d) for m in (0, 1, 2) for d in (2, 3, 4)
                 for nx in range(max(m, 1), 5) for ny in range(max(m, 1), 5)
                 if nx + ny + d <= self.SIZE_LIMIT]
        specs += [("cauchy", m, 0, 0, 2) for m in (0, 1, 2)]
        self.rng.shuffle(specs)
        self.specs = specs
        self.ops = [(self._label(s), self._op(s)) for s in specs]

    @staticmethod
    def _label(spec):
        kind, m, nx, ny, d = spec
        if kind == "cauchy":
            return "cauchy m=%d maxdeg=%d" % (m, d)
        return "K_%d Nx=%d Ny=%d maxdeg=%d" % (m, nx, ny, d)

    def _op(self, spec):
        k = self.ms.kernels
        kind, m, nx, ny, d = spec
        if kind == "cauchy":
            return lambda: k.cauchy_identity_check(m, d)
        return lambda: k.km_truncated(m, nx, ny, d)

    def check_one(self, k, result, results):
        kind, m, nx, ny, d = self.specs[k]
        if kind == "cauchy":
            return result is True
        # K_m(x;y) = K_m(y;x): compare with the op on swapped alphabets
        mirror = results[self.specs.index((kind, m, ny, nx, d))]
        if isinstance(mirror, Failed):
            return False
        if {e[nx:] + e[:nx]: c for e, c in result.poly.terms.items()} \
                != mirror.poly.terms:
            return False
        if nx != ny or d > self.EXPANSION_MAXDEG:
            return True
        # K_m = sum b_Lambda P_Lambda(x) P_Lambda(y), the comparison
        # km_expansion_check makes, against the timed result
        return result == self.ms.kernels.km_sum_truncated(m, nx, d)


WORKLOADS = {w.name: w for w in (Construct, Pairing, Operators, Kernels)}
