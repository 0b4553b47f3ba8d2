"""The four workloads: seeded inputs, timed operations and their checks.

Each workload draws its inputs from `random.Random` seeded per cell with
"<seed>/<workload>/<cell>", so a cell's inputs depend only on the seed and
the cell.  The program receives integer grids through its public
constructors (`PadicScalar.from_int`, `GroupRingElem`, `CycRationalElem`)
or JSON files written here in its documented format.

`setup()` builds the inputs and `self.ops`, the operations of one round.
Every round runs exactly these operations on exactly these inputs, so the
share of known failures is fixed and each operation's median time over the
rounds is well defined.  An operation may appear more than once in a
round: cheap operations run REPEATS times per round, spread over it, so
that their medians rest on as many samples as a round of the dear ones
allows.  `self.warmup` lists the operations run once,
untimed, during set-up.  Operations call the package through module
attributes (`plusminus.compose`, `cli.main`, ...), so the tracer's wrappers
see every call.
"""

import json
import os
import random
from fractions import Fraction

import checks
from checks import CheckFailed

N_INPUT = 40
REPEATS = 3
DIGITS = 6  # input coefficients are drawn below p^DIGITS, as in the verify suites


class OpFailed(Exception):
    """A CLI command returned a non-zero exit code."""


class Op:
    """One timed operation: run() is timed, check(output) is not.

    check returns the smallest relative precision among the output's
    p-adic values, or None when the output has none.  `known` names the
    failure classes a known-failure cell may raise.
    """

    __slots__ = ("cell", "run", "check", "known")

    def __init__(self, cell, run, check, known=None):
        self.cell = cell
        self.run = run
        self.check = check
        self.known = known


def cell_rng(seed, workload, cell):
    return random.Random(f"{seed}/{workload}/{cell}")


def int_grid(rng, p, n, bound=None):
    bound = p**DIGITS if bound is None else bound
    return [[rng.randrange(bound) for _ in range(p ** (n - 1))] for _ in range(p - 1)]


def triple(c):
    """(v, u, N) of a PadicScalar; zero is (None, 0, N)."""
    return (None, 0, c.N) if c.u == 0 else (c.v, c.u, c.N)


def grid_triples(elem):
    return [[triple(c) for c in row] for row in elem.coeffs]


def json_triple(obj):
    u = int(obj["u"])
    return (None, 0, int(obj["N"])) if u == 0 else (int(obj["v"]), u, int(obj["N"]))


def scalar_json(x, p, N):
    """The documented scalar object for an integer x."""
    if x == 0:
        return {"p": p, "N": N, "v": "inf", "u": "0"}
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return {"p": p, "N": N, "v": v, "u": str(x % p**N)}


def element_json(grid, p, n, N):
    return {
        "p": p,
        "n": n,
        "ring": "base",
        "coeffs": [[scalar_json(x, p, N) for x in row] for row in grid],
    }


class Workload:
    name = ""
    exact = False  # True when no operation returns p-adic digits

    def __init__(self, iwa, seed, workdir):
        self.iwa = iwa
        self.seed = seed
        self.workdir = workdir

    def rng(self, cell):
        return cell_rng(self.seed, self.name, cell)

    def element(self, grid, p, n):
        P = self.iwa.padic.PadicScalar
        return self.iwa.groupring.GroupRingElem(
            p, n, [[P.from_int(x, p, N_INPUT) for x in row] for row in grid]
        )


def first_per_cell(ops):
    """The first operation of each cell, in round order."""
    seen, out = set(), []
    for op in ops:
        if op.cell not in seen:
            seen.add(op.cell)
            out.append(op)
    return out


# -- roundtrip ---------------------------------------------------------------------


class Roundtrip(Workload):
    """compose then decompose on seeded bounded pairs over Q_p(alpha)."""

    name = "roundtrip"
    # (p, n, k, eps, pairs per round, known failure classes).  Three pairs
    # at p=5 n=3 k=2, p=5 n=3 k=3 and p=7 n=3 k=3 place the median of the
    # fourteen latencies inside the p=5 n=3 k=3 cluster and the 90th
    # percentile inside the p=7 n=3 k=3 one, rather than on a gap between
    # two cells.  p=3 n=4 k=4 is left out: about one pair in a hundred
    # fails its round trip there, so its failures are not the same share
    # of every run (README, "Faults kept out of the workloads")
    CELLS = [
        (3, 4, 2, 1, 1, None),
        (3, 4, 3, 1, 1, None),
        (5, 3, 2, 1, 3, None),
        (5, 3, 3, 2, 3, None),
        (5, 3, 4, 1, 1, None),
        (7, 3, 2, 1, 1, None),
        (7, 3, 3, 1, 3, None),
        (3, 5, 2, 1, 1, None),
        (3, 5, 3, 1, 1, ("PrecisionExhausted",)),
        (3, 4, 6, 1, 1, ("PrecisionExhausted",)),
        (3, 5, 4, 1, 1, ("PrecisionExhausted", "NotDecomposable")),
    ]

    def setup(self):
        pm = self.iwa.plusminus
        hl = self.iwa.halflogs
        self.checked = {}
        self.ops = []
        for p, n, k, eps, pairs, known in self.CELLS:
            label = f"p={p} n={n} k={k}"
            rng = self.rng(label)
            alpha = pm.make_alpha(p, k, eps, N_INPUT)
            params = hl.HalfLogParams(p=p, k=k, n=n, sign=hl.PLUS, eps=eps)
            for i in range(pairs):
                A = self.element(int_grid(rng, p, n), p, n).to_quad(alpha.s)
                B = self.element(int_grid(rng, p, n), p, n).to_quad(alpha.s)
                self.ops.append(Op(label, self._run(A, B, params, alpha),
                                   self._check((label, i), params, alpha), known))
        # one pair per cell fills the CRT contexts and the twisted-unit
        # inverses that the rounds look up
        self.warmup = first_per_cell(self.ops)

    def _run(self, A, B, params, alpha):
        pm = self.iwa.plusminus

        def run():
            pair = pm.compose(A, B, params, alpha)
            return pair, pm.decompose(pair)

        return run

    def _check(self, key, params, alpha):
        pm = self.iwa.plusminus

        def check(out):
            pair, dec = out
            digits = min(pair.L1.N, pair.L2.N, dec.Lplus.N, dec.Lminus.N)
            seen = self.checked.get(key)
            if seen is not None and all(
                a.identical(b)
                for a, b in zip(seen, (pair.L1, pair.L2, dec.Lplus, dec.Lminus))
            ):
                return digits
            # the method's own contract: re-composing the components gives
            # back the pair that was decomposed
            back = pm.compose(dec.Lplus, dec.Lminus, params, alpha)
            if not (back.L1 == pair.L1 and back.L2 == pair.L2):
                raise CheckFailed(f"{key[0]}: compose(decompose(pair)) != pair")
            self.checked[key] = (pair.L1, pair.L2, dec.Lplus, dec.Lminus)
            return digits

        return check


# -- slots ---------------------------------------------------------------------------


class Slots(Workload):
    """Divisibility, exact division and unit inversion in the base group ring."""

    name = "slots"
    LEVELS = [(3, 4), (3, 5), (5, 3), (7, 3)]
    # per (p, n, m) and round: MULTIPLES times divisible_by_phi, then
    # divide_exact, on multiples of phi(m); RANDOMS times divisible_by_phi
    # on random elements.  The counts place the median inside the
    # divisibility tests and the 90th percentile inside the p = 3 inversions.
    MULTIPLES = 2
    RANDOMS = 2
    # invert_unit per round; at p = 7, n = 3 one inversion takes 5 s, longer
    # than a third of a run, so that level is divided but not inverted
    INVERSIONS = {(3, 4): 8, (5, 3): 2}

    def setup(self):
        self.checked = {}
        self.ops = []
        self.warmup = []
        for p, n in self.LEVELS:
            for m in range(1, n):
                label = f"p={p} n={n} m={m}"
                rng = self.rng(label)
                for i in range(self.MULTIPLES):
                    grid = self._times_phi(int_grid(rng, p, n), p, n, m)
                    f = self.element(grid, p, n)
                    self.ops.append(self._divisible(label, p, m, grid, f))
                    self.ops.append(self._divide(label, p, n, m, grid, f))
                    if m == 1 and i == 0:
                        # one exact division per level builds its CRT context
                        self.warmup.append(self.ops[-1])
                for _ in range(self.RANDOMS):
                    grid = int_grid(rng, p, n)
                    self.ops.append(self._divisible(label, p, m, grid, self.element(grid, p, n)))
        for (p, n), count in self.INVERSIONS.items():
            label = f"p={p} n={n} invert"
            rng = self.rng(label)
            for i in range(count):
                grid = [[p * x for x in row] for row in int_grid(rng, p, n)]
                grid[0][0] += 1
                self.ops.append(self._invert(label, p, i, grid, self.element(grid, p, n)))

    @staticmethod
    def _times_phi(g, p, n, m):
        cols, step = p ** (n - 1), p ** (m - 1)
        return [[sum(row[(r - i * step) % cols] for i in range(p)) for r in range(cols)] for row in g]

    def _divisible(self, label, p, m, grid, f):
        gr = self.iwa.groupring

        def check(ans):
            checks.check_divisible(ans, grid, p, m, N_INPUT)
            return None

        return Op(label, lambda: gr.divisible_by_phi(f, m), check)

    def _divide(self, label, p, n, m, grid, f):
        gr = self.iwa.groupring

        def check(q):
            t = grid_triples(q)
            checks.check_quotient(t, grid, p, n, m)
            return checks.rel_digits([x for row in t for x in row])

        return Op(label, lambda: gr.divide_exact(f, m), check)

    def _invert(self, label, p, i, grid, u):
        gr = self.iwa.groupring

        def check(v):
            seen = self.checked.get((label, i))
            if seen is None or not seen.identical(v):
                checks.check_unit_inverse(grid_triples(v), grid, p)
                self.checked[(label, i)] = v
            return v.N

        return Op(label, lambda: gr.invert_unit(u), check)


# -- characters ------------------------------------------------------------------------


class Characters(Workload):
    """CLI commands in-process: eval, admissible, halflog-zeros."""

    name = "characters"
    # evaluations per level, gamma-order p^m and round, at seeded r = 0
    # characters of that order, alternating between two elements.  The
    # counts per m keep the cost of a round the same for every seed and
    # place the median inside the p=5, m=2 evaluations.
    EVALS = {
        (3, 4): {0: 2, 1: 4, 2: 6, 3: 8},
        (5, 3): {0: 2, 1: 2, 2: 20},
        (7, 3): {0: 2, 1: 4, 2: 6},
    }
    ADMISSIBLE = [
        # (p, n, k, known failure classes)
        (3, 3, 2, None),
        (3, 4, 2, None),
        (5, 3, 2, None),
        (3, 4, 3, ("exit 1",)),
    ]
    ZEROS = [(3, 4), (3, 5), (5, 3)]

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.out = os.path.join(self.workdir, "out.json")
        cheap, admissible, dear = [], [], []
        for (p, n), counts in self.EVALS.items():
            label = f"eval p={p} n={n}"
            rng = self.rng(label)
            elems = []
            for i in range(2):
                grid = int_grid(rng, p, n)
                path = os.path.join(self.workdir, f"elem-{p}-{n}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(element_json(grid, p, n, N_INPUT), fh)
                elems.append((grid, path))
            chars = [(d, m, e) for (d, m, e, _) in checks.character_grid(p, n, 2)]
            picked = []
            for m, count in counts.items():
                picked.extend(rng.sample([c for c in chars if c[1] == m], count))
            for i, (d, m, e) in enumerate(picked):
                grid, path = elems[i % 2]
                cheap.append(self._eval(label, p, grid, path, d, m, e))
        pm = self.iwa.plusminus
        hl = self.iwa.halflogs
        for p, n, k, known in self.ADMISSIBLE:
            label = f"admissible p={p} n={n} k={k}"
            rng = self.rng(label)
            alpha = pm.make_alpha(p, k, 1, N_INPUT)
            params = hl.HalfLogParams(p=p, k=k, n=n, sign=hl.PLUS)
            A = self.element(int_grid(rng, p, n), p, n).to_quad(alpha.s)
            B = self.element(int_grid(rng, p, n), p, n).to_quad(alpha.s)
            path = os.path.join(self.workdir, f"pair-{p}-{n}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(pm.compose(A, B, params, alpha).to_json(), fh)
            admissible.append(self._admissible(label, p, n, k, path, known))
        for p, n in self.ZEROS:
            for k in (2, 3):
                for plus in (True, False):
                    op = self._zeros(p, n, k, plus)
                    # the scans below half a second sit around the 90th
                    # percentile; they run REPEATS times per round
                    (dear if (p, n, k) == (3, 5, 3) else cheap).append(op)
        self.ops = cheap * REPEATS + admissible + dear
        # no module cache sits under these commands; one of each command
        # pays the first-call costs
        self.warmup = list({op.cell.split()[0]: op for op in reversed(self.ops)}.values())

    def _cli(self, argv):
        cli = self.iwa.cli

        def run():
            rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"exit {rc}")
            with open(self.out, encoding="utf-8") as fh:
                return json.load(fh)

        return run

    def _eval(self, label, p, grid, path, d, m, e):
        argv = ["eval", "--in", path, "--out", self.out,
                "--d", str(d), "--m", str(m), "--e", str(e), "--r", "0"]

        def check(out):
            t = [json_triple(c) for c in out["coeffs"]]
            checks.check_eval(t, grid, p, d, m, e, N_INPUT)
            return checks.rel_digits(t)

        return Op(label, self._cli(argv), check)

    def _admissible(self, label, p, n, k, path, known):
        argv = ["admissible", "--in", path, "--out", self.out]

        def check(report):
            checks.check_admissible_report(report, p, n, k)
            return None

        return Op(label, self._cli(argv), check, known)

    def _zeros(self, p, n, k, plus):
        sign = "plus" if plus else "minus"
        label = f"zeros p={p} n={n} k={k} {sign}"
        argv = ["halflog-zeros", "--p", str(p), "--n", str(n), "--k", str(k),
                "--N", str(N_INPUT), "--sign", sign, "--out", self.out]

        def check(report):
            checks.check_zeros(report, p, n, k, plus)
            return None

        return Op(label, self._cli(argv), check)


# -- qpn -------------------------------------------------------------------------------


class Qpn(Workload):
    """The exact-rational lab: signed subspaces, their spans and orbit ranks."""

    name = "qpn"
    exact = True
    LEVELS = [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2)]
    # the trace-condition kernels take about 23 s at p = 3, n = 5 and 1.4 s
    # at p = 11, n = 2; those levels skip them to keep a run within its time
    # budget, and p = 3, n = 5 runs only the plus orbit span and the orbit
    # rank
    NO_TRACE_SPACES = {(3, 5), (11, 2)}
    PLUS_ONLY = {(3, 5)}
    # levels whose operations all take well under a tenth of a second; they
    # run REPEATS times per round
    CHEAP = {(3, 2), (3, 3), (5, 2), (7, 2)}

    def setup(self):
        self.ops = []
        cheap = []
        for p, n in self.LEVELS:
            label = f"p={p} n={n}"
            rng = self.rng(label)
            support = [i for i in range(n + 1) if rng.random() < 0.5]
            if not support:
                support = [rng.randrange(n + 1)]
            vec = [Fraction(0)] * checks.field_degree(p, n)
            for i in support:
                a = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
                for c, g in enumerate(checks.graded_generator(p, n, i)):
                    vec[c] += a * g
            x = self.iwa.qpn.CycRationalElem(p, n, vec)
            ops = self._level_ops(label, p, n, tuple(support), x)
            (cheap if (p, n) in self.CHEAP else self.ops).extend(ops)
            if (p, n) == self.LEVELS[0]:
                # the lab keeps no cache; one call of each function at the
                # smallest level pays the first-call costs, and takes the
                # same time whatever the seed
                self.warmup = ops
        self.ops = cheap * REPEATS + self.ops

    def _level_ops(self, label, p, n, support, x):
        q = self.iwa.qpn
        plus, minus = self.iwa.halflogs.PLUS, self.iwa.halflogs.MINUS
        traced = (p, n) not in self.NO_TRACE_SPACES
        state = {}  # the round's subspaces, for the signed-pair and equality checks
        ops = []
        for sign, is_plus in ((plus, True), (minus, False)):
            tag = "+" if is_plus else "-"
            if traced:
                ops.append(self._space(f"{label} Q{tag}", state, f"Q{tag}",
                                       lambda s=sign: q.plus_minus_space(p, n, s),
                                       p, n, is_plus))
            if is_plus or (p, n) not in self.PLUS_ONLY:
                ops.append(self._space(f"{label} R{tag}", state, f"R{tag}",
                                       lambda s=sign: q.r_space(p, n, s), p, n, is_plus))
            if traced:
                ops.append(self._equal(f"{label} Q{tag}=R{tag}", state, tag))
        if (p, n) not in self.PLUS_ONLY:
            ops.append(Op(f"{label} U", lambda: q.u_space_dim(p, n),
                          self._rank_check(f"{label} U", checks.signed_dim(p, n, True))))
        ops.append(Op(f"{label} span", lambda: q.galois_span_dim(x),
                      self._rank_check(f"{label} span {support}", checks.span_law(p, support))))
        return ops

    @staticmethod
    def _rank_check(what, want):
        def check(got):
            checks.check_rank(got, want, what)
            return None

        return check

    @staticmethod
    def _space(label, state, key, make, p, n, is_plus):
        def run():
            space = make()
            state[key] = space
            return space

        def check(space):
            checks.check_rank(space.rank, checks.signed_dim(p, n, is_plus), label)
            other = key[0] + ("-" if is_plus else "+")
            if other in state:
                checks.check_signed_pair(space.rank, state[other].rank, p, n)
            return None

        return Op(label, run, check)

    def _equal(self, label, state, tag):
        q = self.iwa.qpn

        def run():
            return q.spaces_equal(state[f"Q{tag}"], state[f"R{tag}"])

        def check(same):
            if same is not True:
                raise CheckFailed(f"{label}: trace-condition and orbit-span spaces differ")
            return None

        return Op(label, run, check)


WORKLOADS = {w.name: w for w in (Roundtrip, Slots, Characters, Qpn)}
