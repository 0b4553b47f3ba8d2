"""Command-line front end.

Every command reads and writes JSON with sorted keys, so a fixed
(arguments, seed, input) triple produces bit-identical output across runs.
Each command accepts only the flags it reads.  Exit codes: 0 success, 1 a
verification or admissibility report failed, 2 not divisible / not
decomposable, 3 unbounded component, 4 input lacks the digits this
computation needs, 64 malformed input or arguments, 70 internal error.
"""

import argparse
import json
import sys

from .cyclotomic import CharacterSpec, eval_char
from .errors import (
    BadConductor,
    InvalidParameter,
    IwaError,
    MalformedInput,
    NotDecomposable,
    NotDivisible,
    PrecisionExhausted,
    UnboundedResult,
)
from .groupring import GroupRingElem, divide_exact
from .halflogs import (
    MINUS,
    PLUS,
    HalfLogParams,
    factor_indices,
    log_trunc,
    predicted_locus,
    vanishing_locus,
)
from .padic import check_odd_prime
from .plusminus import AdmissiblePair, check_admissible, compose, decompose, pm_from_json
from .qpn import (
    dim_minus_formula,
    dim_plus_formula,
    plus_minus_space,
    r_space,
    spaces_equal,
)
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_REPORT_FAILED = 1
EXIT_NOT_DIVISIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_PRECISION = 4
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# size limits, checked on flags and on JSON input before anything is built:
# N, the group-ring grid (p-1) p^(n-1), the qpn dimension phi(p^n), and the
# work of a halflog-zeros scan (_scan_work)
MAX_N, MAX_GRID, MAX_QPN_DIM, MAX_SCAN = 1000, 20000, 500, 5 * 10**8

_SIGNS = {"plus": PLUS, "minus": MINUS}


def _check_size(p=3, n=1, N=1, limit=MAX_GRID) -> None:
    if n < 1 or N < 1:
        raise MalformedInput(f"n and N must be at least 1, got n={n} N={N}")
    # p^(n-1) is formed only once n is known to be small
    if N > MAX_N or n - 1 > limit.bit_length() or (p - 1) * p ** (n - 1) > limit:
        raise MalformedInput(f"p={p} n={n} N={N} past N <= {MAX_N}, (p-1) p^(n-1) <= {limit}")


def _scan_work(params: HalfLogParams, N: int) -> int:
    """Work units of a zero scan: (k-1)^2 |S| p^(n-1) evaluations, |S| the
    factor indices, each a pass over the (p-1) p^(n-1) grid plus p products
    of N digits, with 200 more per product for the fixed cost of an
    evaluation.  |S| counts as at least 1, for the character grid itself.
    """
    p, n, k = params.p, params.n, params.k
    evals = (k - 1) ** 2 * max(len(factor_indices(n, params.sign)), 1) * p ** (n - 1)
    return evals * ((p - 1) * p ** (n - 1) + p * (N + 200))


def _flag(check, *args):
    """Run a library check on flag values; its refusal is a usage error."""
    try:
        return check(*args)
    except (InvalidParameter, BadConductor) as exc:
        raise MalformedInput(str(exc)) from exc


def _halflog_params(args) -> HalfLogParams:
    _check_size(args.p, args.n, args.N)
    return _flag(HalfLogParams, args.p, args.k, args.n, _SIGNS[args.sign])


def _need_crt_margin(elem) -> None:
    # slot projectors spend up to n - 1 digits and quotient chains need the
    # rest: divide would stop in crt_context with PrecisionExhausted, but
    # decompose tests divisibility first and would report a thin pair as not
    # decomposable, so both refuse it here as a shortfall of digits
    if elem.N < elem.n + 10:
        raise PrecisionExhausted(
            f"element precision N = {elem.N} too small: "
            f"slot arithmetic needs N >= n + 10 = {elem.n + 10}"
        )


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # non-divisibility, so usage errors leave through 64 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_hook=_sized)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _sized(obj: dict) -> dict:
    """JSON object hook: refuse a grid (an object with n) or an N past the limits.

    Values that are not integers are left to the decoders.
    """
    N = obj.get("N")
    if "n" in obj or isinstance(N, int) and N > MAX_N:
        _check_size(**{k: obj[k] for k in ("p", "n", "N") if isinstance(obj.get(k), int)})
    return obj


def _write_json(obj, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _chars_sorted(locus) -> list:
    return [
        chi.to_json()
        for chi in sorted(locus, key=lambda c: (c.m, c.d, c.e, c.r))
    ]


# -- command bodies ----------------------------------------------------------------


def cmd_decompose(args) -> int:
    _check_size(N=args.N)
    pair = AdmissiblePair.from_json(_read_json(args.inp), args.N)
    _need_crt_margin(pair.L1)
    _need_crt_margin(pair.L2)
    pm = decompose(pair, floor=args.floor)
    _write_json(pm.to_json(), args.out)
    return EXIT_OK


def cmd_compose(args) -> int:
    _check_size(N=args.N)
    pm = pm_from_json(_read_json(args.inp), args.N)
    pair = compose(pm.Lplus, pm.Lminus, pm.params, pm.alpha)
    _write_json(pair.to_json(), args.out)
    return EXIT_OK


def cmd_admissible(args) -> int:
    _check_size(N=args.N)
    pair = AdmissiblePair.from_json(_read_json(args.inp), args.N)
    report = check_admissible(pair)
    _write_json(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_REPORT_FAILED


def cmd_divide(args) -> int:
    if args.m < 1:
        raise MalformedInput(f"m must be at least 1, got {args.m}")
    f = GroupRingElem.from_json(_read_json(args.inp))
    _need_crt_margin(f)
    q = divide_exact(f, args.m)
    _write_json(q.to_json(), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    f = GroupRingElem.from_json(_read_json(args.inp))
    chi = CharacterSpec(d=args.d, m=args.m, e=args.e, r=args.r)
    _flag(chi.validate, f.p, f.n)
    _write_json(eval_char(f, chi).to_json(), args.out)
    return EXIT_OK


def cmd_halflog(args) -> int:
    params = _halflog_params(args)
    _write_json(log_trunc(params, args.N).to_json(), args.out)
    return EXIT_OK


def cmd_halflog_zeros(args) -> int:
    params = _halflog_params(args)
    work = _scan_work(params, args.N)
    if work > MAX_SCAN:
        raise MalformedInput(
            f"halflog-zeros at p={params.p} n={params.n} k={params.k} N={args.N} "
            f"needs {work} work units, past {MAX_SCAN}"
        )
    computed = vanishing_locus(params, args.N)
    predicted = predicted_locus(params)
    _write_json(
        {
            "params": params.to_json(),
            "computed": _chars_sorted(computed),
            "predicted": _chars_sorted(predicted),
            "match": computed == predicted,
        },
        args.out,
    )
    return EXIT_OK


def cmd_qpn(args) -> int:
    p, n = args.p, args.n
    _check_size(p, n, limit=MAX_QPN_DIM)
    _flag(check_odd_prime, p)
    qp = plus_minus_space(p, n, PLUS)
    qm = plus_minus_space(p, n, MINUS)
    rp = r_space(p, n, PLUS)
    rm = r_space(p, n, MINUS)
    _write_json(
        {
            "p": p,
            "n": n,
            "Qplus": qp.rank,
            "Qminus": qm.rank,
            "Rplus": rp.rank,
            "Rminus": rm.rank,
            "formula_plus": dim_plus_formula(p, n),
            "formula_minus": dim_minus_formula(p, n),
            "coincide": spaces_equal(qp, rp) and spaces_equal(qm, rm),
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.seed)
    _write_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_REPORT_FAILED


# -- argument wiring ---------------------------------------------------------------

# how each flag parses; a command declares the ones it reads
_FLAGS = {
    "in": {"dest": "inp", "required": True},
    "out": {},
    "p": {"type": int, "default": 3},
    "k": {"type": int, "default": 2},
    "n": {"type": int, "default": 1},
    "N": {"type": int, "default": 40},
    "sign": {"choices": tuple(_SIGNS), "default": "plus"},
    "floor": {"type": int, "default": 0},
    "d": {"type": int, "default": 0},
    "m": {"type": int, "default": 0},
    "e": {"type": int, "default": 1},
    "r": {"type": int, "default": 0},
    "seed": {"type": int, "default": DEFAULT_SEED},
    "suite": {"choices": ("all",) + tuple(SUITES), "default": "all"},
}


def _build_parser() -> _Parser:
    top = _Parser(prog="iwa", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, *flags):
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        return sp

    command("decompose", "in", "out", "N", "floor")
    command("compose", "in", "out", "N")
    command("admissible", "in", "out", "N")
    command("divide", "in", "out").add_argument("--m", type=int, required=True)
    command("eval", "in", "out", "d", "m", "e", "r")
    command("halflog", "p", "k", "n", "N", "sign", "out")
    command("halflog-zeros", "p", "k", "n", "N", "sign", "out")
    command("qpn", "p", "n", "out").add_argument("action", choices=("dims",))
    command("verify", "suite", "seed", "out")
    return top


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up when called, so a wrapper bound to a cmd_* name later is used
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except MalformedInput as exc:
        sys.stderr.write(f"iwa: {exc}\n")
        return EXIT_USAGE
    except (NotDivisible, NotDecomposable) as exc:
        sys.stderr.write(f"iwa: {exc}\n")
        return EXIT_NOT_DIVISIBLE
    except UnboundedResult as exc:
        sys.stderr.write(f"iwa: {exc}\n")
        return EXIT_UNBOUNDED
    except PrecisionExhausted as exc:
        sys.stderr.write(f"iwa: {exc}\n")
        return EXIT_PRECISION
    except IwaError as exc:
        sys.stderr.write(f"iwa: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        sys.stderr.write(f"iwa: internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
