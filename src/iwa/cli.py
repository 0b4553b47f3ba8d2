"""Command-line front end.

Every command reads and writes JSON with sorted keys, so a fixed
(arguments, seed, input) triple produces bit-identical output across runs.
Exit codes: 0 success, 1 a verification or admissibility report failed,
2 not divisible / not decomposable, 3 unbounded component, 4 input lacks the
digits this computation needs, 64 malformed input or arguments, 70 internal
error.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from .cyclotomic import CharacterSpec, eval_char
from .errors import (
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


def _check_size(p=3, n=1, N=1, limit=MAX_GRID) -> None:
    # p^(n-1) is formed only once n is known to be small
    if N > MAX_N or n - 1 > limit.bit_length() or (p - 1) * p ** max(n - 1, 0) > limit:
        raise MalformedInput(f"p={p} n={n} N={N} past N <= {MAX_N}, (p-1) p^(n-1) <= {limit}")


def _scan_work(p, n, k, N, sign) -> int:
    """Work units of a zero scan: (k-1)^2 |S| p^(n-1) evaluations, |S| the
    factor indices, each a pass over the (p-1) p^(n-1) grid plus p products
    of N digits, with 200 more per product for the fixed cost of an
    evaluation.  |S| counts as at least 1, for the character grid itself.
    """
    evals = (k - 1) ** 2 * max(len(factor_indices(n, sign)), 1) * p ** (n - 1)
    return evals * ((p - 1) * p ** (n - 1) + p * (N + 200))


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    p: int = 3
    k: int = 2
    n: int = 1
    N: int = 40
    eps: int = 1
    sign: str = PLUS
    seed: int = DEFAULT_SEED
    inp: str | None = None
    out: str | None = None

    def validate(self, command: str) -> None:
        _check_size(self.p, self.n, self.N, MAX_QPN_DIM if command == "qpn" else MAX_GRID)
        try:
            check_odd_prime(self.p)
        except InvalidParameter as exc:
            raise MalformedInput(str(exc)) from exc
        if self.k < 2:
            raise MalformedInput(f"k must be at least 2, got {self.k}")
        if self.n < 1:
            raise MalformedInput(f"n must be at least 1, got {self.n}")
        if self.N < 1:
            raise MalformedInput(f"N must be at least 1, got {self.N}")
        if self.eps % self.p == 0:
            raise MalformedInput(f"eps must be a unit mod p, got {self.eps}")
        if command == "halflog-zeros":
            work = _scan_work(self.p, self.n, self.k, self.N, self.sign)
            if work > MAX_SCAN:
                raise MalformedInput(
                    f"halflog-zeros at p={self.p} n={self.n} k={self.k} N={self.N} "
                    f"needs {work} work units, past {MAX_SCAN}"
                )


def _need_crt_margin(elem) -> None:
    # slot arithmetic spends idempotent denominators; the library refuses
    # later anyway, but with an internal-error code instead of a usage one
    if elem.N < elem.n + 10:
        raise MalformedInput(
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


def _read_json(path: str | None) -> dict:
    if path is None:
        raise MalformedInput("this command needs --in")
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


def cmd_decompose(cfg: RunConfig, floor: int) -> int:
    pair = AdmissiblePair.from_json(_read_json(cfg.inp), cfg.N)
    _need_crt_margin(pair.L1)
    _need_crt_margin(pair.L2)
    pm = decompose(pair, floor=floor)
    _write_json(pm.to_json(), cfg.out)
    return EXIT_OK


def cmd_compose(cfg: RunConfig) -> int:
    pm = pm_from_json(_read_json(cfg.inp), cfg.N)
    pair = compose(pm.Lplus, pm.Lminus, pm.params, pm.alpha)
    _write_json(pair.to_json(), cfg.out)
    return EXIT_OK


def cmd_admissible(cfg: RunConfig) -> int:
    pair = AdmissiblePair.from_json(_read_json(cfg.inp), cfg.N)
    report = check_admissible(pair)
    _write_json(report.to_json(), cfg.out)
    return EXIT_OK if report.passed else EXIT_REPORT_FAILED


def cmd_divide(cfg: RunConfig, m: int) -> int:
    f = GroupRingElem.from_json(_read_json(cfg.inp))
    _need_crt_margin(f)
    q = divide_exact(f, m)
    _write_json(q.to_json(), cfg.out)
    return EXIT_OK


def cmd_eval(cfg: RunConfig, d: int, m: int, e: int, r: int) -> int:
    f = GroupRingElem.from_json(_read_json(cfg.inp))
    chi = CharacterSpec(d=d, m=m, e=e, r=r)
    chi.validate(f.p, f.n)
    _write_json(eval_char(f, chi).to_json(), cfg.out)
    return EXIT_OK


def cmd_halflog(cfg: RunConfig) -> int:
    params = HalfLogParams(p=cfg.p, k=cfg.k, n=cfg.n, sign=cfg.sign, eps=cfg.eps)
    _write_json(log_trunc(params, cfg.N).to_json(), cfg.out)
    return EXIT_OK


def cmd_halflog_zeros(cfg: RunConfig) -> int:
    params = HalfLogParams(p=cfg.p, k=cfg.k, n=cfg.n, sign=cfg.sign, eps=cfg.eps)
    computed = vanishing_locus(params, cfg.N)
    predicted = predicted_locus(params)
    _write_json(
        {
            "params": params.to_json(),
            "computed": _chars_sorted(computed),
            "predicted": _chars_sorted(predicted),
            "match": computed == predicted,
        },
        cfg.out,
    )
    return EXIT_OK


def cmd_qpn(cfg: RunConfig, action: str) -> int:
    if action == "dims":
        qp = plus_minus_space(cfg.p, cfg.n, PLUS)
        qm = plus_minus_space(cfg.p, cfg.n, MINUS)
        rp = r_space(cfg.p, cfg.n, PLUS)
        rm = r_space(cfg.p, cfg.n, MINUS)
        _write_json(
            {
                "p": cfg.p,
                "n": cfg.n,
                "Qplus": qp.rank,
                "Qminus": qm.rank,
                "Rplus": rp.rank,
                "Rminus": rm.rank,
                "formula_plus": dim_plus_formula(cfg.p, cfg.n),
                "formula_minus": dim_minus_formula(cfg.p, cfg.n),
                "coincide": spaces_equal(qp, rp) and spaces_equal(qm, rm),
            },
            cfg.out,
        )
        return EXIT_OK
    report = run_suite("dims", cfg.seed)
    _write_json(report, cfg.out)
    return EXIT_OK if report["passed"] else EXIT_REPORT_FAILED


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    report = run_suite(suite, cfg.seed)
    _write_json(report, cfg.out)
    return EXIT_OK if report["passed"] else EXIT_REPORT_FAILED


# -- argument wiring ---------------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--p", type=int, default=3)
    common.add_argument("--k", type=int, default=2)
    common.add_argument("--n", type=int, default=1)
    common.add_argument("--N", type=int, default=40)
    common.add_argument("--eps", type=int, default=1)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--in", dest="inp", default=None)
    common.add_argument("--out", default=None)

    top = _Parser(prog="iwa", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("decompose", parents=[common])
    sp.add_argument("--floor", type=int, default=0)

    sub.add_parser("compose", parents=[common])
    sub.add_parser("admissible", parents=[common])

    sp = sub.add_parser("divide", parents=[common])
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("eval", parents=[common])
    sp.add_argument("--d", type=int, default=0)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--r", type=int, default=0)

    for name in ("halflog", "halflog-zeros"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument(
            "--sign", choices=("plus", "minus", PLUS, MINUS), default="plus"
        )

    sp = sub.add_parser("qpn", parents=[common])
    sp.add_argument("action", choices=("dims", "verify"))

    sp = sub.add_parser("verify", parents=[common])
    sp.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    return top


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        sign = {"plus": PLUS, "minus": MINUS}.get(
            getattr(args, "sign", "plus"), getattr(args, "sign", PLUS)
        )
        cfg = RunConfig(
            p=args.p,
            k=args.k,
            n=args.n,
            N=args.N,
            eps=args.eps,
            sign=sign,
            seed=args.seed,
            inp=args.inp,
            out=args.out,
        )
        cfg.validate(args.command)
        if args.command == "decompose":
            return cmd_decompose(cfg, args.floor)
        if args.command == "compose":
            return cmd_compose(cfg)
        if args.command == "admissible":
            return cmd_admissible(cfg)
        if args.command == "divide":
            return cmd_divide(cfg, args.m)
        if args.command == "eval":
            return cmd_eval(cfg, args.d, args.m, args.e, args.r)
        if args.command == "halflog":
            return cmd_halflog(cfg)
        if args.command == "halflog-zeros":
            return cmd_halflog_zeros(cfg)
        if args.command == "qpn":
            return cmd_qpn(cfg, args.action)
        return cmd_verify(cfg, args.suite)
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
