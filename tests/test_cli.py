import argparse
import json
import os
import subprocess
import sys

import pytest

from iwa.cli import _PARSER, main
from iwa.groupring import GroupRingElem, phi, random_element
from iwa.halflogs import MINUS, PLUS, HalfLogParams, log_trunc
from iwa.plusminus import AdmissiblePair, compose, decompose, make_alpha
from iwa.rng import SplitMix64

P, K, L, N = 3, 2, 3, 40


def make_pair(seed=7):
    rng = SplitMix64(seed)
    alpha = make_alpha(P, K, 1, N)
    params = HalfLogParams(p=P, k=K, n=L, sign=PLUS)
    A = random_element(P, L, N, rng).to_quad(alpha.s)
    B = random_element(P, L, N, rng).to_quad(alpha.s)
    return compose(A, B, params, alpha), params, alpha


@pytest.fixture()
def pair_file(tmp_path):
    pair, _, _ = make_pair()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair.to_json()))
    return path


def test_decompose_compose_round_trip(tmp_path, pair_file):
    pm_path = tmp_path / "pm.json"
    pair2_path = tmp_path / "pair2.json"
    assert main(["decompose", "--in", str(pair_file), "--out", str(pm_path)]) == 0
    assert main(["compose", "--in", str(pm_path), "--out", str(pair2_path)]) == 0
    a = AdmissiblePair.from_json(json.loads(pair_file.read_text()))
    b = AdmissiblePair.from_json(json.loads(pair2_path.read_text()))
    # recomposition costs a few digits of precision but no information
    assert b.L1.N >= N - 10
    assert a.L1 == b.L1 and a.L2 == b.L2


def test_decompose_rejects_indivisible_pair(tmp_path, capsys):
    alpha = make_alpha(P, K, 1, N)
    params = HalfLogParams(p=P, k=K, n=L, sign=PLUS)
    one = GroupRingElem.one(P, L, N).to_quad(alpha.s)
    path = tmp_path / "pair11.json"
    path.write_text(json.dumps(AdmissiblePair(one, one, params, alpha).to_json()))
    assert main(["decompose", "--in", str(path)]) == 2


def test_decompose_without_enough_digits_exits_4(tmp_path, capsys):
    # at p=3 n=4 k=6 this pair's quotient chain leaves 15 digits and compose needs
    # more than 15: a shortfall of digits, not an internal error
    p, n, k = 3, 4, 6
    rng = SplitMix64(1)
    alpha = make_alpha(p, k, 1, N)
    params = HalfLogParams(p=p, k=k, n=n, sign=PLUS)
    A = random_element(p, n, N, rng).to_quad(alpha.s)
    B = random_element(p, n, N, rng).to_quad(alpha.s)
    path = tmp_path / "pair_k6.json"
    path.write_text(json.dumps(compose(A, B, params, alpha).to_json()))
    assert main(["decompose", "--in", str(path)]) == 4
    assert "composing them back needs more than 15" in capsys.readouterr().err


def test_decompose_floor(tmp_path):
    pair, params, alpha = make_pair()
    low = AdmissiblePair(pair.L1.shift_p(-8), pair.L2.shift_p(-8), params, alpha)
    path = tmp_path / "low.json"
    path.write_text(json.dumps(low.to_json()))
    assert main(["decompose", "--in", str(path)]) == 3
    assert main(["decompose", "--in", str(path), "--floor", "-8"]) == 0


def test_admissible_exit_codes(tmp_path, pair_file, capsys):
    assert main(["admissible", "--in", str(pair_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True

    alpha = make_alpha(P, K, 1, N)
    params = HalfLogParams(p=P, k=K, n=L, sign=PLUS)
    one = GroupRingElem.one(P, L, N).to_quad(alpha.s)
    zero = GroupRingElem.zeros(P, L, N).to_quad(alpha.s)
    bad = tmp_path / "bad_pair.json"
    bad.write_text(json.dumps(AdmissiblePair(one, zero, params, alpha).to_json()))
    assert main(["admissible", "--in", str(bad)]) == 1


def test_divide_and_remultiply(tmp_path, capsys):
    rng = SplitMix64(11)
    f = phi(P, L, 2, N) * random_element(P, L, N, rng)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["divide", "--in", str(path), "--m", "2"]) == 0
    q = GroupRingElem.from_json(json.loads(capsys.readouterr().out))
    assert q * phi(P, L, 2, N) == f
    assert main(["divide", "--in", str(path), "--m", "1"]) == 2


def test_eval_of_phi_at_trivial_character_is_p(tmp_path, capsys):
    path = tmp_path / "ph.json"
    path.write_text(json.dumps(phi(P, L, 1, N).to_json()))
    assert main(["eval", "--in", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["m"] == 0
    (c,) = out["coeffs"]
    assert c["v"] == 1 and c["u"] == "1"


def test_eval_prints_the_cap_of_a_finite_zero(tmp_path, capsys):
    # 1 + O(3^2) at the trivial character is 1 known to 2 digits
    one = {"p": 3, "N": 40, "v": 0, "u": "1"}
    zero2 = {"p": 3, "N": 40, "v": 2, "u": "0"}
    zero = {"p": 3, "N": 40, "v": "inf", "u": "0"}
    f = {"p": 3, "n": 2, "ring": "base", "coeffs": [[one, zero2, zero], [zero, zero, zero]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f))
    assert main(["eval", "--in", str(path)]) == 0
    (c,) = json.loads(capsys.readouterr().out)["coeffs"]
    assert c == {"p": 3, "N": 2, "v": 0, "u": "1"}


def test_halflog_matches_library(capsys):
    assert main(
        ["halflog", "--p", "3", "--k", "2", "--n", "3", "--N", "20", "--sign", "minus"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    params = HalfLogParams(p=3, k=2, n=3, sign=MINUS)
    assert out == json.loads(json.dumps(log_trunc(params, 20).to_json()))


def test_halflog_zeros_report(capsys):
    assert main(
        ["halflog-zeros", "--p", "3", "--k", "2", "--n", "4", "--N", "20",
         "--sign", "plus"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["match"] is True
    assert len(out["computed"]) == 12
    assert all(chi["m"] == 2 for chi in out["computed"])


def test_qpn_dims_table(capsys):
    assert main(["qpn", "dims", "--p", "3", "--n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Qplus"] == 5 and out["Qminus"] == 14
    assert out["Rplus"] == 5 and out["Rminus"] == 14
    assert out["coincide"] is True


def test_qpn_dims_at_the_size_limit(capsys):
    # phi(5^4) = 500 is MAX_QPN_DIM, the largest size the CLI accepts
    assert main(["qpn", "dims", "--p", "5", "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["Qplus"] == out["Rplus"] == 417
    assert out["Qminus"] == out["Rminus"] == 84
    assert out["coincide"] is True


def test_verify_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--suite", "padic", "--seed", "9", "--out", str(a)]) == 0
    assert main(["verify", "--suite", "padic", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["decompose", "--in", str(bad)]) == 64
    assert main(["decompose"]) == 64  # no --in
    assert main(["frobnicate"]) == 64  # unknown command
    assert main(["divide", "--in", str(bad)]) == 64  # missing --m
    assert main(["halflog", "--p", "4", "--k", "2", "--n", "2"]) == 64
    assert main(["halflog", "--p", "3", "--k", "1", "--n", "2"]) == 64
    for p in ("1", "2", "9", "15"):
        assert main(["halflog", "--p", p, "--k", "2", "--n", "2"]) == 64
    assert main(["halflog-zeros", "--p", "3", "--n", "4", "--N", "0"]) == 64
    # size guards refuse before anything is built (these ran for minutes)
    assert main(["halflog", "--p", "3", "--n", "3", "--k", "3", "--N", "1000000000"]) == 64
    assert main(["qpn", "dims", "--p", "3", "--n", "9"]) == 64
    assert main(["halflog-zeros", "--p", "3", "--n", "5", "--k", "3", "--N", "2000"]) == 64
    # zero scans past MAX_SCAN work units (these would run for hours)
    assert main(["halflog-zeros", "--p", "3", "--n", "9", "--k", "3"]) == 64
    assert main(["halflog-zeros", "--p", "31", "--n", "2", "--k", "500", "--sign", "minus"]) == 64
    assert main(["halflog", "--p", "1000003"]) == 64
    # and JSON input alike: a coefficient N past the limit, a grid too large
    big = tmp_path / "big.json"
    f = phi(P, 2, 1, 40).to_json()
    f["coeffs"][0][0]["N"] = 5000
    big.write_text(json.dumps(f))
    assert main(["divide", "--in", str(big), "--m", "1"]) == 64
    big.write_text(json.dumps({"p": 3, "n": 10 ** 12, "ring": "base", "coeffs": []}))
    assert main(["eval", "--in", str(big)]) == 64
    # a flag value the command reads, checked against the element (n = 3)
    f = tmp_path / "f.json"
    f.write_text(json.dumps(phi(P, L, 1, N).to_json()))
    for chi in (["--d", "5"], ["--m", "4"], ["--m", "1", "--e", "3"], ["--r", "-1"]):
        assert main(["eval", "--in", str(f), *chi]) == 64
    assert main(["divide", "--in", str(f), "--m", "0"]) == 64


@pytest.mark.parametrize("field,value", [("eps", 3), ("eps", 0), ("k", 1), ("k", 3)])
def test_malformed_pair_fields_exit_64(tmp_path, field, value):
    # eps a non-unit, k below 2, or an alpha^2 = -eps p^(k-1) that the
    # elements' own alpha^2 = -3 does not match (k = 3)
    pair, _, _ = make_pair()
    for command, blob in (
        ("decompose", pair.to_json()),
        ("admissible", pair.to_json()),
        ("compose", decompose(pair).to_json()),
    ):
        blob[field] = value
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(blob))
        assert main([command, "--in", str(path)]) == 64, command


def test_decomposition_with_components_of_two_levels_exits_64(tmp_path):
    pair, _, alpha = make_pair()
    blob = decompose(pair).to_json()
    blob["Lminus"] = GroupRingElem.one(P, L - 1, N).to_quad(alpha.s).to_json()
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(blob))
    assert main(["compose", "--in", str(path)]) == 64


# the flags each command reads; qpn's action counts as one
FLAGS = {
    "decompose": {"--in", "--out", "--N", "--floor"},
    "compose": {"--in", "--out", "--N"},
    "admissible": {"--in", "--out", "--N"},
    "divide": {"--in", "--out", "--m"},
    "eval": {"--in", "--out", "--d", "--m", "--e", "--r"},
    "halflog": {"--p", "--k", "--n", "--N", "--sign", "--out"},
    "halflog-zeros": {"--p", "--k", "--n", "--N", "--sign", "--out"},
    "qpn": {"action", "--p", "--n", "--out"},
    "verify": {"--suite", "--seed", "--out"},
}


def test_each_command_accepts_only_the_flags_it_reads(tmp_path, pair_file):
    (sub,) = [a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {
            opt
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings or [action.dest]
        }
        for name, parser in sub.choices.items()
    }
    assert got == FLAGS
    assert sum(map(len, got.values())) == 38

    pm_file = tmp_path / "pm.json"
    assert main(["decompose", "--in", str(pair_file), "--out", str(pm_file)]) == 0
    f = tmp_path / "f.json"
    f.write_text(json.dumps((phi(P, L, 1, N) * phi(P, L, 2, N)).to_json()))
    out = ["--out", str(tmp_path / "out.json")]
    for argv, unread in (
        (["decompose", "--in", str(pair_file)], ["--p", "3"]),
        (["compose", "--in", str(pm_file)], ["--k", "2"]),
        (["admissible", "--in", str(pair_file)], ["--seed", "1"]),
        (["divide", "--in", str(f), "--m", "1"], ["--N", "40"]),
        (["eval", "--in", str(f)], ["--p", "5"]),
        (["halflog"], ["--in", "x"]),
        (["halflog-zeros"], ["--eps", "1"]),
        (["qpn", "dims"], ["--seed", "1"]),
        (["verify", "--suite", "padic"], ["--N", "40"]),
    ):
        assert main(argv + unread) == 64, unread
        assert main(argv + out) == 0, argv
    assert main(["qpn", "verify"]) == 64
    assert main(["halflog", "--sign", "+"]) == 64


def test_tracer_installs_on_every_name_it_patches():
    # the benchmark's tracer wraps library functions and methods by name;
    # a deleted or renamed one makes install() raise
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(root, 'perfbench')!r}, {os.path.join(root, 'src')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer())\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_low_precision_input_rejected_before_slot_arithmetic(tmp_path):
    # a shortfall of digits, refused before a thin pair could read as
    # not decomposable (exit 2)
    f = phi(P, 2, 1, 6)  # N = 6 < n + 10
    path = tmp_path / "lowN.json"
    path.write_text(json.dumps(f.to_json()))
    assert main(["divide", "--in", str(path), "--m", "1"]) == 4
    # either member of a pair may be the thin one
    pair, params, alpha = make_pair()
    thin = random_element(P, L, L + 9, SplitMix64(3)).to_quad(alpha.s)
    for L1, L2 in ((thin, pair.L2), (pair.L1, thin)):
        path = tmp_path / "thin_pair.json"
        path.write_text(json.dumps(AdmissiblePair(L1, L2, params, alpha).to_json()))
        assert main(["decompose", "--in", str(path)]) == 4
