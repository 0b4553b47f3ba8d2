"""CLI outputs pinned against recorded ones.

Base-ring commands (`divide`, `eval`, `halflog`, `halflog-zeros`) must print
the same bytes as recorded: their SHA-256 hashes are pinned below.  For the
quadratic commands the recorded outputs live in `tests/golden/cli_*.json`:
`admissible` must match byte for byte, while every coefficient printed by
`compose` and `decompose` must agree with the recorded one to the recorded
precision and carry at least as many digits.  Regenerate a pin only for a
deliberate change of output, recorded in CHANGES.md.
"""

import hashlib
import json
import pathlib

import pytest

from iwa.cli import main
from iwa.groupring import phi, random_element
from iwa.rng import SplitMix64

GOLDEN = pathlib.Path(__file__).parent / "golden"
N = 40


def _write(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _run(argv, tmp_path):
    """(exit code, output bytes) of one CLI command."""
    out = tmp_path / "out.json"
    rc = main(argv + ["--out", str(out)])
    return rc, out.read_bytes()


def _element(tmp_path, p, n, seed, m=None):
    """A seeded element file; a multiple of phi(m) when m is given."""
    f = random_element(p, n, N, SplitMix64(seed))
    if m is not None:
        f = f * phi(p, n, m, N)
    return _write(tmp_path / f"elem-{p}-{n}-{seed}.json", f.to_json())


def base_outputs(tmp_path):
    """Name -> (exit code, bytes) of the pinned base-ring commands."""
    out = {}
    for p, n, m, seed in [(3, 4, 2, 1), (3, 4, 3, 2), (5, 3, 1, 3), (7, 3, 2, 4)]:
        path = _element(tmp_path, p, n, seed, m)
        out[f"divide p={p} n={n} m={m}"] = _run(["divide", "--in", path, "--m", str(m)], tmp_path)
    for p, n, seed, chars in [
        (3, 4, 5, [(0, 0, 1, 0), (1, 2, 4, 0), (0, 3, 7, 1), (1, 1, 2, 2)]),
        (5, 3, 6, [(2, 1, 3, 0), (3, 2, 7, 1)]),
    ]:
        path = _element(tmp_path, p, n, seed)
        for d, m, e, r in chars:
            argv = ["eval", "--in", path, "--d", str(d), "--m", str(m), "--e", str(e), "--r", str(r)]
            out[f"eval p={p} n={n} chi=({d},{m},{e},{r})"] = _run(argv, tmp_path)
    for cmd in ("halflog", "halflog-zeros"):
        for p, n, k, sign in [(3, 4, 3, "plus"), (3, 4, 2, "minus"), (5, 3, 3, "minus")]:
            argv = [cmd, "--p", str(p), "--n", str(n), "--k", str(k), "--N", str(N), "--sign", sign]
            out[f"{cmd} p={p} n={n} k={k} {sign}"] = _run(argv, tmp_path)
    argv = ["halflog-zeros", "--p", "3", "--n", "6", "--k", "4", "--N", str(N), "--sign", "plus"]
    out["halflog-zeros p=3 n=6 k=4 plus"] = _run(argv, tmp_path)
    return out


BASE_SHA256 = {
    "divide p=3 n=4 m=2": "2f81e92666d657f57f91879fc557e004b8fbcfdbde2504d085ac59ae26e07695",
    "divide p=3 n=4 m=3": "f19a7e49614e483a347f652d498c2ceaea9088187a157c42058bcd8f8bd5c0e3",
    "divide p=5 n=3 m=1": "00d87e17179d944480ea9a00d33fe61f71b5fe3f753d97ac61d67ef154629db3",
    "divide p=7 n=3 m=2": "3870869b5cdca6998d6b1c0730ab69a9696633745435777288b2cb29d4daec2a",
    "eval p=3 n=4 chi=(0,0,1,0)": "705bef4d7fc1fea733b93944a56968cb10e758368fe39240a125ee5c26b02ec5",
    "eval p=3 n=4 chi=(1,2,4,0)": "e568701677c5867ee5fd54f9f0e49f99d1baa78a5fc87b3c1224a60992f67a8a",
    "eval p=3 n=4 chi=(0,3,7,1)": "2611eac87a206bf8e07d88249b6e29aff184d7690def56c583cf6e7741c9df77",
    "eval p=3 n=4 chi=(1,1,2,2)": "2f78cf31938efb6caa45e542d34e09b11d0286321d2fd836df0d7a76d1525a74",
    "eval p=5 n=3 chi=(2,1,3,0)": "7143359730d3e40ac5b3baae022ec4c706a3336e76696a9b7360607dd79abdd0",
    "eval p=5 n=3 chi=(3,2,7,1)": "d35cc00f4bbcae3cd129c7ef8edc0453fe349d132cfe68886d53e007fb2ff7d8",
    "halflog p=3 n=4 k=3 plus": "dbe62e33a6bd9d7fcd9eb7a7aeca4618e225769ca165d80991d96cfd1e22fb2a",
    "halflog p=3 n=4 k=2 minus": "5e19c8818b138e3487bea8edb0210eb28bf164e1155c795785f3cc5de200626f",
    "halflog p=5 n=3 k=3 minus": "8e7fa13b5ebf15005b3e57c9755ddc8b6fd6a48b95b136736437c78bc4076518",
    "halflog-zeros p=3 n=4 k=3 plus": "5ebb036c624676ab952595ab0e1a1bcaad30d10cf30eca42d15940ccec602fff",
    "halflog-zeros p=3 n=4 k=2 minus": "8dff48d57e773b9e4ce4b7f5b46ef289987adf557e1278d0b1f2c9d63e6fc4b5",
    "halflog-zeros p=5 n=3 k=3 minus": "9f355814ebc470586b517e9d75ee9d1c34c9a409460cd7e3e822a7ccfc78bff6",
    "halflog-zeros p=3 n=6 k=4 plus": "72b41b6d596fd5a6d559117a61717f61f472e190f76a5e3e48637f4be037d6b1",
}

# (p, n, k, eps, seed) of the quadratic cases
QUAD_CASES = [(3, 3, 2, 1, 31), (5, 3, 3, 2, 32)]


def _tag(p, n, k):
    return f"p{p}n{n}k{k}"


def pm_input(tmp_path, p, n, k, eps, seed):
    """A decomposition file with seeded base components, for `iwa compose`."""
    rng = SplitMix64(seed)
    obj = {
        "k": k,
        "eps": eps,
        "Lplus": random_element(p, n, N, rng).to_json(),
        "Lminus": random_element(p, n, N, rng).to_json(),
        "plus_slots": [],
        "minus_slots": [],
    }
    return _write(tmp_path / f"pm-{_tag(p, n, k)}.json", obj)


def quad_outputs(tmp_path, p, n, k, eps, seed):
    """Command -> (exit code, bytes); decompose and admissible read the
    recorded compose output, so all three see fixed inputs."""
    tag = _tag(p, n, k)
    out = {"compose": _run(["compose", "--in", pm_input(tmp_path, p, n, k, eps, seed)], tmp_path)}
    pair = str(GOLDEN / f"cli_compose_{tag}.json")
    out["decompose"] = _run(["decompose", "--in", pair], tmp_path)
    out["admissible"] = _run(["admissible", "--in", pair], tmp_path)
    return out


def _digits_agree(new, old, where):
    """A scalar object agrees with the recorded one to the recorded precision."""
    assert int(new["p"]) == int(old["p"]), where
    assert int(new["N"]) >= int(old["N"]), f"{where}: N {new['N']} < {old['N']}"
    p = int(old["p"])
    if old["v"] == "inf":
        assert new["v"] == "inf", f"{where}: recorded zero is now nonzero"
        return
    assert new["v"] != "inf", f"{where}: recorded nonzero is now zero"
    v_old, v_new = int(old["v"]), int(new["v"])
    assert v_new == v_old, where
    mod = p ** int(old["N"])
    assert (int(new["u"]) - int(old["u"])) % mod == 0, where


def _elements_agree(new, old, where):
    assert (new["p"], new["n"], new["ring"]) == (old["p"], old["n"], old["ring"]), where
    for a, (row_new, row_old) in enumerate(zip(new["coeffs"], old["coeffs"], strict=True)):
        for r, (c_new, c_old) in enumerate(zip(row_new, row_old, strict=True)):
            at = f"{where}[{a}][{r}]"
            assert c_new["s"] == c_old["s"], at
            _digits_agree(c_new["a"], c_old["a"], at + ".a")
            _digits_agree(c_new["b"], c_old["b"], at + ".b")


def test_base_commands_byte_identical(tmp_path):
    got = {
        name: (rc, hashlib.sha256(data).hexdigest())
        for name, (rc, data) in base_outputs(tmp_path).items()
    }
    assert got == {name: (0, digest) for name, digest in BASE_SHA256.items()}


@pytest.mark.parametrize("p,n,k,eps,seed", QUAD_CASES)
def test_quad_commands_against_recorded(tmp_path, p, n, k, eps, seed):
    tag = _tag(p, n, k)
    out = quad_outputs(tmp_path, p, n, k, eps, seed)
    rc, data = out["admissible"]
    assert data == (GOLDEN / f"cli_admissible_{tag}.json").read_bytes()
    assert rc == (0 if json.loads(data)["passed"] else 1)
    for cmd, keys in (("compose", ("L1", "L2")), ("decompose", ("Lplus", "Lminus"))):
        rc, data = out[cmd]
        assert rc == 0
        new = json.loads(data)
        old = json.loads((GOLDEN / f"cli_{cmd}_{tag}.json").read_text())
        assert set(new) == set(old)
        for key in set(old) - set(keys):
            assert new[key] == old[key], f"{cmd} {tag} {key}"
        for key in keys:
            _elements_agree(new[key], old[key], f"{cmd} {tag} {key}")
