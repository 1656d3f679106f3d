import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shtlab import cli
from shtlab.cli import main
from shtlab.errors import InputError
from shtlab.orlicz import Power, PowerLog
from shtlab.space import Ball, build_space
from shtlab.specio import parse_phi, parse_space, parse_weight


# ------------------------------------------------------------ parsing


def test_parse_phi_inline():
    assert parse_phi("power:2") == Power(2.0)
    assert parse_phi("powerlog:2:1") == PowerLog(2.0, 1.0)
    assert parse_phi({"family": "power", "s": 3.0}) == Power(3.0)
    assert parse_phi({"family": "powerlog", "s": 2.5, "a": 0.5}) == PowerLog(2.5, 0.5)


@pytest.mark.parametrize(
    "bad", ["power:1", "power:0.5", "powerlog:2", "power:x", "loglog:2", {"family": "exp"}]
)
def test_parse_phi_rejects(bad):
    with pytest.raises(InputError):
        parse_phi(bad)


def test_parse_weight_forms(line4):
    assert np.array_equal(parse_weight([1, 2, 3, 4], line4), [1, 2, 3, 4])
    assert np.array_equal(
        parse_weight({"type": "array", "values": [1, 1, 1, 9]}, line4), [1, 1, 1, 9]
    )
    w = parse_weight({"type": "power", "alpha": 1.0, "center": 0, "offset": 1.0}, line4)
    assert np.array_equal(w, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InputError, match="offset"):
        parse_weight({"type": "power", "alpha": -1.0, "center": 0}, line4)
    with pytest.raises(InputError, match="NaN"):
        parse_weight([1, float("nan"), 1, 1], line4)
    with pytest.raises(InputError, match="negative value at index 1"):
        parse_weight([1, -1, 1, 1], line4)
    with pytest.raises(InputError, match="weight values"):
        parse_weight(["x", 1, 1, 1], line4)
    with pytest.raises(InputError, match="offset"):
        parse_weight({"type": "power", "alpha": 1.0, "center": 0, "offset": "x"}, line4)
    w = parse_weight({"type": "power", "alpha": 1.0, "center": 2.0, "offset": 1.0}, line4)
    assert np.array_equal(w, [3.0, 2.0, 1.0, 2.0])
    for center in (2.5, True, "2", math.inf):
        with pytest.raises(InputError, match="center"):
            parse_weight({"type": "power", "alpha": 1.0, "center": center, "offset": 1.0}, line4)
    with pytest.raises(InputError, match="offset -1.5 gives -0.5 at index 2"):
        parse_weight({"type": "power", "alpha": 0.5, "center": 3, "offset": -1.5}, line4)
    w = parse_weight({"type": "power", "alpha": 2.0, "center": 3, "offset": -1.5}, line4)
    assert np.array_equal(w, [2.25, 0.25, 0.25, 2.25])
    with pytest.raises(InputError, match="power weight contains an infinite value at index 2"):
        parse_weight({"type": "power", "alpha": 700.0, "center": 0, "offset": 1.0}, line4)
    for values, i in (([1, math.inf, 1, 1], 1), ([1, 1, -math.inf, 1], 2)):
        with pytest.raises(InputError, match=f"infinite value at index {i}"):
            parse_weight(values, line4)


def test_parse_space_rejects_bad_spec():
    with pytest.raises(InputError, match="space type"):
        parse_space({"type": "sphere"})
    with pytest.raises(InputError, match="metric"):
        parse_space({"type": "grid", "shape": [3], "metric": "hamming"})
    for shape in (["a"], [None], [2.5], [0], [True]):
        with pytest.raises(InputError, match="shape"):
            parse_space({"type": "grid", "shape": shape})
    with pytest.raises(InputError, match="metric"):
        parse_space({"type": "grid", "shape": [3], "metric": ["l1"]})
    for dist in ([[0, "x"], ["x", 0]], [[0, 1], [1]]):
        with pytest.raises(InputError, match="dist"):
            parse_space({"type": "explicit", "dist": dist, "mass": [1, 1]})
    with pytest.raises(InputError, match="mass"):
        parse_space({"type": "explicit", "dist": [[0, 1], [1, 0]], "mass": "x"})


# JSON values for the parser property, kept small so that no parse allocates
# much: lists hold at most 5 entries, and grid shapes draw from a fixed list.
_WORDS = ["", "a", "2", "uniform", "l1", "l2", "linf", "grid", "explicit", "array",
          "power", "powerlog", "power:2", "powerlog:2:1", "power:x"]
_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 5) | st.just(10**400) | st.floats()
    | st.sampled_from(_WORDS)
)
_FIELDS = ["type", "dist", "mass", "metric", "values", "alpha", "center", "offset",
           "family", "s", "a"]
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_FIELDS), inner, max_size=5),
    max_leaves=20,
)
_VECTOR = st.lists(_SCALARS, max_size=5)
_SHAPE = st.lists(st.sampled_from([-1, 0, 1, 2, 2.5, 3, True, None, "a", math.inf, math.nan]),
                  max_size=5)
_SPACES = _JSON | st.fixed_dictionaries(
    {"type": st.sampled_from(["grid", "explicit", "sphere"])},
    optional={"shape": _SHAPE, "metric": _SCALARS, "mass": _VECTOR | _SCALARS,
              "dist": st.lists(_VECTOR, max_size=5) | _JSON},
)
_WEIGHTS = _JSON | _VECTOR | st.fixed_dictionaries(
    {"type": st.sampled_from(["array", "power", "log"])},
    optional={"values": _VECTOR | _SCALARS, "alpha": _SCALARS, "center": _SCALARS,
              "offset": _SCALARS},
)
_PHIS = (
    _JSON
    | st.builds(str.__add__, st.sampled_from(["power:", "powerlog:", "powerlog:2:"]),
                st.text(max_size=6))
    | st.fixed_dictionaries(
        {"family": st.sampled_from(["power", "powerlog", "exp"])},
        optional={"s": _SCALARS, "a": _SCALARS},
    )
)
# file names relative to a scratch directory; "/" is left out so that no draw
# leaves it
_PATHS = st.sampled_from([".", "drawn.json", "not-utf8.json", "missing.json"]) | st.text(
    st.characters(blacklist_characters="/"), max_size=6
)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    (root / "not-utf8.json").write_bytes(b"\xff\xfe{\x00}\x00")
    return root


@given(space=_SPACES, weight=_WEIGHTS, phi=_PHIS, path=_PATHS)
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_input_error(spec_dir, space, weight, phi, path):
    line4 = build_space({"type": "grid", "shape": [4]})
    parsers = [(parse_space, space), (lambda o: parse_weight(o, line4), weight), (parse_phi, phi)]
    for parse, obj in parsers:
        (spec_dir / "drawn.json").write_text(json.dumps(obj))
        for arg in (obj, str(spec_dir / path)):
            with contextlib.suppress(InputError):
                parse(arg)


# ------------------------------------------------------------ CLI plumbing


@pytest.fixture
def files(tmp_path):
    space = tmp_path / "line4.json"
    space.write_text(json.dumps({"type": "grid", "shape": [4], "metric": "l1", "mass": "uniform"}))
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps({"type": "array", "values": [1, 1, 1, 1]}))
    spike = tmp_path / "spike.json"
    spike.write_text(json.dumps([8, 0, 0, 0]))
    return {"space": str(space), "ones": str(ones), "spike": str(spike), "dir": tmp_path}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_profile_command(files, capsys):
    code, out = run_cli(["profile", "--space", files["space"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["kappa"] == 1.0 and rep["c_mu"] == 3.0


def test_profile_csv(files, capsys):
    code, out = run_cli(["profile", "--space", files["space"], "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "name,value"


def test_constants_all_ones(files, capsys):
    code, out = run_cli(
        ["constants", "--space", files["space"], "--w", files["ones"],
         "--sigma", files["ones"], "--p", "2", "--phi", "power:2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    for key in ("ap", "two_weight_ap", "ainfty_fw", "ainfty_exp", "bump_ap", "wp", "sawyer"):
        assert rep[key] == pytest.approx(1.0, rel=1e-9)


def test_constants_sweep_csv(files, capsys):
    code, out = run_cli(
        ["constants", "--space", files["space"], "--w", files["ones"],
         "--sigma", files["ones"], "--p", "1.5,2,3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,phi,ap")
    assert len(lines) == 4


def test_cz_command_single_level(files, capsys):
    code, out = run_cli(
        ["cz", "--space", files["space"], "--f", files["spike"], "--lambda", "4"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["lambda"] == 4.0
    assert rep["omega"] == [0]
    assert len(rep["balls"]) == 1
    assert rep["balls"][0]["members"] == [0]
    assert rep["violations"] == []


def test_cz_command_multilevel(files, capsys):
    code, out = run_cli(
        ["cz", "--space", files["space"], "--f", files["spike"], "--a", "4",
         "--allow-small-a"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["a"] == 4.0 and rep["k0"] == 1
    assert len(rep["levels"]) == 1
    assert rep["levels"][0]["balls"][0]["members"] == [0]


def test_cz_level_below_average_is_input_error(files, capsys):
    code, _ = run_cli(
        ["cz", "--space", files["space"], "--f", files["spike"], "--lambda", "0.5"],
        capsys,
    )
    assert code == 2


def test_opnorm_command(files, capsys):
    code, out = run_cli(
        ["opnorm", "--space", files["space"], "--w", files["ones"],
         "--sigma", files["ones"], "--p", "2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] >= (205.0 / 144.0) ** 0.5 - 1e-9
    assert rep["ordering_ok"]


def test_main_reuses_one_parser(files, capsys, monkeypatch):
    fresh = cli.build_parser()
    assert fresh is not cli.build_parser() and fresh is not cli._PARSER
    monkeypatch.setattr(cli, "build_parser", None)
    for _ in range(2):
        code, out = run_cli(["profile", "--space", files["space"]], capsys)
        assert code == 0 and json.loads(out)["c_mu"] == 3.0


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(files, capsys):
    code, _ = run_cli(["profile", "--space", str(files["dir"] / "nope.json")], capsys)
    assert code == 2


def test_unreadable_spec_exits_2(files, capsys):
    not_utf8 = files["dir"] / "not-utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (".", str(files["dir"]), str(not_utf8)):
        assert main(["profile", "--space", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"unreadable file: {path}" in captured.err


def test_malformed_spec_exits_2(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "explicit", "dist": [[0, 1], [1, 0]], "mass": [1, 0]}')
    code, _ = run_cli(["profile", "--space", str(bad)], capsys)
    assert code == 2
    err = capsys.readouterr().err
    assert "" == err  # stderr already consumed by run_cli's capsys read
    bad.write_text('{"type": "grid", "shape": ["a"]}')
    code, _ = run_cli(["profile", "--space", str(bad)], capsys)
    assert code == 2
    bad.write_text('{"type": "power", "alpha": 1, "center": Infinity, "offset": 1}')
    assert main(["cz", "--space", files["space"], "--f", str(bad), "--lambda", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "center" in captured.err


@pytest.mark.parametrize(
    "option", [["--lambda", "nan"], ["--lambda", "inf"], ["--a", "nan"], ["--a", "inf"],
               ["--eta", "nan"], ["--eta", "inf"]],
    ids=" ".join,
)
def test_cz_non_finite_option_exits_2(files, capsys, option):
    code, out = run_cli(
        ["cz", "--space", files["space"], "--f", files["spike"], *option], capsys
    )
    assert code == 2 and out == ""


def test_cz_violations_write_balls(files, capsys, monkeypatch):
    import shtlab.cli as cli

    b1, b2 = Ball(0, 1.0), Ball(2, 1.5)
    found = [
        {"kind": "overlap", "balls": (b1, b2)},
        {"kind": "low_average", "ball": b1, "average": 0.5},
    ]
    monkeypatch.setattr(
        cli, "verify_cz_properties", lambda *a: {"violations": found, "undilated_exceedances": 0}
    )
    monkeypatch.setattr(cli, "verify_disjointing", lambda *a: {"violations": found})
    c0, c2 = {"center": 0, "radius": 1.0}, {"center": 2, "radius": 1.5}
    want = [
        {"kind": "overlap", "balls": [c0, c2]},
        {"kind": "low_average", "ball": c0, "average": 0.5},
    ]
    for mode in (["--lambda", "4"], ["--a", "4", "--allow-small-a"]):
        code, out = run_cli(
            ["cz", "--space", files["space"], "--f", files["spike"], *mode], capsys
        )
        assert code == 1
        assert json.loads(out)["violations"] == want


def test_malformed_json_exits_2(files, capsys, tmp_path):
    bad = tmp_path / "trunc.json"
    bad.write_text('{"type": ')
    code, _ = run_cli(["profile", "--space", str(bad)], capsys)
    assert code == 2


def test_csv_unsupported_elsewhere(files, capsys):
    code, _ = run_cli(
        ["opnorm", "--space", files["space"], "--w", files["ones"],
         "--sigma", files["ones"], "--p", "2", "--format", "csv"],
        capsys,
    )
    assert code == 2


def test_verify_command_small_manifest(tmp_path, capsys):
    from shtlab.suite import default_manifest

    manifest = default_manifest(31415, instances=3, cz=4, multilevel=4)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out_path = tmp_path / "report.json"
    code = main(["verify", "--manifest", str(path), "--out", str(out_path)])
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["summary"]["violations"] == 0
    assert rep["summary"]["instances"] == 3


def test_verify_exit_one_on_violation(tmp_path, monkeypatch):
    import shtlab.cli as cli

    def fake_run_suite(manifest):
        return {"summary": {"violations": 1}, "violations": [{"check": "chain"}]}, {}

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"seed": 1, "instances": []}))
    assert main(["verify", "--manifest", str(path), "--out", str(tmp_path / "r.json")]) == 1


def test_report_written_to_file(files, capsys, tmp_path):
    out = tmp_path / "prof.json"
    code = main(["profile", "--space", files["space"], "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["n"] == 4


def test_unwritable_out_exits_2(files, capsys):
    for out in (files["dir"], files["dir"] / "missing" / "x.json"):
        assert main(["profile", "--space", files["space"], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write {out} (" in captured.err


def test_grid_too_large_for_the_workspace_exits_2(files, capsys, monkeypatch):
    big = files["dir"] / "big.json"
    big.write_text(json.dumps({"type": "grid", "shape": [10**400]}))
    assert main(["profile", "--space", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "grid 'shape'" in captured.err
    # the refusal sits exactly at the (n, n, dim) element budget
    monkeypatch.setattr("shtlab.space.WORKSPACE_ELEMENTS", 4 * 4 * 2)
    assert build_space({"type": "grid", "shape": [2, 2]}).n == 4
    assert build_space({"type": "grid", "shape": [5]}).n == 5
    for shape in ([6], [2, 3]):
        with pytest.raises(InputError, match="grid 'shape'.*exceed 32 elements"):
            build_space({"type": "grid", "shape": shape})


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _manifest(space, sigma):
    inst = {"name": "x", "space": space, "w": [1, 1, 1, 1], "sigma": sigma, "p": 2.0,
            "phis": ["power:2"]}
    return {"seed": 1, "instances": [inst]}


def test_extreme_masses_exit_2(files, capsys):
    d = files["dir"]
    line = [[abs(i - j) for j in range(4)] for i in range(4)]
    space = {"type": "explicit", "dist": line, "mass": [1e-200, 1, 1, 1e200]}
    path = _write(d / "extreme.json", space)
    cases = [
        (["cz", "--space", path, "--f", files["spike"]], "doubling order d_mu = 664.386"),
        (["cz", "--space", path, "--f", files["spike"], "--lambda", "4"], "doubling order"),
        (["verify", "--manifest", _write(d / "m.json", _manifest(space, [1, 1, 1, 1]))],
         "doubling order"),
        (["constants", "--space", path, "--w", files["ones"], "--sigma", files["ones"],
          "--p", "2"], "mass ratio mu_max/mass_min"),
    ]
    for args, message in cases:
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_weight_constant_exits_2(files, capsys):
    d = files["dir"]
    big = [1e300] * 4
    cases = [
        ["constants", "--space", files["space"], "--w", files["ones"],
         "--sigma", _write(d / "big.json", big), "--p", "2"],
        ["verify", "--manifest", _write(d / "m.json", _manifest({"type": "grid", "shape": [4]}, big))],
    ]
    for args in cases:
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sawyer_constant is nan" in captured.err
