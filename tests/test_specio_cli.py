import contextlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shtlab
from conftest import open_ball, random_cloud
from shtlab import cli
from shtlab.cli import main
from shtlab.czdecomp import cz_decompose, multi_level_decompose
from shtlab.errors import InputError
from shtlab.maximal import hl_maximal
from shtlab.orlicz import Power, PowerLog
from shtlab.space import Ball, ball_table, build_space
from shtlab.specio import parse_phi, parse_space, parse_weight


# ------------------------------------------------------------ parsing


def test_parse_phi_inline():
    assert parse_phi("power:2") == Power(2.0)
    assert parse_phi("powerlog:2:1") == PowerLog(2.0, 1.0)
    assert parse_phi({"family": "power", "s": 3.0}) == Power(3.0)
    assert parse_phi({"family": "powerlog", "s": 2.5, "a": 0.5}) == PowerLog(2.5, 0.5)


PHI_REJECTS = {
    "power:1": "power exponent must satisfy s > 1, got 1.0",
    "power:0.5": "power exponent must satisfy s > 1, got 0.5",
    "powerlog:2": "malformed Young function spec 'powerlog:2'",
    "power:x": "malformed Young function spec 'power:x'",
    "loglog:2": "unreadable file: loglog:2",
    "{'family': 'exp'}": "unknown Young function family 'exp'",
    "powerlog:1:1": "power-log exponent must satisfy s > 1, got 1.0",
    "powerlog:2:-1": "log-exponent must satisfy 0 <= a < inf, got -1.0",
}


@pytest.mark.parametrize(
    "bad",
    ["power:1", "power:0.5", "powerlog:2", "power:x", "loglog:2", {"family": "exp"},
     "powerlog:1:1", "powerlog:2:-1"],
)
def test_parse_phi_rejects(bad):
    with pytest.raises(InputError, match=PHI_REJECTS[str(bad)]):
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


def python_c(code):
    """Run ``python -c code`` on this checkout's package; returns stdout."""
    src = os.path.dirname(os.path.dirname(shtlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_package_imports_without_scipy():
    # a None entry makes any scipy import raise ImportError
    python_c("import sys; sys.modules['scipy'] = None; import shtlab, shtlab.cli")
    loaded = python_c("import sys, shtlab.cli; print([m for m in sys.modules if m == 'scipy' "
                      "or m.startswith('scipy.')])")
    assert loaded.strip() == "[]"


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


def test_constants_sweep_rows_are_their_single_runs(files, capsys):
    # the sweep's bump and wp come from one Luxemburg solve in which each batch
    # stops on its own bracket, so each row has the bytes of its exponent alone
    space = files["dir"] / "wideline.json"
    space.write_text(json.dumps({"type": "explicit", "dist": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
                                 "mass": [1e-6, 1, 1, 1e6]}))
    ramp = files["dir"] / "ramp.json"
    ramp.write_text("[1, 2, 3, 4]")
    args = ["constants", "--space", str(space), "--w", str(ramp), "--sigma", str(ramp), "--format", "csv"]
    code, out = run_cli(args + ["--p", "1.5,2,3"], capsys)
    assert code == 0
    rows = out.splitlines()
    for p, row in zip(("1.5", "2", "3"), rows[1:]):
        assert run_cli(args + ["--p", p], capsys) == (0, "\n".join([rows[0], row]) + "\n")


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


def open_ball_json(space, rows):
    """Report balls of table rows, with members through the open-ball oracle rather than the table."""
    balls = [ball_table(space).ball(r) for r in rows]
    return [{"center": b.center, "radius": b.radius,
             "members": np.flatnonzero(open_ball(space, b.center, b.radius)).tolist()} for b in balls]


def test_cz_report_balls_match_open_ball_members(tmp_path, capsys):
    # a decomposition holds ball-table rows; each reported ball is its row's
    # (center, radius), with the members of the open ball of that center and radius
    rng = np.random.default_rng(7)
    levels = 0
    for trial in range(8):
        sp = random_cloud(rng, int(rng.integers(4, 10)), dim=1 + trial % 2)
        f = np.zeros(sp.n)
        f[rng.choice(sp.n, size=2, replace=False)] = 10.0 ** rng.uniform(0, 2, 2)
        space, field = tmp_path / "space.json", tmp_path / "f.json"
        spec = {"type": "explicit", "dist": sp.dist.tolist(), "mass": sp.mass.tolist()}
        space.write_text(json.dumps(spec))
        field.write_text(json.dumps(f.tolist()))
        avg = float((f * sp.mass).sum() / sp.mass.sum())
        lam = avg + float(rng.uniform(0, 0.9) * (hl_maximal(sp, f).max() - avg))
        common = ["cz", "--space", str(space), "--f", str(field)]
        code, out = run_cli(common + ["--lambda", repr(lam)], capsys)
        assert code == 0
        assert json.loads(out)["balls"] == open_ball_json(sp, cz_decompose(sp, f, lam).selected)
        code, out = run_cli(common + ["--a", "4", "--allow-small-a"], capsys)
        assert code == 0
        fam = multi_level_decompose(sp, f, 4.0, allow_small_a=True)
        reported = [e["balls"] for e in json.loads(out)["levels"]]
        assert reported == [open_ball_json(sp, e.balls) for e in fam.entries]
        levels += len(fam.entries)
    assert levels >= 8


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
    "option", [["--lambda", "nan"], ["--lambda", "inf"], ["--a", "nan"], ["--a", "inf"]],
    ids=" ".join,
)
def test_cz_non_finite_option_exits_2(files, capsys, option):
    code, out = run_cli(
        ["cz", "--space", files["space"], "--f", files["spike"], *option], capsys
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("option", [["--a", "3"], ["--allow-small-a"]], ids=" ".join)
def test_cz_level_base_options_refused_in_single_level_mode(files, capsys, option):
    # a single level reads no level base, so these options would do nothing
    assert main(["cz", "--space", files["space"], "--f", files["spike"], "--lambda", "4",
                 *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option[0]} applies to multi-level mode only" in captured.err


def test_cz_level_base_near_one_exits_2(files, capsys):
    # a**k climbs from the base average 2 to max Mf = 8 in about 1.4e8 levels,
    # which are counted and refused before any is decomposed
    assert main(["cz", "--space", files["space"], "--f", files["spike"], "--a", "1.00000001",
                 "--allow-small-a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"a=1\.00000001 gives \d+ levels, more than 1000000", captured.err)


def test_cz_level_power_overflow_exits_2(files, tmp_path, capsys):
    # the first power of a at or above the base average 1e250 is a**2 = 1e400
    f = tmp_path / "huge.json"
    f.write_text("[4e250, 0, 0, 0]")
    assert main(["cz", "--space", files["space"], "--f", str(f), "--a", "1e200",
                 "--allow-small-a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level base a=1e+200: a**2 exceeds the float range" in captured.err


@pytest.mark.parametrize("mode", [["--a", "1e200", "--allow-small-a"], ["--lambda", "1e308"]])
def test_cz_overflowing_mass_weighted_sum_exits_2(files, tmp_path, capsys, mode):
    # each entry fits a float, but 1e308 + 1e308 does not
    f = tmp_path / "huge.json"
    f.write_text("[1e308, 1e308, 0, 0]")
    assert main(["cz", "--space", files["space"], "--f", str(f), *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mass-weighted sum of f exceeds the float range" in captured.err


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


@pytest.mark.parametrize(
    "command, option",
    [("profile", ["--seed", "1"]), ("constants", ["--seed", "1"]), ("cz", ["--seed", "1"]),
     ("cz", ["--format", "csv"]), ("verify", ["--format", "csv"]), ("verify", ["--seed", "1"])],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_options_a_command_does_not_read_exit_2(files, capsys, command, option):
    args = {
        "profile": ["--space", files["space"]],
        "constants": ["--space", files["space"], "--w", files["ones"], "--sigma", files["ones"],
                      "--p", "2"],
        "cz": ["--space", files["space"], "--f", files["spike"], "--lambda", "4"],
        "verify": ["--manifest", files["space"]],
    }[command]
    assert main([command, *args, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_manifest_rounding_keeps_per_element_bits_and_nesting():
    from shtlab.suite import _round

    rng = np.random.default_rng(12)
    for shape in ((7,), (5, 6)):
        values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
        got = _round(values)
        assert np.shape(got) == shape
        flat = [v for row in got for v in row] if len(shape) == 2 else got
        assert [v.hex() for v in flat] == [float(np.round(v, 12)).hex() for v in values.ravel()]


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


LINE4 = {"type": "grid", "shape": [4]}
GOOD_INSTANCE = {"name": "x", "space": LINE4, "w": [1, 1, 1, 1], "sigma": [1, 1, 1, 1], "p": 2.0}
MALFORMED_MANIFESTS = {
    "missing space": ({"instances": [{"name": "x"}]}, "manifest instances[0] lacks field 'space'"),
    "p not a number": ({"instances": [{**GOOD_INSTANCE, "p": "abc"}]},
                       "manifest instances[0] (x) requires numeric field 'p'"),
    "cz without lam": ({"cz": [{"name": "c", "space": LINE4, "f": [8, 0, 0, 0]}]},
                       "manifest cz[0] lacks field 'lam'"),
    "instances not a list": ({"instances": "abc"},
                             "manifest section 'instances' must be a list, got str"),
    "phis a string": ({"instances": [{**GOOD_INSTANCE, "phis": "power:2"}]},
                      "manifest instances[0] (x) field 'phis' must be a list"),
    "item not an object": ({"multilevel": [3]}, "manifest multilevel[0] must be a JSON object"),
    "missing name": ({"cz": [{"space": LINE4}]}, "manifest cz[0] lacks field 'name'"),
    "space not an object": ({"instances": [{**GOOD_INSTANCE, "space": 5, "w": [1], "sigma": [1]}]},
                            "manifest instances[0] (x): space spec must be a JSON object"),
    "f an unreadable file": ({"cz": [{"name": "c", "space": LINE4, "f": "nofile", "lam": 4.0}]},
                             "manifest cz[0] (c): unreadable file: nofile"),
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_manifest_exits_2_naming_the_field(tmp_path, capsys, case):
    manifest, message = MALFORMED_MANIFESTS[case]
    assert main(["verify", "--manifest", _write(tmp_path / "m.json", manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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


def test_grid_of_three_or_four_dimensions_exits_2(files, capsys):
    # the dimension is refused first, before the size check and any allocation
    for shape in ([2, 2, 2], [400, 400, 400], [2, 2, 2, 2], [10**400, 1, 1, 1]):
        path = _write(files["dir"] / "grid.json", {"type": "grid", "shape": shape})
        assert main(["profile", "--space", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid shape must have 1 or 2 entries, got {shape}" in captured.err


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
        (["verify", "--manifest", _write(d / "m.json", _manifest(space, [1, 1, 1, 1]))],
         "doubling order"),
        (["constants", "--space", path, "--w", files["ones"], "--sigma", files["ones"],
          "--p", "2"], "mass ratio mu_max/mass_min"),
        (["constants", "--space", path, "--w", files["ones"], "--sigma", files["ones"],
          "--p", "2", "--phi", "powerlog:2:1"], "mass ratio mu_max/mass_min"),
    ]
    for args, message in cases:
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    # a single level reads no level base, so the doubling order does not matter
    code, out = run_cli(["cz", "--space", path, "--f", files["spike"], "--lambda", "4"], capsys)
    assert code == 0 and json.loads(out)["violations"] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns
def test_an_overflowing_reduction_names_the_public_constant(files, capsys):
    # the reductions read the Luxemburg route, whose refusal names bump_ap
    big = [1e300] * 4
    manifest = _manifest({"type": "grid", "shape": [4]}, big)
    manifest["instances"][0]["w"] = big
    assert main(["verify", "--manifest", _write(files["dir"] / "big.json", manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: bump_ap is inf, not a finite number\n"


def test_single_level_cz_on_a_huge_doubling_order(files, capsys):
    # d_mu = 332.193: the default level base overflows, but a single level and
    # a manifest's cz item read only theta and eta
    d = files["dir"]
    line = [[abs(i - j) for j in range(4)] for i in range(4)]
    space = {"type": "explicit", "dist": line, "mass": [1e-100, 1, 1, 1e100]}
    path = _write(d / "big.json", space)
    code, out = run_cli(["cz", "--space", path, "--f", files["spike"], "--lambda", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == [] and rep["omega"] == [0]
    manifest = {"seed": 1, "cz": [{"name": "c", "space": space, "f": [8, 0, 0, 0], "lam": 1.0}]}
    code, out = run_cli(["verify", "--manifest", _write(d / "m.json", manifest)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["violations"] == [] and rep["cz"][0]["selected"] == 1
    for small in ([], ["--a", "4", "--allow-small-a"]):
        assert main(["cz", "--space", path, "--f", files["spike"], *small]) == 2
        assert "doubling order d_mu = 332.193" in capsys.readouterr().err


def test_overflowing_chain_constant_exits_2(files, capsys):
    # d_mu is about 120, which cz_config accepts, but (2*theta)**((p+1)*d_mu)
    # is far beyond the float range at p = 2
    line = [[abs(i - j) for j in range(4)] for i in range(4)]
    space = {"type": "explicit", "dist": line, "mass": [1e-36, 1, 1, 1e36]}
    manifest = _write(files["dir"] / "m.json", _manifest(space, [1, 1, 1, 1]))
    assert main(["verify", "--manifest", manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chain constant 4*a**p*(2*theta)**((p+1)*d_mu) overflows" in captured.err
    assert "doubling order d_mu = 119.589" in captured.err


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
