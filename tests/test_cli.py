import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numpy.linalg import LinAlgError

from duality import cli, sweep
from duality.cli import main
from duality.errors import ValidationError
from duality.interferometer import (InterferometerInstance, from_global_unitary, from_tilted_pair,
                                   from_unitary_pair, instance_from_dict)
from duality.measures import SLACK_TOL, hierarchy_report
from duality.sweep import (
    SweepConfig,
    SweepSummary,
    generate_instance,
    iter_sweep,
    run_sweep,
    sweep_plan,
    write_instances_csv,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def write_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(inst.to_dict()), encoding="utf-8")
    return path


# --- analyze ---------------------------------------------------------------------

def test_analyze_identity_blocks(tmp_path, capsys):
    inst = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex))
    code = main(["analyze", str(write_instance(tmp_path, inst))])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["v"] == pytest.approx(1.0, abs=1e-10)
    assert report["p"] == pytest.approx(0.0, abs=1e-10)
    assert report["q"] == pytest.approx(0.0, abs=1e-10)


def test_analyze_orthogonal_marker(tmp_path, capsys):
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, SX),
                                  rho_d0=np.diag([1.0, 0.0]).astype(complex))
    code = main(["analyze", str(write_instance(tmp_path, inst))])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["q"] == pytest.approx(1.0, abs=1e-10)
    assert report["v"] == pytest.approx(0.0, abs=1e-10)
    assert set(report) == {"v", "p", "q", "d", "xi", "r", "chi", "v_bound_d", "v_bound_xi", "slacks"}


def test_analyze_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    assert capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe{",        # not UTF-8
    b"[" * 100_000,      # nested deeper than the JSON decoder recurses
], ids=["not-utf-8", "deep-nesting"])
def test_analyze_unreadable_json_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kind", ["empty", "directory", "missing"])
def test_analyze_unreadable_path_exits_2(tmp_path, capsys, monkeypatch, kind):
    # The error names the path as given: "" is no file, not the directory ".".
    monkeypatch.chdir(tmp_path)
    path = {"empty": "", "directory": str(tmp_path), "missing": str(tmp_path / "missing.json")}[kind]
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read instance file: ") and err.endswith(f"{path!r}\n")


@pytest.mark.parametrize("where, value", [
    (("n",), 2.7), (("n",), 2.0), (("n",), "2"), (("n",), True),
    (("s",), "1.0"), (("s",), True), (("s",), None), (("phi",), "0"), (("phi",), False),
    (("rho_d0", 0, 0), "0.5"), (("rho_d0", 1, 1), False),
    (("blocks", "vpp", 0, 0), True), (("blocks", "vmm", 3, 1), "0"),
])
def test_analyze_rejects_non_numeric_json_fields(tmp_path, capsys, where, value):
    # Each value equals the field it replaces once converted to a number,
    # so only its JSON type is wrong.
    data = InterferometerInstance(s=1.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex)).to_dict()
    target = data
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(ValidationError):
        instance_from_dict(data)


@pytest.mark.parametrize("names", [("vpp",), ("rho_d0", "vpp", "vpm", "vmp", "vmm")], ids=["one", "all"])
def test_analyze_rejects_matrix_parts_wrapped_in_lists(tmp_path, capsys, names):
    # [[[0.5], [0.0]], ...]: every re and im part a one-element list, so the
    # matrix reads as a nested list of the wrong shape, not of numbers.
    data = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex)).to_dict()
    for name in names:
        target = data if name == "rho_d0" else data["blocks"]
        target[name] = [[[x] for x in pair] for pair in target[name]]
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {names[0]} entries must have leading shape (8,), got (8, 1)\n"


def test_analyze_invalid_instance_exits_2(tmp_path, capsys):
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex))
    data = inst.to_dict()
    data["s"] = 7.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("n", [0, -1, -2])
def test_analyze_rejects_a_dimension_below_one(tmp_path, capsys, n):
    # n * n [re, im] pairs per matrix, the count a negative n would square to.
    pairs = [[0.0, 0.0]] * (n * n)
    data = {"s": 0.0, "phi": 0.0, "n": n, "rho_d0": pairs,
            "blocks": {name: pairs for name in ("vpp", "vpm", "vmp", "vmm")}}
    path = tmp_path / "n.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: n must be an integer >= 1, got {n}\n"


def test_analyze_non_finite_phase_exits_2(tmp_path, capsys):
    data = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex)).to_dict()
    for phi in (math.inf, math.nan):
        data["phi"] = phi
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", ["rho_d0", "vpp", "vpm", "vmp", "vmm"])
def test_analyze_rejects_non_finite_matrix_entries(tmp_path, capsys, name, value, text):
    # Python's json reads NaN, Infinity and -Infinity; each is named where the file is parsed.
    data = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex)).to_dict()
    (data["rho_d0"] if name == "rho_d0" else data["blocks"][name])[3][1] = value
    data["blocks"]["vmm"][0][0] = math.nan  # a later matrix's bad entry is not the one named
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    # Entry 7 is pair 3's imaginary part; vmm's own first bad entry is entry 0.
    at, expected = (7, text) if name != "vmm" else (0, "nan")
    assert capsys.readouterr().err == f"error: {name} entries[{at}] must be finite, got {expected}\n"


def test_analyze_linalg_error_exits_2(tmp_path, capsys, monkeypatch):
    def fail(inst):
        raise LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "hierarchy_report", fail)
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex))
    assert main(["analyze", str(write_instance(tmp_path, inst))]) == 2
    assert capsys.readouterr().err.startswith("error:")


def edge_instance(s: float) -> InterferometerInstance:
    """An instance that keeps every input rule with no room to spare.

    rho_d0 has the eigenvalue -0.9e-10, inside the 1e-10 PSD tolerance, and
    the joint unitary rotates the (0, 2) plane by t = 0.1.  The conditional
    states derived from it are then a little further from PSD than rho_d0.
    """
    t = 0.1
    u = np.eye(4, dtype=complex)
    u[np.ix_([0, 2], [0, 2])] = [[math.sin(t), math.cos(t)], [-math.cos(t), math.sin(t)]]
    return InterferometerInstance(s=s, blocks=from_global_unitary(u),
                                  rho_d0=np.diag([1.0 + 0.9e-10, -0.9e-10]).astype(complex))


@pytest.mark.parametrize("s", [0.3, 1.0])
def test_analyze_reports_an_instance_at_the_tolerance_edge(tmp_path, capsys, s):
    assert main(["analyze", str(write_instance(tmp_path, edge_instance(s)))]) == 0
    report = json.loads(capsys.readouterr().out)
    assert min(report["slacks"].values()) >= -SLACK_TOL


def test_analyze_output_golden(tmp_path, capsys):
    # One generated instance per lane of every class and dimension, through
    # the batch-of-one path (digest recorded with
    # numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64).
    cfg = SweepConfig(seed=0, count=1, dims=tuple(range(2, 9)))
    out = []
    for index, (block_class, wwm_class, s_class, dim) in enumerate(sweep_plan(cfg)):
        inst = generate_instance(0, index, dim, wwm_class, s_class, block_class)
        assert main(["analyze", str(write_instance(tmp_path, inst))]) == 0
        out.append(capsys.readouterr().out)
    assert len(out) == 58
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "b7c1fe6f42fdf6bcb94f6a822a92eec97541afb63bbb16399486f41d3928ead0")


def test_analyze_degenerate_branch_exits_3(tmp_path, capsys):
    inst = InterferometerInstance(s=1.0, blocks=from_tilted_pair(0.0, I2, I2),
                                  rho_d0=np.diag([1.0, 0.0]).astype(complex))
    assert main(["analyze", str(write_instance(tmp_path, inst))]) == 3
    assert "degenerate" in capsys.readouterr().err.lower()


# --- verify -----------------------------------------------------------------------

def test_verify_small_sweep(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["verify", "--seed", "42", "--count", "5", "--dims", "2,3",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["violation_count"] == 0
    assert summary["instance_count"] + summary["degenerate_count"] == 5 * len(
        sweep_plan(SweepConfig(seed=42, count=5, dims=(2, 3))))
    printed = json.loads(capsys.readouterr().out)
    assert printed["violation_count"] == 0
    csv_lines = (out / "instances.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("index,block_class,wwm_class,s_class,n,s,phi,v,p,q,d,xi")
    assert len(csv_lines) == 1 + summary["instance_count"]


def test_a_failing_unlisted_row_exits_1_and_shows_only_as_violations(tmp_path, monkeypatch):
    # d_ceiling (listed=None) gated at +1, which every instance fails: verify
    # exits 1 and names it in violations, while the rows, the counts and the
    # worst instance are those of the clean run.
    argv = ["verify", "--seed", "3", "--count", "2", "--dims", "2,3"]
    assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
    monkeypatch.setattr(sweep, "CHECKS", tuple(
        check._replace(threshold=1.0) if check.name == "d_ceiling" else check for check in sweep.CHECKS))
    assert main([*argv, "--out", str(tmp_path / "patched")]) == 1
    clean, patched = (json.loads((tmp_path / out / "summary.json").read_text(encoding="utf-8"))
                      for out in ("clean", "patched"))
    assert {v["check"] for v in patched["violations"]} == {"d_ceiling"}
    assert patched["violation_count"] == patched["instance_count"] == clean["instance_count"]
    for summary in (clean, patched):
        del summary["violations"], summary["violation_count"], summary["runtime_seconds"]
    assert patched == clean
    assert ((tmp_path / "clean" / "instances.csv").read_bytes()
            == (tmp_path / "patched" / "instances.csv").read_bytes())


def test_verify_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["verify", "--seed", "7", "--count", "4", "--dims", "2",
                     "--out", str(out)]) == 0
    assert (out1 / "instances.csv").read_bytes() == (out2 / "instances.csv").read_bytes()


def test_verify_class_selectors(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--seed", "1", "--count", "3", "--dims", "3",
                 "--classes", "pure,s_pure,unitary_pair", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["state_classes"] == [["pure", "s_pure"]]
    assert summary["config"]["block_classes"] == ["unitary_pair"]
    # dim 3 only: no stringency lane, no two-level checks
    assert summary["slack_checks"]["main"]["count"] == 0


def test_verify_rejects_bad_classes(capsys):
    assert main(["verify", "--classes", "bogus", "--count", "1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_verify_rejects_bad_dims(capsys):
    assert main(["verify", "--dims", "9", "--count", "1"]) == 2


def test_verify_rejects_non_integer_dims(capsys):
    for dims in ("2,x", "", "2,,3"):
        assert main(["verify", "--dims", dims, "--count", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_verify_rejects_out_of_range_seed(tmp_path, capsys):
    # 2**64 would alias seed 0 and -1 would alias 2**64 - 1 in the Philox key.
    for seed in (str(2 ** 64), "-1"):
        assert main(["verify", "--seed", seed, "--count", "1", "--dims", "2",
                     "--out", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "instances.csv").exists()


def test_repeated_main_calls_behave_alike(tmp_path, capsys):
    # The parser is built once per process; every call must still parse
    # afresh, with the defaults of its own subcommand.
    path = write_instance(tmp_path, InterferometerInstance(s=0.3, blocks=from_unitary_pair(I2, SX),
                                                           rho_d0=np.diag([0.6, 0.4]), phi=0.2))
    calls = [
        ["analyze", str(path)],
        ["verify", "--seed", "3", "--count", "2", "--dims", "2", "--out", str(tmp_path / "v")],
        ["analyze", str(tmp_path / "missing.json")],
        ["verify", "--dims", "2,x", "--count", "1"],
        ["verify", "--seed", "-1", "--count", "1"],
        ["figures", "--which", "fig4", "--out", str(tmp_path / "f")],
    ]
    parser_errors = [["verify", "--count", "many"], ["figures"], ["bogus"], []]

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, capsys.readouterr()))
        for argv in parser_errors:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            results.append((exc.value.code, capsys.readouterr()))
        # Timing aside, everything printed must repeat exactly.
        return [(code, [line for line in out.splitlines() if "runtime_seconds" not in line], err)
                for code, (out, err) in results]

    first = run_all()
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 2, 0, 2, 2, 2, 2]
    assert all(err.startswith(("error:", "usage:")) for code, _, err in first if code)
    assert run_all() == first
    assert cli.build_parser() is cli.build_parser()


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    assert main(["verify", "--count", "1", "--dims", "2", "--out", str(blocker)]) == 2


# --- figures -------------------------------------------------------------------------

# The figure files are byte-stable: any change to the closed forms' arithmetic
# or to the CSV formatting shows here (digests recorded with
# numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64).
FIG3_DIGEST = "235141e7a889c6e185b3cba827e4d3a2d5e670be2d5b729fb9154be719b8102d"
FIG4_DIGEST = "ff1edf13dcbce29b59238c67d490e2e2ff1a0aee360416b2075ad0647cec6877"


def test_figures_fig3(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figures", "--which", "fig3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"fig3 written to {out / 'fig3.csv'}\n"
        "max delta = 0.24998319 at s_d_norm = 0.71, p_q = 0.71\n")
    header = (out / "fig3.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "s_d_norm,p_q,delta"
    assert hashlib.sha256((out / "fig3.csv").read_bytes()).hexdigest() == FIG3_DIGEST


def test_figures_fig4(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figures", "--which", "fig4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"fig4 written to {out / 'fig4.csv'}\n"
    assert hashlib.sha256((out / "fig4.csv").read_bytes()).hexdigest() == FIG4_DIGEST
    lines = (out / "fig4.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "s_d_norm,v_d_sq,v_xi_sq,v_q_sq"
    assert len(lines) == 1 + 201
    xi_col = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.abs(xi_col - 0.25).max() <= 1e-10


def test_figures_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file", encoding="utf-8")
    assert main(["figures", "--which", "fig4", "--out", str(blocker)]) == 2


def in_process(argv: list) -> int:
    """``cli.main(argv)``, with the exit code of an ``argparse`` exit such as ``--help``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["verify", "--seed", "0", "--count", "1", "--dims", "2"],
    ["analyze", "instance.json"],
    ["figures", "--which", "fig4"],
], ids=lambda argv: argv[0])
def test_module_entry_point(argv, tmp_path, monkeypatch, capsys):
    # The child imports the package from where this process found it, so the
    # test also runs when only pytest's own path setting points at src.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "COLUMNS": "100"}  # one help width for the child and this process
    write_instance(tmp_path, generate_instance(0, 0, 2, "mixed", "s_pure", "general_unitary"))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "duality", *argv],
                          capture_output=True, text=True, encoding="utf-8", env=env, cwd=tmp_path)
    # Both runs write the same relative paths, so a printed path is the same too.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    code = in_process(argv)
    # stderr carries only diagnostics, and a clean run has none.
    assert (proc.returncode, proc.stderr) == (code, "") and code == 0

    def timeless(text):
        return re.sub(r'"runtime_seconds": [^,]*', '"runtime_seconds": ...', text)

    assert timeless(proc.stdout) == timeless(capsys.readouterr().out) != ""


# --- sweep machinery ------------------------------------------------------------------

def test_sweep_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=0)
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=1, dims=(1,))
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=1, state_classes=(("weird", "s_pure"),))


@pytest.mark.parametrize("field, value", [
    ("seed", 2 ** 64), ("seed", -1), ("seed", 1.0), ("seed", True), ("seed", "0"),
    ("count", 2.5), ("count", True), ("count", "3"),
])
def test_sweep_config_rejects_non_integer_or_aliased_values(field, value):
    args = {"seed": 0, "count": 1, field: value}
    with pytest.raises(ValidationError, match=field):
        SweepConfig(**args)


@pytest.mark.parametrize("dims", [(2.7, 3.9), (2, 3.0), (True,), ("2",), (np.float64(4),)])
def test_sweep_config_rejects_non_integer_dims(dims):
    # int() would truncate 2.7 to 2 and accept True as 1.
    with pytest.raises(ValidationError, match="dims"):
        SweepConfig(seed=0, count=1, dims=dims)


@pytest.mark.parametrize("field, value", [
    ("block_classes", ("bogus",)), ("block_classes", "unitary_pair"), ("block_classes", 5),
    ("state_classes", ("pure",)), ("state_classes", "pure"), ("state_classes", (("pure", []),)),
    ("dims", 5), ("dims", None),
])
def test_sweep_config_rejects_malformed_collections(field, value):
    # Each would otherwise surface as the ValueError or TypeError of the
    # lookup, unpacking or iteration that meets it.
    with pytest.raises(ValidationError, match=field):
        SweepConfig(seed=0, count=1, **{field: value})


@pytest.mark.parametrize("field", ["state_classes", "block_classes"])
def test_sweep_config_rejects_an_empty_class_list(field):
    with pytest.raises(ValidationError) as raised:
        SweepConfig(seed=0, count=1, **{field: ()})
    assert str(raised.value) == f"{field} must not be empty"


def test_sweep_config_accepts_numpy_integer_dims():
    assert SweepConfig(seed=0, count=1, dims=(np.int64(3), np.uint8(2))).dims == (2, 3)


@pytest.mark.parametrize("seed, stream, name", [
    (2 ** 64, 3, "seed"), (-1, 3, "seed"), (True, 3, "seed"), (0, -1, "stream"), (0, 2 ** 64, "stream"),
])
def test_generate_instance_rejects_out_of_range_keys(seed, stream, name):
    # Masked to 64 bits, seed 2**64 would replay seed 0.
    with pytest.raises(ValidationError, match=name):
        generate_instance(seed, stream, 2, "pure", "s_pure", "unitary_pair")


@pytest.mark.parametrize("dim, wwm_class, s_class, block_class, match", [
    (2, "bogus", "s_pure", "unitary_pair", "state class"),
    (2, "pure", "nonsense", "unitary_pair", "state class"),
    (2, "bogus", "nonsense", "unitary_pair", "state class"),
    (2, "pure", "s_pure", "bogus", "block class"),
    (2.5, "pure", "s_pure", "unitary_pair", "dim"),
    (True, "pure", "s_pure", "unitary_pair", "dim"),
    ("2", "pure", "s_pure", "unitary_pair", "dim"),
    (0, "pure", "s_pure", "unitary_pair", "dim"),
    (-3, "mixed", "s_mixed", "general_unitary", "dim"),
    (2, np.array([]), "s_pure", "unitary_pair", "class labels must be strings"),
    (1, "mixed", "s_pure", "unitary_pair", "mixed marker needs dim >= 2"),
    (1, "mixed", "s_mixed", "tilted_pair", "mixed marker needs dim >= 2"),
    # Above MAX_DIM: 9 generated an instance, 2**40 leaked numpy's "Maximum allowed dimension exceeded".
    (9, "pure", "s_pure", "unitary_pair", r"dim must be an integer in \[1, 8\]"),
    (np.int64(9), "mixed", "s_mixed", "general_unitary", "dim"),
    (2 ** 40, "pure", "s_pure", "unitary_pair", "dim"),
    (2 ** 64, "pure", "s_pure", "tilted_pair", "dim"),
])
def test_generate_instance_rejects_bad_labels(dim, wwm_class, s_class, block_class, match):
    # An unknown marker label used to yield a mixed marker and s_mixed, and a
    # non-integer dim a TypeError.
    with pytest.raises(ValidationError, match=match):
        generate_instance(0, 0, dim, wwm_class, s_class, block_class)


@pytest.mark.parametrize("block_class", ["unitary_pair", "general_unitary", "tilted_pair"])
def test_generate_instance_draws_a_pure_marker_at_dim_1(block_class):
    # A mixed marker draws its rank from [2, dim] and needs dim >= 2; a
    # pure one has rank one at every dim.
    inst = generate_instance(0, 3, 1, "pure", "s_pure", block_class)
    assert inst.n == 1 and abs(inst.rho_d0[0, 0] - 1.0) <= 1e-12


def test_generate_instance_accepts_numpy_integer_dims():
    inst = generate_instance(0, 0, np.int64(3), "mixed", "s_mixed", "tilted_pair")
    assert inst.to_dict() == generate_instance(0, 0, 3, "mixed", "s_mixed", "tilted_pair").to_dict()


def test_sweep_config_accepts_the_full_seed_range():
    for seed in (0, 2 ** 64 - 1, np.uint64(5)):
        cfg = SweepConfig(seed=seed, count=np.int64(1))
        assert type(cfg.seed) is int and type(cfg.count) is int
        json.dumps(cfg.to_dict())


def test_sweep_instances_replayable():
    inst1 = generate_instance(5, 17, 3, "mixed", "s_mixed", "general_unitary")
    inst2 = generate_instance(5, 17, 3, "mixed", "s_mixed", "general_unitary")
    assert inst1.s == inst2.s and inst1.phi == inst2.phi
    assert np.array_equal(inst1.rho_d0, inst2.rho_d0)
    assert np.array_equal(inst1.blocks.vpp, inst2.blocks.vpp)


def test_sweep_plan_includes_stringency_lane_only_with_dim_2():
    with_two = sweep_plan(SweepConfig(seed=0, count=1, dims=(2, 3)))
    without = sweep_plan(SweepConfig(seed=0, count=1, dims=(3,)))
    assert any(lane[0] == "tilted_pair" for lane in with_two)
    assert not any(lane[0] == "tilted_pair" for lane in without)


def test_run_sweep_summary_contents():
    summary, rows = run_sweep(SweepConfig(seed=3, count=6, dims=(2,)))
    assert len(summary.violations) == 0
    assert summary.instance_count == len(rows)
    assert summary.slack_checks["o2p"]["count"] == summary.instance_count
    assert summary.slack_checks["main"]["count"] > 0
    assert summary.deviation_checks["d_two_level"]["count"] == summary.instance_count
    assert summary.deviation_checks["chi_closed_form"]["worst"] <= 1e-9
    assert summary.worst_instance is not None
    data = summary.to_dict()
    assert json.dumps(data)  # serializable
    assert data["xi_minus_d_min"] is not None


def test_worst_instance_readable_during_and_after_a_sweep(monkeypatch):
    # 16 instances per chunk, so the 60 instances come in four chunks.
    monkeypatch.setattr(sweep, "_CHUNK_ENTRIES", 64)
    cfg = SweepConfig(seed=3, count=6, dims=(2,))
    summary = SweepSummary(config=cfg)
    smallest, chunks = math.inf, 0
    for chunk in iter_sweep(cfg, summary):
        chunks += 1
        for row in chunk.rows():
            smallest = min([smallest] + [v for k, v in row.items() if "slack" in k and v is not None])
        worst = summary.worst_instance
        assert worst["slack"] == smallest and worst["labels"]["index"] <= chunk.indices[-1]
        assert summary.worst_instance == worst
    assert chunks == 4
    assert summary.to_dict()["worst_instance"] == summary.worst_instance == worst
    labels = worst["labels"]
    inst = generate_instance(3, labels["index"], 2, labels["wwm_class"], labels["s_class"],
                             labels["block_class"])
    assert json.dumps(worst["instance"]) == json.dumps(inst.to_dict())


def csv_digest(tmp_path, cfg):
    path = tmp_path / "instances.csv"
    write_instances_csv(path, iter_sweep(cfg, SweepSummary(config=cfg)))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_sweep_csv_golden(tmp_path):
    # instances.csv is byte-stable: any change to the engine's arithmetic
    # shows here (digest recorded with numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64).
    assert csv_digest(tmp_path, SweepConfig(seed=0, count=4)) == (
        "a9fab8465f28712f9ae30a74a9706edb6737e411865a2f75867efc764d3b50d7")


@pytest.mark.parametrize("dims, count, digest", [
    # Digests recorded with numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64.
    # n = 8: numpy's pairwise summation switches to its unrolled order at
    # eight terms, so stacked and one-at-a-time reductions could part here.
    ((8,), 10, "e66a82cb87cb415e054aeb2ab03b3cbe135fe943f1ce98b53b85135585af8c1f"),
    ((5, 6, 7), 2, "e6d043aef308c1158f12dc5fd14809aa1488d2c3b5f3bbc23eb2814c8657f4be"),
])
def test_other_sizes_sweep_csv_golden(tmp_path, dims, count, digest):
    assert csv_digest(tmp_path, SweepConfig(seed=0, count=count, dims=dims)) == digest


@pytest.mark.parametrize("argv, digest", [
    # Recorded with numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64, a new Philox per
    # instance and one generator call per quantity; every line of summary.json
    # but runtime_seconds must keep its bytes.
    (["--seed", "0", "--count", "4"],
     "5fdce2062fff48dc19d028ffeb6e13a380f100883714d6096e7e80b56f0769a6"),
    (["--seed", "0", "--dims", "8", "--count", "10"],
     "13b746af6a1bd29e60aa247a9f88dd5e705ca79d0658d43be40f5f73e34b24ca"),
])
def test_summary_json_golden(tmp_path, capsys, argv, digest):
    assert summary_digest(tmp_path, capsys, argv, 0) == digest


def summary_digest(tmp_path, capsys, argv, code) -> str:
    """The digest of ``summary.json`` without its runtime line, after a verify
    run that exits ``code`` and prints the same text."""
    assert main(["verify", *argv, "--out", str(tmp_path)]) == code
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == text
    kept = "".join(line for line in text.splitlines(keepends=True) if '"runtime_seconds"' not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


def test_summary_json_golden_with_violations(tmp_path, capsys, fail_every_deviation_check):
    # Every deviation check fails, so the summary holds a record, with its
    # instance JSON, per violation at n = 2 and n = 8 (digest recorded with
    # numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64, and the json module as the encoder).
    fail_every_deviation_check()
    assert summary_digest(tmp_path, capsys, ["--seed", "0", "--count", "1", "--dims", "2,8"], 1) == (
        "9addade9a8628d448cd746ed6906455fc7a9dca4c3c79200e9c06ae211c58104")


# --- JSON output -----------------------------------------------------------------------

def round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def json_reference(obj) -> str:
    """What the CLI prints: json.dumps(indent=2) of every float rounded to 12 digits."""
    return json.dumps(round12(obj), indent=2) + "\n"


EDGE_FLOATS = (0.0, -0.0, 1.0, 12.0, math.nan, math.inf, -math.inf, 5e-324, 1e12, 999999999999.5,
               123456789012345.0, 1.5e15, 1e16, 1e-5, 1e308)


def test_json_text_of_edge_floats():
    values = [*EDGE_FLOATS, *(-x for x in EDGE_FLOATS)]
    # One shape at several nesting levels, as rows, columns and a matrix.
    for obj in (*values, values, {"x": values}, [{"y": [values]}], [[x, -x] for x in values],
                [[x] for x in values], [values, values], tuple(map(tuple, [values] * 3)),
                [np.float64(x) for x in values], {1: values[:2], 2.5: [], None: {}, False: (), -math.inf: 0}):
        assert cli._json_text(obj) == json_reference(obj)


json_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
json_scalars = st.none() | st.booleans() | st.integers() | json_floats | st.text()


def float_rows(width):
    row = st.lists(json_floats, min_size=width, max_size=width)
    return st.lists(row | row.map(tuple), min_size=1, max_size=4)


json_trees = st.recursive(
    json_scalars | st.lists(json_floats, max_size=5) | st.integers(1, 3).flatmap(float_rows),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_json_text_equals_the_json_module(obj):
    assert cli._json_text(obj) == json_reference(obj)


@pytest.mark.parametrize("obj", [
    np.bool_(True), np.int64(3), [1.0, np.float32(1.0)], 1j, b"bytes", {1, 2}, frozenset(), object(),
    {(1, 2): 1.0}, {np.int64(1): 1.0}, [1.0, {"a": [{2}]}],
])
def test_json_text_rejects_what_the_json_module_rejects(obj):
    with pytest.raises(TypeError):
        json_reference(obj)
    with pytest.raises(TypeError):
        cli._json_text(obj)


@pytest.mark.parametrize("cfg, failing", [
    # The golden summaries, then summaries with a violation record per failing check.
    (SweepConfig(seed=0, count=4), False),
    (SweepConfig(seed=0, count=10, dims=(8,)), False),
    (SweepConfig(seed=0, count=1, dims=(2, 8)), True),
    (SweepConfig(seed=9, count=8, dims=(2, 3, 8)), True),
])
def test_json_text_of_summaries(fail_every_deviation_check, cfg, failing):
    if failing:
        fail_every_deviation_check()
    summary, _ = run_sweep(cfg)
    assert (len(summary.violations) > 0) == failing
    data = summary.to_dict()
    assert cli._json_text(data) == json_reference(data)


def test_json_text_of_reports_and_instances():
    cfg = SweepConfig(seed=0, count=1, dims=tuple(range(2, 9)))
    for index, (block_class, wwm_class, s_class, dim) in enumerate(sweep_plan(cfg)):
        inst = generate_instance(0, index, dim, wwm_class, s_class, block_class)
        for data in (hierarchy_report(inst), inst.to_dict()):
            assert cli._json_text(data) == json_reference(data)
