import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from numpy.linalg import LinAlgError

from duality import cli
from duality.cli import main
from duality.errors import ValidationError
from duality.interferometer import InterferometerInstance, from_tilted_pair, from_unitary_pair
from duality.sweep import SweepConfig, generate_instance, run_sweep, sweep_plan, write_instances_csv

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


def test_analyze_invalid_instance_exits_2(tmp_path, capsys):
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex))
    data = inst.to_dict()
    data["s"] = 7.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2


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


def test_analyze_linalg_error_exits_2(tmp_path, capsys, monkeypatch):
    def fail(inst):
        raise LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "hierarchy_report", fail)
    inst = InterferometerInstance(s=0.0, blocks=from_unitary_pair(I2, I2),
                                  rho_d0=np.diag([0.5, 0.5]).astype(complex))
    assert main(["analyze", str(write_instance(tmp_path, inst))]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["violation_count"] == 0
    assert summary["instance_count"] + summary["degenerate_count"] == 5 * len(
        sweep_plan(SweepConfig(seed=42, count=5, dims=(2, 3))))
    printed = json.loads(capsys.readouterr().out)
    assert printed["violation_count"] == 0
    csv_lines = (out / "instances.csv").read_text().splitlines()
    assert csv_lines[0].startswith("index,block_class,wwm_class,s_class,n,s,phi,v,p,q,d,xi")
    assert len(csv_lines) == 1 + summary["instance_count"]


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
    summary = json.loads((out / "summary.json").read_text())
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


def test_verify_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    assert main(["verify", "--count", "1", "--dims", "2", "--out", str(blocker)]) == 2


# --- figures -------------------------------------------------------------------------

def test_figures_fig3(tmp_path, capsys):
    out = tmp_path / "figs"
    assert main(["figures", "--which", "fig3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "max delta" in stdout
    assert "0.2499" in stdout
    header = (out / "fig3.csv").read_text().splitlines()[0]
    assert header == "s_d_norm,p_q,delta"


def test_figures_fig4(tmp_path):
    out = tmp_path / "figs"
    assert main(["figures", "--which", "fig4", "--out", str(out)]) == 0
    lines = (out / "fig4.csv").read_text().splitlines()
    assert lines[0] == "s_d_norm,v_d_sq,v_xi_sq,v_q_sq"
    assert len(lines) == 1 + 201
    xi_col = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.abs(xi_col - 0.25).max() <= 1e-10


def test_figures_unwritable_out_exits_2(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file", encoding="utf-8")
    assert main(["figures", "--which", "fig4", "--out", str(blocker)]) == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "duality", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "verify" in proc.stdout and "figures" in proc.stdout


# --- sweep machinery ------------------------------------------------------------------

def test_sweep_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=0)
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=1, dims=(1,))
    with pytest.raises(ValidationError):
        SweepConfig(seed=0, count=1, state_classes=(("weird", "s_pure"),))


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
    assert summary.violation_count == 0
    assert summary.instance_count == len(rows)
    assert summary.slack_checks["o2p"].count == summary.instance_count
    assert summary.slack_checks["main"].count > 0
    assert summary.deviation_checks["d_two_level"].count == summary.instance_count
    assert summary.deviation_checks["chi_closed_form"].worst <= 1e-9
    assert summary.worst_instance is not None
    data = summary.to_dict()
    assert json.dumps(data)  # serializable
    assert data["xi_minus_d_min"] is not None


def test_default_sweep_csv_golden(tmp_path):
    # instances.csv is byte-stable: any change to the engine's arithmetic
    # shows here (digest recorded with numpy 2.4 on x86-64).
    _, rows = run_sweep(SweepConfig(seed=0, count=4))
    path = tmp_path / "instances.csv"
    write_instances_csv(path, rows)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a9fab8465f28712f9ae30a74a9706edb6737e411865a2f75867efc764d3b50d7")
