"""Golden bytes of every text file the library and the CLI write.

Each writer gets a small fixed input, and its file is compared byte for byte
with a literal. A change of format (a digit, a separator, a line ending) fails
here, where a round trip through the matching loader would still pass.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from helmrecon import Grid, PwcField, build_boundary_weights, cli, make_uniform_partition
from helmrecon.constants import CompressionModel, ConstantsBundle, NMaxResult, RhoPoint
from helmrecon.forward import DtnMatrix
from helmrecon.optimizer import MultilevelResult
from helmrecon.textio import save_bundle, save_dtn, save_field, write_rho_table, write_run_log, \
    write_run_metadata

BUNDLE = ConstantsBundle(df_bound0=0.1, df_lip0=1e-3, stab_k=1e-4, b1=1.0, b2=2.0, omega2=5.0,
                         eps=0.1, phi=CompressionModel.power_law(0.5, 1.5), n_exponent=4 / 7,
                         calibration="empirical")


def written(write, tmp_path, *args, **kwargs) -> bytes:
    path = tmp_path / "out.txt"
    write(path, *args, **kwargs)
    return path.read_bytes()


def test_save_field_pwc(tmp_path):
    field = PwcField(make_uniform_partition(Grid(5), 2, level=1), [1.0, 1.1, 4 / 3, 2.0],
                     (1.0, 2.0))
    assert written(save_field, tmp_path, field) == (
        b"pwc 4 1\n"
        b"0 1.0\n"
        b"1 1.1\n"
        b"2 1.3333333333333333\n"
        b"3 2.0\n"
    )


def test_save_dtn(tmp_path):
    lam = np.subtract.outer(np.arange(8), np.arange(8)) / 4.0
    lam[0, 0], lam[7, 7] = 0.1, 1 / 3
    dtn = DtnMatrix(lam=lam, weights=build_boundary_weights(Grid(3)), omega2=2.5)
    assert written(save_dtn, tmp_path, dtn) == (
        b"dtn 8 2.5\n"
        b"0.1 -0.25 -0.5 -0.75 -1.0 -1.25 -1.5 -1.75\n"
        b"0.25 0.0 -0.25 -0.5 -0.75 -1.0 -1.25 -1.5\n"
        b"0.5 0.25 0.0 -0.25 -0.5 -0.75 -1.0 -1.25\n"
        b"0.75 0.5 0.25 0.0 -0.25 -0.5 -0.75 -1.0\n"
        b"1.0 0.75 0.5 0.25 0.0 -0.25 -0.5 -0.75\n"
        b"1.25 1.0 0.75 0.5 0.25 0.0 -0.25 -0.5\n"
        b"1.5 1.25 1.0 0.75 0.5 0.25 0.0 -0.25\n"
        b"1.75 1.5 1.25 1.0 0.75 0.5 0.25 0.3333333333333333\n"
    )


def test_save_bundle(tmp_path):
    assert written(save_bundle, tmp_path, BUNDLE) == (
        b"df_bound0 = 0.1\n"
        b"df_lip0 = 0.001\n"
        b"stab_k = 0.0001\n"
        b"b1 = 1.0\n"
        b"b2 = 2.0\n"
        b"omega2 = 5.0\n"
        b"eps = 0.1\n"
        b"phi_c = 0.5\n"
        b"phi_beta = 1.5\n"
        b"n_exponent = 0.5714285714285714\n"
        b"calibration = empirical\n"
    )


def test_write_rho_table(tmp_path):
    rows = [RhoPoint(5.0, 0.1, 1 / 3, ""), RhoPoint(2.5, None, None, "skipped: x > 1"),
            RhoPoint(1e-300, 12.5, 0.0, "")]
    assert written(write_rho_table, tmp_path, rows) == (
        b"omega2,rho,rho_floor,note\n"
        b"5,0.10000000000000001,0.33333333333333331,\n"
        b"2.5,,,skipped: x > 1\n"
        b"1e-300,12.5,0,\n"
    )


def test_write_run_log(tmp_path):
    history = {"k": np.arange(3), "r": np.array([0.1, 1e-17, 123456789.123]),
               "t": np.array([2.0, 1 / 3, 0.5]), "u": np.array([-0.25, 0.0, 7e300]),
               "mu": np.array([1.0, 2.0, 3.0]), "bregman": np.array([0.5, np.nan, 1 / 7])}
    assert written(write_run_log, tmp_path, SimpleNamespace(history=history)) == (
        b"k,r_k,t_k,u_k,mu_k,bregman_opt\n"
        b"0,0.10000000000000001,2,-0.25,1,0.5\n"
        b"1,1.0000000000000001e-17,0.33333333333333331,0,2,\n"
        b"2,123456789.123,0.5,6.9999999999999998e+300,3,0.14285714285714285\n"
    )


def test_write_run_metadata(tmp_path):
    runs = [SimpleNamespace(partition=SimpleNamespace(n_regions=n), stop_reason=s, k_stop=k)
            for n, s, k in ((1, "max_iter", 2), (4, "discrepancy", 7))]
    result = MultilevelResult(runs=runs, final=None, error_bound=0.1 + 0.2,
                              warnings=["level 0: cap"])
    extra = {"relative_error_vs_truth": "0.125"}
    assert written(write_run_metadata, tmp_path, result, BUNDLE, extra=extra) == (
        b"levels = 2\n"
        b"schedule = 1 4\n"
        b"stop_reasons = max_iter discrepancy\n"
        b"stop_indices = 2 7\n"
        b"error_bound = 0.30000000000000004\n"
        b"omega2 = 5.0\n"
        b"eps = 0.1\n"
        b"calibration = empirical\n"
        b"warnings = 1\n"
        b"warning_0 = level 0: cap\n"
        b"relative_error_vs_truth = 0.125\n"
    )


CONFIG = """\
[grid]
m = 9
[problem]
omega2 = 1.0
b1 = 1.0
b2 = 2.0
[truth]
k = 1
values = 1.5
[schedule]
levels = 1 4
[bundle]
lhat0 = 1.0
l0 = 0.001
k = 0.0001
eps = 0.1
[run]
target_rho = 0.5
"""


def run_cli(tmp_path, command) -> tuple[int, object]:
    config = tmp_path / "config.ini"
    config.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    status = cli.main([command, "--config", str(config), "--out", str(out)])
    assert (out / "config.ini").read_bytes() == CONFIG.encode()
    return status, out


@pytest.mark.parametrize("nmax, line", [
    (NMaxResult(status="bounded", n_max=12, cap=1e9), b"n_max = 12\n"),
    (NMaxResult(status="unbounded", n_max=None, cap=1e9), b"n_max = \n"),
], ids=["bounded", "unbounded"])
def test_cli_nmax(tmp_path, monkeypatch, nmax, line):
    monkeypatch.setattr(cli.con, "rho_vs_omega", lambda *args: [RhoPoint(1.0, 0.5, 0.25, "")])
    monkeypatch.setattr(cli.con, "find_omega_for_rho", lambda *args: (0.3125, 2 / 3))
    monkeypatch.setattr(cli.con, "solve_n_max", lambda bundle: nmax)
    status, out = run_cli(tmp_path, "constants")
    assert status == 0
    assert (out / "rho_vs_omega.csv").read_bytes() == b"omega2,rho,rho_floor,note\n1,0.5,0.25,\n"
    assert (out / "nmax.txt").read_bytes() == (
        b"status = " + nmax.status.encode() + b"\n"
        + line
        + b"scan_cap = 1000000000\n"
        b"target_rho = 0.5\n"
        b"omega2_for_target = 0.3125\n"
        b"rho_at_target = 0.66666666666666663\n"
    )


def test_cli_verify_report(tmp_path, monkeypatch):
    # w_plus w_minus / h_b^2 is exactly the identity, so the inverse defect is 0
    weights = SimpleNamespace(nb=8, h_b=0.5, w_plus=np.eye(8) / 2, w_minus=np.eye(8) / 2)
    monkeypatch.setattr(cli, "build_boundary_weights", lambda grid: weights)
    monkeypatch.setattr(cli.ver, "audit_alessandrini", lambda *args, **kwargs: 2.5e-13)
    monkeypatch.setattr(cli.ver, "gradient_check", lambda *args, **kwargs: [
        SimpleNamespace(passed=True, slope=1.999), SimpleNamespace(passed=False, slope=0.5)])
    status, out = run_cli(tmp_path, "verify")
    assert status == 1
    assert (out / "verify_report.csv").read_bytes() == (
        b"check,passed,detail\n"
        b"alessandrini_identity,1,max relative defect 2.500e-13\n"
        b"gradient_check,0,worst slope 0.500\n"
        b"boundary_weights_inverse,1,defect 0.000e+00\n"
    )
    assert (out / "verify_summary.txt").read_bytes() == (
        b"passed = 0\n"
        b"alessandrini_identity = pass (max relative defect 2.500e-13)\n"
        b"gradient_check = FAIL (worst slope 0.500)\n"
        b"boundary_weights_inverse = pass (defect 0.000e+00)\n"
    )
