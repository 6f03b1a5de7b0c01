import numpy as np
import pytest

from helmrecon import ConfigurationError, Grid, build_boundary_weights, cli, load_dtn
from helmrecon import constants as con
from helmrecon import forward
from helmrecon.cli import main
from helmrecon.config import load_config
from helmrecon.domain import make_uniform_partition
from helmrecon.textio import load_bundle, load_pwc_field, pwc_file_header

BASE = """\
[grid]
m = 17

[problem]
omega2 = 1.0
b1 = 1.0
b2 = 2.0

[truth]
k = 1
values = 1.5

[schedule]
levels = 1

[bundle]
mode = analytic
lhat0 = 1.0
l0 = 0.001
k = 0.0001
eps = 0.1

[run]
max_iter = 20
seed = 7
discrepancy_threshold = 1e-8
eta_override = 0.0
"""


def write_config(tmp_path, text=BASE, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_forward_writes_dtn_header(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "dtn.txt").read_text()
    assert text.startswith("dtn 64 1.0\n")
    # every file forward writes has a reader: the weights are rebuilt from the grid
    assert sorted(p.name for p in out.iterdir()) == ["config.ini", "dtn.txt", "truth_field.txt"]


def test_forward_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["forward", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["forward", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "dtn.txt").read_bytes() == (out2 / "dtn.txt").read_bytes()


def test_forbidden_band_exits_2(tmp_path):
    bad = BASE.replace("omega2 = 1.0", f"omega2 = {2 * np.pi ** 2 / 2.0}")
    cfg = write_config(tmp_path, bad)
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_missing_truth_file_exits_3(tmp_path):
    text = BASE.replace("k = 1\nvalues = 1.5", "file = /nonexistent/field.txt")
    cfg = write_config(tmp_path, text)
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 3


def test_empty_schedule_exits_64(tmp_path):
    text = BASE.replace("levels = 1", "levels =")
    cfg = write_config(tmp_path, text)
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x")]) == 64


def test_unknown_subcommand_exits_64(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code == 64


def test_override_level_check_is_a_reconstruct_option(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--override-level-check"])
    assert exc.value.code == 64


def test_config_bundle_echoes_analytic_inputs(tmp_path):
    text = BASE.replace("lhat0 = 1.0\nl0 = 0.001\nk = 0.0001", "lhat0 = 2.0\nl0 = 3.0\nk = 0.4")
    b = load_config(write_config(tmp_path, text)).bundle()
    assert (b.df_bound0, b.df_lip0, b.stab_k) == (2.0, 3.0, 0.4)
    assert b.calibration == "analytic"


@pytest.mark.parametrize("old, new", [("lhat0 = 1.0\n", ""), ("l0 = 0.001", "l0 = -1")],
                         ids=["no_lhat0", "negative_l0"])
def test_bad_analytic_bundle_exits_64_before_any_solve(tmp_path, monkeypatch, old, new):
    calls = []
    monkeypatch.setattr(cli, "dtn_for_field", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, BASE.replace(old, new))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x")]) == 64
    assert calls == []


def test_reconstruct_exactly_representable_truth_stops_at_once(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "level0.csv").read_text().splitlines()
    assert lines[0] == "k,r_k,t_k,u_k,mu_k,bregman_opt"
    assert len(lines) - 1 <= 2  # K_0 = 0 or 1
    meta = (out / "run_metadata.txt").read_text()
    assert "stop_reasons = discrepancy" in meta
    assert (out / "final_field.txt").read_text().startswith("pwc 1 0\n")


def test_reconstruct_two_levels_and_determinism(tmp_path):
    text = BASE.replace("k = 1\nvalues = 1.5", "k = 2\nvalues = 1.8 1.8 1.3 1.3")
    text = text.replace("levels = 1", "levels = 1 4")
    text = text.replace("omega2 = 1.0", "omega2 = 5.0")
    text = text.replace("l0 = 0.001", "l0 = 600.0")
    cfg = write_config(tmp_path, text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["reconstruct", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("level0.csv", "level1.csv", "final_field.txt", "run_metadata.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = (out1 / "run_metadata.txt").read_text()
    rel = float(next(line.split("=")[1] for line in meta.splitlines()
                     if line.startswith("relative_error_vs_truth")))
    assert rel <= 1e-3


def test_verify_command_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "verify_summary.txt").read_text()
    assert summary.startswith("passed = 1")
    report = (out / "verify_report.csv").read_text().splitlines()
    assert report[0] == "check,passed,detail"
    assert all(line.split(",")[1] == "1" for line in report[1:])


def test_constants_command_tables(tmp_path):
    text = BASE.replace("k = 0.0001", "k = 0.05")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "c"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "rho_vs_omega.csv").read_text().splitlines()
    assert rows[0] == "omega2,rho,rho_floor,note"
    rhos = [float(r.split(",")[1]) for r in rows[1:] if r.split(",")[1]]
    assert len(rhos) >= 3
    assert all(b > a for a, b in zip(rhos, rhos[1:]))  # rho grows as omega^2 shrinks
    nmax = (out / "nmax.txt").read_text()
    assert "status = unbounded" in nmax  # phi defaults to the zero model


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_constants_refuses_a_target_rho_that_is_not_positive(tmp_path, value):
    # nan and inf ran 200 halvings before exiting 64; 0 and -1 exited 0 with the
    # bundle's omega2 as omega2_for_target
    cfg = write_config(tmp_path, BASE + f"target_rho = {value}\n")
    out = tmp_path / "c"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 64
    assert not (out / "rho_vs_omega.csv").exists()


def test_constants_with_a_huge_analytic_bundle_exits_without_a_traceback(tmp_path):
    # (curvature * df_bound)^2 overflows a float: the floor reads 0, and no
    # radius reaches the target, a configuration error (exit 64, no table
    # written); never an OverflowError traceback (exit 1)
    cfg = write_config(tmp_path, BASE.replace("lhat0 = 1.0", "lhat0 = 1e300"))
    out = tmp_path / "c"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 64
    assert not (out / "rho_vs_omega.csv").exists()
    rows = con.rho_vs_omega(load_config(cfg).bundle(), 1, [0.5 ** i for i in range(12)])
    assert [(r.rho, r.rho_floor) for r in rows] == [(0.0, 0.0)] * 12


def test_constants_with_an_unreachable_target_rho_writes_no_table(tmp_path):
    # a finite target no frequency reaches fails after 200 halvings, before
    # either file is written: no half-written run directory
    text = BASE.replace("m = 17", "m = 9").replace("k = 0.0001", "k = 0.05")
    cfg = write_config(tmp_path, text + "target_rho = 1e300\n")
    out = tmp_path / "c"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 64
    assert not (out / "rho_vs_omega.csv").exists()
    assert not (out / "nmax.txt").exists()


def test_relative_truth_file_is_read_beside_its_config(tmp_path, monkeypatch):
    # run from the parent directory, which holds a decoy truth.txt
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "truth.txt").write_text("pwc 1 0\n0 1.1\n")
    (tmp_path / "truth.txt").write_text("pwc 1 0\n0 1.8\n")
    write_config(tmp_path / "sub", BASE.replace("k = 1\nvalues = 1.5", "file = truth.txt"),
                 name="exp.ini")
    monkeypatch.chdir(tmp_path)
    assert load_config("sub/exp.ini").truth_field().coeffs.tolist() == [1.1]
    assert main(["forward", "--config", "sub/exp.ini", "--out", "run"]) == 0
    assert (tmp_path / "run" / "truth_field.txt").read_text().splitlines()[1:] == ["0 1.1"]
    # an absolute path is taken as it is
    text = BASE.replace("k = 1\nvalues = 1.5", f"file = {tmp_path / 'truth.txt'}")
    write_config(tmp_path / "sub", text, name="abs.ini")
    assert load_config("sub/abs.ini").truth_field().coeffs.tolist() == [1.8]


def test_calibrate_command_writes_bundle(tmp_path):
    text = BASE.replace("mode = analytic", "mode = calibrate")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "cal"
    assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
    bundle_text = (out / "bundle.txt").read_text()
    assert "df_bound0 = " in bundle_text
    assert "calibration = empirical" in bundle_text


@pytest.mark.parametrize("command", ["calibrate", "reconstruct"])
def test_calibrate_mode_refuses_bad_exponent_before_any_operator(tmp_path, monkeypatch,
                                                                 command):
    # the exit was 64 already, but only after the whole calibration had run
    built = []
    init = forward.HelmholtzOperator.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(forward.HelmholtzOperator, "__init__", counted_init)
    text = BASE.replace("mode = analytic", "mode = calibrate\nn_exponent = 2")
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "cal")]) == 64
    assert built == []


# A malformed truth file is a configuration error: exit 64, never a traceback.
BAD_TRUTH = {
    "non_numeric": "pwc 1 0\n0 abc\n",
    "ragged": "pwc 1 0\n0 1.5 1.6\n",
    "truncated": "pwc 4 0\n0 1.5\n1 1.5\n",
    "out_of_range": "pwc 4 0\n0 1.5\n1 1.5\n2 1.5\n-1 1.5\n",  # -1 must not wrap to 3
    "repeated": "pwc 4 0\n0 1.5\n1 1.5\n1 1.6\n3 1.5\n",
    "non_finite": "pwc 1 0\n0 nan\n",
    "negative_count": "pwc -4 0\n",
    "huge_count": "pwc 100000000000000000000 0\n",
    "not_utf8": "pwc 1 0\n0 1.5\xe9\n",  # a lone latin-1 byte raised UnicodeDecodeError
}


@pytest.mark.parametrize("case", sorted(BAD_TRUTH))
def test_malformed_truth_file_exits_64(tmp_path, case):
    truth = tmp_path / "truth.txt"
    truth.write_bytes(BAD_TRUTH[case].encode("latin-1"))
    text = BASE.replace("k = 1\nvalues = 1.5", f"file = {truth}")
    cfg = write_config(tmp_path, text)
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize("load", [
    pwc_file_header,
    lambda path: load_pwc_field(path, make_uniform_partition(Grid(9), 1), (1.0, 2.0)),
    lambda path: load_dtn(path, build_boundary_weights(Grid(3))),
    load_bundle,
], ids=["pwc_file_header", "load_pwc_field", "load_dtn", "load_bundle"])
def test_loaders_refuse_bytes_that_are_not_utf8(tmp_path, load):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xe9\n")
    with pytest.raises(ConfigurationError, match="utf-8"):
        load(path)


def test_config_keeps_the_partitions_and_field_it_checks(tmp_path):
    text = BASE.replace("k = 1\nvalues = 1.5", "k = 2\nvalues = 1.8 1.8 1.3 1.3")
    cfg = load_config(write_config(tmp_path, text.replace("levels = 1", "levels = 1 4 16")))
    assert [(p.n_regions, p.level) for p in cfg.schedule] == [(1, 0), (4, 1), (16, 2)]
    assert cfg.truth_field() is cfg.truth
    assert cfg.truth.coeffs.tolist() == [1.8, 1.8, 1.3, 1.3]


def test_non_finite_truth_value_exits_64(tmp_path):
    cfg = write_config(tmp_path, BASE.replace("values = 1.5", "values = nan"))
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize("value", ["2.5", "0.5"])
def test_truth_value_outside_the_box_exits_64(tmp_path, monkeypatch, value):
    # the frequency guard certifies the box [b1, b2], not a field outside it
    calls = []
    monkeypatch.setattr(cli, "dtn_for_field", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, BASE.replace("values = 1.5", f"values = {value}"))
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "x")]) == 64
    truth = tmp_path / "truth.txt"
    truth.write_text(f"pwc 1 0\n0 {value}\n")
    cfg = write_config(tmp_path, BASE.replace("k = 1\nvalues = 1.5", f"file = {truth}"))
    assert main(["forward", "--config", cfg, "--out", str(tmp_path / "y")]) == 64
    assert calls == []


@pytest.mark.parametrize("old, new", [
    ("values = 1.5", "values = 1.5x"),
    ("levels = 1", "levels = one"),
    ("max_iter = 20", "max_iter = many"),
    ("max_iter = 20", "max_iter = inf"),
    ("seed = 7", "seed = 1e400"),
    ("levels = 1", "levels = 100000000000000000000"),
    ("lhat0 = 1.0", "lhat0 = nan"),
    ("l0 = 0.001", "l0 = inf"),
    ("k = 0.0001", "k = nan"),
    ("eps = 0.1", "eps = nan"),
])
def test_non_numeric_config_value_exits_64(tmp_path, old, new):
    cfg = write_config(tmp_path, BASE.replace(old, new))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize("content", [
    b"m = 17\n",
    BASE.replace("m = 17\n", "m = 17\nm = 33\n").encode(),
    BASE.replace("m = 17", "m = 17 # \xe9").encode("latin-1"),
], ids=["no_section_header", "duplicate_key", "not_utf8"])
def test_unparseable_config_exits_64(tmp_path, content):
    path = tmp_path / "config.ini"
    path.write_bytes(content)
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "x")]) == 64


@pytest.mark.parametrize("old, new", [
    ("eta_override = 0.0", "eta_override = nan"),   # printed "exit error bound=nan"
    ("eta_override = 0.0", "eta_override = -1"),    # printed a negative bound
    ("discrepancy_threshold = 1e-8", "discrepancy_threshold = nan"),  # stop never fired
    ("discrepancy_threshold = 1e-8", "discrepancy_threshold = -1"),   # nor did this one
    ("max_iter = 20", "max_iter = 2.7"),            # truncated to 2
    ("max_iter = 20", "max_iter = -1"),
    ("seed = 7", "seed = 1.5"),                     # truncated to 1
])
def test_invalid_run_value_exits_64(tmp_path, monkeypatch, old, new):
    # refused while loading the config, before the forward data are computed
    calls = []
    monkeypatch.setattr(cli, "dtn_for_field", lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path, BASE.replace(old, new))
    assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x")]) == 64
    assert calls == []


CALIBRATE = BASE.replace("mode = analytic", "mode = calibrate\nseed = -3")


@pytest.mark.parametrize("command, text, extra", [
    ("verify", BASE.replace("seed = 7", "seed = -1"), []),
    ("verify", BASE, ["--seed", "-5"]),
    ("calibrate", CALIBRATE, []),
    ("reconstruct", CALIBRATE, []),
], ids=["run_seed", "seed_option", "calibrate_bundle_seed", "reconstruct_bundle_seed"])
def test_negative_seed_exits_64(tmp_path, command, text, extra):
    # np.random.default_rng raised ValueError for these, which exited 1
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")] + extra) == 64


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_exits_64(tmp_path, capsys, trials):
    # no trial would print "alessandrini_identity: pass (max relative defect 0.000e+00)"
    cfg = write_config(tmp_path, BASE + f"trials = {trials}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 64
    assert "alessandrini_identity" not in capsys.readouterr().out
