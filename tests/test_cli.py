"""Command-line interface, exercised through real subprocesses."""

import json
import os
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "qmetric"]


def run(*args, **kw):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          **kw)


def test_help_and_missing_command():
    assert run("--help").returncode == 0
    bad = run("no-such-command")
    assert bad.returncode == 2


@pytest.mark.parametrize("args", [
    ("derive", "--order", "x"), ("derive", "--format", "xml"),
    ("derive", "--bogus"), ("no-such-command",), (),
    ("orbit", "--order", "3"), ("observables", "--order"),
])
def test_usage_errors_are_one_line(args):
    out = run(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("config error: ")


def test_derive_defaults():
    out = run("derive")
    assert out.returncode == 0
    assert "order 3 metric generator" in out.stdout
    assert "Q_1 =" in out.stdout and "Q_3 =" in out.stdout
    assert "Q_4" not in out.stdout


def test_derive_json_structure():
    out = run("derive", "--order", "2", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["order"] == 2
    assert set(doc["q"]) == {"1", "2"}
    assert doc["params"]["l1"] == "l1"


def test_derive_numeric_parameters():
    sym = run("derive", "--order", "1", "--format", "json")
    num = run("derive", "--order", "1", "--l1", "-3", "--k1", "1/2",
              "--format", "json")
    assert num.returncode == 0
    assert json.loads(num.stdout)["params"]["l1"] == "-3"
    assert json.loads(sym.stdout)["q"]["1"] != json.loads(num.stdout)["q"]["1"]


def test_order_out_of_range():
    out = run("derive", "--order", "9")
    assert out.returncode == 2
    assert "invalid choice: 9" in out.stderr


def test_derive_serves_order_eight():
    from qmetric.perturbation import MetricParams, derive_metric_series

    out = run("derive", "--order", "8", "--format", "json")
    assert out.returncode == 0
    q = json.loads(out.stdout)["q"]
    qs = derive_metric_series(MetricParams.formal(8))
    assert q == {str(j): str(qs.q(j)) for j in range(1, 9)}
    for command in ("observables", "classical"):
        out = run(command, "--order", "7")
        assert out.returncode == 2
        assert "invalid choice: 7 (choose from 1, 2, 3, 4, 5, 6)" in out.stderr


def test_bad_rational_flag():
    out = run("derive", "--l1", "abc")
    assert out.returncode == 2
    assert "not a rational" in out.stderr


@pytest.mark.parametrize("by_config", [False, True])
def test_underscored_rational_is_refused(tmp_path, by_config):
    # Fraction reads PEP 515 underscores ('1_0' as 10) only from Python
    # 3.11 on; every version must refuse them alike.
    if by_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l1": "1_0"}))
        out = run("derive", "--order", "3", "--config", str(cfg))
    else:
        out = run("derive", "--order", "3", "--l1=1_0")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "config error: --l1: '1_0' is not a rational number\n"


def test_out_file(tmp_path):
    dest = tmp_path / "q.txt"
    out = run("derive", "--order", "1", "--out", str(dest))
    assert out.returncode == 0
    assert out.stdout == ""
    assert "Q_1 =" in dest.read_text()


def test_verify_tables_byte_identical():
    a, b = run("verify-tables"), run("verify-tables")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert "0 failed" in a.stdout
    assert "12 flagged" in a.stdout
    assert any(line.startswith("FLAG ") for line in a.stdout.splitlines())
    assert not any(line.startswith("FAIL ") for line in a.stdout.splitlines())


def test_observables_output():
    out = run("observables", "--order", "2")
    assert out.returncode == 0
    assert "X[0] = (1)*x" in out.stdout
    assert "P[0] = (1)*p" in out.stdout
    assert "h[0] = (1/2)*p^2" in out.stdout
    assert "h[1]" not in out.stdout  # vanishing orders are skipped


def test_classical_text_and_json():
    txt = run("classical")
    assert txt.returncode == 0
    assert txt.stdout.strip() == "H_c = (1/2) m^-1 p^2 + (3/8) m eps^2 x^6 p^-2"
    js = run("classical", "--format", "json", "--mass", "2")
    assert js.returncode == 0
    doc = json.loads(js.stdout)
    assert doc["mass"] == "2"


def test_classical_rejects_order_three_mass_symbolics():
    # order must stay in range, rational mass enforced
    out = run("classical", "--mass", "x")
    assert out.returncode == 2


@pytest.mark.parametrize("order", ["5", "6"])
def test_classical_refuses_orders_with_negative_hbar_weight(order):
    out = run("classical", "--order", order)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("config error: --order: classical serves orders 1..4;")
    assert "negative hbar weight" in out.stderr


def test_orbit_csv(tmp_path):
    dest = tmp_path / "orbit.csv"
    out = run("orbit", "--dt", "0.01", "--out", str(dest))
    assert out.returncode == 0
    assert "period" in out.stdout
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,x,p,H"
    assert len(lines) > 100


def test_orbit_summary_to_stderr_without_out():
    out = run("orbit", "--dt", "0.01")
    assert out.returncode == 0
    assert out.stdout.startswith("t,x,p,H")
    assert "period" in out.stderr


def test_orbit_rejects_other_orders():
    out = run("orbit", "--order", "3")
    assert out.returncode == 2


def test_orbit_engine_error_is_exit_one():
    out = run("orbit", "--epsilon", "-1")
    assert out.returncode == 1
    assert "engine error" in out.stderr


def test_free_particle_defaults_and_flags():
    out = run("free-particle", "--k1", "9/4", "--l1", "9/16")
    assert out.returncode == 0
    assert "13/16" in out.stdout  # metric square root
    js = run("free-particle", "--k1", "9/4", "--l1", "9/16",
             "--format", "json")
    doc = json.loads(js.stdout)
    assert doc["localized_weights"] == ["13/9", "5/9"]


def test_free_particle_nonpositive_ratio():
    out = run("free-particle", "--k1", "-1")
    assert out.returncode == 2
    assert "not positive" in out.stderr


def test_free_particle_inexact_roots_are_noted():
    out = run("free-particle", "--k1", "2")
    assert out.returncode == 0
    assert "not an exact rational square" in out.stdout


def test_config_file_fills_unset_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 2, "l1": "5"}))
    out = run("derive", "--config", str(cfg), "--format", "json")
    doc = json.loads(out.stdout)
    assert doc["order"] == 2
    assert doc["params"]["l1"] == "5"


def test_flags_beat_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 2}))
    out = run("derive", "--config", str(cfg), "--order", "1",
              "--format", "json")
    assert json.loads(out.stdout)["order"] == 1


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"orderr": 2}))
    out = run("derive", "--config", str(cfg))
    assert out.returncode == 2
    assert "unknown option" in out.stderr


def test_config_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    out = run("derive", "--config", str(cfg))
    assert out.returncode == 2


@pytest.mark.parametrize("command,key,value", [
    ("derive", "order", 2.7), ("derive", "order", True),
    ("derive", "order", False), ("orbit", "periods", 1.5),
    ("orbit", "epsilon", True),
])
def test_config_rejects_lossy_numbers(tmp_path, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = run(command, "--config", str(cfg))
    assert out.returncode == 2
    assert f"bad value for {key!r}" in out.stderr
    assert "Traceback" not in out.stderr


def test_config_rejects_values_outside_choices(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    out = run("derive", "--config", str(cfg))
    assert out.returncode == 2
    assert out.stderr.startswith("config error: ")
    assert out.stdout == ""


def test_unwritable_out_is_exit_two(tmp_path):
    for args in (("derive", "--order", "1"), ("orbit", "--steps", "10")):
        out = run(*args, "--out", str(tmp_path / "no-dir" / "x.txt"))
        assert out.returncode == 2
        assert out.stderr.startswith("config error: --out: ")
        assert len(out.stderr.splitlines()) == 1


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this platform")


def _one_output_error(out, target):
    assert out.returncode == 2
    assert out.stderr.startswith(f"output error: {target}: ")
    assert len(out.stderr.splitlines()) == 1  # no traceback, no "Exception ignored"


@needs_dev_full
@pytest.mark.parametrize("args", [("orbit", "--periods", "2"),
                                  ("derive", "--order", "3")])
def test_failed_write_to_out_is_exit_two(args):
    _one_output_error(run(*args, "--out", "/dev/full"), "--out /dev/full")


@needs_dev_full
@pytest.mark.parametrize("args", [("verify-tables",),
                                  ("orbit", "--steps", "10", "--out", "{tmp}")])
def test_failed_write_to_stdout_is_exit_two(tmp_path, args):
    # with --out, orbit prints its summary on stdout
    args = [a.format(tmp=tmp_path / "orbit.csv") for a in args]
    with open("/dev/full", "w") as full:
        out = subprocess.run(CMD + args, stdout=full, stderr=subprocess.PIPE,
                             text=True)
    _one_output_error(out, "stdout")


# Buffered standard streams, as without PYTHONUNBUFFERED: a failed write
# leaves its rest buffered for the interpreter's flush at exit.
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@needs_dev_full
@pytest.mark.parametrize("args", [("--help",), ("derive", "--help")])
def test_failed_help_write_is_exit_two(args):
    with open("/dev/full", "w") as full:
        out = subprocess.run(CMD + list(args), stdout=full, stderr=subprocess.PIPE,
                             text=True, env=BUFFERED)
    _one_output_error(out, "stdout")


@needs_dev_full
@pytest.mark.parametrize("args, code", [
    (("derive", "--order", "9"), 2),                      # config error
    (("orbit", "--epsilon=nan", "--steps", "100"), 1),    # engine error
    (("verify-tables", "--out", "/dev/full"), 2),         # output error
])
def test_unwritable_stderr_keeps_exit_code(args, code):
    with open("/dev/full", "w") as full:
        out = subprocess.run(CMD + list(args), stdout=subprocess.PIPE, stderr=full,
                             text=True, env=BUFFERED)
    assert out.returncode == code
    assert out.stdout == ""


def test_closed_stdout_pipe_is_exit_two():
    # about 1 MB of CSV, far more than a pipe holds, so a write must fail
    proc = subprocess.Popen(CMD + ["orbit", "--periods", "2"], text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == "t,x,p,H\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=120)
    _one_output_error(subprocess.CompletedProcess(proc.args, proc.returncode,
                                                  None, err), "stdout")


def test_config_accepts_integral_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 2.0}))
    out = run("derive", "--config", str(cfg), "--format", "json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["order"] == 2


@pytest.mark.parametrize("flag", [
    "--epsilon=nan", "--dt=nan", "--init-x=inf", "--init-p=-inf",
    "--init-p=1e200", "--dt=1e300",
])
def test_orbit_bad_floats_are_engine_errors(flag):
    out = run("orbit", flag, "--steps", "1000")
    assert out.returncode == 1
    assert out.stderr.startswith("engine error: ")
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_orbit_step_budget_below_one(tmp_path, steps):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": int(steps)}))
    for args in (("--steps", steps), ("--config", str(cfg))):
        out = run("orbit", *args)
        assert out.returncode == 1
        assert out.stderr.startswith("engine error: ")
        assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, config", [
    (("derive", "--l1="), None),
    (("free-particle", "--k1="), None),
    (("derive", "--out="), None),
    (("derive", "--config="), None),
    (("derive",), {"l1": ""}),
    (("derive", "--order", "2"), {"order": True}),   # checked though overridden
    (("observables", "--format", "text"), {"format": "xml"}),
    (("derive", "--order", "2"), {"order": 9}),
    (("observables", "--order", "2"), {"order": 7}),
])
def test_empty_and_overridden_values_are_refused(tmp_path, args, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ("--config", str(cfg))
    out = run(*args)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("config error: ")


def test_config_equals_flags(tmp_path):
    cfg = tmp_path / "derive.json"
    cfg.write_text(json.dumps({"order": 4, "l1": "3/7", "k1": "-2/5"}))
    by_flags = run("derive", "--order", "4", "--l1=3/7", "--k1=-2/5",
                   "--format", "json")
    by_config = run("derive", "--config", str(cfg), "--format", "json")
    assert by_flags.returncode == 0 and by_config.returncode == 0
    assert by_config.stdout == by_flags.stdout

    cfg = tmp_path / "orbit.json"
    cfg.write_text(json.dumps({"periods": 2, "dt": 0.01,
                               "out": str(tmp_path / "config.csv")}))
    by_flags = run("orbit", "--periods", "2", "--dt", "0.01",
                   "--out", str(tmp_path / "flags.csv"))
    by_config = run("orbit", "--config", str(cfg))
    assert by_flags.returncode == 0 and by_config.returncode == 0
    assert by_config.stdout == by_flags.stdout
    assert ((tmp_path / "config.csv").read_bytes()
            == (tmp_path / "flags.csv").read_bytes())


@pytest.mark.parametrize("value", [None, True, [3], {"n": 3}])
def test_config_refuses_values_no_flag_can_give(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l1": value}))
    out = run("derive", "--config", str(cfg))
    assert out.returncode == 2
    assert out.stderr.startswith("config error: --config: bad value for 'l1': ")
    assert len(out.stderr.splitlines()) == 1
