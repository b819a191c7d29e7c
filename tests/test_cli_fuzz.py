"""Random command lines and --config files through ``cli.main``.

Whatever the input, the CLI must exit 0, 1 or 2 and never end in a
traceback.  Runs are kept short: orbit draws always end with
``--steps`` <= 1000 and ``--periods`` <= 2 (flags beat the config), and
--order values stay at 3 or below or out of range, since orders 4-6 are
valid but cost seconds each in ``observables``; ``classical`` also draws
4, 5 and 6, since it refuses 5 and 6 before deriving anything.  ``verify-tables`` takes
no options of its own and is covered by test_cli.py.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from qmetric.cli import main

ORDERS = ["-1", "0", "1", "2", "3", "9", "2.5", "x", ""]
RATS = st.one_of(
    st.sampled_from(["formal", "3/4", "-3", "1/0", "0", "1", "2", "9/4", "nan",
                     "1e3", "abc", ""]),
    st.fractions(-10, 10, max_denominator=50).map(str))
FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e-300", "0", "x", ""]),
    st.floats().map(repr))
FORMATS = st.sampled_from(["text", "json", "xml", ""])
PARAMS = {f"{k}{j}": RATS for k in "lk" for j in (1, 2, 3)}

OPTIONS = {
    "derive": {"order": st.sampled_from(ORDERS), "format": FORMATS, **PARAMS},
    "observables": {"order": st.sampled_from(ORDERS), "format": FORMATS, **PARAMS},
    "classical": {"order": st.sampled_from(ORDERS + ["4", "5", "6"]), "mass": RATS,
                  "format": FORMATS},
    "orbit": {"order": st.sampled_from(ORDERS), "mass": RATS, "epsilon": FLOATS,
              "init-x": FLOATS, "init-p": FLOATS, "dt": FLOATS},
    "free-particle": {"l1": RATS, "k1": RATS, "format": FORMATS},
}

JSON_ORDERS = st.sampled_from([-1, 0, 1, 2, 3, 9, 2.5, 2.0, True, "3", None])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(),
    st.text(max_size=5), st.lists(st.integers(-3, 3), max_size=2))


@st.composite
def configs(draw, command):
    names = sorted(OPTIONS[command]) + ["steps", "periods", "bogus"]
    keys = draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
    doc = {k.replace("-", "_"): draw(JSON_ORDERS if k == "order" else JSON_VALUES)
           for k in keys}
    return draw(st.one_of(st.just(doc), JSON_VALUES))


@st.composite
def command_lines(draw, workdir):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    names = draw(st.lists(st.sampled_from(sorted(OPTIONS[command])),
                          max_size=4, unique=True))
    for name in names:
        argv += [f"--{name}", draw(OPTIONS[command][name])]
    if draw(st.booleans()):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps(draw(configs(command))))
        argv += ["--config", str(cfg)]
    if draw(st.booleans()):
        argv += ["--out", str(workdir / draw(st.sampled_from(
            ["out.txt", "no-dir/out.txt"])))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=4)))
    if command == "orbit":
        argv += ["--steps", str(draw(st.integers(-5, 1000))),
                 "--periods", str(draw(st.integers(-2, 2)))]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_any_command_line_exits_cleanly(workdir):
    @settings(max_examples=60, deadline=None)
    @given(command_lines(workdir))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
