import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachkit.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    build_parser,
    parse_fn,
    run,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# argv pieces for the fuzz: a flag left out (None), a valid value or any
# Unicode text, with numbers kept small so that every run is short
TEXT = st.text(max_size=8)
NOT_A_NUMBER = TEXT.filter(lambda t: not (t.isascii() and t.isdigit()))


def one_of(*valid, text=TEXT):
    return st.none() | st.sampled_from(valid) | text


COUNT = one_of("0", "1", "3", "-1", text=NOT_A_NUMBER)
LEVEL = one_of("0", "2", text=NOT_A_NUMBER)
SEQ = one_of("1,0;1", ";0", ";1", "1,1,0;0")
FN = one_of("identity", "succ", "double", "const:1", "1,0;1")
POINT = one_of("1/2^1", "3/2^2", "1", "1,0;1", ";0")
PROMISE = one_of("no-zero", "all-zero")

# subcommand -> its positional (no dashes) and flags, with the values to
# draw; True is a switch that is on
CLI_ARGS = {
    "oracle": [("--op", one_of("lpo", "mu0", "mu", "llpomin")), ("--seq", SEQ),
               ("--promise", PROMISE), ("--fuel", COUNT), ("--format", one_of("json", "text"))],
    "range": [("action", one_of("verify", "translate", "bounding")), ("--f", FN), ("--aux", FN),
              ("--kind", one_of("rho", "beta")), ("--dir", one_of("beta-to-rho", "rho-to-beta")),
              ("--n-max", COUNT), ("--show", COUNT), ("--fuel", COUNT)],
    "reduce": [("--pipeline", one_of("llpo-from-lpo", "llpomin-from-lpo", "llpomin-from-llpo",
                                     "llpo-from-llpomin", "grilliot")),
               ("--seq", SEQ), ("--promise", PROMISE), ("--fuel", COUNT)],
    "banach-nat": [("--f0", FN), ("--f1", FN), ("--b0", FN), ("--b1", FN),
                   ("--bounds-fuel", COUNT), ("--n-max", COUNT), ("--depth", COUNT)],
    "gadget": [("--g", SEQ), ("--n-max", COUNT), ("--depth", COUNT)],
    "diagram": [("--g", SEQ), ("--width", one_of("0", "3", "4", "12", text=NOT_A_NUMBER))],
    "metric": [("action", one_of("range", "preimage", "modulus", "banach-h")),
               ("--space", one_of("interval", "cantor")),
               ("--fun", one_of("halving", "identity", "padding", "preimage-gadget")),
               ("--w", SEQ), ("--x", POINT), ("--y", POINT), ("--level", LEVEL),
               ("--m-max", LEVEL), ("--max-level", COUNT), ("--fuel", COUNT)],
    "decode": [("--code", one_of("{code}")), ("--space", one_of("interval", "cantor")),
               ("--x", POINT), ("--level", LEVEL), ("--max-level", COUNT),
               ("--check", st.sampled_from([None, True]))],
    # --cases is never left out: the default 50 cases take about a second
    "corpus": [("--suite", one_of("reductions", "translators", "banach-nat", "metric", "all")),
               ("--seed", one_of("0", "7")), ("--cases", st.sampled_from(["1", "0", "x"]))],
}


@pytest.fixture(scope="module")
def code_file(tmp_path_factory):
    """A constant function code (value 1/4) with balls down to level 3."""
    entries = [{"n": n, "a": [n, i], "r": "1", "b": [2, 2], "s": f"1/2^{n}"}
               for n in range(4) for i in range(2 ** (n + 1) + 1)]
    path = tmp_path_factory.mktemp("code") / "code.json"
    path.write_text(json.dumps(entries))
    return path


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


class TestExitCodes:
    def test_found_is_ok(self, capsys):
        code, data = run_json(capsys, ["oracle", "--op", "llpomin",
                                       "--seq", "1,0,1,0,0;0", "--fuel", "32"])
        assert code == EXIT_OK and data["output"] == {"found": 1}

    def test_exhausted_is_two(self, capsys):
        code, data = run_json(capsys, ["oracle", "--op", "lpo", "--seq", ";1",
                                       "--fuel", "8"])
        assert code == EXIT_EXHAUSTED and data["output"] == {"exhausted": 8}

    def test_parse_error_is_three(self, capsys):
        assert run(["oracle", "--op", "lpo", "--seq", "zzz"]) == EXIT_PARSE
        assert capsys.readouterr().err == ("parse error at position 3 in 'zzz': "
                                           "expected ';' separating prefix from constant tail\n")
        # str.isdigit accepts the superscript, int() does not
        assert run(["oracle", "--op", "lpo", "--seq", "\u00b2;0"]) == EXIT_PARSE
        assert run(["range", "verify", "--f", "double", "--aux", "const:\u00b2",
                    "--kind", "rho"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "in '\u00b2;0'" in err and "in 'const:\u00b2'" in err

    def test_verify_failure_is_one(self, capsys):
        code, data = run_json(capsys, ["range", "verify", "--f", "double",
                                       "--aux", "const:1", "--kind", "rho",
                                       "--n-max", "8", "--fuel", "64"])
        assert code == EXIT_VERIFY and data["output"] == "fail"
        assert {"index": 1, "kind": "rho-backward"} in data["violations"]

    def test_unknown_subcommand_is_parse_error(self, capsys):
        assert run(["frobnicate"]) == EXIT_PARSE
        # so is an unknown flag, such as the memo cap this CLI no longer has
        assert run(["--max-cache", "4", "gadget", "--g", "1;0"]) == EXIT_PARSE

    @pytest.mark.parametrize("argv", [
        ["oracle", "--op", "lpo", "--seq", "1;0", "--fuel", "{}"],
        ["banach-nat", "--f0", "succ", "--f1", "succ", "--bounds-fuel", "{}"],
        ["range", "verify", "--f", "double", "--aux", "const:1", "--n-max", "{}"],
        ["gadget", "--g", "1;0", "--depth", "{}"],
        ["metric", "modulus", "--max-level", "{}"],
        ["decode", "--code", "c.json", "--max-level", "{}"],
        ["banach-nat", "--f0", "succ", "--f1", "succ", "--n-max", "{}"],
        ["range", "bounding", "--f", "double", "--show", "{}"],
        ["corpus", "--cases", "{}"],
    ])
    @pytest.mark.parametrize("value", ["0", "-1", "x", "\u00b2"])
    def test_counts_must_be_positive(self, capsys, argv, value):
        assert run([value if a == "{}" else a for a in argv]) == EXIT_PARSE
        assert "expected an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["metric", "preimage", "--y", "1/2^2", "--level", "{}"],
        ["metric", "modulus", "--m-max", "{}"],
        ["decode", "--code", "c.json", "--level", "{}"],
    ])
    @pytest.mark.parametrize("value", ["-1", "x", "\u00b2"])
    def test_levels_must_be_non_negative(self, capsys, argv, value):
        assert run([value if a == "{}" else a for a in argv]) == EXIT_PARSE
        assert "expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("space, fun", [("interval", "halving"), ("cantor", "padding")])
    def test_level_zero_is_a_net_level(self, capsys, space, fun):
        # the spaces themselves need max_level >= 1
        code, data = run_json(capsys, ["metric", "modulus", "--space", space, "--fun", fun,
                                       "--m-max", "0", "--max-level", "1"])
        assert code == EXIT_OK and data["output"] == {"modulus": [0], "valid": True}
        code, data = run_json(capsys, ["metric", "banach-h", "--space", space, "--pair", fun,
                                       "--x", "1/2^1" if space == "interval" else "1;0",
                                       "--level", "0"])
        assert code == EXIT_OK and data["output"]["out_level"] == 0

    @pytest.mark.parametrize("argv, message", [
        (["diagram", "--width", "3"], "expected an integer >= 4"),
        (["diagram", "--width", "0"], "expected an integer >= 4"),
        (["gadget", "--g", "1;0", "--n-max", "1"], "expected an integer >= 2"),
        (["gadget", "--g", "1;0", "--n-max", "3", "--depth", "2"], "--depth of at least --n-max 3"),
        (["banach-nat", "--f0", "succ", "--f1", "succ", "--depth", "15"],
         "--depth of at least --n-max 16"),
    ])
    def test_below_a_minimum_is_three(self, capsys, argv, message):
        assert run(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["metric", "range"], "--y"),
        (["metric", "preimage", "--space", "cantor", "--fun", "padding"], "--y"),
        (["metric", "banach-h"], "--x"),
        (["metric", "range", "--space", "cantor", "--fun", "preimage-gadget"], "--w"),
        (["range", "verify", "--f", "double"], "--aux"),
        (["range", "translate", "--f", "double", "--dir", "rho-to-beta"], "--aux"),
        (["decode", "--code", "{code}"], "--x"),
    ])
    def test_missing_literal_flag_is_three(self, capsys, tmp_path, argv, flag):
        code = tmp_path / "code.json"
        code.write_text(json.dumps([{"n": 0, "a": [0, 0], "r": "1", "b": [0, 0], "s": "1"}]))
        assert run([str(code) if a == "{code}" else a for a in argv]) == EXIT_PARSE
        assert f"expected {flag} " in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_fuel_variable_is_three(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("BANACHKIT_FUEL", raw)
        assert run(["oracle", "--op", "lpo", "--seq", "1;0"]) == EXIT_PARSE
        assert "BANACHKIT_FUEL" in capsys.readouterr().err
        # the flag overrides the variable, and commands without fuel never read it
        assert run(["oracle", "--op", "lpo", "--seq", "1;0", "--fuel", "4"]) == EXIT_OK
        assert run(["diagram", "--width", "4"]) == EXIT_OK
        assert run(["metric", "modulus", "--m-max", "2", "--max-level", "2"]) == EXIT_OK

    @pytest.mark.parametrize("raw, bound", [("8", 8), ("", 256)])
    def test_fuel_variable_sets_the_default(self, capsys, monkeypatch, raw, bound):
        # an empty variable counts as unset
        monkeypatch.setenv("BANACHKIT_FUEL", raw)
        code, data = run_json(capsys, ["oracle", "--op", "lpo", "--seq", ";1"])
        assert code == EXIT_EXHAUSTED and data["output"] == {"exhausted": bound}

    @pytest.mark.parametrize("argv", [
        ["metric", "range", "--y", "1/2^2", "--m-max", "40"],
        ["metric", "modulus", "--m-max", "12", "--max-level", "10"],
        ["metric", "preimage", "--y", "1/2^2", "--m-max", "4", "--level", "6"],
        # no preimage either, but every lookahead cap is checked first
        ["metric", "preimage", "--space", "cantor", "--fun", "padding", "--y", "0,1;0",
         "--m-max", "4", "--max-level", "6", "--level", "0"],
    ])
    def test_beyond_a_cap_is_three(self, capsys, argv):
        assert run(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("cap error: ")


# every command that spends fuel, the flag that sets it and its bounds key
FUEL_COMMANDS = [
    (["oracle", "--op", "lpo", "--seq", "1;0"], "--fuel", "fuel"),
    (["range", "verify", "--f", "double", "--aux", "const:1", "--n-max", "4"], "--fuel", "fuel"),
    (["range", "translate", "--f", "double", "--aux", "const:1", "--dir", "rho-to-beta",
      "--show", "2"], "--fuel", "fuel"),
    (["range", "bounding", "--f", "double", "--show", "2"], "--fuel", "fuel"),
    (["reduce", "--pipeline", "grilliot", "--seq", "1;0"], "--fuel", "fuel"),
    (["banach-nat", "--f0", "succ", "--f1", "succ", "--n-max", "2"], "--bounds-fuel",
     "bounds_fuel"),
    (["metric", "banach-h", "--x", "1/2^1", "--level", "2"], "--fuel", "fuel"),
]


class TestFuelSource:
    @staticmethod
    def bounds(capsys, with_flag=False):
        for argv, flag, key in FUEL_COMMANDS:
            _, data = run_json(capsys, argv + ([flag, "12"] if with_flag else []))
            yield data["bounds"][key], data["bounds"]["fuel_source"]

    def test_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("BANACHKIT_FUEL", "9")
        assert set(self.bounds(capsys, with_flag=True)) == {(12, "flag")}

    def test_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BANACHKIT_FUEL", "9")
        assert set(self.bounds(capsys)) == {(9, "env")}

    @pytest.mark.parametrize("raw", [None, ""])
    def test_default(self, capsys, monkeypatch, raw):
        # an empty variable counts as unset
        if raw is None:
            monkeypatch.delenv("BANACHKIT_FUEL", raising=False)
        else:
            monkeypatch.setenv("BANACHKIT_FUEL", raw)
        assert set(self.bounds(capsys)) == {(256, "default")}
        # commands that spend no fuel report no source
        _, data = run_json(capsys, ["banach-nat", "--f0", "succ", "--f1", "succ",
                                    "--b0", "identity", "--b1", "identity", "--n-max", "4"])
        assert "fuel_source" not in data["bounds"]
        _, data = run_json(capsys, ["gadget", "--g", "1,0;0", "--n-max", "4"])
        assert "fuel_source" not in data["bounds"]


class TestSpecExamples:
    def test_gadget_even_case(self, capsys):
        code, data = run_json(capsys, ["gadget", "--g", "1,1,0;0"])
        assert code == EXIT_OK and data["output"] == {"h1": 0}

    def test_gadget_odd_case(self, capsys):
        code, data = run_json(capsys, ["gadget", "--g", "1,1,1,0;0"])
        assert code == EXIT_OK and data["output"] == {"h1": 1}

    def test_banach_h_half(self, capsys):
        code, data = run_json(capsys, ["metric", "banach-h", "--space", "interval",
                                       "--pair", "halving", "--x", "1/2^1",
                                       "--level", "10"])
        assert code == EXIT_OK
        assert data["output"]["approx"] == "1"
        assert data["output"]["tag"] == "via-G-inverse"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--op", "mu", "--seq", "1,0,0;0", "--fuel", "16"],
        ["gadget", "--g", "1,0;0"],
        ["reduce", "--pipeline", "llpo-from-lpo", "--seq", "0,1,0;0", "--fuel", "32"],
        ["corpus", "--suite", "reductions", "--cases", "5", "--seed", "42"],
    ])
    def test_reports_identical_modulo_elapsed(self, capsys, argv):
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first.pop("elapsed_ms"), second.pop("elapsed_ms")
        assert first == second


class TestDiagramCommand:
    def test_matches_golden(self, capsys):
        assert run(["diagram", "--g", "1,1,0;0", "--width", "10"]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / "figure1b.txt").read_text()


class TestTextReportGolden:
    def test_oracle_report_text_format(self, capsys):
        import re

        assert run(["oracle", "--op", "mu", "--seq", "1,0,0;0", "--fuel", "16",
                    "--format", "text"]) == EXIT_OK
        out = re.sub(r"elapsed_ms: \d+", "elapsed_ms: 0", capsys.readouterr().out)
        assert out == (GOLDEN / "report_oracle_mu.txt").read_text()


class TestCorpusCommand:
    def test_all_suites_pass(self, capsys):
        code, data = run_json(capsys, ["corpus", "--suite", "all",
                                       "--cases", "5", "--seed", "1"])
        assert code == EXIT_OK and data["output"] == "pass"


class TestMetricCommands:
    def test_range_out(self, capsys):
        code, data = run_json(capsys, ["metric", "range", "--space", "interval",
                                       "--fun", "halving", "--y", "3/2^2",
                                       "--m-max", "8", "--max-level", "12"])
        assert code == EXIT_OK
        assert data["output"] == {"kind": "definitely-out", "level": 2}

    def test_preimage_gadget(self, capsys):
        code, data = run_json(capsys, ["metric", "preimage", "--space", "cantor",
                                       "--fun", "preimage-gadget", "--w", "1,1,1,0;1",
                                       "--y", ";0", "--m-max", "8", "--level", "2",
                                       "--max-level", "16"])
        assert code == EXIT_OK
        assert data["output"]["approx"].startswith("111")

    def test_modulus(self, capsys):
        code, data = run_json(capsys, ["metric", "modulus", "--space", "interval",
                                       "--fun", "halving", "--m-max", "6",
                                       "--max-level", "8"])
        assert code == EXIT_OK
        assert data["output"]["modulus"] == [0, 1, 2, 3, 4, 5, 6]
        assert data["output"]["valid"] is True

    @pytest.mark.parametrize("space,fun,closed_form", [
        ("interval", "halving", lambda m: m),
        ("cantor", "padding", lambda m: (m + 1) // 2),
    ], ids=["halving", "padding"])
    def test_modulus_sweep_at_cap_14(self, capsys, space, fun, closed_form):
        # 2^15 net points: an all-pairs compare would hold 512 x 65 500
        # int64 temporaries, about 270 MB each
        start = time.monotonic()
        code, data = run_json(capsys, ["metric", "modulus", "--space", space, "--fun", fun,
                                       "--m-max", "14", "--max-level", "14"])
        assert time.monotonic() - start < 5.0
        assert code == EXIT_OK and data["output"]["valid"] is True
        assert data["output"]["modulus"] == [closed_form(m) for m in range(15)]


class TestDecodeCommand:
    def test_roundtrip(self, capsys, tmp_path):
        entries = []
        for n in range(8):
            for i in range(2 ** (n + 1) + 1):
                entries.append({"n": n, "a": [n, i], "r": "1", "b": [2, 2], "s": f"1/2^{n}"})
        path = tmp_path / "code.json"
        path.write_text(json.dumps(entries))
        code, data = run_json(capsys, ["decode", "--code", str(path), "--x", "1/2^1",
                                       "--level", "4", "--max-level", "10"])
        # the code is constant with value b = 2/2^3 = 1/4
        assert code == EXIT_OK and data["output"]["value"] == "1/2^2"
        assert run(["decode", "--code", str(path), "--check", "--max-level", "10"]) == EXIT_OK

    @pytest.mark.parametrize("bad_id", [[0, 0, 0], [0], ["x", 0], [0, 0.5], [-1, 0], [True, 0]])
    def test_ids_must_be_two_naturals(self, capsys, tmp_path, bad_id):
        for key in ("a", "b"):
            entry = {"n": 0, "a": [0, 1], "r": "1", "b": [2, 2], "s": "1"}
            entry[key] = bad_id
            path = tmp_path / "code.json"
            path.write_text(json.dumps([entry]))
            for action in (["--x", "1/2^1"], ["--check"]):
                assert run(["decode", "--code", str(path)] + action) == EXIT_PARSE
                assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_n", ["x", None, True, -3])
    def test_index_must_be_a_natural(self, capsys, tmp_path, bad_n):
        path = tmp_path / "code.json"
        path.write_text(json.dumps([{"n": bad_n, "a": [0, 1], "r": "1", "b": [2, 2], "s": "1"}]))
        for action in (["--x", "1/2^1"], ["--check"]):
            assert run(["decode", "--code", str(path)] + action) == EXIT_PARSE
            assert "an index n that is a natural" in capsys.readouterr().err


class TestModuleEntryPoint:
    """`python -m banachkit`, through __main__.py and cli.main, in a fresh
    interpreter."""

    @staticmethod
    def run_python(*args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    @classmethod
    def run_module(cls, *argv):
        return cls.run_python("-m", "banachkit", *argv)

    def test_oracle_report(self):
        done = self.run_module("oracle", "--op", "lpo", "--seq", "1,0;1", "--format", "json")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout)["op"] == "oracle.lpo"

    def test_parse_error_exit_code(self):
        done = self.run_module("oracle", "--op", "lpo", "--seq", "1,x;1", "--format", "json")
        assert done.returncode == EXIT_PARSE
        assert done.stdout == "" and "parse error" in done.stderr

    def test_modulus_sweeps_do_not_load_numpy(self):
        script = "\n".join([
            "import sys",
            "from banachkit import cli",
            "for space, fun in (('interval', 'halving'), ('cantor', 'padding')):",
            "    if cli.run(['metric', 'modulus', '--space', space, '--fun', fun,",
            "                '--m-max', '5', '--max-level', '5', '--format', 'json']) != 0:",
            "        sys.exit(f'{space} {fun} modulus failed')",
            "if 'numpy' in sys.modules:",
            "    sys.exit('numpy was imported')",
        ])
        done = self.run_python("-c", script)
        assert done.returncode == EXIT_OK, done.stderr


def _report(stdout: str):
    """A JSON report without its elapsed_ms; None when nothing was printed."""
    if not stdout:
        return None
    data = json.loads(stdout)
    data.pop("elapsed_ms")
    return data


class TestReusedParser:
    """build_parser builds the argparse tree once per process. Runs of
    different subcommands through it, a rejected argv among them, give the
    reports of fresh interpreters."""

    SEQUENCE = [
        (["metric", "modulus", "--m-max", "5", "--max-level", "5"], EXIT_OK),
        (["oracle", "--op", "lpo", "--seq", "1,0;1"], EXIT_OK),
        (["metric", "range", "--pair", "identity", "--y", "3/2^2", "--m-max", "6",
          "--max-level", "8"], EXIT_OK),
        (["metric", "modulus", "--m-max", "x"], EXIT_PARSE),
        (["metric", "modulus", "--m-max", "5", "--max-level", "5"], EXIT_OK),
    ]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reports_match_fresh_processes(self, capsys):
        for argv, want in self.SEQUENCE:
            argv = argv + ["--format", "json"]
            code = run(argv)
            out, err = capsys.readouterr()
            fresh = TestModuleEntryPoint.run_module(*argv)
            assert code == fresh.returncode == want, (argv, err, fresh.stderr)
            assert _report(out) == _report(fresh.stdout), argv
            # the usage lines wrap to the terminal width; the error line does not
            assert err.splitlines()[-1:] == fresh.stderr.splitlines()[-1:], argv


class TestParseFn:
    def test_named(self):
        assert parse_fn("double")(5) == 10
        assert parse_fn("const:7")(3) == 7
        assert parse_fn("1,2;3")(5) == 3

    @given(st.text(alphabet="abcxyz,;-:", max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_malformed_inputs_raise_or_parse(self, text):
        from banachkit.errors import ParseError
        from banachkit.streams import LazySeq

        try:
            out = parse_fn(text)
        except ParseError:
            return
        assert isinstance(out, LazySeq)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cli_never_crashes_on_malformed_seq(self, code_file, data):
        # every subcommand, with each flag left out, valid or any Unicode text
        command = data.draw(st.sampled_from(sorted(CLI_ARGS)))
        argv = []
        for flag, values in [(command, st.just(True))] + CLI_ARGS[command]:
            value = data.draw(values)
            if value is True:  # the subcommand, or a switch that is on
                argv.append(flag)
            elif value is not None:
                argv += [flag, value] if flag.startswith("--") else [value]
        argv = [str(code_file) if a == "{code}" else a for a in argv]
        assert run(argv) in (EXIT_OK, EXIT_VERIFY, EXIT_EXHAUSTED, EXIT_PARSE)
