import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banachkit.cli import (
    EXIT_EXHAUSTED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    parse_fn,
    run,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("argv", [
        ["oracle", "--op", "lpo", "--seq", "1;0", "--fuel", "{}"],
        ["banach-nat", "--f0", "succ", "--f1", "succ", "--bounds-fuel", "{}"],
        ["range", "verify", "--f", "double", "--aux", "const:1", "--n-max", "{}"],
        ["gadget", "--g", "1;0", "--depth", "{}"],
        ["metric", "modulus", "--max-level", "{}"],
        ["decode", "--code", "c.json", "--max-level", "{}"],
        ["--max-cache", "{}", "gadget", "--g", "1;0"],
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
    ])
    def test_beyond_a_cap_is_three(self, capsys, argv):
        assert run(argv) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("cap error: ")


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


class TestCacheCapFlag:
    def test_capped_run_still_correct(self, capsys):
        from banachkit.streams import set_default_cache_cap

        try:
            code, data = run_json(capsys, ["--max-cache", "4", "gadget",
                                           "--g", "1,1,1,0;0"])
            assert code == EXIT_OK and data["output"] == {"h1": 1}
        finally:
            set_default_cache_cap(None)


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

    @given(st.text(alphabet="0123456789\u00b2,;^/x", max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_cli_never_crashes_on_malformed_seq(self, text):
        code = run(["oracle", "--op", "lpo", "--seq", text, "--fuel", "4"])
        assert code in (EXIT_OK, EXIT_EXHAUSTED, EXIT_PARSE)
