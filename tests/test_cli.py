import argparse
import contextlib
import dataclasses
import io
import json
import shlex
import time
from pathlib import Path

import pytest

from d1ring.cli import build_parser, main
from d1ring.envelope import envelope_for, serialize_envelope
from d1ring.exactalg import FieldSpec
from d1ring.experiments import MAX_SUITE_FACTORS, MAX_SUITE_N, SuiteConfig, decoy_nuca
from d1ring.groupring import GroupRingElement
from d1ring.groups import GroupSpec
from d1ring import invert
from d1ring.invert import SearchBudget
from d1ring.nuca import Nuca
from d1ring.twisted import TwistedElement, TwistedMatrix

import golden_cases
from golden_cases import CASES, EXPECTED, path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module", autouse=True)
def committed_inputs():
    # inputs are derived data: the committed files must be exactly what the
    # library builds today, so that the expected files are compared against
    # its own output.  A changed serializer fails here, naming the file; the
    # checkout is never rewritten (tests/make_golden.py regenerates it)
    stale = golden_cases.stale_inputs()
    assert not stale, f"committed golden inputs differ from build_inputs(): {', '.join(stale)}"


@pytest.mark.parametrize(
    "expected_name,argv,expected_code",
    CASES,
    ids=[c[0].rsplit(".", 1)[0] for c in CASES],
)
def test_golden(expected_name, argv, expected_code):
    code, out, _ = run_cli(argv)
    assert code == expected_code
    expected = (EXPECTED / expected_name).read_text()
    assert out == expected, f"stdout differs from golden file {expected_name}"


class TestExitCodes:
    def test_verify_identity_false_is_math_failure(self):
        code, out, _ = run_cli(
            ["verify-identity", path("nuca_u_f3.json"), path("nuca_apply_f3.json")]
        )
        assert code == 1
        assert out == "false\n"

    def test_invert_without_certificate_is_math_failure(self):
        code, out, _ = run_cli(
            ["invert", path("decoy_f2.json"), "--max-radius", "2", "-o", "-"]
        )
        assert code == 1
        assert json.loads(out)["payload"]["found"] is False

    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli(["mul", "--frobnicate"])
        assert code == 2

    def test_missing_file_is_usage_error(self):
        code, _, err = run_cli(["fmt", "no_such_file.json"])
        assert code == 2
        assert "error" in err

    def test_non_prime_modulus_is_usage_error(self, tmp_path):
        doc = json.loads((golden_cases.INPUTS / "u_f3.json").read_text())
        doc["header"]["field"] = "Fp:4"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(["fmt", str(bad)])
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("group", True), ("field", None), ("group", ["Zd", 1]), ("kind", ["twisted"]),
            ("format_version", True), ("format_version", 1.0), ("format_version", "1"),
            ("group", "Zd:0_1"), ("group", "Zd:01"), ("group", "Zd:\u0661"),
            ("field", "Fp: 3"), ("field", "Fp:03"), ("field", "Fp:\u0663"),
            ("field", "Fp:318665857834031151167461"),
        ],
    )
    def test_malformed_header_field_is_format_error(self, tmp_path, key, value):
        # "group": true and "field": null were once tracebacks; a version of
        # true or 1.0 and the non-canonical labels were read without a warning
        doc = json.loads((golden_cases.INPUTS / "u_f3.json").read_text())
        doc["header"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["fmt", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "option, label",
        [
            ("--group", "Zd:1_0"), ("--group", "Zd:01"), ("--group", "Zd:\u0661"),
            ("--field", "Fp: 3"), ("--field", "Fp:03"), ("--field", "Fp:\u0663"),
            ("--field", "Fp:318665857834031151167461"),
        ],
    )
    def test_non_canonical_label_option_is_usage_error(self, option, label):
        labels = {"--group": "Zd:1", "--field": "Fp:3", option: label}
        code, out, err = run_cli(
            ["experiment", "direct-finiteness", *(x for kv in labels.items() for x in kv),
             "--trials", "1", "-o", "-"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and (
            "bad group label" in err or "bad field label" in err or "below 2^64" in err
        )

    def test_boolean_matrix_size_is_format_error(self, tmp_path):
        # a bool is an int in Python; "size": true once parsed as size 1
        m = TwistedMatrix.identity(1, GroupSpec.zd(1), FieldSpec.fp(3))
        doc = json.loads(serialize_envelope(envelope_for(m)))
        doc["payload"]["size"] = True
        bad = tmp_path / "bool_size.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["fmt", str(bad)])
        assert code == 2
        assert out == ""
        assert "bad matrix size True" in err

    def test_shape_mismatch_between_inputs(self):
        code, _, err = run_cli(
            ["mul", "-a", path("u_f3.json"), "-b", path("nuca_u_f3.json"), "-o", "-"]
        )
        assert code == 2
        assert "disagree" in err

    def test_decoy_pipeline_failure_exit(self, tmp_path):
        # a pipeline made of ONLY decoys still exits 0: bounded evidence
        # on a control is the expected outcome, not a failure
        code, out, _ = run_cli(
            ["experiment", "pipeline", "--group", "Zd:1", "--field", "Fp:2",
             "--n", "1", "--seed", "1", "--trials", "1", "--decoy-every", "1",
             "--omit-timing", "-o", "-"]
        )
        assert code == 0
        assert json.loads(out)["payload"]["failures"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["direct-finiteness", "--group", "free:2", "--field", "Fp:3",
             "--max-factors", "-1", "--trials", "1"],
            ["direct-finiteness", "--group", "free:2", "--field", "Fp:3",
             "--max-factors", "0", "--trials", "1"],
            ["pipeline", "--group", "Zd:1", "--field", "Fp:2", "--n", "1",
             "--trials", "1", "--decoy-every", "-1"],
        ],
        ids=["max-factors-negative", "max-factors-zero", "decoy-every-negative"],
    )
    def test_bad_suite_config_is_usage_error(self, argv):
        code, out, err = run_cli(["experiment", *argv, "-o", "-"])
        assert code == 2
        assert out == ""
        assert "must be >=" in err


    def test_rediscover_option_is_refused(self):
        # the blind search runs in the pipeline suite only
        code, out, err = run_cli(
            ["experiment", "direct-finiteness", "--group", "Zd:1", "--field", "Fp:2", "--rediscover"]
        )
        assert code == 2
        assert out == ""
        assert "--rediscover" in err

    def test_oversized_inverse_search_is_usage_error(self, tmp_path):
        # 1 + a has no inverse in any ball; radius 2 in free:26 would need
        # 7.3 M unknowns, so the search stops there with a usage error
        group = GroupSpec.free(26)
        a = GroupRingElement.from_terms(group, FieldSpec.fp(3), 1, [((), ((1,),)), ((1,), ((1,),))])
        src = tmp_path / "free26.json"
        src.write_text(serialize_envelope(envelope_for(Nuca(TwistedElement.make(a)))))
        code, out, err = run_cli(["invert", str(src), "--max-radius", "3", "-o", "-"])
        assert code == 2
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize("command", ["invert", "verdict"])
    def test_huge_radius_is_refused_at_once(self, tmp_path, command):
        # the unknowns of free:2 at radius 10^7 have millions of digits; the
        # refusal neither computes nor prints them
        group = GroupSpec.free(2)
        a = GroupRingElement.from_terms(group, FieldSpec.fp(3), 1, [((), ((1,),)), ((1,), ((1,),))])
        src = tmp_path / "free2.json"
        src.write_text(serialize_envelope(envelope_for(Nuca(TwistedElement.make(a)))))
        start = time.monotonic()
        code, out, err = run_cli([command, str(src), "--max-radius", str(10**7), "-o", "-"])
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            f"error: an inverse search to radius {10**7} over free:2 with n = 1 needs more than"
            " 10^30 unknowns; the limit is 2000000 (largest radius within it: 5)\n"
        )

    def test_z2_verdict_stops_at_radius_12(self, tmp_path, monkeypatch):
        # MAX_UNKNOWNS counts |B|(1 + |B|) n^2, and it is also what bounds
        # the verdict's first-witness elimination (n |B| columns), so a Z^2
        # verdict with n = 2 stops at radius 12, before any work
        assert invert.search_radius_limit(GroupSpec.zd(2), 2, 1000) == 12
        calls = []
        record = lambda *args: calls.append(args)
        for name in ("zd_determinant", "_search_inverse", "_first_witness_radius", "_kernel_tower"):
            monkeypatch.setattr(invert, name, record)
        src = tmp_path / "decoy.json"
        src.write_text(serialize_envelope(envelope_for(decoy_nuca(GroupSpec.zd(2), FieldSpec.fp(3), 2))))
        code, out, err = run_cli(["verdict", str(src), "--max-radius", "13", "-o", "-"])
        assert code == 2
        assert out == ""
        assert "largest radius within it: 12" in err
        assert calls == []

    tower_refusal = (
        "error: a kernel tower to depth 3 with window 2 over Zd:100000000 with n = 1 would build more"
        " window coordinates over its levels than the limit of 1000000 (largest depth within it: -1)\n"
    )

    @pytest.mark.parametrize(
        "options, expected",
        [
            (["verdict"], tower_refusal),
            (["kernel-tower"], tower_refusal),
            (
                ["invert", "--max-radius", "1"],
                "error: an inverse search to radius 1 over Zd:100000000 with n = 1 needs more than"
                " 10^30 unknowns; the limit is 2000000 (largest radius within it: 0)\n",
            ),
        ],
        ids=["verdict", "kernel-tower", "invert"],
    )
    def test_huge_dimension_is_refused_at_once(self, tmp_path, options, expected):
        # a radius-1 ball of Z^(10^8) has 3^(10^8) sites; the refusals
        # neither count them nor make a site of the group
        src = tmp_path / "zero.json"
        header = {"format_version": 1, "group": "Zd:100000000", "field": "Fp:3", "n": 1, "kind": "twisted"}
        src.write_text(json.dumps({"header": header, "payload": {"regular": {"terms": []}, "singular": []}}))
        start = time.monotonic()
        code, out, err = run_cli([options[0], str(src), *options[1:], "-o", "-"])
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert err == expected

    def test_suite_n_past_the_limit_is_usage_error(self):
        code, out, err = run_cli(
            ["experiment", "direct-finiteness", "--group", "Zd:1", "--field", "Fp:2",
             "--n", str(MAX_SUITE_N + 1), "--trials", "1"]
        )
        assert code == 2
        assert out == ""
        assert "size limit" in err

    def test_suite_max_factors_past_the_limit_is_refused_at_once(self):
        # long words are refused before any trial draws one
        start = time.monotonic()
        code, out, err = run_cli(
            ["experiment", "direct-finiteness", "--group", "Zd:1", "--field", "Fp:2",
             "--n", "2", "--trials", "1", "--max-factors", "10000"]
        )
        assert time.monotonic() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            f"error: max_factors must be <= {MAX_SUITE_FACTORS} (the suites' word-length limit)\n"
        )

    @pytest.mark.parametrize("command", ["invert", "verdict"])
    def test_oversized_inverse_block_is_usage_error(self, tmp_path, command):
        # 1 plus 1 at each of the sites 0 .. 200 of Z^1: its inverse needs a
        # block of 201 coordinates, one past invert.MAX_BLOCK_COORDINATES
        group, field = GroupSpec.zd(1), FieldSpec.fp(5)
        one = GroupRingElement.one(group, field, 1)
        t = TwistedElement.make(one, [((i,), one) for i in range(201)])
        src = tmp_path / "block.json"
        src.write_text(serialize_envelope(envelope_for(Nuca(t))))
        extra = ["--depth", "0", "--window", "1"] if command == "verdict" else []
        code, out, err = run_cli([command, str(src), "--max-radius", "201", *extra, "-o", "-"])
        assert code == 2
        assert out == ""
        assert "block of 201 coordinates" in err and "limit is 200" in err

    @pytest.mark.parametrize("command", ["kernel-tower", "verdict"])
    def test_oversized_tower_depth_is_usage_error(self, tmp_path, monkeypatch, command):
        # the decoy over Z^2 may build at most depth 79 with window 2; no
        # window map may be built before the refusal
        def no_window_map(*args):
            raise AssertionError("a window map was built before the refusal")

        monkeypatch.setattr(Nuca, "induced_local_map", no_window_map)
        monkeypatch.setattr(Nuca, "_window_rows", no_window_map)
        src = tmp_path / "decoy.json"
        src.write_text(serialize_envelope(envelope_for(decoy_nuca(GroupSpec.zd(2), FieldSpec.fp(3), 1))))
        code, out, err = run_cli([command, str(src), "--depth", "1000000", "-o", "-"])
        assert code == 2
        assert out == ""
        assert "largest depth within it: 79" in err


class TestFmtWarning:
    def test_noncanonical_input_warns(self):
        code, out, err = run_cli(["fmt", path("noncanonical.json"), "-o", "-"])
        assert code == 0
        assert "not canonical" in err
        # output equals the canonical serialization of the repaired element
        assert json.loads(out)["payload"]["regular"]["terms"] == [[[0], 1]]

    def test_canonical_input_silent(self):
        code, _, err = run_cli(["fmt", path("u_f3.json"), "-o", "-"])
        assert code == 0
        assert err == ""


class TestStdinStdout:
    def test_dash_reads_stdin(self, monkeypatch):
        text = (golden_cases.INPUTS / "u_f3.json").read_text()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run_cli(["fmt", "-", "-o", "-"])
        assert code == 0
        assert out == text


class TestOutputFiles:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["mul", "-a", path("u_f3.json"), "-b", path("v_f3.json"), "-o", str(target)]
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == (EXPECTED / "mul.json").read_text()


def test_console_script_entry_point():
    import subprocess

    proc = subprocess.run(
        ["d1", "mul", "-a", path("u_f3.json"), "-b", path("v_f3.json"), "-o", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (EXPECTED / "mul.json").read_text()


@pytest.mark.parametrize(
    "args,expected_code,expected_name",
    [
        (["mul", "-a", path("u_f3.json"), "-b", path("v_f3.json"), "-o", "-"], 0, "mul.json"),
        (["mul", "--no-such-flag"], 2, None),
    ],
    ids=["mul", "usage-error"],
)
def test_module_entry_point_runs_from_a_checkout(args, expected_code, expected_name):
    # python -m d1ring needs only the sources on PYTHONPATH, no install
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "d1ring", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == expected_code, proc.stderr
    if expected_name is not None:
        assert proc.stdout == (EXPECTED / expected_name).read_text()


def test_make_golden_check_runs_from_a_plain_checkout():
    # the script puts src/ on its own path, so the command its docstring
    # and the README give works with PYTHONPATH unset
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "tests/make_golden.py", "--check"],
        cwd=root,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 30 golden files match" in proc.stdout


# -- the parser table ------------------------------------------------------------------

def _subparsers():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _readme_cli_examples():
    """Each `d1 ...` command in README's CLI section, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    text = section.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("d1 ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) >= 10
    parser = build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_budget_and_suite_options_default_to_the_library_defaults():
    parser = build_parser()
    budget = SearchBudget()
    suite = {f.name: f.default for f in dataclasses.fields(SuiteConfig)}
    invert = parser.parse_args(["invert", "t.json"])
    assert invert.max_radius == budget.max_radius
    tower = parser.parse_args(["kernel-tower", "t.json"])
    assert (tower.depth, tower.window) == (budget.depth, budget.window)
    verdict = parser.parse_args(["verdict", "t.json"])
    experiment = parser.parse_args(["experiment", "pipeline", "--group", "Zd:1", "--field", "Q"])
    for args in (verdict, experiment):
        assert SearchBudget(args.max_radius, args.depth, args.window) == budget
    assert experiment.support_radius == suite["support_radius"]
    assert experiment.max_factors == suite["max_factors"]
    assert experiment.decoy_every == suite["decoy_every"]


def test_output_option_on_exactly_the_writing_subcommands():
    subparsers = _subparsers()
    with_output = {
        name for name, sub in subparsers.items() if any("--output" in a.option_strings for a in sub._actions)
    }
    assert len(with_output) == 12
    assert set(subparsers) - with_output == {"verify-identity"}
