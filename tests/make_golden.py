"""Regenerate or check the CLI golden files: inputs and expected stdout captures.

Run from the repository root:

    python3 tests/make_golden.py            # rewrite tests/golden/; review the diff
    python3 tests/make_golden.py --check    # write nothing; exit 1 on any difference

Both modes build every file the same way: the inputs from
golden_cases.build_inputs(), and each expected output by running its case
on those inputs, which are placed in a temporary directory, so that a check
reads nothing from tests/golden/ but the committed files it compares.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from d1ring.cli import main  # noqa: E402

import golden_cases  # noqa: E402


def build() -> dict[Path, str]:
    """Every golden file as its path in the checkout -> the text the library
    makes for it today."""
    inputs = golden_cases.build_inputs()
    files = {golden_cases.INPUTS / name: text for name, text in inputs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            (Path(tmp) / name).write_text(text)
        for expected_name, argv, expected_code in golden_cases.cases(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code != expected_code:
                raise SystemExit(f"{argv}: exit {code}, expected {expected_code}\n{err.getvalue()}")
            files[golden_cases.EXPECTED / expected_name] = out.getvalue()
    return files


def differences(files: dict[Path, str]) -> list[str]:
    """One line per golden file that differs from what was built: changed,
    missing, or committed but no longer built."""
    lines = []
    for p, text in files.items():
        if not p.is_file():
            lines.append(f"missing: {p}")
        elif p.read_text() != text:
            lines.append(f"differs: {p}")
    for folder in (golden_cases.INPUTS, golden_cases.EXPECTED):
        lines += [f"not built: {p}" for p in sorted(folder.iterdir()) if p not in files]
    return lines


def run(check: bool) -> int:
    files = build()
    if check:
        lines = differences(files)
        for line in lines:
            print(line)
        print(f"{len(lines)} differences in {len(files)} golden files" if lines else f"all {len(files)} golden files match")
        return 1 if lines else 0
    for folder in (golden_cases.INPUTS, golden_cases.EXPECTED):
        folder.mkdir(parents=True, exist_ok=True)
    for p, text in files.items():
        p.write_text(text)
        print(f"wrote {p.name} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed files; write nothing")
    raise SystemExit(run(ap.parse_args().check))
