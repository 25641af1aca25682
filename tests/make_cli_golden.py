"""Write tests/data/cli_golden.json: the exit code, stdout and stderr of
`domrat` for each invocation in MATRIX, run in-process.  As in a shell,
leading NAME=value items of an invocation set the environment for it.

    PYTHONPATH=src python tests/make_cli_golden.py

`test_cli_matches_golden` replays MATRIX and compares every byte, so
regenerate the file only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

from domrat import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

J, D = ["--format", "json"], ["--decimal"]
ORACLE_UNKNOWN = ["--c-max", "40", "oracle", "{1,29}", "--n-limit", "30"]
VERIFY_SMALL = ["--c-max", "5", "verify-paper", "--cases", "5"]

MATRIX = [
    # ratio: one set, several sets, --decimal, flags after the command, CSV
    ["ratio", "{1,4}"],
    J + ["ratio", "{1,4}"],
    D + ["ratio", "{1,-3}"],
    D + J + ["ratio", "{1,-3}"],
    ["ratio", "{1,4}", "{2,-3}", "{16}"],
    J + ["ratio", "{1,4}", "{2,-3}", "{16}"],
    ["ratio", "{1,4}", "{2,4}", "--decimal", "--format", "json"],
    ["--format", "csv", "ratio", "{1,4}", "{2,3}", "{2,4}", "{-3,1}"],
    ["ratio", "--format", "csv", "{1}"],
    # domnum
    ["domnum", "8", "{1,2}"],
    J + ["domnum", "11", "{1,6}"],
    # eds with and without a witness
    ["eds", "{1,5}"],
    ["eds", "{1,4}"],
    J + ["eds", "{2,4}"],
    J + ["eds", "{1,4}"],
    # blocks, every action
    ["blocks", "parse", "(2 3)^5 7 (3 4)^2"],
    J + ["blocks", "parse", "(2 3)^2 1"],
    ["blocks", "density", "(3 2)"],
    J + ["blocks", "density", "(3 2)"],
    D + ["blocks", "density", "(3)"],
    D + J + ["blocks", "density", "(3)"],
    ["blocks", "verify", "(3)", "{1,5}"],
    ["blocks", "verify", "(3)", "{1,4}"],
    J + ["blocks", "verify", "(3)", "{1,5}"],
    J + ["blocks", "verify", "(3)", "{1,4}"],
    # oracle certified true, false and unknown
    ["oracle", "{1,2}", "--n-limit", "12"],
    J + ["oracle", "{1,2}", "--n-limit", "12"],
    ["oracle", "{1,4}", "--n-limit", "6"],
    J + ["oracle", "{1,4}", "--n-limit", "6"],
    ORACLE_UNKNOWN,
    J + ORACLE_UNKNOWN,
    D + ["oracle", "{2,3}", "--n-limit", "15"],
    D + J + ["oracle", "{2,3}", "--n-limit", "15"],
    # verify-paper
    VERIFY_SMALL,
    J + VERIFY_SMALL,
    # refusals: --format csv off ratio, malformed input (2), caps (3)
    ["--format", "csv", "eds", "{1,5}"],
    ["blocks", "--format", "csv", "parse", "3"],
    ["ratio", "{1,0}"],
    J + ["ratio", "not-a-set"],
    ["ratio", "{1,4}", "{}"],
    ["blocks", "verify", "(3)"],
    ["blocks", "parse", "3^0"],
    ["--c-max", "0", "ratio", "{1,2}"],
    ["--c-max", "5", "verify-paper", "--cases", "0"],
    ["--c-max", "4", "ratio", "{1,8}"],
    J + ["--c-max", "4", "ratio", "{1,2}", "{1,8}"],
    ["domnum", "31", "{1,2}"],
    ["--c-max", "40", "eds", "{1,40}"],
    # numeric options and DOMRAT_C_MAX take ASCII integers only (2)
    ["--c-max", "١٦", "ratio", "{1,2}"],
    ["--n-max", "1_0", "domnum", "8", "{1,2}"],
    ["domnum", "８", "{1,2}"],
    ["oracle", "{1,2}", "--n-limit", "１２"],
    ["verify-paper", "--cases", "٥"],
    ["DOMRAT_C_MAX=1_6", "ratio", "{1,2}"],
]


def invoke(argv: list[str]) -> dict:
    """Run `domrat argv` in-process; return its exit code, stdout and stderr.
    argparse's refusals exit through SystemExit, with usage text wrapped at
    COLUMNS, which is pinned."""
    k = next((i for i, a in enumerate(argv) if not re.fullmatch(r"[A-Z_]+=.*", a)),
             len(argv))
    env = dict(a.split("=", 1) for a in argv[:k])
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"COLUMNS": "80", **env}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = cli.main(list(argv[k:]))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


if __name__ == "__main__":
    if "DOMRAT_C_MAX" in os.environ:
        raise SystemExit("unset DOMRAT_C_MAX first: the matrix assumes the default cap")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([invoke(argv) for argv in MATRIX], indent=1) + "\n")
