"""Load delannoy-kit from the checkout's ``src`` and warm it up for one workload.

Run as a script (``python3 perfbench/warmup.py <workload>``) it is one
set-up probe: a fresh process that imports the package and runs the
workload's warm-up, so its wall time is the workload's set-up time.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKED_EXAMPLE = "NEEDNNNEDDEEN"


class MissingProgram(RuntimeError):
    """The checkout holds no importable delannoy_kit under ``src``."""


def load_program():
    """Import delannoy_kit from ``<checkout>/src`` and nowhere else."""
    package = SRC / "delannoy_kit"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no delannoy_kit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import delannoy_kit
    from delannoy_kit import cli, harness

    if Path(delannoy_kit.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"delannoy_kit was imported from {delannoy_kit.__file__}")
    return cli, harness


def warm_up(workload: str, cli, harness) -> None:
    """One small operation of the kind the workload times."""
    if workload.startswith("sweep"):
        harness.run_checks(list(harness.CHECKS), n_max=3, workers=1)
        return
    if workload == "cli-requests":
        argvs = [
            ["map", WORKED_EXAMPLE],
            ["unmap", "[[0,0],[1,1],[3,1],[4,5],[5,7],[8,7],[9,8]]", "--debug"],
            ["classify", "--word", WORKED_EXAMPLE],
        ]
    else:
        argvs = [["sample", "--n", "8"], ["count", "delannoy", "--n", "8"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            if cli.run(argv) != 0:
                raise RuntimeError(f"warm-up request failed: {argv}")


if __name__ == "__main__":
    warm_up(sys.argv[1], *load_program())
