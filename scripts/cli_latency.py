#!/usr/bin/env python3
"""Print the per-call CPU time of each CLI command on the bundled fixtures.

    python3 scripts/cli_latency.py [repeats]      (default: 5)

Each command runs in this process through `negsum.cli.main`, the way an
in-process caller runs it, with its output captured. After one warm-up
call, every command is called `repeats` times on each of the 18 fixtures,
and the script prints the median process CPU time of one call, in ms. The
`load` row times `fileio.load` alone: reading, parsing and validating one
fixture file, the first step of every command. The last line is the
process's peak resident set size (`ru_maxrss`), which the imports set as
much as the calls. Standard library only (`resource`: Unix); negsum is
loaded from the `src/` directory next to this script.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import resource
import statistics
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from negsum import cli, fileio, fixture_names  # noqa: E402

FIXTURES = SRC / "negsum" / "fixtures"
# (name, command and options); the file goes after the command
COMMANDS = (
    ("validate", ["validate"]),
    ("classify", ["classify"]),
    ("reach", ["reach"]),
    ("dot", ["reach", "--dot"]),
    ("check", ["check"]),
    ("states", ["summarize", "--method", "states"]),
    ("rules", ["summarize", "--method", "reduce"]),
    ("reduce", ["reduce", "--trace"]),
    ("diag", ["diag", "--fragments", "--loops"]),
)


def cpu_ms(call) -> float:
    t0 = time.process_time()
    call()
    return (time.process_time() - t0) * 1000.0


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 5
    paths = [str(FIXTURES / f"{name}.json") for name in fixture_names()]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "reduce.log")
        run_cli(["validate", paths[0]])  # warm-up
        rows = [("load", [cpu_ms(lambda: fileio.load(p)) for p in paths for _ in range(repeats)])]
        for name, (command, *options) in COMMANDS:
            if name == "reduce":
                options = [*options, trace]
            rows.append((name, [
                cpu_ms(lambda: run_cli([command, p, *options]))
                for p in paths
                for _ in range(repeats)
            ]))
    for name, times in rows:
        print(f"{name:<9} median_ms {statistics.median(times):.3f}")
    cli_times = [t for name, times in rows[1:] for t in times]
    print(f"{'all cli':<9} median_ms {statistics.median(cli_times):.3f}")
    print(f"peak_rss_mb {peak_rss_mb():.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
