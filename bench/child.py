"""Child process of the benchmark: runs manyworlds operations, optionally traced.

    python bench/child.py env
        print the Python, numpy and BLAS versions as one JSON line
    python bench/child.py cli SPANS ARG...
        run the manyworlds CLI on ARG... under tracing; write spans to SPANS
    python bench/child.py calls CONFIGS RESULTS [SPANS]
        run each config of the JSON list CONFIGS through cli.run_experiment,
        which writes its report to stdout, captured in memory; write per-call
        times and reports to RESULTS; with SPANS, trace the calls

Reports go to a captured stdout, not to a file: on a disk mounted with
online discard, truncating and rewriting one file costs about 0.9 ms and
varies by 20%, more than the calls themselves.

The manyworlds package must be importable (the benchmark puts `src` on
PYTHONPATH).
"""

from __future__ import annotations

import io
import json
import platform
import sys
import time
from pathlib import Path


def _env() -> int:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }))
    return 0


def _cli(spans_path: str, argv: list[str]) -> int:
    from tracing import Tracer

    tracer = Tracer().install()
    from manyworlds import cli

    code = cli.main(argv)
    tracer.dump(spans_path)
    return code


class _Capture:
    """Stands in for sys.stdout; run_experiment writes each report to `buffer`."""

    buffer: io.BytesIO


def _calls(configs_path: str, results_path: str, spans_path: str | None = None) -> int:
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer().install()
    from manyworlds import cli
    from manyworlds.reporting import ExperimentConfig

    configs = json.loads(Path(configs_path).read_text(encoding="utf-8"))
    results = []
    stdout, sys.stdout = sys.stdout, _Capture()
    try:
        for index, c in enumerate(configs):
            config = ExperimentConfig(c["experiment"], c["parameters"], c["seed"], "json")
            if tracer is not None:
                tracer.op = index
            sys.stdout.buffer = io.BytesIO()
            started = time.perf_counter()
            try:
                cli.run_experiment(config)
            except Exception as exc:  # counted as a failed call; the rest still run
                results.append([time.perf_counter() - started, None,
                                f"{type(exc).__name__}: {exc}"])
                continue
            elapsed = time.perf_counter() - started
            results.append([elapsed, sys.stdout.buffer.getvalue().decode("utf-8"), None])
    finally:
        sys.stdout = stdout
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "env":
        sys.exit(_env())
    if mode == "cli":
        sys.exit(_cli(args[0], args[1:]))
    if mode == "calls":
        sys.exit(_calls(*args))
    sys.exit(f"unknown mode {mode!r}")
