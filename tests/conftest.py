"""Shared test plumbing: the acceptance summary printed after the run,
exact power-of-two scaling of Kraus sets, and the JSON matrix format."""

import math

import numpy as np

_acceptance_lines = []


def record_acceptance(label: str, ok: bool, elapsed: float) -> None:
    _acceptance_lines.append((label, ok, elapsed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_lines:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for label, ok, elapsed in _acceptance_lines:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"  {label}: {status} ({elapsed:.2f}s)")


def times_power_of_two(k, e):
    """``k`` with every operator times ``2^e``, exactly; not checked for completeness."""
    from covchan.channels import KrausSet

    return KrausSet([math.ldexp(1.0, e) * op for op in k.ops], trace_preserving=False)


def matrix_to_obj(m) -> dict:
    """``m`` as the ``{"rows", "cols", "data": [[re, im], ...]}`` object the CLI reads."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.view(np.float64).reshape(-1, 2).tolist(),
    }
