"""Shared test plumbing: the acceptance summary printed after the run, and
exact power-of-two scaling of Kraus sets."""

import math

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
