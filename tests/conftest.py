import numpy as np
import pytest

from ktflow.invariant_forms import BaseGrid


@pytest.fixture(scope="session")
def grid8():
    return BaseGrid(8)


@pytest.fixture(scope="session")
def grid16():
    return BaseGrid(16)


@pytest.fixture(scope="session")
def grid32():
    return BaseGrid(32)


@pytest.fixture()
def rng():
    return np.random.default_rng(11235)


def _count_transforms(monkeypatch, size):
    """[forward, inverse] totals of size(values) over BaseGrid's transforms."""
    counts = [0, 0]

    def counted(which, transform):
        def wrapped(grid, values, *out):
            counts[which] += size(values)
            return transform(grid, values, *out)
        return wrapped

    monkeypatch.setattr(BaseGrid, "_forward", counted(0, BaseGrid._forward))
    monkeypatch.setattr(BaseGrid, "_inverse", counted(1, BaseGrid._inverse))
    return counts


@pytest.fixture()
def transform_fields(monkeypatch):
    """[forward, inverse] counts of n x n fields through BaseGrid's transforms."""
    return _count_transforms(monkeypatch, lambda values: int(np.prod(np.shape(values)[:-2])))


@pytest.fixture()
def transform_calls(monkeypatch):
    """[forward, inverse] counts of calls of BaseGrid's transforms."""
    return _count_transforms(monkeypatch, lambda values: 1)


@pytest.fixture()
def scanned_fields(monkeypatch):
    """[calls, n x n fields] through BaseGrid.check_field, the one NaN/Inf scan."""
    counts = [0, 0]
    check = BaseGrid.check_field

    def counted(grid, values, what="field"):
        counts[0] += 1
        counts[1] += int(np.prod(np.shape(values)[:-2]))
        return check(grid, values, what)

    monkeypatch.setattr(BaseGrid, "check_field", counted)
    return counts


_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion():
    """Recorder for acceptance-criterion verdicts, echoed after the run."""
    def record(label, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
        _CRITERION_LINES.append(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _CRITERION_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
