import pytest

from porosplit import studies


@pytest.fixture
def study_runs(monkeypatch):
    """The work ``studies`` does while the test runs: the step of each
    ``integrate`` call, and ``("time_shifted", t0)`` per completed clock
    shift."""
    calls = []
    run, shift = studies.integrate, studies.time_shifted

    def counting(*args, **kwargs):
        calls.append(args[3])
        return run(*args, **kwargs)

    def shifting(sys, t0):
        shifted = shift(sys, t0)
        calls.append(("time_shifted", t0))
        return shifted

    monkeypatch.setattr(studies, "integrate", counting)
    monkeypatch.setattr(studies, "time_shifted", shifting)
    return calls
