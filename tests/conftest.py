import pytest

from porosplit import studies


@pytest.fixture
def study_runs(monkeypatch):
    """Steps of the ``integrate`` calls ``studies`` makes while the test runs."""
    calls = []
    run = studies.integrate

    def counting(*args, **kwargs):
        calls.append(args[3])
        return run(*args, **kwargs)

    monkeypatch.setattr(studies, "integrate", counting)
    return calls
