import pytest

from plancell import build_training_set, sample_project, sample_runs


@pytest.fixture
def fire():
    """The bundled emergency-response project: 12 tasks, 8 plans."""
    return sample_project()


@pytest.fixture
def runs11():
    """The bundled 11-instance solved-runs corpus (5 plan classes)."""
    return sample_runs()


@pytest.fixture
def runs11_nominal(runs11):
    """The same corpus reduced to problem + steps, both nominal."""
    cols = [("problem", "nominal"), ("steps", "nominal")]
    rows = [(row[0], str(int(row[2])), label)
            for row, label in zip(runs11.rows, runs11.labels)]
    return build_training_set(cols, rows)
