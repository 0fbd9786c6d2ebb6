import pytest

from super_scrambler.oracle import OperatorWavefunction


@pytest.fixture
def oracle_entropies(monkeypatch):
    """Every value that `OperatorWavefunction.entropy` returns in this process
    while the test runs, in call order."""
    values = []
    entropy = OperatorWavefunction.entropy

    def recorded(self, region):
        values.append(entropy(self, region))
        return values[-1]

    monkeypatch.setattr(OperatorWavefunction, "entropy", recorded)
    return values
