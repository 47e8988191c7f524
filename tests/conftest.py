import pytest

from caxial.lattice import Lattice


@pytest.fixture
def lattice_builds(monkeypatch):
    """The specs of the lattices constructed while the test runs."""
    init = Lattice.__init__
    built = []

    def counted(self, spec):
        built.append(spec)
        init(self, spec)
    monkeypatch.setattr(Lattice, "__init__", counted)
    return built
