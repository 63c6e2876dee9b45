import pytest


@pytest.fixture
def count_builds(monkeypatch):
    """count_builds(cls) returns a list that collects every instance of the
    dataclass cls validated at construction while the test runs."""

    def count(cls):
        builds = []
        real = cls.__post_init__

        def counted(self):
            builds.append(self)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        return builds

    return count
