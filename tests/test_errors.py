import pytest

from cmhier.errors import CollisionSingularity, NonConvergence, located


class TestLocated:
    """located words a NumericsError raised inside with its tau or site, and sets the attribute."""

    def test_tau(self):
        with pytest.raises(NonConvergence) as info:
            with located(tau=0.123456789):
                raise NonConvergence("system 2: no root", system=2)
        assert str(info.value) == "at tau=0.123457: system 2: no root"
        assert (info.value.tau, info.value.site, info.value.system) == (0.123456789, None, 2)

    def test_site(self):
        with pytest.raises(CollisionSingularity) as info:
            with located(site=(3, 1)):
                raise CollisionSingularity("cross gap 0.000e+00 below 1.0e-12")
        assert str(info.value) == "at site (3, 1): cross gap 0.000e+00 below 1.0e-12"
        assert (info.value.site, info.value.tau, info.value.system) == ((3, 1), None, None)

    def test_nested_sites_word_outermost_first(self):
        with pytest.raises(NonConvergence, match=r"^at site 4: at tau=0\.5: stuck$") as info:
            with located(site=4):
                with located(tau=0.5):
                    raise NonConvergence("stuck")
        assert (info.value.site, info.value.tau) == (4, 0.5)

    def test_other_errors_and_no_error_pass_through(self):
        with pytest.raises(ValueError, match="^bad input$"):
            with located(site=1):
                raise ValueError("bad input")
        with located(tau=1.0) as entered:
            value = 7
        assert entered is None and value == 7
