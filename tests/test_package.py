"""The package namespace re-exports each module's public names, declared once."""

import pdm_dirac
from pdm_dirac import errors, feasibility, params, solver, spectrum

MODULES = (errors, params, spectrum, feasibility, solver)


def test_package_all_is_the_union_of_the_module_alls():
    names = [name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pdm_dirac, name) is getattr(module, name)
    assert len(pdm_dirac.__all__) == len(set(pdm_dirac.__all__))
    assert set(pdm_dirac.__all__) == {"__version__", *names}
    # module-level helpers that the package does not export
    for name in ("number_from_json", "DEFAULT_HALF_WIDTH_STEPS", "DEFAULT_NUM_POINTS"):
        assert not hasattr(pdm_dirac, name)
