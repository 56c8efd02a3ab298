"""Package surface: what ``coneapprox`` re-exports from its modules."""

import coneapprox
from coneapprox import approximation, enumeration, experiments, inference, spaces, weights


def test_package_all_is_the_union_of_module_lists():
    modules = (weights, enumeration, spaces, approximation, inference, experiments)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert coneapprox.__all__ == listed
    for module in modules:
        for name in module.__all__:
            assert getattr(coneapprox, name) is getattr(module, name)
