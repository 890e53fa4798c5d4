"""The package namespace: one list of public names, taken from the modules."""

import medaxis as mx
from medaxis import axis, experiments, field, flow, metrics, scene, svgout

MODULES = (scene, field, axis, flow, metrics, svgout, experiments)


def test_all_is_the_union_of_the_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(set(names)) == len(names)
    assert sorted(mx.__all__) == sorted(names)


def test_each_name_is_the_module_object():
    # the benchmark's tracer rebinds a function wherever the same object is
    # bound, so the package must hold the defining module's own objects
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(mx, name) is getattr(mod, name), (mod.__name__, name)

