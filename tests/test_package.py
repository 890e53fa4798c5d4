"""The package namespace: one list of public names, taken from the modules;
and the README's examples, which use it."""

import contextlib
import io
import pathlib
import re

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



def test_readme_examples_run(tmp_path, monkeypatch):
    # the blocks share one namespace, in order; the first writes axis.svg
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(readme), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert printed[:2] == ["6.435898384862246", "entered-axis"]
    assert (tmp_path / "axis.svg").exists()
