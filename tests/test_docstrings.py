"""Documentation quality gate: every public item carries a docstring.

The deliverable requires doc comments on every public item; this
meta-test enforces it mechanically — every public module, class,
function, and method reachable from the ``repro`` package must have a
non-trivial docstring.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MIN_DOC_LENGTH = 10


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if defined_here:
                yield name, obj


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and len(module.__doc__.strip()) >= MIN_DOC_LENGTH, (
        f"module {module.__name__} lacks a docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in public_members(module):
        doc = inspect.getdoc(obj)
        if not doc or len(doc.strip()) < MIN_DOC_LENGTH:
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for mname, member in vars(obj).items():
                if mname.startswith("_") or not callable(member):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not inspect.isfunction(member):
                    continue
                mdoc = inspect.getdoc(member)
                if not mdoc or len(mdoc.strip()) < MIN_DOC_LENGTH:
                    undocumented.append(f"{module.__name__}.{name}.{mname}")
    assert not undocumented, f"undocumented public items: {undocumented}"
