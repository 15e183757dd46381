import importlib
import pkgutil

import pytest

import optlaws
import optlaws.sde


def _modules():
    names = ["optlaws", "optlaws.sde"]
    for pkg in (optlaws, optlaws.sde):
        names += [f"{pkg.__name__}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)
                  if not m.ispkg]
    return sorted(names)


@pytest.mark.parametrize("module", _modules())
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which it does not define"
    assert len(set(mod.__all__)) == len(mod.__all__)
