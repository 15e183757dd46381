import importlib
import pkgutil
import warnings
from pathlib import Path

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


def test_package_version_is_read_from_the_package():
    # pyproject.toml names the version dynamic: setuptools reads optlaws.__version__
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(optlaws.__file__).resolve().parents[2] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        project = read_configuration(pyproject, expand=True)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == optlaws.__version__
