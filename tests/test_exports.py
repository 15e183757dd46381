import importlib
import pkgutil
import re
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


def test_readme_library_sketch_runs(monkeypatch, capsys):
    # the README's "Library sketch" block, run from the repository root
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library sketch\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    monkeypatch.chdir(root)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0].startswith("{'log_loss': ")
    assert all(line.count("verdict='ok'") == 3 for line in out[1:])
