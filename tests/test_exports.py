import importlib
import json
import pkgutil
import re
import shlex
import warnings
from pathlib import Path

import pytest

import optlaws
import optlaws.sde
from optlaws.cli import main


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


ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_library_sketch_runs(monkeypatch, capsys):
    # the README's "Library sketch" block, run from the repository root
    (code,) = re.findall(r"^## Library sketch\n.*?^```python\n(.*?)^```$", README, re.M | re.S)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[0].startswith("{'log_loss': ")
    assert all(line.count("verdict='ok'") == 3 for line in out[1:])


def test_readme_check_example_prints_its_comment(capsys):
    # the README's check command, and the report its comment shows to 3 places
    ((command, comment),) = re.findall(r"^(optlaws check .*)\n# (\{.*\})$", README, re.M)
    assert main(shlex.split(command)[1:]) == 0
    got, shown = json.loads(capsys.readouterr().out), json.loads(comment)
    assert shown == {"R": 0.526, "eta_L": 0.196, "verdict": "stable"}
    assert {k: round(v, 3) if isinstance(v, float) else v for k, v in got.items()} == shown


def test_readme_lists_the_covariance_constants():
    # the README's sentence naming the routes' refinement constants
    from optlaws.sde import gaussian

    (sentence,) = re.findall(r"module\s+constants\s+of\s+`optlaws\.sde\.gaussian`, not arguments:"
                             r"(.*?)\.\n", README, re.S)
    listed = re.findall(r"`(\w+)`", sentence)
    public = [name for name in vars(gaussian) if name.isupper() and not name.startswith("_")]
    assert sorted(listed) == sorted(public)
