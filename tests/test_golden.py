"""Golden outputs: rerun the commands of tests/golden/manifest.json and compare bytes.

The manifest is written by ``tests/make_golden.py``; see its docstring for
what it records and when to regenerate it.
"""

import json

import pytest

import make_golden

with open(make_golden.MANIFEST, encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    make_golden.write_inputs(str(directory))
    return str(directory)


def test_environment_matches_the_manifest():
    recorded, running = MANIFEST["environment"], make_golden.environment()
    if recorded != running:
        pytest.fail(f"the golden manifest was recorded under {recorded} but this run has "
                    f"{running}; outputs may differ in the last digit, so compare against "
                    "a manifest made with tests/make_golden.py under these versions")


def test_manifest_records_the_current_commands():
    # the commands below rerun the manifest's argv, so an edited or added
    # COMMANDS entry would pass them until the manifest is regenerated
    recorded = {name: entry["argv"] for name, entry in MANIFEST["commands"].items()}
    assert recorded == make_golden.COMMANDS


@pytest.mark.parametrize("name", sorted(MANIFEST["commands"]))
def test_command_bytes_match_the_manifest(name, input_dir):
    test_environment_matches_the_manifest()
    want = MANIFEST["commands"][name]
    assert make_golden.run(want["argv"], input_dir) == want
