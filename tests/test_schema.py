"""The scenario and trajectory file formats as one table, `scenario.SCHEMA`.

Properties over the ten shipped scenarios, and over the trajectory files of
the eight that are Optimal at K=16: a key the table does not list is named
as unknown wherever it is added, and a required key that is taken out is
named as missing.  An optional scenario key written out at its table
default reads as if it were left out, and a written trajectory reads back
its profile bit for bit.  The README's lists of keys are held to the
table, and so are every key the shipped files use and every key a
trajectory file is written with; a key added to the table is written and
read back with no other change.
"""

import copy
import dataclasses
import functools
import json
import re
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_topp.scenario import (
    REQUIRED,
    SCHEMA,
    RunSettings,
    ScenarioError,
    assemble_scenario,
    profile_from_json_dict,
    run,
    scenario_from_dict,
)
from contact_topp.transcription import build_grid

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "scenarios").rglob("*.json"))
NAMES = [str(p.relative_to(ROOT / "scenarios").with_suffix("")) for p in SHIPPED]


def shipped(name) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def objects_of(data, level="scenario", path="scenario"):
    """(path, level, object) of each JSON object of a scenario or trajectory file, as the table reads it."""
    yield path, level, data
    fields = SCHEMA[level][1]
    for key, value in data.items():
        rule = fields[key][0]
        if isinstance(rule, str) and value is not None:
            yield from objects_of(value, rule, f"{path}.{key}")
        elif isinstance(rule, list):
            for i, item in enumerate(value):
                yield from objects_of(item, rule[0], f"{path}.{key}[{i}]")


# the shipped scenarios that are Optimal at K=16; waiter tilts 17.5 and 20 are certified infeasible
OPTIMAL_NAMES = [name for name in NAMES if name not in ("waiter/tilt_17_5", "waiter/tilt_20")]
# (root level, name): each shipped scenario file, and the trajectory file of each one Optimal at K=16
FILES = [pytest.param("scenario", name, id=name) for name in NAMES] + [
    pytest.param("trajectory", name, id=f"{name}.trajectory") for name in OPTIMAL_NAMES
]


@functools.cache
def solved(name):
    """The output of solving shipped scenario `name` at K=16, and its trajectory file's text."""
    out = run(scenario_from_dict(shipped(name)), RunSettings(grid_override=16, output_points=5))
    return out, json.dumps(out.to_json_dict())


def file_of(root, name) -> dict:
    return shipped(name) if root == "scenario" else json.loads(solved(name)[1])


def load_error(data, root) -> str:
    with pytest.raises(ScenarioError) as info:
        (scenario_from_dict if root == "scenario" else profile_from_json_dict)(data)
    return str(info.value)


KEYS = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)


@pytest.mark.parametrize("root, name", FILES)
@settings(max_examples=4)
@given(draw=st.data())
def test_unknown_key_is_named(root, name, draw):
    data = file_of(root, name)
    path, level, node = draw.draw(st.sampled_from(list(objects_of(data, root, root))))
    key = draw.draw(KEYS.filter(lambda key: key not in SCHEMA[level][1]))
    node[key] = 0
    assert load_error(data, root).startswith(f"{path}.{key}: unknown field")


@pytest.mark.parametrize("root, name", FILES)
@settings(max_examples=4)
@given(draw=st.data())
def test_missing_required_key_is_named(root, name, draw):
    data = file_of(root, name)
    path, level, node = draw.draw(st.sampled_from(list(objects_of(data, root, root))))
    key = draw.draw(st.sampled_from([k for k, (_, default) in SCHEMA[level][1].items() if default is REQUIRED]))
    del node[key]
    assert load_error(data, root) == f"{path}: missing field {key!r}"


@pytest.mark.parametrize("name", OPTIMAL_NAMES)
def test_trajectory_reads_back_its_profile(name):
    out, _ = solved(name)
    profile, intervals, boundary_sdot = profile_from_json_dict(file_of("trajectory", name))
    assert (intervals, boundary_sdot) == (16, out.boundary_sdot)
    for field in ("accel", "speed_sq", "speed_aux", "inverse_avg", "torque"):
        assert np.array_equal(getattr(profile, field), getattr(out.profile, field)), field
    assert list(profile.wrenches) == list(out.contact_order)
    for cid, wrench in profile.wrenches.items():
        assert np.array_equal(wrench, out.profile.wrenches[cid]), cid


@pytest.mark.parametrize("name", OPTIMAL_NAMES)
def test_trajectory_is_written_with_the_schema_keys(name):
    for path, level, node in objects_of(file_of("trajectory", name), "trajectory", "trajectory"):
        assert list(node) == list(SCHEMA[level][1]), path
    # what is written is already the JSON value, with no array or tuple left for the reader to meet
    out, text = solved(name)
    assert out.to_json_dict() == json.loads(text)


def test_a_key_added_to_the_table_is_written_and_read_back(monkeypatch):
    # one table row declares a key: the writer writes it at its place in the table, the reader reads it
    monkeypatch.setitem(SCHEMA["solver"][1], "timings", (SCHEMA["solver"][1]["residuals"][0], None))
    out, _ = solved("pickup")
    out = dataclasses.replace(out, meta={"timings": {"solve": np.array([0.5, 0.25])}, **out.meta})
    data = json.loads(json.dumps(out.to_json_dict()))
    assert list(data["solver"]) == list(SCHEMA["solver"][1]) and data["solver"]["timings"] == {"solve": [0.5, 0.25]}
    profile, intervals, _ = profile_from_json_dict(data)
    assert intervals == 16 and np.array_equal(profile.torque, out.profile.torque)


@pytest.mark.parametrize("name", NAMES)
def test_defaults_written_out_read_as_left_out(name):
    data = shipped(name)
    written = copy.deepcopy(data)
    for _, level, node in list(objects_of(written)):
        for key, (_, default) in SCHEMA[level][1].items():
            if default is not REQUIRED and key not in node:
                node[key] = json.loads(json.dumps(default))
    grid = build_grid(4)
    program = assemble_scenario(scenario_from_dict(data), grid).to_json_dict()
    assert assemble_scenario(scenario_from_dict(written), grid).to_json_dict() == program


def levels_of(root) -> list:
    """`root` and every level nested in it, at any depth."""
    levels = [root]
    for level in levels:
        for rule, _ in SCHEMA[level][1].values():
            nested = rule[0] if isinstance(rule, list) else rule
            if isinstance(nested, str) and nested not in levels:
                levels.append(nested)
    return levels


def readme_keys(heading) -> dict:
    """(level, key) -> ("required" or the default as a JSON value, nested level or None),
    from the key list of the README's section `heading`."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    keys = {}
    for line in section.splitlines():
        if re.match(r"    \w+\.\w+  ", line):
            key, default, *nested = re.split(r"\s{2,}", line.strip())
            level, _, key = key.partition(".")
            keys[level, key] = (default if default == "required" else json.loads(default), nested[0] if nested else None)
    return keys


def test_readme_lists_the_schema():
    # each file kind's section lists the levels of that kind, and the two cover the table
    sections = {"Scenario files": levels_of("scenario"), "Trajectory files": levels_of("trajectory")}
    assert sorted(sum(sections.values(), [])) == sorted(SCHEMA)
    for heading, levels in sections.items():
        listed = {}
        for level in levels:
            for key, (rule, default) in SCHEMA[level][1].items():
                shown = "required" if default is REQUIRED else json.loads(json.dumps(default))
                nested = rule if isinstance(rule, str) else f"[{rule[0]}]" if isinstance(rule, list) else None
                listed[level, key] = (shown, nested)
        assert readme_keys(heading) == listed, heading


def test_shipped_keys_are_in_the_schema():
    for name in NAMES:
        for path, level, node in objects_of(shipped(name)):
            assert set(node) <= set(SCHEMA[level][1]), f"{name}: {path}"
