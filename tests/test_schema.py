"""The scenario file format as one table, `scenario.SCHEMA`.

Properties over the ten shipped scenarios: a key the table does not list is
named as unknown wherever it is added, a required key that is taken out is
named as missing, and an optional key written out at its table default
reads as if it were left out.  The README's list of keys is held to the
table, and so is every key the shipped files use.
"""

import copy
import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_topp.scenario import REQUIRED, SCHEMA, ScenarioError, assemble_scenario, scenario_from_dict
from contact_topp.transcription import build_grid

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "scenarios").rglob("*.json"))
NAMES = [str(p.relative_to(ROOT / "scenarios").with_suffix("")) for p in SHIPPED]


def shipped(name) -> dict:
    return json.loads((ROOT / "scenarios" / f"{name}.json").read_text())


def objects_of(data, level="scenario", path="scenario"):
    """(path, level, object) of each JSON object of a scenario file, as the table reads it."""
    yield path, level, data
    fields = SCHEMA[level][1]
    for key, value in data.items():
        rule = fields[key][0]
        if isinstance(rule, str) and value is not None:
            yield from objects_of(value, rule, f"{path}.{key}")
        elif isinstance(rule, list):
            for i, item in enumerate(value):
                yield from objects_of(item, rule[0], f"{path}.{key}[{i}]")


def load_error(data) -> str:
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    return str(info.value)


KEYS = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=4)
@given(draw=st.data())
def test_unknown_key_is_named(name, draw):
    data = shipped(name)
    path, level, node = draw.draw(st.sampled_from(list(objects_of(data))))
    key = draw.draw(KEYS.filter(lambda key: key not in SCHEMA[level][1]))
    node[key] = 0
    assert load_error(data).startswith(f"{path}.{key}: unknown field")


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=4)
@given(draw=st.data())
def test_missing_required_key_is_named(name, draw):
    data = shipped(name)
    path, level, node = draw.draw(st.sampled_from(list(objects_of(data))))
    key = draw.draw(st.sampled_from([k for k, (_, default) in SCHEMA[level][1].items() if default is REQUIRED]))
    del node[key]
    assert load_error(data) == f"{path}: missing field {key!r}"


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


def readme_keys() -> dict:
    """(level, key) -> ("required" or the default as a JSON value, nested level or None),
    from the key list of the README's "Scenario files" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    keys = {}
    for line in section.splitlines():
        if re.match(r"    \w+\.\w+  ", line):
            key, default, *nested = re.split(r"\s{2,}", line.strip())
            level, _, key = key.partition(".")
            keys[level, key] = (default if default == "required" else json.loads(default), nested[0] if nested else None)
    return keys


def test_readme_lists_the_schema():
    listed = {}
    for level, (_, fields) in SCHEMA.items():
        for key, (rule, default) in fields.items():
            written = "required" if default is REQUIRED else json.loads(json.dumps(default))
            nested = rule if isinstance(rule, str) else f"[{rule[0]}]" if isinstance(rule, list) else None
            listed[level, key] = (written, nested)
    assert readme_keys() == listed


def test_shipped_keys_are_in_the_schema():
    for name in NAMES:
        for path, level, node in objects_of(shipped(name)):
            assert set(node) <= set(SCHEMA[level][1]), f"{name}: {path}"
