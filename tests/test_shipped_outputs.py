"""The seven shipped configs' outputs, pinned value by value.

``tests/data/shipped/<stem>/`` holds the diagnostics.csv, acceptance.json
and rates.json that ``collapse-lab run`` writes for ``configs/<stem>.json``.
Each value the package writes now must match its stored twin to ROUNDOFF
relative to the sup of its column: a CSV column, or, in the JSON files, the
value alone.  Text, booleans and nulls must match exactly, and so must NaN.
So a value that moves inside its acceptance bound fails here, while
columns already at roundoff late in a run cannot flake.  A change of spec
rewrites the stored files from a fresh run, with the columns it moves named
in CHANGES.md.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from collapse_lab.config import load_config
from collapse_lab.experiments import run_experiment, write_report

ROOT = Path(__file__).resolve().parent.parent
STORED = Path(__file__).resolve().parent / "data" / "shipped"
STEMS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
FILES = ("diagnostics.csv", "acceptance.json", "rates.json")
ROUNDOFF = 1e-12


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(node, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _leaves(value, path + (k,))
    else:
        yield path, node


def columns(path):
    """A written file as named columns of values: each CSV column, or each
    JSON scalar as a column of one."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return {name: [_number(row[k]) for row in rows[1:]]
                for k, name in enumerate(rows[0])}
    return {path_: [value] for path_, value in _leaves(json.loads(text))}


def _is_real(value):
    return isinstance(value, float) or (isinstance(value, int)
                                        and not isinstance(value, bool))


def mismatches(want, got):
    """(column, row, stored, written) of each value that does not match."""
    found = [(name, None, None, None) for name in set(want) ^ set(got)]
    for name in sorted(set(want) & set(got), key=str):
        stored, written = want[name], got[name]
        if len(stored) != len(written):
            found.append((name, None, len(stored), len(written)))
            continue
        sup = max([abs(v) for v in stored
                   if _is_real(v) and math.isfinite(v)], default=0.0)
        for k, (a, b) in enumerate(zip(stored, written)):
            if _is_real(a) and _is_real(b):
                same = (math.isnan(a) and math.isnan(b)) \
                    or abs(a - b) <= ROUNDOFF * sup
            else:
                same = type(a) is type(b) and a == b
            if not same:
                found.append((name, k, a, b))
    return found


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("shipped")
    for stem in STEMS:
        cfg = load_config(ROOT / "configs" / f"{stem}.json")
        write_report(run_experiment(cfg), out / stem)
    return out


def test_every_shipped_config_has_stored_outputs():
    assert len(STEMS) == 7
    assert sorted(p.name for p in STORED.iterdir()) == STEMS


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize("stem", STEMS)
def test_shipped_output_matches_its_stored_values(stem, name, written):
    assert mismatches(columns(STORED / stem / name),
                      columns(written / stem / name)) == []


def _largest(cols):
    """Column and row of the largest finite real value among ``cols``, or
    None if there is none, as in the empty fits of a run without rates."""
    hits = [(abs(v), name, k) for name, vals in cols.items()
            for k, v in enumerate(vals) if _is_real(v) and math.isfinite(v)]
    return max(hits, key=lambda hit: hit[0])[1:] if hits else None


@pytest.mark.parametrize("stem", STEMS)
def test_a_1e_9_relative_change_of_one_value_is_seen(stem):
    # the largest value of each file that has one, moved alone
    moved_files = 0
    for name in FILES:
        stored = columns(STORED / stem / name)
        assert mismatches(stored, columns(STORED / stem / name)) == []
        if _largest(stored) is None:
            continue
        column, row = _largest(stored)
        moved = {key: list(vals) for key, vals in stored.items()}
        moved[column][row] *= 1.0 + 1e-9
        assert mismatches(stored, moved) == [
            (column, row, stored[column][row], moved[column][row])]
        moved_files += 1
    assert moved_files >= 2
