"""The exit-code contract under mutated input files.

Valid groupoid and action JSON trees are mutated (values of the wrong
type, huge and non-finite numbers, ragged rows, missing keys, non-objects)
and handed to ``validate``, ``monoid``, ``verify``, ``rep`` and
``build transform`` in-process.  Every run must exit 0, 1 or 2 with no
exception out of ``cli.main``; exit 2 comes with one error line, and exit 1
only with a mathematical failure.
"""

import contextlib
import copy
import io as stdio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpd import corpus, io
from gpd.cli import main

TREES = {
    "groupoid": [io.groupoid_to_dict(g) for g in
                 (corpus.cyclic(2), corpus.pair_groupoid(2), corpus.unit_groupoid(2))],
    "action": [io.action_to_dict(corpus.swap_action())],
}
COMMANDS = {
    "groupoid": [["validate"], ["monoid"], ["monoid", "--side", "S'"], ["verify"],
                 ["verify", "--props", "P3.2,CLOSING"], ["rep", "--side", "S'"]],
    "action": [["build", "transform"]],
}
# JSON that json.dumps does not write: stands in for a string, replaced in the text
RAW = {"@huge": "1" * 5000, "@big": "1e400", "@deep": "[" * 3000 + "]" * 3000}

junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.sampled_from([64, 65, 2 ** 63, 10 ** 400, -(10 ** 30)]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(sorted(RAW)),
    st.text(max_size=3), st.sampled_from([[], {}, [[]], {"size": 1}]).map(copy.deepcopy),
    st.lists(st.integers(-2, 4), max_size=4),
)
# two times in three an id of C2, which keeps the file well typed: such
# mutants are mostly axiom or action-law failures, a few still valid
value = st.one_of(st.integers(-1, 1), st.integers(-1, 1), junk)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, kind):
    holder = [copy.deepcopy(draw(st.sampled_from(TREES[kind])))]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(holder[0], (0,)))[::-1]))  # leaves first
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        how = draw(st.sampled_from(["replace", "drop", "grow"]))
        if how == "drop" and parent is not holder:
            # a missing key, or a row or table one entry short
            del parent[key]
        elif how == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(value))
        else:
            parent[key] = draw(value)
    text = json.dumps(holder[0])
    for stand_in, raw in RAW.items():
        text = text.replace(json.dumps(stand_in), raw)
    return text


def _run(argv):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(TREES)).flatmap(lambda kind: st.tuples(
    mutated(kind), st.sampled_from(COMMANDS[kind]))))
def test_every_command_keeps_the_exit_code_contract(workdir, case):
    text, command = case
    path, out = workdir / "in.json", workdir / "out.json"
    path.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    code, stdout, stderr = _run([*command, str(path), "-o", str(out)])
    assert code in (0, 1, 2), (command, text)
    if code == 0:
        assert stderr == "" and out.exists(), (command, text)
    elif code == 2:
        assert stderr.startswith(("error: ", "i/o error: ")) and stderr.count("\n") == 1, stderr
        assert not out.exists()
    elif command[0] == "validate":  # the MathError goes into the INVALID payload
        assert json.loads(out.read_text())["valid"] is False and stderr == "", text
    else:  # a mutant that is a groupoid passes every check, so 1 is a MathError
        assert stderr.startswith("mathematical failure: ") and stderr.count("\n") == 1, stderr
