"""Every loader refuses a container field of the wrong type.

Each top-level container field of the bundled pair files, of a cactus and of
a group table is replaced in turn by {}, "", 0 and null, and the command that
reads the file runs in process.  No exception may leave ``run_cli``.  A pair,
cactus or group command exits 2 with one line naming the field; ``string
validate`` prints a REJECT line naming it.  ``validate`` reads only the BV
algebra, so the pair fields B, tau and p go to the pair commands alone, and
``bv_delta_zero.json`` has no B, so it goes to ``validate`` alone."""

import copy
import json
import os
import re

import pytest

from operadkit.cli import run_cli

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "operadkit", "data")
SWAPS = [{}, "", 0, None]
ALGEBRA_FIELDS = ["basis", "product", "delta"]
PAIR_FIELDS = ["B", "B.basis", "tau", "p"]


def _bundled(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def _cases():
    cases = []
    for name in ("bv_two_dim.json", "bv_free_blocks.json", "bv_delta_zero.json"):
        has_pair = "B" in _bundled(name)
        for field in ALGEBRA_FIELDS + (PAIR_FIELDS if has_pair else []):
            actions = ["validate"] if field in ALGEBRA_FIELDS else []
            actions += ["transfer-lie"] if has_pair else []
            for action in actions:
                cases.append((name, field, ["string", action, "--data"]))
    cases += [("cactus", field, ["cacti", "compose"]) for field in ("arity", "arcs")]
    cases += [("group", field, ["group", "tomdieck", "--table"]) for field in ("table", "identity")]
    return cases


CASES = _cases()


def _base(source):
    if source == "cactus":
        return {"arity": 2, "arcs": [[1, "1/2"], [2, "1/2"]]}
    if source == "group":
        # the cyclic group of order 3 with identity 1, so that 0 is a wrong identity
        return {"table": [[(a + b - 1) % 3 for b in range(3)] for a in range(3)], "identity": 1}
    return _bundled(source)


def _swap(data, field, value):
    data = copy.deepcopy(data)
    *outer, last = field.split(".")
    inner = data
    for key in outer:
        inner = inner[key]
    inner[last] = value
    return data


@pytest.mark.parametrize(
    "source, field, prefix",
    CASES,
    ids=["%s-%s-%s" % (src, field, prefix[1]) for src, field, prefix in CASES],
)
@pytest.mark.parametrize("value", SWAPS, ids=["object", "string", "zero", "null"])
def test_a_swapped_container_field_is_refused_by_name(
        tmp_path, capsys, source, field, prefix, value):
    path = str(tmp_path / "data.json")
    with open(path, "w") as fh:
        json.dump(_swap(_base(source), field, value), fh)
    # cacti compose reads two cactus files; the first one is refused
    argv = prefix + ([path, path, "--at", "1"] if prefix[0] == "cacti" else [path])
    code = run_cli(argv)
    got = capsys.readouterr()
    out, err = got.out, got.err.replace(path, "FILE")
    named = re.compile(r"(?<![\w.])%s\b" % re.escape(field))
    if prefix[1] == "validate":
        assert code == 1 and out.startswith("REJECT"), out
        assert named.search(out), out
    else:
        assert (code, out) == (2, ""), (code, out, err)
        assert err.count("\n") == 1 and named.search(err), err


def test_an_empty_arc_word_is_refused_by_name(tmp_path, capsys):
    path = tmp_path / "cactus.json"
    path.write_text(json.dumps({"arity": 1, "arcs": []}))
    code = run_cli(["cacti", "compose", str(path), str(path), "--at", "1"])
    err = capsys.readouterr().err.replace(str(path), "FILE")
    assert code == 2
    assert err == "cannot load cactus 'FILE': arcs must be a non-empty list of [label, length] pairs\n"
