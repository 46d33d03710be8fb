"""Command line behavior: outputs, formats, and the exit code contract."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import stablepartners
from stablepartners import cli, instance_from_dict, instance_to_dict
from stablepartners.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)

from conftest import (
    ACCEPTANCE_STARS,
    b4_doc,
    bad_table_doc,
    blocks_doc,
    con_violating_table,
    cycle3_doc,
    degenerate_doc,
    gated_instance,
    gl_violating_table,
    hub_doc,
    latin_doc,
    mon_violating_table,
    numbered_triangle_doc,
    random_general_doc,
    ring_doc,
    star_cf,
    sub_violating_table,
    triangle_doc,
)

B4_MIN = {"w1f1": 1, "w1f2": 0, "w2f1": 0, "w2f2": 1}
B4_MAX = {"w1f1": 0, "w1f2": 1, "w2f1": 1, "w2f2": 0}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_one_side_optimum_command(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    code, out = run(capsys, "bipartite-solve", "--instance", inst, "--side", "W")
    assert code == EXIT_OK
    assert json.loads(out) == {"side": "W", "x": B4_MIN}
    code, out = run(capsys, "bipartite-solve", "--instance", inst, "--side", "F")
    assert code == EXIT_OK
    assert json.loads(out) == {"side": "F", "x": B4_MAX}


def test_axiom_check_passes_on_quota_instances(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    code, out = run(capsys, "check-axioms", "--instance", inst)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["holds"] is True
    assert sorted(doc["vertices"]) == ["f1", "f2", "w1", "w2"]
    code, out = run(
        capsys,
        "check-axioms",
        "--instance",
        inst,
        "--vertex",
        "w1",
        "--axiom",
        "sub",
    )
    assert code == EXIT_OK
    assert list(json.loads(out)["vertices"]) == ["w1"]


def test_axiom_check_covers_empty_and_zero_capacity_stars(tmp_path, capsys):
    inst = write_json(tmp_path / "degenerate.json", degenerate_doc())
    code, out = run(capsys, "check-axioms", "--instance", inst)
    assert code == EXIT_OK
    lone = json.loads(out)["vertices"]["lone"]
    assert {axiom: lone[axiom]["pairs_checked"] for axiom in lone} == {
        "SUB": 1,
        "MON": 1,
        "CON": 1,
        "GL": 0,
    }


def test_axiom_check_flags_a_bad_table(tmp_path, capsys):
    inst = write_json(tmp_path / "hub.json", bad_table_doc())
    code, out = run(capsys, "check-axioms", "--instance", inst, "--vertex", "hub")
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    assert doc["holds"] is False
    sub = doc["vertices"]["hub"]["SUB"]
    assert sub["holds"] is False
    assert sub["witness"] is not None


def test_unusable_input_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    assert run(capsys, "solve", "--instance", missing)[0] == EXIT_INPUT
    garbled = tmp_path / "broken.json"
    garbled.write_text("{not json", encoding="utf-8")
    assert run(capsys, "solve", "--instance", str(garbled))[0] == EXIT_INPUT
    inst = write_json(tmp_path / "b4.json", b4_doc())
    assert run(capsys, "bipartite-solve", "--instance", inst, "--side", "X")[0] == EXIT_INPUT
    assert run(capsys, "verify", "--instance", inst)[0] == EXIT_INPUT
    assert run(capsys, "check-axioms", "--instance", inst, "--vertex", "zz")[0] == EXIT_INPUT
    doc = b4_doc()
    doc["choice"]["w1"]["quota"] = "x"
    inst = write_json(tmp_path / "quota.json", doc)
    assert run(capsys, "solve", "--instance", inst)[0] == EXIT_INPUT


def test_unreadable_solutions_and_unwritable_outputs_exit_one(tmp_path, capsys):
    """Each failure reaches the exit-1 line with its own message."""
    inst = write_json(tmp_path / "triangle.json", triangle_doc())
    garbled = tmp_path / "solution.json"
    garbled.write_text("{not json", encoding="utf-8")
    code = main(["verify", "--instance", inst, "--solution", str(garbled)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: invalid JSON in ")
    nowhere = str(tmp_path / "missing" / "out.json")
    code = main(["solve", "--instance", inst, "--out", nowhere])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot write ")


TRI_ZERO = {"ab": 0, "bc": 0, "ca": 0}

# Each case: a command, its instance document, the option naming the second
# document, and that document, which is ill-typed.
BAD_VECTOR_DOCUMENTS = {
    "solution-x-string": ("verify", triangle_doc, "--solution", {"x": {"ab": "x"}, "K": []}),
    "solution-x-float": ("verify", triangle_doc, "--solution", {"x": {"ab": 1.5}, "K": []}),
    "solution-x-bool": ("verify", triangle_doc, "--solution", {"x": {"ab": True}, "K": []}),
    "solution-k-int": ("verify", triangle_doc, "--solution", {"x": TRI_ZERO, "K": 5}),
    "at-string": ("rotations", b4_doc, "--at", {"w1f1": "x"}),
    "at-null": ("rotations", b4_doc, "--at", {"w1f1": None}),
    "at-float": ("rotations", b4_doc, "--at", {"w1f1": 0.5}),
}


@pytest.mark.parametrize(
    "command, build, option, doc",
    BAD_VECTOR_DOCUMENTS.values(),
    ids=list(BAD_VECTOR_DOCUMENTS),
)
def test_ill_typed_vector_documents_exit_one(
    tmp_path, capsys, command, build, option, doc
):
    inst = write_json(tmp_path / "inst.json", build())
    arg = write_json(tmp_path / "arg.json", doc)
    assert run(capsys, command, "--instance", inst, option, arg)[0] == EXIT_INPUT


NUMBERED_CYCLE = ["1", "c", "3", "b", "2", "a"]

# Cycle documents on numbered_triangle_doc() whose ids are not all strings:
# a vertex written as a JSON number, and an edge written as a list.
BAD_CYCLE_DOCUMENTS = {
    "vertex-number": [1] + NUMBERED_CYCLE[1:],
    "edge-list": ["1", []] + NUMBERED_CYCLE[2:],
}


@pytest.mark.parametrize(
    "cycle", BAD_CYCLE_DOCUMENTS.values(), ids=list(BAD_CYCLE_DOCUMENTS)
)
def test_cycle_ids_that_are_not_strings_exit_one(tmp_path, capsys, cycle):
    inst = write_json(tmp_path / "inst.json", numbered_triangle_doc())
    x = {"a": 0, "b": 0, "c": 0}
    good = write_json(tmp_path / "good.json", {"x": x, "K": [NUMBERED_CYCLE]})
    assert run(capsys, "verify", "--instance", inst, "--solution", good)[0] == EXIT_OK
    bad = write_json(tmp_path / "bad.json", {"x": x, "K": [cycle]})
    assert main(["verify", "--instance", inst, "--solution", bad]) == EXIT_INPUT
    assert "alternates vertex and edge ids" in capsys.readouterr().err


def test_unexpected_exceptions_exit_four_with_an_error_line(
    tmp_path, capsys, monkeypatch
):
    def broken_solve(inst, seed):
        raise KeyError("w9")

    monkeypatch.setattr(cli, "solve", broken_solve)
    inst = write_json(tmp_path / "b4.json", b4_doc())
    assert main(["solve", "--instance", inst]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "error: KeyError: 'w9'\n"


def test_two_calls_build_the_parser_once(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    sol = str(tmp_path / "solution.json")
    cli.build_parser.cache_clear()
    assert run(capsys, "solve", "--instance", inst, "--out", sol)[0] == EXIT_OK
    assert run(capsys, "verify", "--instance", inst, "--solution", sol)[0] == EXIT_OK
    assert cli.build_parser.cache_info().misses == 1


def test_a_seed_does_not_outlive_its_call(tmp_path, capsys):
    """The shared parser hands a plain ``solve`` the default seed again."""
    inst = write_json(tmp_path / "b4.json", b4_doc())
    seeded = run(capsys, "solve", "--instance", inst, "--seed", "2")
    plain = run(capsys, "solve", "--instance", inst)
    zero = run(capsys, "solve", "--instance", inst, "--seed", "0")
    assert seeded != plain == zero


def test_budget_exhaustion_exits_three(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    assert run(capsys, "brute", "--instance", inst, "--budget", "1")[0] == EXIT_BUDGET
    assert run(capsys, "poset", "--instance", inst, "--budget", "1")[0] == EXIT_BUDGET


def test_unstable_probe_point_exits_two(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    at = write_json(
        tmp_path / "zero.json", {"w1f1": 0, "w1f2": 0, "w2f1": 0, "w2f2": 0}
    )
    code, _ = run(capsys, "rotations", "--instance", inst, "--at", at)
    assert code == EXIT_VERIFY


def test_family_conflict_exits_two(tmp_path, capsys):
    inst = write_json(tmp_path / "gated.json", instance_to_dict(gated_instance()))
    code, _ = run(capsys, "poset", "--instance", inst)
    assert code == EXIT_VERIFY


def test_solve_and_verify_round_trip(tmp_path, capsys):
    """The solver's own output file passes the verify command unchanged."""
    inst = write_json(tmp_path / "tri.json", triangle_doc())
    sol = str(tmp_path / "sol.json")
    code, out = run(capsys, "solve", "--instance", inst, "--out", sol)
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(Path(sol).read_text(encoding="utf-8"))
    assert doc["solvable"] is False
    assert doc["verified"] is True
    code, out = run(capsys, "verify", "--instance", inst, "--solution", sol)
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True
    fake = write_json(
        tmp_path / "fake.json", {"x": {"ab": 0, "bc": 0, "ca": 0}, "K": []}
    )
    code, out = run(capsys, "verify", "--instance", inst, "--solution", fake)
    assert code == EXIT_VERIFY
    assert json.loads(out)["ok"] is False


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    inst = write_json(tmp_path / "tri.json", triangle_doc())
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    assert run(capsys, "solve", "--instance", inst, "--out", first)[0] == EXIT_OK
    assert run(capsys, "solve", "--instance", inst, "--out", second)[0] == EXIT_OK
    assert Path(first).read_bytes() == Path(second).read_bytes()
    chain = write_json(tmp_path / "c3.json", cycle3_doc())
    outs = [run(capsys, "route", "--instance", chain, "--seed", "3")[1] for _ in range(2)]
    assert outs[0] == outs[1]


def _pinned_documents():
    rng = random.Random(0)
    docs = {
        "b4": b4_doc(),
        "triangle": triangle_doc(),
        "blocks4": blocks_doc(4),
        "latin5": latin_doc(5),
    }
    docs.update({"ring{}".format(n): ring_doc(n, 3, 3) for n in (3, 5, 7)})
    docs.update({"random{}".format(i): random_general_doc(rng) for i in range(12)})
    docs.update(AXIOM_DOCUMENTS)
    return docs


def _axiom_documents():
    docs = {
        "star{}x{}".format(len(caps), caps[0]): hub_doc(star_cf(caps, quota))
        for caps, quota in ACCEPTANCE_STARS
    }
    for axiom, table in (
        ("sub", sub_violating_table),
        ("mon", mon_violating_table),
        ("con", con_violating_table),
        ("gl", gl_violating_table),
    ):
        docs["{}_table".format(axiom)] = hub_doc(table())
    return docs


AXIOM_DOCUMENTS = _axiom_documents()
PINNED_DOCUMENTS = _pinned_documents()
PINNED_DIGESTS = json.loads(
    (Path(__file__).parent / "cli_stdout_sha256.json").read_text(encoding="utf-8")
)


def _pinned_runs():
    for name, doc in PINNED_DOCUMENTS.items():
        if name in AXIOM_DOCUMENTS:
            yield name, ["check-axioms", "--axiom", "all", "--budget", "100000000"]
            # The default budget counts the work done: the 13x1 star's SUB
            # passes, its GL (2,940,300 comparisons) exits 3.
            yield name, ["check-axioms", "--axiom", "all"]
            if name == "star13x1":
                yield name, ["check-axioms", "--axiom", "sub"]
            continue
        commands = [["solve", "--seed", "0"], ["solve", "--seed", "2"], ["brute"]]
        if "bipartition" in doc:
            commands += [["route"], ["poset"], ["rotations"], ["bipartite-solve"]]
        for command in commands:
            yield name, command


@pytest.mark.parametrize(
    "name, command",
    list(_pinned_runs()),
    ids=["{} {}".format(n, " ".join(c)) for n, c in _pinned_runs()],
)
def test_stdout_matches_its_pinned_digest(tmp_path, capsys, name, command):
    """Exit code and stdout sha256 per (document, command), as pinned."""
    inst = write_json(tmp_path / "inst.json", PINNED_DOCUMENTS[name])
    code, out = run(capsys, command[0], "--instance", inst, *command[1:])
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert [code, digest] == PINNED_DIGESTS["{} {}".format(name, " ".join(command))]


def test_every_pinned_digest_is_run():
    keys = {"{} {}".format(n, " ".join(c)) for n, c in _pinned_runs()}
    assert keys == set(PINNED_DIGESTS)


def test_route_command_reports_every_step(tmp_path, capsys):
    inst_doc = cycle3_doc()
    inst = write_json(tmp_path / "c3.json", inst_doc)
    code, out = run(capsys, "route", "--instance", inst)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["steps"]) == 2
    assert all(step["weight"] == 1 for step in doc["steps"])
    assert doc["steps"][-1]["target"] == doc["end"]
    space = instance_from_dict(inst_doc).space
    assert sorted(doc["start"]) == sorted(space.ids)


def test_rotation_listing_matches_the_known_block(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    code, out = run(capsys, "rotations", "--instance", inst)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["at"] == B4_MIN
    assert len(doc["rotations"]) == 1
    steps = [(s["v"], s["e"]) for s in doc["rotations"][0]["steps"]]
    assert steps == [("w1", "w1f2"), ("f2", "w2f2"), ("w2", "w2f1"), ("f1", "w1f1")]


def test_brute_reports_counts_and_extremes(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    code, out = run(capsys, "brute", "--instance", inst)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["min"] == B4_MIN
    assert doc["max"] == B4_MAX
    tri = write_json(tmp_path / "tri.json", triangle_doc())
    code, out = run(capsys, "brute", "--instance", tri)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["count"] == 0
    assert "min" not in doc


def test_csv_output_for_tabular_commands(tmp_path, capsys):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    code, out = run(capsys, "brute", "--instance", inst, "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    space = instance_from_dict(b4_doc()).space
    assert tuple(lines[0].split(",")) == space.ids
    assert len(lines) == 3
    chain = write_json(tmp_path / "c3.json", cycle3_doc())
    code, out = run(capsys, "poset", "--instance", chain, "--format", "csv")
    assert code == EXIT_OK
    assert out.strip().split("\n") == ["from,to", "0,1"]
    tri = write_json(tmp_path / "tri.json", triangle_doc())
    code, _ = run(capsys, "solve", "--instance", tri, "--format", "csv")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("rotations", "--seed", "3"),
        ("verify", "--budget", "5"),
        ("bipartite-solve", "--format", "json"),
        ("check-axioms", "--seed", "1"),
        ("route", "--budget", "5"),
        ("solve", "--budget", "5"),
        ("check-axioms", "--format", "json"),
    ],
)
def test_options_a_command_does_not_read_are_refused(
    tmp_path, capsys, command, option, value
):
    inst = write_json(tmp_path / "b4.json", b4_doc())
    argv = [command, "--instance", inst, option, value]
    if command == "verify":
        argv += ["--solution", inst]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: {} {}".format(option, value) in captured.err


def test_importing_the_cli_leaves_networkx_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stablepartners.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, stablepartners.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
