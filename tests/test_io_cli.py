import hashlib
import importlib
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import steiner
from steiner.cli import main, run, SolverConfig, verify_tree
from steiner.connecting import solve_with_cut
from steiner.cuts import minimum_multiway_cut
from steiner.decomposition import (
    decompose_from_multiway_cut,
    gadget_decomposition,
)
from steiner.graph import Graph
from steiner.io import (
    MAX_GENERATE_NODES,
    FormatError,
    Instance,
    emit_cut,
    emit_decomposition,
    emit_pace,
    generate_instance,
    parse_cut,
    parse_decomposition,
    parse_pace,
)

SRC = str(pathlib.Path(steiner.__file__).resolve().parent.parent)
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_child(argv, **kwargs):
    """Run ``python <argv>`` in a fresh interpreter that imports ``steiner`` from SRC."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
        **kwargs,
    )


PATH_INSTANCE = """\
SECTION Graph
Nodes 3
Edges 2
E 1 2 1
E 2 3 2
END

SECTION Terminals
Terminals 2
T 1
T 3
END

EOF
"""


def test_parse_pace_example():
    inst = parse_pace(PATH_INSTANCE)
    assert inst.graph.edge_count == 2
    assert inst.terminals == frozenset({1, 3})


def test_parse_round_trip():
    inst = parse_pace(PATH_INSTANCE)
    again = parse_pace(emit_pace(inst))
    assert again.graph == inst.graph and again.terminals == inst.terminals
    assert emit_pace(again) == emit_pace(inst)


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_pace(PATH_INSTANCE.replace("END\n\nEOF", "EOF"))  # missing END
    with pytest.raises(FormatError):
        parse_pace(PATH_INSTANCE.replace("Edges 2", "Edges 3"))
    with pytest.raises(FormatError):
        parse_pace(PATH_INSTANCE.replace("E 2 3 2", "E 2 9 2"))
    with pytest.raises(FormatError):
        parse_pace("SECTION Graph\nNodes 1\nBOGUS\nEND\nEOF\n")
    try:
        parse_pace("SECTION Graph\nNodes 1\nBOGUS\nEND\nEOF\n")
    except FormatError as exc:
        assert exc.line == 3


def test_parse_rejects_huge_node_count():
    # a declared count is checked before any vertex is built: the parse runs
    # in a child limited to 1 GiB of address space and must fail fast
    text = (
        "SECTION Graph\nNodes 200000000\nEdges 1\nE 1 2 1\nEND\n"
        "SECTION Terminals\nT 1\nEND\nEOF\n"
    )
    code = (
        "import sys\n"
        "from steiner.io import FormatError, parse_pace\n"
        "try:\n"
        "    parse_pace(sys.stdin.read())\n"
        "except FormatError as exc:\n"
        "    print('FormatError', exc.line)\n"
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = run_child(["-c", code], input=text, preexec_fn=limit_memory)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["FormatError", "2"]


def test_duplicate_edge_collapses_to_minimum():
    text = PATH_INSTANCE.replace("E 2 3 2", "E 2 3 2\nE 2 3 1").replace(
        "Edges 2", "Edges 3"
    )
    inst = parse_pace(text)
    assert inst.graph.weight(2, 3) == 1


def test_generator_determinism_and_shape():
    a = generate_instance(5, 7, 9, 3, 10)
    b = generate_instance(5, 7, 9, 3, 10)
    assert emit_pace(a) == emit_pace(b)
    tree = generate_instance(1, 5, 4, 0, 6)
    assert tree.graph.edge_count == 4 and tree.terminals == frozenset()
    with pytest.raises(ValueError):
        generate_instance(0, 5, 3, 2, 10)  # too few edges to connect


def test_generate_rejects_oversized_n():
    # every vertex pair is listed before sampling, so a huge n must be refused
    # before anything is allocated: run in a child limited to 1 GiB
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["-m", "steiner", "generate", "--n", "100000", "--m", "99999", "--k", "2"]
    done = run_child(argv, preexec_fn=limit_memory)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        f"error: 100000 vertices exceed the generator limit of {MAX_GENERATE_NODES}"
    ]


def test_cut_file_round_trip():
    cut = frozenset({2, 5})
    assert parse_cut(emit_cut(cut)) == cut
    with pytest.raises(FormatError):
        parse_cut("CUT 2\n5\n")
    with pytest.raises(FormatError, match="line 3: duplicate cut vertex 5"):
        parse_cut("CUT 2\n5\n5\n")


def test_decomposition_file_round_trip():
    inst = generate_instance(3, 7, 8, 3, 10)
    cut = minimum_multiway_cut(inst.graph, inst.terminals, 2)
    dec = decompose_from_multiway_cut(inst.graph, inst.terminals, cut)
    kind, again = parse_decomposition(emit_decomposition(dec))
    assert kind == "TKD"
    assert again.bags == dec.bags and again.children == dec.children
    assert again.leaf_vertices == dec.leaf_vertices
    with pytest.raises(FormatError):
        parse_decomposition(emit_decomposition(dec).replace("TKD 3", "TKD 4"))


def test_decomposition_width_declaration_checked():
    text = "TKD 1 3\nROOT 1\nB 1 2 1 2\nL 0\n"
    with pytest.raises(FormatError):
        parse_decomposition(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_readme_example_unchanged(capsys):
    code, out = run_cli(capsys, "generate", "--seed", "7", "--n", "8", "--m", "12", "--k", "3")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "def0c1bd4100246df992a0b4eebd1e8d195f1203d6ff668d0ce29d0280dd1ff5"


def test_cli_generate_and_solvers(tmp_path, capsys):
    path = tmp_path / "inst.gr"
    code, _ = run_cli(capsys, "generate", "--seed", "4", "--n", "7", "--m", "10",
                      "--k", "3", "-o", str(path))
    assert code == 0
    values = {}
    for solver in ("dw", "brute", "mwc", "kfree"):
        code, out = run_cli(capsys, "solve", str(path), "--solver", solver,
                            "--witness", "--verify")
        assert code == 0
        lines = out.strip().splitlines()
        values[solver] = lines[0]
        assert lines[0].startswith("VALUE ")
        assert len(lines) > 1  # witness edges
    assert len(set(values.values())) == 1


def test_cli_infeasible_exit_code(tmp_path, capsys):
    text = (
        "SECTION Graph\nNodes 4\nEdges 2\nE 1 2 1\nE 3 4 1\nEND\n"
        "SECTION Terminals\nTerminals 2\nT 1\nT 3\nEND\nEOF\n"
    )
    path = tmp_path / "split.gr"
    path.write_text(text)
    code, out = run_cli(capsys, "solve", str(path), "--solver", "dw")
    assert code == 2 and out.splitlines()[0] == "VALUE INF"


def test_cli_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.gr"
    path.write_text("SECTION Graph\nNodes 1\n")
    code = main(["solve", str(path)])
    assert code == 1


def test_cli_cut_and_decomposition_files(tmp_path, capsys):
    inst = generate_instance(8, 8, 11, 3, 9)
    gr = tmp_path / "inst.gr"
    gr.write_text(emit_pace(inst))
    cut = minimum_multiway_cut(inst.graph, inst.terminals, 2)
    cut_file = tmp_path / "inst.cut"
    cut_file.write_text(emit_cut(cut.vertices))
    code, base_out = run_cli(capsys, "solve", str(gr), "--solver", "dw")
    code, out = run_cli(
        capsys, "solve", str(gr), "--solver", "mwc", "--cut", str(cut_file)
    )
    assert code == 0 and out.splitlines()[0] == base_out.splitlines()[0]

    dec = decompose_from_multiway_cut(inst.graph, inst.terminals, cut)
    tkd = tmp_path / "inst.tkd"
    tkd.write_text(emit_decomposition(dec))
    code, out = run_cli(
        capsys, "solve", str(gr), "--solver", "kfree", "--decomp", str(tkd)
    )
    assert code == 0 and out.splitlines()[0] == base_out.splitlines()[0]

    lifted = gadget_decomposition(inst.graph, inst.terminals, dec)
    tfd = tmp_path / "inst.tfd"
    tfd.write_text(emit_decomposition(lifted, kind="TFD"))
    code, out = run_cli(
        capsys, "solve", str(gr), "--solver", "kfree", "--decomp", str(tfd)
    )
    assert code == 0 and out.splitlines()[0] == base_out.splitlines()[0]


def test_cli_rejects_bad_cut_file(tmp_path, capsys):
    inst = generate_instance(9, 6, 8, 3, 9)
    gr = tmp_path / "inst.gr"
    gr.write_text(emit_pace(inst))
    cut_file = tmp_path / "bad.cut"
    cut_file.write_text("CUT 0\n")
    code = main(["solve", str(gr), "--solver", "mwc", "--cut", str(cut_file)])
    assert code == 1


# path 1-2-3-4 with terminals 1, 2 and 4
CUT_INSTANCE = """\
SECTION Graph
Nodes 4
Edges 3
E 1 2 1
E 2 3 2
E 3 4 1
END

SECTION Terminals
Terminals 3
T 1
T 2
T 4
END

EOF
"""


@pytest.mark.parametrize("cut_text", ["CUT 1\n99\n", "CUT 1\n3\n"], ids=["outside", "joins-1-2"])
@pytest.mark.parametrize("solver", ["mwc", "kfree"])
def test_solver_rejects_bad_cut_file(tmp_path, capsys, solver, cut_text):
    gr = tmp_path / "inst.gr"
    gr.write_text(CUT_INSTANCE)
    cut_file = tmp_path / "bad.cut"
    cut_file.write_text(cut_text)
    code, out = run_cli(capsys, "solve", str(gr), "--solver", solver, "--cut", str(cut_file))
    assert code == 1 and out == ""
    inst, cut = parse_pace(CUT_INSTANCE), parse_cut(cut_text)
    with pytest.raises(ValueError):
        solve_with_cut(inst.graph, inst.terminals, cut)
    with pytest.raises(ValueError):
        decompose_from_multiway_cut(inst.graph, inst.terminals, cut)


def test_kfree_refuses_a_too_wide_star_fast(tmp_path):
    # cutting 2..26 out of a 30-vertex path gives a star whose bags hold
    # the 25 cut vertices plus terminal 1 or the leaf part 27..29: width 25
    g = Graph(range(1, 31), [(v, v + 1, 1) for v in range(1, 30)])
    gr = tmp_path / "path.gr"
    gr.write_text(emit_pace(Instance(g, frozenset({1, 30}))))
    cut_file = tmp_path / "wide.cut"
    cut_file.write_text(emit_cut(frozenset(range(2, 27))))
    done = run_child(["-m", "steiner", "solve", str(gr), "--solver", "kfree", "--cut", str(cut_file)])
    assert done.returncode == 1 and done.stdout == ""
    assert "width 25 exceeds the limit 12" in done.stderr


def test_cli_budget(tmp_path, capsys):
    # every multiway cut of CUT_INSTANCE is non-empty, so budget 0 finds none
    # and the solve falls back to the default cut
    inst = parse_pace(CUT_INSTANCE)
    assert minimum_multiway_cut(inst.graph, inst.terminals, 0) is None
    gr = tmp_path / "inst.gr"
    gr.write_text(CUT_INSTANCE)
    _, base_out = run_cli(capsys, "solve", str(gr), "--solver", "dw")
    code, out = run_cli(capsys, "solve", str(gr), "--solver", "mwc", "--budget", "0")
    assert code == 0 and out == base_out == "VALUE 4\n"
    code, out = run_cli(capsys, "solve", str(gr), "--solver", "mwc", "--budget", "-1")
    assert code == 1 and out == ""


def test_cli_rejects_invalid_tkd_file(tmp_path, capsys):
    gr = tmp_path / "path.gr"
    gr.write_text(PATH_INSTANCE)
    tkd = tmp_path / "bad.tkd"
    tkd.write_text("TKD 1 1\nROOT 1\nB 1 2 1 2\nL 0\n")  # vertex 3 in no bag
    code = main(["solve", str(gr), "--solver", "kfree", "--decomp", str(tkd)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "invalid decomposition" in captured.err


def test_verify_tree_independent_checker():
    inst = parse_pace(PATH_INSTANCE)
    assert verify_tree(inst, [(1, 2), (2, 3)], 3) is None
    assert verify_tree(inst, [(1, 2)], 1) is not None  # terminal 3 unreached
    assert verify_tree(inst, [(1, 2), (2, 3)], 4) is not None
    assert verify_tree(inst, [(1, 3)], 0) is not None  # not an instance edge


def test_run_api_reports():
    inst = parse_pace(PATH_INSTANCE)
    report = run(inst, SolverConfig(solver="kfree", witness=True, verify=True))
    assert report.value == 3 and report.status == 0
    assert report.edges == [(1, 2), (2, 3)]


def test_fixture_corpus_round_trip_and_agreement():
    fixtures = sorted(FIXTURES.glob("*.gr"))
    assert fixtures
    for path in fixtures:
        text = path.read_text()
        inst = parse_pace(text, name=path.stem)
        again = parse_pace(emit_pace(inst))
        assert again.graph == inst.graph and again.terminals == inst.terminals
        values = {
            solver: run(inst, SolverConfig(solver=solver)).value
            for solver in ("dw", "brute", "mwc", "kfree")
        }
        assert len(set(values.values())) == 1, (path.name, values)


def test_import_footprint():
    # a fresh ``import steiner`` loads no submodule, ``import steiner.io`` loads
    # no solver module and no ``dataclasses``, and a submodule not yet imported
    # is still reachable as an attribute
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'steiner')\n"
        "import steiner\n"
        "print(*loaded())\n"
        "import steiner.io\n"
        "print(*loaded())\n"
        "print('dataclasses' in sys.modules)\n"
        "print(steiner.exact.__name__)\n"
    )
    done = run_child(["-c", code])
    assert done.returncode == 0, done.stderr
    package, io_only, dataclasses_loaded, exact = done.stdout.splitlines()
    assert package == "steiner"
    assert io_only.split() == ["steiner", "steiner.graph", "steiner.io"]
    assert exact == "steiner.exact"
    bare = run_child(["-c", "import sys; print('dataclasses' in sys.modules)"])
    assert dataclasses_loaded == "False" or bare.stdout.strip() == "True"


def test_lazy_namespace():
    assert len(steiner.__all__) == 49 == len(set(steiner.__all__))
    for name in steiner.__all__:
        value = getattr(steiner, name)
        # INF, a float, is the one export without a __module__
        home = importlib.import_module(getattr(value, "__module__", "steiner.graph"))
        assert home.__name__.startswith("steiner.") and getattr(home, name) is value, name
    namespace = {}
    exec("from steiner import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(steiner.__all__)
    assert set(steiner.__all__) <= set(dir(steiner))
    assert steiner.dp is importlib.import_module("steiner.dp")
    with pytest.raises(AttributeError, match="'steiner'"):
        steiner.nope
    assert not hasattr(steiner, "nope")


def test_instance_contract():
    g = Graph([1, 2], [(1, 2, 5)])
    inst = Instance(g, frozenset({1, 2}))
    assert (inst.graph, inst.terminals, inst.name) == (g, frozenset({1, 2}), "instance")
    assert inst == Instance(graph=g, terminals=frozenset({1, 2}), name="instance")
    assert inst != Instance(g, frozenset({1, 2}), "other")
    assert inst != Instance(g, frozenset({1}))
    with pytest.raises(AttributeError):
        inst.name = "other"
    assert parse_pace(PATH_INSTANCE, name="path").name == "path"


@pytest.mark.parametrize("solver", ["dw", "mwc", "kfree"])
def test_fresh_process_cli_matches_in_process(solver, capsys):
    for path in sorted(FIXTURES.glob("*.gr")):
        argv = ["solve", str(path), "--solver", solver, "--witness"]
        code, out = run_cli(capsys, *argv)
        done = run_child(["-m", "steiner", *argv])
        assert (done.returncode, done.stdout) == (code, out), (path.name, done.stderr)
