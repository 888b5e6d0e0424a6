import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import reference
from cproc import graphdata
from cproc.errors import ParseError, ScoreIngestError, SplitError
from cproc.graphdata import (
    PARTS,
    EdgeTable,
    Graph,
    ScoredDataset,
    SplitAssignment,
    load_scores,
    parse_tu_dataset,
    read_split_manifest,
    resplit,
    split_dataset,
    write_split_manifest,
    write_tables,
    write_tu_dataset,
)

from conftest import write_scores, write_tiny_fixture


def test_parse_tiny_fixture_remaps_labels(tmp_path):
    write_tiny_fixture(tmp_path / "TINY")
    graphs = parse_tu_dataset(tmp_path / "TINY", "TINY")
    assert len(graphs) == 2
    # original labels {-1, 1} remap to {0, 1} in sorted order
    assert graphs[0].label == 1 and graphs[1].label == 0
    assert graphs[0].num_nodes == 3 and graphs[0].edges == ((0, 1), (0, 2), (1, 2))
    assert graphs[1].num_nodes == 2 and graphs[1].edges == ((0, 1),)


def test_parse_deduplicates_and_drops_self_loops(tmp_path):
    root = tmp_path / "D"
    root.mkdir()
    (root / "D_A.txt").write_text("1, 2\n2, 1\n1, 2\n1, 1\n")
    (root / "D_graph_indicator.txt").write_text("1\n1\n")
    (root / "D_graph_labels.txt").write_text("0\n")
    with pytest.warns(UserWarning, match="self-loop"):
        graphs = parse_tu_dataset(root, "D")
    assert graphs[0].edges == ((0, 1),)


def test_parse_missing_mandatory_file(tmp_path):
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_graph_labels.txt").unlink()
    with pytest.raises(ParseError, match="graph_labels"):
        parse_tu_dataset(root, "TINY")


def test_parse_cross_graph_edge(tmp_path):
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_A.txt").write_text("1, 4\n")
    with pytest.raises(ParseError, match="crosses graphs"):
        parse_tu_dataset(root, "TINY")


def test_parse_unknown_node(tmp_path):
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_A.txt").write_text("1, 99\n")
    with pytest.raises(ParseError, match="unknown node"):
        parse_tu_dataset(root, "TINY")


def test_parse_errors_name_the_file_line(tmp_path):
    root = tmp_path / "D"
    root.mkdir()
    (root / "D_A.txt").write_text("1, 2\n\n\n2, 3, 1\n")
    (root / "D_graph_indicator.txt").write_text("1\n1\n1\n")
    (root / "D_graph_labels.txt").write_text("0\n")
    with pytest.raises(ParseError, match=r"D_A\.txt:4: expected two node ids"):
        parse_tu_dataset(root, "D")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1, 4\n1, 99\n", r":1: edge \(1,4\) crosses graphs"),
        ("1, 2\n1, 99\n1, 4\n", r":2: edge \(1,99\) references unknown node"),
        ("1, 2, 3\n1, x\n", r":1: expected two node ids, got \[1, 2, 3\]"),
        ("1, x, 3\n", r":1: invalid literal for int\(\) with base 10: 'x'"),
        ("1, 2\n\n\n1, 99\n", r":4: edge \(1,99\) references unknown node"),
        # a byte-order mark moves no line number, in either reader
        ("\ufeff1, 2\n1, x\n", r":2: invalid literal for int\(\) with base 10: 'x'"),
        ("\ufeff1, 2\n1, 4\n", r":2: edge \(1,4\) crosses graphs"),
    ],
)
def test_parse_reports_the_first_faulty_line(tmp_path, text, message):
    # whatever the kind of fault, the earliest line wins; on one line a bad
    # token comes before a wrong count, as int() reads the whole line first;
    # numpy's reader skips empty lines, so the line number of an edge fault
    # in a file it read comes from the line reader
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_A.txt").write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="TINY_A\\.txt" + message):
        parse_tu_dataset(root, "TINY")


def test_parse_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_A.txt").write_bytes(b"1, 2\n1, \xff3\n")
    message = r"TINY_A\.txt:2: invalid literal for int\(\) with base 10: '\ufffd3'"
    with pytest.raises(ParseError, match=message):
        parse_tu_dataset(root, "TINY")


def test_empty_edge_file_parses_without_a_warning(tmp_path):
    # numpy's reader warns on an empty file; that warning stays inside the parser
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_A.txt").write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graphs = parse_tu_dataset(root, "TINY")
    assert [(g.num_nodes, g.edges) for g in graphs] == [(3, ()), (2, ())]


@pytest.mark.parametrize(
    "edit, line_reader",
    [(lambda t: t.replace(", ", "\t"), True), (lambda t: t.replace("\n", "\n \t\n", 1), True)],
    ids=["tab-separated", "whitespace-only-line"],
)
def test_both_readers_parse_as_the_reference(tmp_path, edit, line_reader):
    root = write_tiny_fixture(tmp_path / "TINY")
    for path in root.iterdir():
        path.write_text(edit(path.read_text()))
    with mock.patch.object(graphdata, "_line_rows", wraps=graphdata._line_rows) as spy:
        graphs = parse_tu_dataset(root, "TINY")
    assert spy.called == line_reader
    assert graphs == reference.parse_tu_dataset(root, "TINY")


@pytest.mark.parametrize("line_reader", [False, True], ids=["numpy", "whitespace-only-line"])
def test_tu_files_may_start_with_a_utf8_bom(tmp_path, line_reader):
    root = write_tiny_fixture(tmp_path / "TINY")
    if line_reader:
        (root / "TINY_A.txt").write_text(" \t\n" + (root / "TINY_A.txt").read_text())
    want = parse_tu_dataset(root, "TINY")
    for path in root.iterdir():
        path.write_bytes("\ufeff".encode() + path.read_bytes())
    with mock.patch.object(graphdata, "_line_rows", wraps=graphdata._line_rows) as spy:
        graphs = parse_tu_dataset(root, "TINY")
    assert spy.called == line_reader
    assert graphs == want


def test_line_reader_holds_python_ints_for_one_chunk_at_a_time(tmp_path):
    """A file that numpy cannot read (here: a whitespace-only first line)
    goes to the line reader; its tracemalloc peak stays within twice the
    int64 arrays it returns plus one chunk of Python ints, where a whole
    file of Python ints would take about three times that."""
    n = 50_000
    edges = np.random.default_rng(0).integers(1, 40_000, size=(n, 2))
    path = tmp_path / "E_A.txt"
    path.write_text(" \n" + "".join(f"{u}, {v}\n" for u, v in edges.tolist()))
    tracemalloc.start()
    try:
        rows, lines, fault = graphdata._int_rows(path, 2, "two node ids")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fault is None and rows.dtype == np.int64 and np.array_equal(rows, edges)
    assert np.array_equal(lines, np.arange(2, n + 2))
    chunk = graphdata._CHUNK_LINES * 3 * 64  # two values and a line number, generously sized
    assert peak < 2 * (rows.nbytes + lines.nbytes) + chunk


def test_line_reader_keeps_values_beyond_int64_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(graphdata, "_CHUNK_LINES", 2)
    path = tmp_path / "L.txt"
    path.write_text(" \n1\n2\n\n3\n" + str(2**70) + "\n4\nx\n5\n")
    rows, lines, fault = graphdata._int_rows(path, 1, "one integer")
    assert rows[:, 0].tolist() == [1, 2, 3, 2**70, 4]
    assert lines.tolist() == [2, 3, 5, 6, 7]
    assert str(fault) == "L.txt:8: invalid literal for int() with base 10: 'x'"


_loadtxt = np.loadtxt


def _loadtxt_reading_floats_as_integers(fname, dtype, **kwargs):
    """np.loadtxt as numpy releases from 1.23 until the float fallback was
    removed ran it: a token that does not read as an integer but reads as a
    float, such as 1.5, 1e3 or a value beyond int64, is read as a float and
    cast after a DeprecationWarning. Where that warning is raised, numpy
    raises a ValueError from it."""
    try:
        return _loadtxt(fname, dtype, **kwargs)
    except ValueError:
        rows = _loadtxt(fname, float, **kwargs)
    try:
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
    except DeprecationWarning as exc:
        raise ValueError(f"could not convert a float to {np.dtype(dtype)}") from exc
    return rows.astype(dtype)


@pytest.mark.parametrize(
    "texts",
    [
        {"A": "1, 2\n1.5, 2\n"},
        {"A": "1, 2\n2.7, 3\n1, 99\n"},
        {"A": "1, 2\n1e3, 2\n"},
        {"graph_labels": "1\n100000000000000000000\n"},
    ],
    ids=["float", "float-before-unknown-node", "exponent", "label-beyond-int64"],
)
def test_a_numpy_that_reads_floats_as_integers_parses_as_the_reference(tmp_path, texts):
    root = tmp_path / "R"
    write_texts(root, {"A": "1, 2\n", "graph_indicator": "1\n1\n2\n", "graph_labels": "1\n-1\n"} | texts)
    with mock.patch.object(graphdata.np, "loadtxt", _loadtxt_reading_floats_as_integers):
        outcome = parse_outcome(parse_tu_dataset, root)
    assert outcome == parse_outcome(reference.parse_tu_dataset, root)


@pytest.mark.parametrize("suffix, text", [("graph_indicator", "1\n1 7\n1\n2\n2\n"), ("graph_labels", "1\n-1 0\n")])
def test_parse_one_integer_per_line(tmp_path, suffix, text):
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / f"TINY_{suffix}.txt").write_text(text)
    with pytest.raises(ParseError, match=rf"TINY_{suffix}\.txt:2: expected one integer, got \[-?\d+, \d+\]"):
        parse_tu_dataset(root, "TINY")


def test_parse_empty_dataset(tmp_path):
    root = tmp_path / "E"
    root.mkdir()
    for suffix in ("A", "graph_indicator", "graph_labels"):
        (root / f"E_{suffix}.txt").write_text("")
    with pytest.raises(ParseError, match="empty"):
        parse_tu_dataset(root, "E")


def test_node_files_are_ignored(tmp_path):
    # no filtration or distance reads node labels or attributes, so a file
    # with a wrong row count and non-numbers changes nothing
    clean = parse_tu_dataset(write_tiny_fixture(tmp_path / "CLEAN", "TINY"), "TINY")
    root = write_tiny_fixture(tmp_path / "TINY")
    (root / "TINY_node_labels.txt").write_text("C\nN\n\nx, y\n")
    (root / "TINY_node_attributes.txt").write_text("0.5, nan?\n1\n2\n3\n4\n5\n6\n")
    assert parse_tu_dataset(root, "TINY") == clean


def test_round_trip_identical(tmp_path):
    root = write_tiny_fixture(tmp_path / "TINY")
    graphs = parse_tu_dataset(root, "TINY")
    write_tu_dataset(graphs, tmp_path / "COPY", "COPY")
    again = parse_tu_dataset(tmp_path / "COPY", "COPY")
    assert again == graphs


def test_round_trip_of_a_subset(tmp_path):
    # the indicator numbers graphs by their position in the list, not by id
    graphs = parse_tu_dataset(write_tiny_fixture(tmp_path / "TINY"), "TINY")
    subset = [
        Graph(id=3, num_nodes=2, edges=((0, 1),), label=1),
        Graph(id=7, num_nodes=3, edges=((1, 2),), label=0),
    ]
    write_tu_dataset(subset, tmp_path / "SUB", "SUB")
    assert (tmp_path / "SUB" / "SUB_graph_indicator.txt").read_text() == "1\n1\n2\n2\n2\n"
    again = parse_tu_dataset(tmp_path / "SUB", "SUB")
    assert [(g.id, g.num_nodes, g.edges, g.label) for g in again] == [
        (0, 2, ((0, 1),), 1),
        (1, 3, ((1, 2),), 0),
    ]
    write_tu_dataset(graphs[1:], tmp_path / "TAIL", "TAIL")
    assert parse_tu_dataset(tmp_path / "TAIL", "TAIL")[0].edges == graphs[1].edges


# --- the numpy and line readers against the line parser they replaced -----------

SEPARATORS = (", ", ",", " ", "\t", " ,\t", "\u00a0")
LINE_ENDS = ("\n", "\r\n", "\r")
BLANK_LINES = ("", " ", "\t ", "\u00a0")
FILES = ("A", "graph_indicator", "graph_labels")


@st.composite
def tu_rows(draw):
    """Rows of integer tokens for the three TU files of a valid random set:
    nodes not contiguous by graph, duplicate, reversed and self-loop edges,
    possibly no edges at all, and labels beyond int64."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    graph_of = draw(st.permutations([g for g, k in enumerate(sizes) for _ in range(k)]))
    members = [[i + 1 for i, h in enumerate(graph_of) if h == g] for g in range(len(sizes))]
    edges = []
    for g in draw(st.lists(st.integers(0, len(sizes) - 1), max_size=12)):
        u, v = draw(st.sampled_from(members[g])), draw(st.sampled_from(members[g]))
        edges += [(u, v), (v, u)][: draw(st.integers(1, 2))]
    labels = draw(st.lists(st.sampled_from((-1, 0, 1, 2, 10**20)), min_size=len(sizes), max_size=len(sizes)))
    return {
        "A": [list(e) for e in edges],
        "graph_indicator": [[g + 1] for g in graph_of],
        "graph_labels": [[lab] for lab in labels],
    }


TOKEN_STYLES = ("plain", "plus", "zero", "underscore")


@st.composite
def token(draw, value, styles=st.sampled_from(TOKEN_STYLES)):
    """`value` as a token that int() reads back: plain, "+"-signed,
    zero-padded or with a digit-separating underscore."""
    text = str(value)
    style = draw(styles)
    if value >= 0 and style == "plus":
        return "+" + text
    if value >= 0 and style == "zero":
        return "0" + text
    if len(text.lstrip("-")) > 1 and style == "underscore":
        return text[:-1] + "_" + text[-1]
    return text


@st.composite
def render(draw, rows, uniform=False):
    """The text of one file: each row is a list of values, or a raw line.
    A uniform file draws its separator, blank line, padding and token style
    once, so numpy's reader often reads all of it."""
    pick = (lambda s: st.just(draw(s))) if uniform else (lambda s: s)
    seps, blanks = pick(st.sampled_from(SEPARATORS)), pick(st.sampled_from(BLANK_LINES))
    pads, styles = pick(st.sampled_from(("", " ", "\t"))), pick(st.sampled_from(TOKEN_STYLES))
    lines = []
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(blanks))
        if isinstance(row, str):
            lines.append(row)
            continue
        sep, pad = draw(seps), draw(pads)
        lines.append(pad + sep.join([draw(token(v, styles)) for v in row]) + draw(st.sampled_from(("", " "))))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def parse_outcome(parse, root):
    """What `parse` makes of the set at `root`: the graphs or the ParseError
    text, and the texts of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(root, "R")
        except ParseError as exc:
            result = f"ParseError: {exc}"
    return result, [str(w.message) for w in caught]


def write_texts(root, texts):
    root.mkdir(parents=True, exist_ok=True)
    for suffix, text in texts.items():
        (root / f"R_{suffix}.txt").write_bytes(text.encode())
    return root


def write_rows(root, data, rows):
    """Render `rows` into the three files at `root`, all uniform in half the examples."""
    uniform = data.draw(st.booleans())
    return write_texts(root, {f: data.draw(render(rows[f], uniform)) for f in FILES})


def reader_outcome(root):
    """`parse_outcome` of `parse_tu_dataset`, with a hypothesis event naming
    the files that the line reader opened, so the statistics show the share
    of examples each reader took."""
    with mock.patch.object(graphdata, "_line_rows", wraps=graphdata._line_rows) as spy:
        outcome = parse_outcome(parse_tu_dataset, root)
    opened = sorted({call.args[0].stem.removeprefix("R_") for call in spy.call_args_list})
    event(f"line reader opened: {', '.join(opened) or 'no file'}")
    return outcome


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tu_parser_equals_line_parser(tmp_path_factory, data):
    rows = data.draw(tu_rows())
    root = write_rows(tmp_path_factory.mktemp("tu"), data, rows)
    expected = parse_outcome(reference.parse_tu_dataset, root)
    assert not isinstance(expected[0], str)
    assert reader_outcome(root) == expected
    # the parser's table and labels are those of its graphs, array for array
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table, labels = graphdata._tu_table(root, "R")
    want = EdgeTable.of(expected[0])
    assert table.ids == want.ids
    for got, arr in ((table.nodes, want.nodes), (table.sizes, want.sizes), (table.edges, want.edges),
                     (labels, np.array([g.label for g in expected[0]], dtype=np.int64))):
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())


FAULTS = ("token", "arity", "unknown", "cross", "range", "no nodes")


@st.composite
def fault(draw, rows, kind):
    """Put one fault of `kind` into `rows`: a token int() rejects, a row of
    the wrong length, an edge to an unknown node or across graphs, an
    indicator value out of range, or a graph without nodes."""
    n_nodes, n_graphs = len(rows["graph_indicator"]), len(rows["graph_labels"])
    node = st.integers(1, n_nodes)
    if kind == "token":
        target = draw(st.sampled_from([f for f in FILES if rows[f]]))
        i = draw(st.integers(0, len(rows[target]) - 1))
        tokens = [str(v) for v in rows[target][i]]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
            st.sampled_from(("x", "1.5", "0x1", "--1", "1e3", "_1", "1__0", "\u0663x"))
        )
        # int() runs before the length check, so a line with both faults reports the token
        rows[target][i] = " ".join(tokens + ["1"] * draw(st.integers(0, 1)))
        return rows
    if kind == "arity":
        target = draw(st.sampled_from(FILES))
        row = draw(st.sampled_from([" , ", ",", "1 2 3", "7" if target == "A" else "1, 2"]))
    elif kind == "unknown":
        pair = [draw(node), draw(st.sampled_from((0, -1, n_nodes + 1, 10**20)))]
        target, row = "A", draw(st.permutations(pair))
    elif kind == "cross":
        graph_of = [r[0] for r in rows["graph_indicator"]]
        u = draw(node)
        v = draw(st.sampled_from([w + 1 for w, g in enumerate(graph_of) if g != graph_of[u - 1]]))
        target, row = "A", [u, v]
    elif kind == "range":
        target, row = "graph_indicator", [draw(st.sampled_from((0, -2, n_graphs + 1, 10**20)))]
    else:
        target, row = "graph_labels", [0]
    rows[target].insert(draw(st.integers(0, len(rows[target]))), row)
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tu_parser_reports_the_fault_the_line_parser_reports(tmp_path_factory, data):
    rows = data.draw(tu_rows())
    kinds = [k for k in FAULTS if k != "cross" or len(rows["graph_labels"]) > 1]
    # an extra graph can own a node whose indicator was out of range
    drawn = st.lists(st.sampled_from(kinds), min_size=1, max_size=2)
    for kind in data.draw(drawn.filter(lambda k: not {"range", "no nodes"} <= set(k))):
        rows = data.draw(fault(rows, kind))
    root = write_rows(tmp_path_factory.mktemp("tu"), data, rows)
    expected = parse_outcome(reference.parse_tu_dataset, root)
    assert isinstance(expected[0], str) and expected[0].startswith("ParseError: ")
    assert reader_outcome(root) == expected


def test_graph_validates_edges():
    with pytest.raises(ValueError, match=r"^graph 0: self-loop \(1,1\)$"):
        Graph(id=0, num_nodes=2, edges=((1, 1),), label=0)
    with pytest.raises(ValueError, match=r"^graph 0: edge \(0,2\) out of range$"):
        Graph(id=0, num_nodes=2, edges=((0, 2),), label=0)
    for edges, dup in ((((0, 1), (1, 0)), "1,0"), (((0, 1), (0, 1)), "0,1"), (((1, 2), (0, 1), (2, 1)), "2,1")):
        with pytest.raises(ValueError, match=rf"^graph 0: duplicate edge \({dup}\)$"):
            Graph(id=0, num_nodes=3, edges=edges, label=0)


def test_parsed_graphs_skip_the_edge_checks_and_equal_checked_graphs(tmp_path, monkeypatch):
    graphs = [Graph(id=0, num_nodes=4, edges=((0, 1), (0, 2), (1, 2), (2, 3)), label=0),
              Graph(id=1, num_nodes=3, edges=((0, 1),), label=1)]
    write_tu_dataset(graphs, tmp_path, "SMALL")

    def refuse(self):
        raise AssertionError("a parsed graph re-checked its edges")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    parsed = parse_tu_dataset(tmp_path, "SMALL")
    monkeypatch.undo()
    assert parsed == graphs and hash(tuple(parsed)) == hash(tuple(graphs))


def test_adjacency_symmetric(triangle):
    a = reference.adjacency(triangle)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.zeros(3))


# --- splits -----------------------------------------------------------------


def test_split_sizes_small():
    split = split_dataset(10, seed=5, pool_split=0.8, calib_split=0.5)
    assert {part: len(split.ids(part)) for part in PARTS} == {"train": 8, "valid": 0, "calib": 1, "test": 1}


def test_split_sizes_proteins_scale():
    split = split_dataset(1113, seed=0)
    # floor(1113 * 0.8) = 890 train; floor(223 * 0.5) = 111 calib, 112 test
    assert {part: len(split.ids(part)) for part in PARTS} == {"train": 890, "valid": 0, "calib": 111, "test": 112}


def test_split_determinism_and_partition():
    for seed in np.random.default_rng(0).integers(0, 2**63 - 1, size=100):
        a = split_dataset(57, int(seed), 0.7, 0.4)
        b = split_dataset(57, int(seed), 0.7, 0.4)
        assert a == b
        assert len(a.parts) == 57  # every graph in exactly one part by construction


def test_split_error_on_empty_part():
    with pytest.raises(SplitError):
        split_dataset(4, seed=0, pool_split=0.9, calib_split=0.1)
    with pytest.raises(SplitError, match="at least 4"):
        split_dataset(3, seed=0)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.sampled_from(PARTS), max_size=40))
def test_split_ids_equal_the_scan_of_its_parts(parts):
    split = SplitAssignment(tuple(parts))
    for part in PARTS:
        got = split.ids(part)
        assert got.dtype == np.int64
        assert got.tolist() == [i for i, p in enumerate(parts) if p == part]
    with pytest.raises(ValueError, match="unknown part 'holdout'"):
        split.ids("holdout")
    assert split == SplitAssignment(tuple(parts)) and hash(split) == hash(SplitAssignment(tuple(parts)))


def test_split_ids_are_a_new_array_on_every_call():
    split = SplitAssignment(("test", "train", "test", "calib"))
    first = split.ids("test")
    first[:] = 99
    assert split.ids("test").tolist() == [0, 2]
    assert split.ids("test") is not split.ids("test")


def reference_resplit(base_split, pool, calib_split, seed):
    """The re-split `cproc bands` used before `resplit`, kept as its oracle."""
    perm = np.random.default_rng(seed).permutation(pool.size)
    n_calib = int(np.floor(pool.size * calib_split))
    parts = list(base_split.parts)
    for idx in perm[:n_calib]:
        parts[pool[idx]] = "calib"
    for idx in perm[n_calib:]:
        parts[pool[idx]] = "test"
    return type(base_split)(tuple(parts))


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(st.sampled_from(("train", "valid", "calib", "test")), min_size=1, max_size=40),
    calib_split=st.floats(0.01, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_resplit_equals_reference(parts, calib_split, seed):
    base = SplitAssignment(tuple(parts))
    pool = np.sort(np.concatenate([base.ids("calib"), base.ids("test")]))
    expected = reference_resplit(base, pool, calib_split, seed)
    n_calib = int(np.floor(pool.size * calib_split))
    if n_calib == 0 or n_calib == pool.size:
        with pytest.raises(SplitError, match="calib empty" if n_calib == 0 else "test empty"):
            resplit(base, calib_split, seed)
        return
    got = resplit(base, calib_split, seed)
    assert got == expected
    for i, part in enumerate(parts):
        if part in ("train", "valid"):
            assert got.parts[i] == part


def test_split_manifest_roundtrip(tmp_path):
    split = split_dataset(20, seed=3)
    write_split_manifest(split, tmp_path / "split.csv")
    # a blank last line is skipped, as every other reader skips it
    (tmp_path / "blank.csv").write_text((tmp_path / "split.csv").read_text() + "\n")
    for path in (tmp_path / "split.csv", tmp_path / "blank.csv"):
        assert read_split_manifest(path).parts == split.parts


def test_split_manifest_rows_in_any_order(tmp_path):
    split = split_dataset(20, seed=3)
    write_split_manifest(split, tmp_path / "split.csv", comments=("provenance",))
    head, *rows = (tmp_path / "split.csv").read_text().splitlines()[1:]
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    (tmp_path / "shuffled.csv").write_text("\n".join([head, *shuffled]) + "\n")
    assert read_split_manifest(tmp_path / "shuffled.csv") == read_split_manifest(tmp_path / "split.csv")
    (tmp_path / "m.csv").write_text("graph_id,part\n3,train\n0,test\n1,calib\n2,train\n")
    assert read_split_manifest(tmp_path / "m.csv").parts == ("test", "calib", "train", "train")


@pytest.mark.parametrize("rows, message", [
    ("3,train\n0,test\n0,calib\n9,train\n", "duplicate graph_id 0"),
    ("0,train\n1,test\n4,calib\n2,train\n", r"graph_id outside \[0, 4\)"),
    ("0,train\n-1,test\n", r"graph_id outside \[0, 2\)"),
    ("0,train\n1.5,test\n", "graph_id is not an integer"),
    ("0,train\nx,test\n", "graph_id is not an integer"),
    ("0,train\n1,holdout\n", "bad manifest row"),
])
def test_split_manifest_bad_ids_raise(tmp_path, rows, message):
    (tmp_path / "m.csv").write_text("graph_id,part\n" + rows)
    with pytest.raises(ParseError, match=message):
        read_split_manifest(tmp_path / "m.csv")


# --- scores -----------------------------------------------------------------


def _two_graphs():
    return [
        Graph(id=0, num_nodes=2, edges=((0, 1),), label=1),
        Graph(id=1, num_nodes=2, edges=((0, 1),), label=0),
    ]


def test_load_scores_column_convention(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("graph_id,label,p0,p1\n0,1,0.2,0.8\n1,0,0.6,0.4\n")
    scored = load_scores(path, _two_graphs())
    assert scored.probs[0, 1] == pytest.approx(0.8)
    assert scored.probs[1, 1] == pytest.approx(0.4)


def test_load_scores_header_may_space_its_cells(tmp_path):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("graph_id,label,p0,p1\n0,1,0.2,0.8\n1,0,0.6,0.4\n")
    spaced.write_text("graph_id, label, p0, p1\n0, 1, 0.2, 0.8\n1, 0, 0.6, 0.4\n")
    for graphs in (None, _two_graphs()):
        want, got = load_scores(plain, graphs), load_scores(spaced, graphs)
        assert np.array_equal(got.labels, want.labels) and np.array_equal(got.probs, want.probs)


def test_split_manifest_may_space_its_cells_and_names_a_bad_line(tmp_path):
    (tmp_path / "plain.csv").write_text("graph_id,part\n0,train\n1,test\n")
    (tmp_path / "spaced.csv").write_text("graph_id, part\n0, train\n 1 ,test\n")
    assert read_split_manifest(tmp_path / "spaced.csv") == read_split_manifest(tmp_path / "plain.csv")
    (tmp_path / "bad.csv").write_text("# provenance\ngraph_id,part\n0,train\n\n1,holdout\n")
    with pytest.raises(ParseError, match=r"bad\.csv:5: bad manifest row \['1', 'holdout'\]"):
        read_split_manifest(tmp_path / "bad.csv")


def test_scores_and_manifests_may_start_with_a_utf8_bom(tmp_path):
    bom = "\ufeff".encode()
    (tmp_path / "scores.csv").write_bytes(bom + b"graph_id,label,p0,p1\n0,1,0.2,0.8\n1,0,0.6,0.4\n")
    scored = load_scores(tmp_path / "scores.csv", _two_graphs())
    assert scored.labels.tolist() == [1, 0] and scored.probs[:, 1].tolist() == [0.8, 0.4]
    (tmp_path / "m.csv").write_bytes(bom + b"graph_id,part\n0,train\n1,test\n")
    assert read_split_manifest(tmp_path / "m.csv").parts == ("train", "test")


def test_load_scores_rejects_bad_sum(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("graph_id,label,p0,p1\n0,1,0.2,0.7\n1,0,0.6,0.4\n")
    with pytest.raises(ScoreIngestError, match="sum"):
        load_scores(path, _two_graphs())


def test_load_scores_rejects_non_finite_probabilities(tmp_path):
    path = tmp_path / "scores.csv"
    for probs in ("nan,nan", "0.5,nan", "inf,-inf"):
        path.write_text(f"graph_id,label,p0,p1\n0,1,0.2,0.8\n1,0,{probs}\n")
        for graphs in (None, _two_graphs()):
            with pytest.raises(ScoreIngestError, match=r"scores\.csv:3: probability outside"):
                load_scores(path, graphs)


def test_load_scores_rejects_label_mismatch(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("graph_id,label,p0,p1\n0,0,0.2,0.8\n1,0,0.6,0.4\n")
    with pytest.raises(ScoreIngestError, match="label"):
        load_scores(path, _two_graphs())


def test_load_scores_rejects_unknown_and_missing_ids(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("graph_id,label,p0,p1\n0,1,0.2,0.8\n7,0,0.6,0.4\n")
    with pytest.raises(ScoreIngestError, match="unknown graph_id"):
        load_scores(path, _two_graphs())
    path.write_text("graph_id,label,p0,p1\n0,1,0.2,0.8\n")
    with pytest.raises(ScoreIngestError, match="no score row"):
        load_scores(path, _two_graphs())


def test_load_scores_three_classes(tmp_path):
    graphs = [
        Graph(id=0, num_nodes=1, edges=(), label=2),
        Graph(id=1, num_nodes=1, edges=(), label=0),
    ]
    path = tmp_path / "scores.csv"
    path.write_text("graph_id,label,p0,p1,p2\n0,2,0.1,0.2,0.7\n1,0,0.5,0.25,0.25\n")
    scored = load_scores(path, graphs)
    assert scored.num_labels == 3
    assert scored.probs[0].tolist() == [0.1, 0.2, 0.7]


def test_scores_csv_roundtrip(tmp_path):
    probs = np.array([[0.25, 0.75], [0.9, 0.1], [0.5, 0.5]])
    scored = ScoredDataset(labels=np.array([1, 0, 1]), probs=probs)
    write_scores(scored, tmp_path / "s.csv")
    # a blank last line is skipped, as every other reader skips it
    (tmp_path / "blank.csv").write_text((tmp_path / "s.csv").read_text() + "\n")
    for path in (tmp_path / "s.csv", tmp_path / "blank.csv"):
        again = load_scores(path)
        assert np.array_equal(again.labels, scored.labels)
        assert np.array_equal(again.probs, scored.probs)


def test_load_scores_without_graphs_applies_the_same_checks(tmp_path):
    path = tmp_path / "scores.csv"
    for body, match in (
        ("graph_id,label,p0,p1\n0,7,0.2,0.8\n1,0,0.6,0.4\n", r"scores\.csv:2: label 7 outside"),
        ("graph_id,label,p0,p1\n0,1,0.2,0.8\n1,-3,0.6,0.4\n", r"scores\.csv:3: label -3 outside"),
        ("graph_id,label,p0,p1\n0,1,0.2,0.8\n\n1,-3,0.6,0.4\n", r"scores\.csv:4: label -3 outside"),
        ("graph_id,label,foo,bar\n0,1,0.2,0.8\n", "p0..p1"),
        ("graph_id,label,p0,p1\n0,1,0.2,0.8\n0,0,0.6,0.4\n", r"scores\.csv:3: duplicate graph_id 0"),
        ("graph_id,label,p0,p1\n", "no score rows"),
    ):
        path.write_text(body)
        with pytest.raises(ScoreIngestError, match=match):
            load_scores(path)


def test_load_scores_non_integer_id_or_label_names_the_row(tmp_path):
    path = tmp_path / "scores.csv"
    for body in (
        "graph_id,label,p0,p1\n0,1,0.2,0.8\nx,0,0.6,0.4\n",
        "graph_id,label,p0,p1\n0,1,0.2,0.8\n1,zero,0.6,0.4\n",
        "graph_id,label,p0,p1\n0,1,0.2,0.8\n1,0.0,0.6,0.4\n",
    ):
        path.write_text(body)
        for graphs in (None, _two_graphs()):
            with pytest.raises(ScoreIngestError, match=r"scores\.csv:3: "):
                load_scores(path, graphs)


_TRICKY_FLOATS = [0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3, 1e22]
# UTF-8-encodable characters: a lone surrogate (category Cs) stops both writers
# alike (see test_write_table_and_csv_writer_both_refuse_a_lone_surrogate)
_CHARS = st.characters(exclude_categories=("Cs",))
# text with every character that csv.writer quotes for
_CELL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "#", "a", "é"]) | _CHARS, max_size=5)


@st.composite
def _tables(draw):
    """Equal-length columns of floats (with repeats), ints, bools or str, a
    header or None, and comment lines."""
    n = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "bool", "str", "str array"]), min_size=1, max_size=5)):
        if kind == "float":
            pool = draw(st.lists(st.sampled_from(_TRICKY_FLOATS) | st.floats(), min_size=1, max_size=4))
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
        elif kind == "int":
            ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
            columns.append(np.array(draw(ints), dtype=np.int64))
        elif kind == "bool":
            columns.append(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool))
        else:
            cells = draw(st.lists(_CELL_TEXT, min_size=n, max_size=n))
            columns.append(np.array(cells, dtype=str) if kind == "str array" and cells else tuple(cells))
    header = draw(st.none() | st.lists(_CELL_TEXT, min_size=len(columns), max_size=len(columns)))
    comments = tuple(draw(st.lists(st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"),
                                           max_size=8), max_size=2)))
    return columns, header, comments


def _write_rows(path, table) -> bytes:
    """The bytes `reference.write_rows` writes for a `_tables()` table."""
    columns, header, comments = table
    reference.write_rows(path, zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)), header, comments)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_tables())
@example(([np.array([0.0, -0.0, 0.0, -0.0]), np.array([5e-324, np.inf, np.nan, 5e-324])], ["a", "b"], ()))
@example(([np.zeros(0), np.zeros(0, dtype=np.int64)], ["x", "y"], ("no rows",)))
@example(([np.array([1.5, -0.0]), np.array([3, -4]), np.array([True, False]), ("a,b", 'q"')], None, ()))
@example(([("", "x", "")], [""], ()))
def test_write_table_bytes_equal_csv_writer(tmp_path_factory, table):
    columns, header, comments = table
    root = tmp_path_factory.mktemp("table")
    write_tables([(root / "got.csv", columns, header, comments)])
    assert (root / "got.csv").read_bytes() == _write_rows(root / "want.csv", table)


@settings(max_examples=100, deadline=None)
@given(st.lists(_tables(), min_size=1, max_size=4), st.sampled_from([1, 1 << 30]))
def test_write_tables_writes_many_tables_with_csv_writer_bytes(tmp_path_factory, tables, cells):
    """One call formats the float columns of every table together, in passes
    of at most `cells` cells (one column at a time, or all at once); each
    file still gets its own table's bytes."""
    root = tmp_path_factory.mktemp("tables")
    with mock.patch.object(graphdata, "_FORMAT_CELLS", cells):
        write_tables([(root / f"got{i}.csv", *table) for i, table in enumerate(tables)])
    for i, table in enumerate(tables):
        assert (root / f"got{i}.csv").read_bytes() == _write_rows(root / f"want{i}.csv", table), i


@pytest.mark.parametrize("where", ["cell", "header", "comment"])
def test_write_table_and_csv_writer_both_refuse_a_lone_surrogate(tmp_path, where):
    """A lone surrogate has no UTF-8 encoding, so neither writer can write it."""
    text = "a\ud800"
    columns = [(text,) if where == "cell" else ("a",)]
    header = [text] if where == "header" else ["h"]
    comments = (text,) if where == "comment" else ()
    with pytest.raises(UnicodeEncodeError):
        write_tables([(tmp_path / "got.csv", columns, header, comments)])
    with pytest.raises(UnicodeEncodeError):
        reference.write_rows(tmp_path / "want.csv", zip(*columns), header, comments)


def test_write_tables_drops_the_cells_before_the_file_write(tmp_path):
    """An image-shaped table (one id column, 50 x 50 pixels) of distinct
    floats: its cells are dropped once its lines are joined, so the traced
    peak stays near five times the file's size; cells kept alive through
    the write take more than six times it."""
    pixels = np.random.default_rng(0).random((405, 2500))
    path = tmp_path / "images.csv"
    tracemalloc.start()
    try:
        write_tables([(path, [np.arange(405), *pixels.T], None, ())])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.4 * path.stat().st_size


_PROB_TEXTS = ("-0.1", "1.5", "nan", "inf", "-inf", "1e-400", "0.999", "x", "")


@st.composite
def score_csvs(draw):
    """A scores CSV of n graphs with L labels and up to three faults: a
    field too many or too few, a cell that int() or float() rejects, an id
    unknown (beyond int64 too) or repeated, a label outside [0, L) or other
    than the parsed one, a probability outside [0, 1] or off the sum, a
    missing row; with blank lines, and the parsed labels."""
    L, n = draw(st.integers(2, 10)), draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, L - 1), min_size=n, max_size=n))
    rows = []
    for gid in draw(st.permutations(range(n))):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=L, max_size=L)), dtype=float) + (
            np.arange(L) == draw(st.integers(0, L - 1)))
        rows.append([str(gid), str(labels[gid]), *map(repr, (weights / weights.sum()).tolist())])
    for _ in range(draw(st.integers(0, 3))):
        full = [row for row in rows if row]
        row = full[draw(st.integers(0, len(full) - 1))] if full else None
        kind = draw(st.sampled_from(("fields", "id", "label", "prob", "sum", "drop", "blank")))
        if row is None or kind == "blank":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif kind == "fields":
            row[:] = row[:-1] if draw(st.booleans()) else row + ["0"]
        elif kind == "id":
            row[0] = draw(st.sampled_from(("-1", str(n), str(10**20), "x", "1.0", full[0][0])))
        elif kind == "label":
            row[1] = draw(st.sampled_from(("-1", str(L), str(10**20), "1.5", str(draw(st.integers(0, L - 1))))))
        elif kind == "prob" and len(row) > 2:
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(_PROB_TEXTS))
        elif kind == "sum" and len(row) > 2:
            row[2] = repr(float(row[2]) + draw(st.sampled_from((1e-7, 2e-6, -0.01)))) if row[2] else row[2]
        elif kind == "drop":
            rows.remove(row)
    text = ",".join(["graph_id", "label", *(f"p{k}" for k in range(L))]) + "\n"
    text += "".join(",".join(row) + "\n" for row in rows)
    return text, np.array(labels, dtype=np.int64)


def score_outcome(load, path, graphs):
    try:
        scored = load(path, graphs)
    except Exception as exc:  # noqa: BLE001  the type and message are the outcome
        return type(exc).__name__, str(exc)
    return scored.labels.dtype, scored.labels.tobytes(), scored.probs.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=score_csvs(), given_as=st.sampled_from(("none", "graphs", "labels")))
def test_load_scores_equals_the_row_loop(tmp_path_factory, case, given_as):
    """Column checks name the fault the row loop names: the first faulty
    line, and its first fault; or both give the same arrays."""
    text, labels = case
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    path.write_text(text)
    graphs = [Graph(id=i, num_nodes=1, edges=(), label=int(k)) for i, k in enumerate(labels)]
    want = score_outcome(reference.load_scores, path, None if given_as == "none" else graphs)
    got = score_outcome(load_scores, path, {"none": None, "graphs": graphs, "labels": labels}[given_as])
    assert got == want
    event(want[0] if isinstance(want[0], str) else "loaded")

