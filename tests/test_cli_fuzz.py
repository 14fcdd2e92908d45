"""Seeded fuzzing of the command line, in process through cli.main.

Command lines are drawn from the real subcommands and flags, with ideal
texts drawn from the polynomial grammar and then mutated by one character;
`verify --in` reads documents mutated from the exports in tests/data.  Every
run must end in an exit code 0-4 without an exception, a refusal (exit 1, 2
or 4) must be one line, and a second run must print the same bytes.
argparse's own usage errors (SystemExit 2, a usage block on stderr) and
exit-3 verdict reports are exempt from the one-line rule.  Exponents stay
small, so no case builds a large Taylor complex or walks a large box.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from starcone.cli import main

DATA = Path(__file__).parent / "data"
EXPORTS = sorted(p.name for p in DATA.glob("export_*.out")) + ["koszul_x_plus_y_z2.json", "not_a_complex.json"]

NAMES = ["x", "x1", "x2", "y", "y1", "y2", "z", "q"]  # q lies in no ring drawn here
FACTOR = st.one_of(
    st.sampled_from(NAMES),
    st.builds("{}^{}".format, st.sampled_from(NAMES), st.integers(0, 3)),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9)),
)
TERM = st.lists(FACTOR, min_size=1, max_size=3).map("*".join)
POLY = st.one_of(TERM, TERM,  # a sum one time in three
                 st.builds("{} {} {}".format, TERM, st.sampled_from("+-"), TERM))
ALPHABET = "xy12^*+-/, 0"


@st.composite
def mutated(draw, texts):
    """A text, kept or with one character deleted, inserted or replaced."""
    text = draw(texts)
    how = draw(st.sampled_from(["keep", "keep", "delete", "insert", "replace"]))
    if how == "keep" or (not text and how != "insert"):
        return text
    i = draw(st.integers(0, len(text) - (how != "insert")))
    c = draw(st.sampled_from(ALPHABET))
    return text[:i] + {"delete": "", "insert": c, "replace": c}[how] + text[i + (how != "insert"):]


IDEAL = mutated(st.lists(POLY, max_size=3).map(",".join)) | st.just("--")
VALUES = {
    "--vars-a": st.sampled_from(["x", "x1,x2", " x1 , x2 ", "", ",", "x,x", "1x", "x,y", "--"]),
    "--vars-b": st.sampled_from(["y", "y1,y2", "", "y,x", "z", "--"]),
    "--iprime": IDEAL, "--jprime": IDEAL, "--ideal-i": IDEAL, "--ideal-j": IDEAL, "--against": IDEAL,
    "--prime": st.sampled_from(["0", "2", "3", "32003", "1", "4", "-1", "x", "", "--", "4294967311",
                                "3317044064679887385961983"]),
    "--degree-bound": st.sampled_from(["0", "3", "8", "1000", "1001", "-1", "x", "--", "1" + "0" * 30]),
    "--truncate": st.sampled_from(["0", "4", "12", "-1", "x", "--"]),
    "--what": st.sampled_from(["star", "fiber", "cone-phi", "cone-psi", "cone", "--"]),
    "--in": st.sampled_from(["absent.json", ".", "--"]),
    "--out": st.sampled_from(["out.txt", "missing/out.txt", ".", "--"]),
}
SWITCHES = ["--json", "--verify", "--betti", "--constrained-lift", "--no-constrained-lift"]
COMMON = ["--ideal-i", "--ideal-j", "--prime", "--json", "--out"]
LIFTS = ["--iprime", "--jprime", "--constrained-lift", "--no-constrained-lift"]
FLAGS = {  # the flags each subcommand has, besides --vars-a and --vars-b
    "star": COMMON + ["--degree-bound", "--verify"],
    "fiber": COMMON + LIFTS + ["--degree-bound", "--verify", "--betti"],
    "betti": COMMON + LIFTS,
    "poincare": COMMON + LIFTS + ["--truncate"],
    "verify": COMMON + LIFTS + ["--degree-bound", "--in", "--against"],
    "export": COMMON + LIFTS + ["--what"],
}


@st.composite
def argvs(draw):
    """A subcommand with its own flags, now and then one it lacks; its
    blocks are nine times in ten x or x1,x2 and y or y1,y2."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, names in (("--vars-a", ["x", "x1,x2"]), ("--vars-b", ["y", "y1,y2"])):
        argv += [flag, draw(st.sampled_from(names) if draw(st.integers(0, 9)) else VALUES[flag])]
    flags = st.sampled_from(FLAGS[command]) | st.sampled_from(sorted(VALUES) + SWITCHES)
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4)) + draw(st.lists(flags, max_size=1)):
        argv.append(flag if flag in SWITCHES else f"{flag}={draw(VALUES[flag])}")
    return argv


REPLACEMENTS = [0, -1, 1, 3, 40, 10 ** 30, 1.5, True, None, "x", "x^2", "x1*y", "0", "x + y", "2*x", "x^",
                "", [], {}, [0], ["x"], {"prime": 2}]


@st.composite
def mutated_documents(draw):
    """An export with up to two edits, each a key or item deleted, a value
    replaced or an item duplicated, and one time in five one character of
    its text changed."""
    doc = json.loads((DATA / draw(st.sampled_from(EXPORTS))).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(0, 2))):
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            child = node[draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))]
            if not isinstance(child, (dict, list)) or not child:
                break
            node = child
        if not isinstance(node, (dict, list)) or not node:
            continue
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        how = draw(st.sampled_from(["delete", "replace", "replace", "duplicate"]))
        if how == "delete":
            del node[key]
        elif how == "replace":
            node[key] = draw(st.sampled_from(REPLACEMENTS))
        elif isinstance(node, list):
            node.insert(key, node[key])
    text = json.dumps(doc, indent=1)
    return draw(mutated(st.just(text))) if draw(st.integers(0, 4)) == 0 else text


def _run(argv, document=None):
    """(exit code, whether argparse exited, stdout, stderr, files written)
    of main(argv), run in a fresh directory holding the document as in.json."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if document is not None:
                Path("in.json").write_text(document, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code, by_argparse = main(argv), False
                except SystemExit as e:
                    code, by_argparse = e.code, True
            files = {p.name: p.read_text(encoding="utf-8") for p in Path(".").iterdir() if p.name != "in.json"}
        finally:
            os.chdir(cwd)
    return code, by_argparse, out.getvalue(), err.getvalue(), files


def _check(argv, document=None):
    first = _run(argv, document)
    assert _run(argv, document) == first, argv
    code, by_argparse, out, err, files = first
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if by_argparse:
        assert code == 2 and out == "" and err.startswith("usage: "), argv
    elif code in (1, 2, 4):
        text = out + err + "".join(files.values())
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
    assert "Traceback" not in out + err


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(argvs())
def test_command_lines_exit_cleanly(argv):
    _check(argv)


@seed(20261021)
@settings(max_examples=150, deadline=None, database=None)
@given(mutated_documents(), st.lists(st.sampled_from(["--json", "--degree-bound=4", "--against=x^2,y^2",
                                                       "--against=x1*y", "--against=q"]), max_size=2))
def test_mutated_documents_exit_cleanly(document, flags):
    _check(["verify", "--in", "in.json", *flags], document)
