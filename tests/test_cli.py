"""CLI contract: subcommands, exit codes, determinism, JSON documents."""
import json
import time
from math import prod
from pathlib import Path

import pytest

from starcone import RingSpec, complex_to_json
from starcone.cli import MAX_DEGREE_BOUND, build_parser, job_from_args, main, run
from starcone.homcheck import MAX_BOX_POINTS, MAX_FALLBACK_LABELS
from starcone.ring import mono_str

from helpers import double_every_solve, fiber_without_top_module, koszul_without_syzygy


def run_argv(argv):
    parser = build_parser()
    job = job_from_args(parser.parse_args(argv))
    return run(job)


# ---------------------------------------------------------- spec examples

def test_fiber_quadratic_betti():
    code, text = run_argv(
        ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2", "--betti"]
    )
    assert code == 0
    assert "ranks: 1 3 2" in text
    assert "minimal: yes" in text


def test_star_two_by_two_verify():
    code, text = run_argv(["star", "--vars-a", "x1,x2", "--vars-b", "y1,y2", "--verify"])
    assert code == 0
    assert "ranks: 1 4 4 1" in text
    assert "exact" in text


def test_hypothesis_gate_names_violation():
    code, text = run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x"])
    assert code == 1
    assert "I'" in text and "<x>^2" in text


# ------------------------------------------------------------- exit codes

def test_parse_error_is_usage():
    code, text = run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "q^2"])
    assert code == 2
    code, text = run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2 + y"])
    assert code == 2


def test_lone_sign_ideal_is_parse_error():
    # a lone sign is not the zero polynomial, so I' cannot silently become <0>
    code, text = run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime=-", "--jprime", "y^2"])
    assert code == 2
    assert text.startswith("parse error: ") and text.count("\n") == 1


def test_composite_prime_rejected():
    # 318665857834031151167461 = 399165290221 * 798330580441 is a strong
    # pseudoprime to the twelve prime bases 2..37
    for prime in ["32001", "318665857834031151167461"]:
        code, text = run_argv(
            ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--prime", prime]
        )
        assert code == 2
        assert "not prime" in text


def test_uncertifiable_prime_is_usage():
    code, text = run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2",
                           "--prime", "3317044064679887385961983"])
    assert code == 2
    assert "too large to certify" in text
    assert text.count("\n") == 1


def test_missing_block_is_usage():
    code, text = run_argv(["fiber", "--vars-a", "x", "--iprime", "x^2"])
    assert code == 2


def test_negative_truncate_is_usage(capsys):
    rc = main(["poincare", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2",
               "--truncate", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: --truncate must be nonnegative\n"


def test_bound_above_the_printed_table_is_usage(tmp_path, capsys):
    """A bound the table cannot print, explicit or the default read off a
    huge twist, exits 2 at once with one line naming it; so does a negative
    one."""
    huge = 10 ** 30
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"ring": RingSpec(("x",)).describe(), "modules": {"0": [0], "1": [huge]}}))
    start = time.perf_counter()
    code, text = run_argv(["verify", "--in", str(path)])
    assert (code, text) == (2, f"usage error: degree bound {huge} is above {MAX_DEGREE_BOUND}, "
                               "the largest table printed\n")
    rc = main(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--degree-bound", str(huge)])
    assert rc == 2
    assert capsys.readouterr().err == (f"usage error: --degree-bound {huge} is above {MAX_DEGREE_BOUND}, "
                                       "the largest table printed\n")
    rc = main(["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--degree-bound", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: --degree-bound must be nonnegative\n"
    assert time.perf_counter() - start < 1
    code, text = run_argv(["verify", "--in", str(path), "--degree-bound", str(MAX_DEGREE_BOUND)])
    assert code == 0 and f"degree bound {MAX_DEGREE_BOUND} (bounded)" in text
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert f"at most {MAX_DEGREE_BOUND}" in " ".join(capsys.readouterr().out.split())


# Every twist is negative: R(1), R(2) <- R(1) by x, both exact, and the
# same map one homological degree up, whose H_1 = k(2) lies in degree -2 alone.
NEGATIVE_TWISTS = {
    "free_module": ({"modules": {"0": [-1]}}, 0, "exact"),
    "map_by_x": ({"modules": {"0": [-2], "1": [-1]}, "differentials": {"1": [["x"]]}}, 0, "exact"),
    "homology_below_0": ({"modules": {"1": [-2], "2": [-1]}, "differentials": {"2": [["x"]]}}, 3, "FAILED"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_TWISTS))
def test_negative_twists_certify_at_the_default_bound(tmp_path, case):
    """The default degree bound is the largest twist, but never below 0, and
    the degrees below 0 down to the lowest twist are ranked too."""
    doc, expected_code, verdict = NEGATIVE_TWISTS[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"ring": RingSpec(("x",)).describe(), **doc}))
    code, text = run_argv(["verify", "--in", str(path)])
    assert code == expected_code, text
    assert text.endswith(f"\nverdict: {verdict}\n")


@pytest.mark.parametrize("exponents", [(10 ** 30,), (200, 200, 200)], ids=["x_10_30", "xyz_200"])
def test_box_too_large_to_walk_is_usage(tmp_path, capsys, exponents):
    """d_1 = (x^(10^30)) once overflowed allocating its lcm box, and
    (x^200, y^200, z^200), 201^3 points, never finished: both exit 2 at once
    with one line naming the box size and the limit."""
    names = ("x", "y", "z")[:len(exponents)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps({
        "ring": RingSpec(names).describe(), "modules": {"0": [0], "1": list(exponents)},
        "differentials": {"1": [[f"{v}^{e}" for v, e in zip(names, exponents)]]}}))
    start = time.perf_counter()
    rc = main(["verify", "--in", str(path), "--degree-bound", "3"])
    assert time.perf_counter() - start < 1
    points = prod(e + 1 for e in exponents)
    assert rc == 2
    assert capsys.readouterr() == (
        f"usage error: lcm box of {points} points is above {MAX_BOX_POINTS}, the largest walked\n", "")


def test_fallback_too_large_to_rank_is_usage(capsys):
    """The Koszul complex of (x + y, z^2) has no labels, so it is ranked by
    total degree; at --degree-bound 1000 that is 667669001 labels, which would
    take hours: it exits 2 at once with one line naming the count and the limit."""
    path = Path(__file__).parent / "data" / "koszul_x_plus_y_z2.json"
    start = time.perf_counter()
    rc = main(["verify", "--in", str(path), "--degree-bound", "1000"])
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert capsys.readouterr() == (
        "usage error: total-degree fallback of 667669001 labels up to degree 1000 is above "
        f"{MAX_FALLBACK_LABELS}, the largest ranked\n", "")


def test_verify_at_the_largest_degree_bound_is_quick():
    """4+1 variables at --degree-bound 1000: H_0 is compared with a Hilbert
    function once counted by walking the standard monomials layer by layer,
    which did not finish within a minute."""
    start = time.perf_counter()
    code, text = run_argv(["fiber", "--vars-a", "x1,x2,x3,x4", "--vars-b", "y", "--iprime", "x1^2",
                           "--jprime", "y^2", "--verify", "--degree-bound", "1000"])
    assert time.perf_counter() - start < 2
    assert code == 0 and text.endswith("verification: exact up to degree 1000 (complete)\n")


BAD_RING_OR_IDEAL = {
    "overlapping_blocks": ["--vars-a", "x", "--vars-b", "x", "--iprime", "x^2"],
    "bad_name": ["--vars-a", "x,1x", "--vars-b", "y"],
    "unit_generator": ["--vars-a", "x", "--vars-b", "y", "--ideal-i", "x", "--ideal-j", "y^0"],
    "empty_variable_list": ["--vars-a", ",", "--vars-b", "y"],
}
# The reason given for a variable list, which is split before the job runs.
BAD_RING_OR_IDEAL_REASONS = {"empty_variable_list": "empty variable list"}


@pytest.mark.parametrize("case", sorted(BAD_RING_OR_IDEAL))
def test_bad_ring_or_ideal_is_usage(capsys, case):
    code = main(["fiber", *BAD_RING_OR_IDEAL[case]])
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert code == 2
    assert text.startswith("usage error: ")
    assert text.count("\n") == 1
    if case in BAD_RING_OR_IDEAL_REASONS:
        assert text == f"usage error: {BAD_RING_OR_IDEAL_REASONS[case]}\n"


def test_tor_violation_exit_one():
    code, text = run_argv(
        [
            "fiber",
            "--vars-a", "x",
            "--vars-b", "y",
            "--ideal-i", "x",
            "--ideal-j", "x*y",
            "--iprime", "x^2",
            "--jprime", "x^2*y",
        ]
    )
    assert code == 1
    assert "Tor" in text or "tor" in text


@pytest.mark.parametrize("e", [999, 99])
def test_tor_violation_on_a_huge_lcm_box_exit_one(e):
    """Tor-independence is decided on the ideals, whatever the lcm box of
    their resolutions: at e = 999 that box has 2002000 points, more than the
    certifier walks, and the gate still names the first nonzero Tor."""
    start = time.perf_counter()
    code, text = run_argv(["fiber", "--vars-a", "x,y", "--vars-b", "z", "--ideal-i", f"x^{e}*y",
                           "--iprime", f"x^{2 * e}*y^2", "--ideal-j", f"y^{e}*z", "--jprime", f"y^{2 * e}*z^2"])
    assert time.perf_counter() - start < 1
    assert (code, text) == (1, "hypothesis violation: Tor-independence fails for (I,J): "
                               f"nonzero Tor at (homological, internal) = (1, {2 * e + 1})\n")


@pytest.mark.parametrize("argv", [["star"], ["export", "--what", "star"]], ids=["star", "export"])
def test_star_of_tor_dependent_ideals_is_refused(argv):
    """The star product resolves R/IJ only when (I, J) is Tor-independent:
    that of <x, y> with itself once claimed R/<x^2, x*y, y^2> and failed
    --verify with H_1 at x*y."""
    code, text = run_argv([*argv, "--vars-a", "x", "--vars-b", "y", "--ideal-i", "x,y", "--ideal-j", "x,y"])
    assert (code, text) == (1, "hypothesis violation: Tor-independence fails for (I,J): "
                               "nonzero Tor at (homological, internal) = (1, 1)\n")


@pytest.mark.parametrize("argv", [["star"], ["export", "--what", "star"]], ids=["star", "export"])
def test_star_of_a_zero_ideal_is_a_hypothesis_violation(argv):
    """make_instance alone refuses a zero I or J, with the exit code and the
    line fiber gives; star once refused it itself, as a usage error."""
    code, text = run_argv([*argv, "--vars-a", "x", "--vars-b", "y", "--ideal-i", "0"])
    assert (code, text) == (1, "hypothesis violation: I and J must be nonzero\n")
    assert run_argv(["fiber", "--vars-a", "x", "--vars-b", "y", "--ideal-i", "0"]) == (code, text)


def test_shared_variable_without_a_witness_is_verification_failure(monkeypatch):
    """A shared variable is a refusal only with a generator of I cap J
    outside IJ to name; with none the proof in is_tor_independent broke."""
    import starcone.ring

    monkeypatch.setattr(starcone.ring, "ideal_intersection", starcone.ring.ideal_product)
    code, text = run_argv(["star", "--vars-a", "x", "--vars-b", "y", "--ideal-i", "x", "--ideal-j", "x*y"])
    assert (code, text) == (3, "verification failure: <x> and <x*y> share a variable, yet I cap J = IJ\n")


@pytest.mark.parametrize("what", ["cone-phi", "cone-psi"])
def test_cone_export_of_tor_dependent_ideals_is_refused(what):
    """A cone is built only from an instance that passed the Tor gate: the
    cone on Phi of this pair once exported exit 0 and failed verify --in
    with H_1 at x^2*z."""
    argv = ["--vars-a", "x,y", "--vars-b", "z", "--ideal-i", "x,y", "--ideal-j", "x*z", "--iprime", "x^2,y^2"]
    refused = (1, "hypothesis violation: Tor-independence fails for (I,J): "
                  "nonzero Tor at (homological, internal) = (1, 2)\n")
    assert run_argv(["fiber", *argv]) == refused
    assert run_argv(["export", "--what", what, *argv]) == refused


# ------------------------------------------------------------ determinism

def test_byte_identical_output():
    argv = [
        "fiber", "--vars-a", "x1,x2", "--vars-b", "y", "--iprime", "x1*x2", "--jprime", "y^3",
        "--betti", "--json",
    ]
    a = run_argv(argv)
    b = run_argv(argv)
    assert a == b
    doc = json.loads(a[1])
    assert doc["certificate"]["minimal"] is True


def test_json_document_shape():
    code, text = run_argv(
        ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2", "--json"]
    )
    doc = json.loads(text)
    assert doc["ranks"] == [1, 3, 2]
    assert doc["certificate"]["constrained_lifts"] is True
    assert set(doc["certificate"]["tor"]) == {"(I,J)", "(I',J)", "(I,J')"}
    assert doc["complex"]["modules"]["0"] == [0]


# ---------------------------------------------------------- other commands

def test_betti_command_match():
    code, text = run_argv(
        ["betti", "--vars-a", "x1,x2", "--vars-b", "y", "--iprime", "x1^2,x2^2", "--jprime", "y^2"]
    )
    assert code == 0
    assert "verdict: match" in text


def test_betti_rejects_explicit_ideals():
    code, text = run_argv(
        ["betti", "--vars-a", "x", "--vars-b", "y", "--ideal-i", "x^2", "--iprime", "x^4"]
    )
    assert code == 2


def test_poincare_command():
    code, text = run_argv(
        ["poincare", "--vars-a", "x", "--vars-b", "y1,y2", "--iprime", "x^2", "--jprime", "y1*y2"]
    )
    assert code == 0
    assert "identity 1 residual: 0" in text
    assert "identity 2 residual: 0" in text


def test_export_verify_roundtrip(tmp_path):
    path = tmp_path / "complex.json"
    parser = build_parser()
    args = parser.parse_args(
        ["export", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2",
         "--out", str(path)]
    )
    code, text = run(job_from_args(args))
    path.write_text(text)
    code2, text2 = run_argv(
        ["verify", "--in", str(path), "--against", "x^2,x*y,y^2", "--degree-bound", "6"]
    )
    assert code2 == 0
    assert "verdict: exact" in text2


def test_verify_detects_corruption(tmp_path):
    code, text = run_argv(
        ["export", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2"]
    )
    doc = json.loads(text)
    # swap one first-syzygy entry for a wrong same-degree monomial
    d2 = doc["differentials"]["2"]
    assert d2[0][0] == "x"
    d2[0][0] = "y"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code2, text2 = run_argv(["verify", "--in", str(path)])
    assert code2 == 3
    assert "FAILED" in text2


def test_blank_against_is_the_zero_ideal():
    """An ideal text of blank pieces is the zero ideal, for --against too:
    "" once skipped the H_0 comparison, while " " compared with <0>."""
    path = str(Path(__file__).parent / "data" / "export_star.out")
    for blank in ("", " ", " , 0"):
        code, text = run_argv(["verify", "--in", path, "--against", blank])
        assert code == 3 and "H0 against <0>: MISMATCH\n" in text, blank


def test_verify_missing_input_is_usage(tmp_path, capsys):
    rc = main(["verify", "--in", str(tmp_path / "absent.json")])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("usage error: ") and out.count("\n") == 1


def test_verify_build_mode():
    code, text = run_argv(
        ["verify", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^3", "--jprime", "y^2"]
    )
    assert code == 0
    assert "verdict: exact" in text


def test_export_what_star():
    code, text = run_argv(
        ["export", "--vars-a", "x1,x2", "--vars-b", "y1,y2", "--what", "star"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["modules"]["1"] == [2, 2, 2, 2]


def test_main_writes_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    rc = main(
        ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2",
         "--out", str(path)]
    )
    assert rc == 0
    assert "ranks: 1 3 2" in path.read_text()
    assert capsys.readouterr().out == ""


def test_unwritable_out_file_is_usage(tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    rc = main(
        ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2",
         "--out", str(path)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_unconstrained_flag_allows_degenerate():
    code, text = run_argv(
        ["fiber", "--vars-a", "x", "--vars-b", "y", "--ideal-i", "x", "--ideal-j", "y",
         "--iprime", "x", "--jprime", "y", "--no-constrained-lift"]
    )
    assert code == 0
    assert "constrained lifts: no" in text
    assert "minimal: no" in text


# ------------------------------------------------------------ flag surface

@pytest.mark.parametrize("argv", [
    ["star", "--betti"],
    ["star", "--iprime", "x^2"],
    ["fiber", "--in", "f.json"],
    ["verify", "--what", "star"],
])
def test_flag_outside_its_subcommand_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fiber", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--truncate", "5"],
    ["betti", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--degree-bound", "3"],
    ["star", "--vars-a", "x", "--vars-b", "y", "--no-constrained-lift"],
])
def test_flag_the_subcommand_ignores_is_rejected(argv, capsys):
    """--truncate belongs to poincare, --degree-bound to star, fiber and
    verify, --constrained-lift to every subcommand that builds a lift."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Each option that takes a value, and a subcommand that has it.
VALUE_OPTIONS = {
    "--vars-a": "fiber", "--vars-b": "fiber", "--iprime": "fiber", "--jprime": "fiber",
    "--ideal-i": "fiber", "--ideal-j": "fiber", "--prime": "fiber", "--degree-bound": "fiber",
    "--out": "fiber", "--truncate": "poincare", "--in": "verify", "--against": "verify", "--what": "export",
}


@pytest.mark.parametrize("flag", sorted(VALUE_OPTIONS))
def test_double_dash_is_not_a_value(flag, tmp_path, monkeypatch, capsys):
    """argparse on Python 3.10-3.12 reads `--flag=--` as [], so --iprime=--
    ran with I' = 0, --in=-- certified the built fiber, --out=-- wrote to
    stdout and --prime=-- ended in a traceback.  Each exits 2 with one line;
    where argparse itself refuses "--" (an int or a choice on 3.13), with
    its own usage error."""
    monkeypatch.chdir(tmp_path)
    try:
        code, ours = main([VALUE_OPTIONS[flag], "--vars-a", "x", "--vars-b", "y", f"{flag}=--"]), True
    except SystemExit as e:
        code, ours = e.code, False
    out, err = capsys.readouterr()
    assert code == 2 and not any(tmp_path.iterdir())
    if ours:
        assert (out, err) == ("", f"usage error: {flag} needs a value\n")
    else:
        assert out == "" and err.startswith("usage: ") and "Traceback" not in err


def test_absent_flags_take_their_defaults():
    export = job_from_args(build_parser().parse_args(["export", "--vars-a", "x", "--vars-b", "y"]))
    assert export.verify is False and export.betti is False
    verify = job_from_args(build_parser().parse_args(["verify", "--vars-a", "x", "--vars-b", "y"]))
    assert verify.what == "fiber"


# ------------------------------------------------------- large coefficients

E = ["--vars-a", "x1,x2", "--vars-b", "y1,y2", "--ideal-i", "x1^2,x1*x2",
     "--iprime", "x1^4,x1^2*x2^2", "--ideal-j", "y1*y2,y1^2,y2^2", "--jprime", "y1^4,y2^4"]
E_PRIME = ["--vars-a", "x1,x2", "--vars-b", "y", "--ideal-i", "x1^2,x1*x2",
           "--iprime", "x1^4,x1^2*x2^2", "--ideal-j", "y", "--jprime", "y^2"]


def test_large_prime_agrees_with_small_prime():
    """4294967311 passes is_prime but p^2 overflows int64."""
    for block, ranks, top in ((E, "1 10 19 13 3", 11), (E_PRIME, "1 5 6 2", 9)):
        for prime in ("32003", "4294967311"):
            code, text = run_argv(["fiber", *block, "--prime", prime, "--verify"])
            assert code == 0, text
            assert f"ranks: {ranks}\n" in text
            assert f"verification: exact up to degree {top} (complete)" in text


def test_broken_invariant_is_verification_failure(monkeypatch):
    double_every_solve(monkeypatch)
    code, text = run_argv(["fiber", *E_PRIME])
    assert (code, text) == (3, "verification failure: lift produced a non-chain-map\n")


def test_out_of_memory_is_resource_error(monkeypatch):
    import starcone.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(starcone.cli, "homology_dims", exhausted)
    code, text = run_argv(["fiber", *E_PRIME, "--verify"])
    assert (code, text) == (4, "resource error: out of memory\n")


# ------------------------------------------------- malformed verify input

def _short_zero_row(doc):
    """Row 0 of d_2 made of "0" cells, one too few: no cell is parsed, and
    the row is still the wrong length."""
    rows = doc["differentials"]["2"]
    rows[0] = ["0"] * (len(rows[0]) - 1)


def _broken_export(mutate):
    code, text = run_argv(
        ["export", "--vars-a", "x", "--vars-b", "y", "--iprime", "x^2", "--jprime", "y^2"]
    )
    doc = json.loads(text)
    mutate(doc)
    return json.dumps(doc)


MALFORMED = {
    "not_json": lambda: "{not json",
    "missing_key": lambda: _broken_export(lambda d: d.pop("modules")),
    "shape_mismatch": lambda: _broken_export(lambda d: d["differentials"]["2"][0].pop()),
    "short_zero_row": lambda: _broken_export(_short_zero_row),
    "wrong_type": lambda: _broken_export(lambda d: d.update(modules=[[0], [1, 1]])),
    "unknown_field": lambda: _broken_export(lambda d: d["ring"].update(field={"p": 5})),
    "float_prime": lambda: _broken_export(lambda d: d["ring"].update(field={"prime": 7.9})),
    "rationals_not_true": lambda: _broken_export(
        lambda d: d["ring"].update(field={"rationals": "no"})),
    "pseudoprime": lambda: _broken_export(
        lambda d: d["ring"].update(field={"prime": 318665857834031151167461})),
    "uncertifiable_prime": lambda: _broken_export(
        lambda d: d["ring"].update(field={"prime": 3317044064679887385961983})),
    "twist_not_int": lambda: _broken_export(lambda d: d["modules"].update({"9": ["a"]})),
    "twist_bool": lambda: _broken_export(
        lambda d: d.update(modules={"0": [0], "1": [True]}, differentials={"1": [["x"]]})),
    "differential_string": lambda: _broken_export(
        lambda d: d.update(modules={"0": [0], "1": [1]}, differentials={"1": "x"})),
    "variables_string": lambda: _broken_export(lambda d: d["ring"].update(variables="xy")),
    "variables_object": lambda: _broken_export(lambda d: d["ring"].update(variables={"x": 1, "y": 2})),
    "partition_blocks_strings": lambda: _broken_export(
        lambda d: d["ring"].update(partition={"a": "x", "b": "y"})),
    "top_level_list": lambda: f"[{_broken_export(lambda d: None)}]",
    "ring_list": lambda: _broken_export(lambda d: d.update(ring=[])),
    "differentials_list": lambda: _broken_export(lambda d: d.update(differentials=[])),
    "deep_nesting": lambda: "[" * 200000 + "]" * 200000,
    "unparsable_cell": lambda: _broken_export(
        lambda d: d["differentials"].update({"1": [["x +", "x^2", "y^2"]]})),
    "lone_sign_cell": lambda: _broken_export(
        lambda d: d["differentials"].update({"1": [["-", "x^2", "y^2"]]})),
    # keys that int() reads as another degree's: "01" as 1, "1_0" as 10
    "degree_key_leading_zero": lambda: _broken_export(lambda d: d.update(
        modules={"0": [0], "1": [1], "01": [2]}, differentials={"1": [["x"]], "01": [["x^2"]]})),
    "degree_key_underscore": lambda: _broken_export(lambda d: d["modules"].update({"1_0": []})),
}
# The reason given for a part of the document that is not a JSON object, and
# for a row of the wrong length.
MALFORMED_REASONS = {
    "short_zero_row": "matrix shape mismatch",
    "top_level_list": "the document is not a JSON object",
    "ring_list": "ring is not a JSON object",
    "wrong_type": "modules is not a JSON object",
    "differentials_list": "differentials is not a JSON object",
    "degree_key_leading_zero": "degree key '01' is not an integer in plain form",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_verify_input_is_usage(tmp_path, case):
    path = tmp_path / "in.json"
    path.write_text(MALFORMED[case]())
    code, text = run_argv(["verify", "--in", str(path)])
    assert code == 2
    assert text.startswith(f"usage error: cannot read a complex from {path}: ")
    assert text.count("\n") == 1
    if case in MALFORMED_REASONS:
        assert text.endswith(f": {MALFORMED_REASONS[case]}\n")


# ------------------------------------------- certificates above every twist

# Homology can sit at the join of generator multidegrees, above every twist
# and above the printed bound; the walk over the lcm box still finds it and
# names the first box point with homology.
ABOVE_EVERY_TWIST = {
    "koszul_without_syzygy": (koszul_without_syzygy, "H_1 at x*y"),
    "fiber_without_top_module": (fiber_without_top_module, "H_3 at x1*x2*y1^2*y2^2"),
}


@pytest.mark.parametrize("case", sorted(ABOVE_EVERY_TWIST))
def test_homology_above_every_twist_is_verification_failure(tmp_path, case):
    build, where = ABOVE_EVERY_TWIST[case]
    C, Q = build()
    path = tmp_path / "in.json"
    path.write_text(complex_to_json(C))
    argv = ["verify", "--in", str(path), "--against", ",".join(mono_str(g, Q.ring) for g in Q.gens)]
    code, text = run_argv(argv)
    assert code == 3, text
    assert "(complete)\n" in text and f"\nhomology: {where}\n" in text
    code, text = run_argv(argv + ["--json"])
    assert code == 3
    assert json.loads(text)["homology_at"] == where
