import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyckab
from dyckab import qbell
from dyckab.cli import (
    ENUMERATION_CAP,
    SEQUENCE_CAP,
    apply_operator_string,
    main,
    render,
)
from dyckab.extremal import level_sets
from dyckab.ops import BOTTOM
from dyckab.paths import DyckPath, catalan
from _strategies import dyck_paths

FIGURE_ONE = "NNNEENENEENNEE"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- rendering ------------------------------------------------------------------


def test_render_staircase():
    out = render(DyckPath.from_word("NENENE"))
    assert out.splitlines() == ["...", "...", "...", "a=0 b=3"]


def test_render_full_triangle():
    out = render(DyckPath.from_word("NNNEEE"))
    assert out.splitlines() == ["##.", "#..", "...", "a=3 b=0"]


def test_render_figure_one_floating():
    out = render(DyckPath.from_word(FIGURE_ONE), show_floating=True)
    grid = out.splitlines()[:7]
    assert len(grid) == 7 and all(len(line) == 7 for line in grid)
    assert sum(line.count("o") for line in grid) == 1
    assert sum(line.count("#") for line in grid) == 5


def test_render_bounce_footer():
    out = render(DyckPath.from_word(FIGURE_ONE), show_bounce=True)
    assert "bounce alpha=(3,2,2) points=(0,3,5,7)" in out
    assert "a=6 b=6" in out


def test_render_shape_invariant():
    for word in ("NE", "NNEE", FIGURE_ONE):
        p = DyckPath.from_word(word)
        grid = render(p).splitlines()
        assert len(grid) == p.n + 1
        assert all(len(line) == p.n for line in grid[: p.n])


# -- operator strings ---------------------------------------------------------------


def test_operator_string_examples():
    assert apply_operator_string(DyckPath.from_word("NENE"), "A2").word == "NNEE"
    assert apply_operator_string(DyckPath.from_word("NNEE"), "A2^-1").word == "NENE"
    assert (
        apply_operator_string(
            DyckPath.from_composition(5, (3, 2)), "S1"
        )
        == DyckPath.from_composition(5, (2, 3))
    )


def test_operator_string_composition_and_boost():
    p = DyckPath.from_composition(5, (3, 1, 1))
    assert apply_operator_string(p, "U1,D1") == p
    assert apply_operator_string(
        DyckPath.from_composition(5, (3, 2)), "B1:1"
    ) == DyckPath.from_composition(5, (2, 3))


def test_operator_string_bottom():
    assert apply_operator_string(DyckPath.from_word("NENE"), "A1") is BOTTOM


def test_operator_string_parse_errors():
    p = DyckPath.from_word("NENE")
    for bad in ("Q1", "A", "B1", "A1:2", "B1:2^3", "B3:0", "B99:1"):
        with pytest.raises(ValueError):
            apply_operator_string(p, bad)


# Operator words of well-formed tokens, words with malformed tokens mixed
# in, and arbitrary text.  A power repeats an operator that moves area or
# bounce one way, so it stops at BOTTOM within C(n, 2) steps.
well_formed_tokens = st.builds(
    "{}{}{}".format,
    st.sampled_from("ACSUD"),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(["", "^0", "^2", "^-1", "^-3", "^99"]),
) | st.builds("B{}:{}".format, st.integers(min_value=1, max_value=12), st.integers(0, 9))
any_tokens = well_formed_tokens | st.text(
    alphabet=st.sampled_from("ACSUDBQ0123^-: "), max_size=6
)
operator_specs = (
    st.lists(well_formed_tokens, max_size=5).map(",".join)
    | st.lists(any_tokens, max_size=5).map(",".join)
    | st.text(max_size=12)
)


@given(dyck_paths(max_n=12), operator_specs)
def test_operator_string_returns_path_or_bottom_or_raises(p, spec):
    try:
        result = apply_operator_string(p, spec)
    except ValueError:
        return
    assert result is BOTTOM or (isinstance(result, DyckPath) and result.n == p.n)


# -- subcommands -----------------------------------------------------------------------


def test_enum_words(capsys):
    code, out, _ = run(capsys, "enum", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "NNNEEE",
        "NNENEE",
        "NNEENE",
        "NENNEE",
        "NENENE",
    ]


def test_enum_json(capsys):
    code, out, _ = run(capsys, "enum", "--n", "2", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["word"] for r in records] == ["NNEE", "NENE"]
    assert records[0]["area"] == 1 and records[0]["bounce"] == 0
    assert set(records[0]) == {
        "n", "word", "area", "bounce", "alpha",
        "bounce_points", "area_seq", "floating",
    }


def test_stats_figure_one(capsys):
    code, out, _ = run(capsys, "stats", "--path", FIGURE_ONE)
    assert code == 0
    assert "area: 6" in out
    assert "bounce: 6" in out
    assert "alpha: [3, 2, 2]" in out
    assert "floating: 1" in out


def test_op_subcommand(capsys):
    code, out, _ = run(capsys, "op", "--path", "NENE", "--apply", "A2")
    assert code == 0 and out.strip() == "NNEE"


def test_op_bottom_is_success(capsys):
    code, out, _ = run(capsys, "op", "--path", "NENE", "--apply", "A1")
    assert code == 0 and out.strip() == "bottom"


def test_phi_subcommand(capsys):
    # conjugate of (3,1,1) is (3,1,1) read down the columns: (3,1,1)' = (3,1,1)
    block = DyckPath.from_composition(5, (3, 1, 1)).word
    code, out, _ = run(capsys, "phi", "--path", block)
    assert code == 0
    assert out.strip() == DyckPath.from_composition(5, (3, 1, 1)).word


def test_phi_inverse_round_trip(capsys):
    word = DyckPath.from_composition(6, (3, 2, 1)).word
    code, out, _ = run(capsys, "phi", "--path", word)
    code2, out2, _ = run(capsys, "phi", "--path", out.strip(), "--inverse")
    assert code == code2 == 0
    assert out2.strip() == word


def test_phi_domain_error(capsys):
    code, _, err = run(capsys, "phi", "--path", "NNENENEENENE")
    assert code == 2
    assert "error" in err


def test_classify_subcommand(capsys):
    word = DyckPath.from_composition(6, (1, 3, 1, 1)).word
    code, out, _ = run(capsys, "classify", "--path", word)
    assert code == 0
    assert "kind: bounce-side" in out
    assert '"lambda": [4, 1, 1]' in out
    assert '"f": [[1, 1, 2]]' in out


def test_classify_neither(capsys):
    code, out, _ = run(capsys, "classify", "--path", "NNENENEENENE")
    assert code == 0 and "kind: neither" in out


def test_gamma_round_trip(capsys):
    sigma = "NNNNNNEEENEEEENNNEEENE"
    code, out, _ = run(capsys, "gamma", "--path", sigma)
    assert code == 0
    tau = out.strip()
    assert tau == "NNNNEENEENEENENENENNEE"
    code, out, _ = run(capsys, "gamma", "--path", tau, "--inverse")
    assert code == 0 and out.strip() == sigma


def test_minimal_subcommand(capsys):
    code, out, _ = run(capsys, "minimal", "--n", "7", "--kind", "bounce")
    assert code == 0
    assert len(out.splitlines()) == 12
    code, out, _ = run(capsys, "minimal", "--n", "7", "--kind", "area")
    assert len(out.splitlines()) == 12


def test_construct_subcommand(capsys):
    code, out, _ = run(capsys, "construct", "--n", "6", "--area", "5", "--bounce", "5")
    assert code == 0
    built = DyckPath.from_word(out.strip())
    assert built.area() == 5 and built.bounce() == 5
    code, out, _ = run(capsys, "construct", "--n", "4", "--area", "6", "--bounce", "6")
    assert code == 0 and out.strip() == "none exists"


def test_levels_csv(capsys):
    code, out, _ = run(capsys, "levels", "--n", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["area,bounce,count", "0,1,1", "1,0,1"]
    lv = level_sets(7)
    code, out, _ = run(capsys, "levels", "--n", "7", "--csv")
    assert code == 0
    assert out.splitlines()[1:] == [f"{a},{b},{len(lv[a, b])}" for a, b in sorted(lv)]
    code, out, _ = run(capsys, "levels", "--n", "7")
    assert out.splitlines() == [f"a={a} b={b} count={len(lv[a, b])}" for a, b in sorted(lv)]


def test_levels_beyond_enumeration(capsys):
    code, out, _ = run(capsys, "levels", "--n", "20")
    assert code == 0
    assert sum(int(line.rsplit("=", 1)[1]) for line in out.splitlines()) == catalan(20)


def test_enumerating_verbs_refuse_above_cap(capsys):
    assert ENUMERATION_CAP >= 7  # every n the tests and the README use
    start = time.perf_counter()
    for argv in (
        ("construct", "--n", "2000", "--area", "1", "--bounce", "1"),
        ("minimal", "--n", str(ENUMERATION_CAP + 1), "--kind", "area"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert f"above {ENUMERATION_CAP}" in err
    assert time.perf_counter() - start < 1.0


def test_fqt_csv(capsys):
    code, out, _ = run(capsys, "fqt", "--n", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["area\\bounce,0,1", "0,0,1", "1,1,0"]


def test_fqt_summary(capsys):
    code, out, _ = run(capsys, "fqt", "--n", "5")
    assert code == 0
    assert "symmetric=True" in out


def test_fqt_beyond_enumeration(capsys):
    code, out, _ = run(capsys, "fqt", "--n", "20")
    assert code == 0
    assert "paths=6564120420 symmetric=True" in out


def test_qbell_subcommand(capsys):
    code, out, _ = run(capsys, "qbell", "--n", "3")
    assert code == 0 and out.strip() == "4 + q"
    code, out, err = run(capsys, "qbell", "--n", "-1")
    assert code == 2 and not out and "nonnegative" in err


def test_resource_exhaustion_is_one_error_line(capsys, monkeypatch):
    for exc, want in (
        (MemoryError(), "error: MemoryError\n"),
        (
            RecursionError("maximum recursion depth exceeded"),
            "error: RecursionError: maximum recursion depth exceeded\n",
        ),
    ):

        def exhausted(n, exc=exc):
            raise exc

        monkeypatch.setattr(qbell, "q_bell", exhausted)
        code, out, err = run(capsys, "qbell", "--n", "5")
        assert (code, out, err) == (2, "", want)


def test_sequence_d(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "d", "--count", "20")
    assert code == 0
    assert out.split() == [
        "1", "1", "1", "2", "3", "5", "8", "11", "15", "20",
        "26", "32", "39", "47", "56", "66", "76", "87", "99", "112",
    ]


def test_sequence_g(capsys):
    code, out, _ = run(capsys, "sequence", "--name", "g", "--count", "5")
    assert code == 0 and out.split() == ["0", "0", "0", "1", "2"]


def test_sequence_refuses_negative_count(capsys):
    for name in ("d", "g"):
        code, out, err = run(capsys, "sequence", "--name", name, "--count", "-3")
        assert (code, out, err) == (2, "", "error: count must be nonnegative\n")
    code, out, _ = run(capsys, "sequence", "--name", "d", "--count", "0")
    assert (code, out) == (0, "\n")


def test_sequence_matches_the_per_size_functions(capsys):
    for name, fn in (("d", qbell.distinct_ab_count), ("g", qbell.ab_interval_width)):
        for count in range(61):
            code, out, _ = run(capsys, "sequence", "--name", name, "--count", str(count))
            assert (code, out) == (0, " ".join(str(fn(k)) for k in range(count)) + "\n")


def test_sequence_builds_one_width_table(capsys):
    # one table for every entry: a table per entry is cubic in --count
    start = time.perf_counter()
    code, out, _ = run(capsys, "sequence", "--name", "d", "--count", "1500")
    assert time.perf_counter() - start < 5.0
    values = out.split()
    assert code == 0 and len(values) == 1500
    assert values[-1] == str(qbell.distinct_ab_count(1499))


def test_sequence_refuses_a_count_above_the_cap_at_once(capsys):
    # the width table is quadratic in the count: a larger count is refused
    # before any table is built
    built = qbell._width_table.cache_info().misses
    start = time.perf_counter()
    for name in ("d", "g"):
        for count in (SEQUENCE_CAP + 1, 10**9):
            code, out, err = run(capsys, "sequence", "--name", name, "--count", str(count))
            assert (code, out) == (2, "")
            assert err == (
                f"error: count {count} is above {SEQUENCE_CAP}, the largest "
                "`sequence` builds (SEQUENCE_CAP)\n"
            )
    assert time.perf_counter() - start < 1.0
    assert qbell._width_table.cache_info().misses == built


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "statistics", "--n", "6")
    assert code == 0
    assert "figure-one-exact" in out
    assert "0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "qbell", "--n", "6", "--json")
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert record["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope", "--n", "4")
    assert code == 2 and "unknown suite" in err


def test_verify_negative_cap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--n", "-3")
    assert code == 2 and out == "" and "negative" in err


def test_usage_error_bad_word(capsys):
    code, _, err = run(capsys, "stats", "--path", "ENNE")
    assert code == 2
    assert "position 1" in err


def test_render_subcommand(capsys):
    code, out, _ = run(capsys, "render", "--path", "NNNEEE")
    assert code == 0
    assert out.splitlines()[:3] == ["##.", "#..", "..."]


def test_module_entry_point():
    # `python -m` searches the working directory first, so the child
    # imports the package this process imported
    src = os.path.dirname(os.path.dirname(dyckab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dyckab.cli", "stats", "--path", FIGURE_ONE],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert proc.returncode == 0
    assert "area: 6" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "dyckab.cli", "stats", "--path", "EN"],
        capture_output=True,
        text=True,
        cwd=src,
    )
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_package_entry_point():
    src = os.path.dirname(os.path.dirname(dyckab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dyckab", "verify", "--suite", "statistics", "--n", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 failed" in proc.stdout


PATH_VERBS = [
    ["stats"], ["render"], ["phi"], ["phi", "--inverse"], ["classify"],
    ["gamma"], ["gamma", "--inverse"],
]
path_texts = (
    st.text(max_size=48)
    | st.text(alphabet="NEne \n-", max_size=48)
    | dyck_paths(max_n=24).map(lambda p: p.word)
)


def answer_or_fail_in_one_line(argv):
    """Run ``main(argv)``: it returns 0 or 2 or argparse exits with 2, a 2
    leaves one stderr line starting "error:", and no traceback prints.
    Returns the exit code, None for argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argument vector
            code = None
            assert exc.code == 2
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code is not None:
        assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    return code


@given(st.sampled_from(PATH_VERBS), path_texts)
def test_path_arguments_answer_or_fail_in_one_line(verb, text):
    answer_or_fail_in_one_line([verb[0], "--path", text, *verb[1:]])


flags = st.sampled_from([[], ["--csv"]])
INTEGER_ARGVS = {
    "enum": st.builds(
        lambda n, fmt: ["enum", "--n", n, "--format", fmt],
        st.integers(-3, 8), st.sampled_from(["words", "json"]),
    ),
    "minimal": st.builds(
        lambda n, kind: ["minimal", "--n", n, "--kind", kind],
        st.integers(-3, ENUMERATION_CAP + 1), st.sampled_from(["area", "bounce"]),
    ),
    "levels": st.builds(
        lambda n, flag: ["levels", "--n", n, *flag], st.integers(-3, 13), flags
    ),
    "construct": st.builds(
        lambda n, a, b: ["construct", "--n", n, "--area", a, "--bounce", b],
        st.integers(-3, 9) | st.sampled_from([13, 2000]),
        st.integers(-2, 60), st.integers(-2, 60),
    ),
    "fqt": st.builds(
        lambda n, flag: ["fqt", "--n", n, *flag], st.integers(-3, 14), flags
    ),
    "qbell": st.builds(lambda n: ["qbell", "--n", n], st.integers(-3, 80)),
    "sequence": st.builds(
        lambda name, count: ["sequence", "--name", name, "--count", count],
        st.sampled_from(["d", "g"]),
        st.integers(-3, 80) | st.sampled_from([SEQUENCE_CAP + 1, 10**6]),
    ),
    "verify": st.builds(
        lambda n: ["verify", "--suite", "statistics", "--n", n], st.integers(-3, 3)
    ),
}


@pytest.mark.parametrize("verb", sorted(INTEGER_ARGVS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_arguments_answer_or_fail_in_one_line(verb, data):
    argv = [str(a) for a in data.draw(INTEGER_ARGVS[verb])]
    code = answer_or_fail_in_one_line(argv)
    if verb == "minimal" and int(argv[2]) > ENUMERATION_CAP:
        assert code == 2
    if verb == "sequence" and not 0 <= int(argv[4]) <= SEQUENCE_CAP:
        assert code == 2
