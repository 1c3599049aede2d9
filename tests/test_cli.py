"""End-to-end runs of the command-line front end, in process and as
``python -m``."""

from __future__ import annotations

import io
import itertools
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contred import (
    chain,
    cli,
    constant_map,
    corpus_from_items,
    discrete,
    kernel,
    level,
    random_map,
    random_partial_map,
    random_space,
    reducibility,
    serialize,
)
from contred.cli import build_parser, main
from contred.corpus import parse

from conftest import assert_valid_dot, run_python

DEMO = """
space S
  points s0 s1
  below s0 s1
end

space D2
  points 0 1
end

map flip : S -> S
  s0 -> s1
  s1 -> s0
end

map ident : S -> S
  s0 -> s0
  s1 -> s1
end

map step : S -> D2
  s0 -> 0
  s1 -> 1
end

map konst : S -> S
  s0 -> s0
  s1 -> s0
end

map bottom : S -> S partial
end

problem duo : S -> S
  members flip ident
end
"""


@pytest.fixture()
def clt(tmp_path):
    path = tmp_path / "demo.clt"
    path.write_text(DEMO, encoding="utf-8")
    return str(path)


# -- check -----------------------------------------------------------------


def test_check_yes(clt, capsys):
    assert main(["check", "le2", "flip", "step", clt]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_check_no(clt, capsys):
    assert main(["check", "le2", "flip", "konst", clt]) == 1
    assert capsys.readouterr().out == "no\n"


def test_check_witness_prints_a_corpus(clt, capsys):
    assert main(["check", "le2", "flip", "step", clt, "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes\n")
    witness = parse(out.split("yes\n", 1)[1])
    assert len(witness.maps) == 2  # a translation and a postprocessing map


def test_check_witness_for_le0(clt, capsys):
    assert main(["check", "le0", "flip", "flip", clt, "--witness"]) == 0
    out = capsys.readouterr().out
    witness = parse(out.split("yes\n", 1)[1])
    assert len(witness.maps) == 1  # translation only


def test_check_lect_reports_copies(clt, capsys):
    assert main(["check", "lect", "flip", "step", clt, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "copies 1" in out


def test_check_problems(clt, capsys):
    assert main(["check", "le2", "duo", "duo", clt]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_check_mismatched_codomains_is_a_usage_error(clt, capsys):
    assert main(["check", "le0", "flip", "step", clt]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_needs_two_names(clt, capsys):
    assert main(["check", "le2", "flip", clt]) == 2
    assert "exactly two item names" in capsys.readouterr().err


# -- invariants ------------------------------------------------------------


def test_invariants_map(clt, capsys):
    assert main(["invariants", "flip", clt]) == 0
    assert capsys.readouterr().out == "lev1=2 lev2=2 bas=2\n"


def test_invariants_empty_map(clt, capsys):
    assert main(["invariants", "bottom", clt]) == 0
    assert capsys.readouterr().out == "lev1=0 lev2=0 bas=0\n"


def test_invariants_problem_takes_member_minimum(clt, capsys):
    assert main(["invariants", "duo", clt]) == 0
    assert capsys.readouterr().out == "lev1=1 lev2=1 bas=1\n"


def test_invariants_of_a_problem_without_members_are_unbounded(tmp_path, capsys):
    path = tmp_path / "none.clt"
    path.write_text(DEMO + "\nproblem E : S -> S\nend\n", encoding="utf-8")
    assert main(["invariants", "E", str(path)]) == 0
    assert capsys.readouterr().out == "lev1=unbounded lev2=unbounded bas=unbounded\n"


def test_invariants_rejects_spaces_and_extra_names(clt, capsys):
    assert main(["invariants", "S", clt]) == 2
    assert "is a space" in capsys.readouterr().err
    assert main(["invariants", "flip", "ident", clt]) == 2
    assert "one item name" in capsys.readouterr().err


# -- sup and inf -----------------------------------------------------------


def test_sup_le2_prints_the_join(clt, capsys):
    assert main(["sup", "le2", "flip", "ident", clt, "--name", "J"]) == 0
    built = parse(capsys.readouterr().out)
    assert "J" in built.maps
    assert built.maps["J"].dom.n == 4


def test_sup_le0_shares_the_codomain(clt, capsys):
    assert main(["sup", "le0", "flip", "ident", clt, "--name", "J0"]) == 0
    built = parse(capsys.readouterr().out)
    assert built.maps["J0"].cod.name == "S"


def test_sup_of_problems(clt, capsys):
    assert main(["sup", "le2", "duo", "duo", clt, "--name", "JP"]) == 0
    built = parse(capsys.readouterr().out)
    assert "JP" in built.problems


def test_sup_rejects_mixed_items(clt, capsys):
    assert main(["sup", "le2", "flip", "duo", clt]) == 2
    assert "all maps or all problems" in capsys.readouterr().err


def test_inf_prints_the_meet(clt, capsys):
    assert main(["inf", "flip", "ident", clt, "--name", "M"]) == 0
    built = parse(capsys.readouterr().out)
    assert set(built.maps["M"].dom.points) == {"(s0,s1)", "(s1,s0)"}


def test_outputs_are_deterministic(clt, capsys):
    main(["sup", "le2", "flip", "ident", clt, "--name", "J"])
    first = capsys.readouterr().out
    main(["sup", "le2", "flip", "ident", clt, "--name", "J"])
    assert capsys.readouterr().out == first


# -- poset -----------------------------------------------------------------


def test_poset_lists_classes_and_covers(clt, capsys):
    assert main(["poset", "le2", "bottom", "flip", "ident", "konst", clt]) == 0
    out = capsys.readouterr().out
    assert "class 0: bottom" in out
    assert "class 1: flip" in out
    assert "class 2: ident, konst" in out
    assert "cover: 0 < 2" in out
    assert "cover: 2 < 1" in out


def test_poset_dot_output(clt, capsys):
    args = ["poset", "le2", "bottom", "flip", "konst", clt, "--dot"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert_valid_dot(out)
    main(args)
    assert capsys.readouterr().out == out


def test_a_poset_of_no_items_prints_nothing(clt, capsys):
    assert main(["poset", "le2", clt]) == 0
    assert capsys.readouterr() == ("", "")


# -- decompose and admissible ----------------------------------------------


def test_decompose_continuous_map_holds(clt, capsys):
    assert main(["decompose", "ident", clt, "--thresholds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("holds: yes\n")
    parse(out[: out.rindex("holds:")])


def test_decompose_flip_does_not_reassemble(clt, capsys):
    assert main(["decompose", "flip", clt, "--thresholds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("holds: no\n")
    parts = parse(out[: out.rindex("holds:")])
    assert parts.maps["flip@1"].defined_on == frozenset({"s1"})


def test_decompose_with_the_top_threshold_reassembles(clt, capsys):
    assert main(["decompose", "flip", clt, "--thresholds", "1,2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("holds: yes\n")
    parts = parse(out[: out.rindex("holds:")])
    assert set(parts.maps) == {"flip@1", "flip@2"}
    assert parts.maps["flip@2"].is_total


def test_decompose_rejects_bad_thresholds(clt, capsys):
    assert main(["decompose", "flip", clt, "--thresholds", "x"]) == 2
    assert "bad threshold list" in capsys.readouterr().err
    assert main(["decompose", "duo", clt, "--thresholds", "1"]) == 2
    assert "works on maps" in capsys.readouterr().err


def test_admissible_verdicts(clt, capsys):
    assert main(["admissible", "ident", clt]) == 0
    assert capsys.readouterr().out == "admissible: yes\n"
    assert main(["admissible", "step", clt]) == 0
    assert capsys.readouterr().out == "admissible: no\n"


def test_a_capacity_ceiling_is_exit_three(tmp_path, capsys):
    # 3 ** 12 partial maps chain(12) -> discrete(2) are counted against
    # ENUMERATION_CAP before any is tried; the refusal is no verdict
    konst = constant_map(chain(12), discrete(2), "0", name="konst")
    path = tmp_path / "long.clt"
    path.write_text(serialize(corpus_from_items([konst])), encoding="utf-8")
    assert main(["admissible", "konst", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "budget exhausted: 531441 partial maps exceed the cap of 200000\n"


# -- search ----------------------------------------------------------------


def test_search_lev_bas(capsys):
    assert main(["search", "--lev", "2", "--bas", "2"]) == 0
    built = parse(capsys.readouterr().out)
    assert len(built.maps) == 1


def test_search_unbounded_level(capsys):
    args = ["search", "--lev", "unbounded", "--bas", "2"]
    assert main(args) == 0
    assert len(parse(capsys.readouterr().out).maps) == 1


def test_search_antichain(capsys):
    args = ["search", "--antichain", "2", "--relation", "le2"]
    assert main(args) == 0
    assert len(parse(capsys.readouterr().out).maps) == 2


def test_search_flag_conflicts(capsys):
    assert main(["search", "--lev", "2"]) == 2
    assert "needs --lev with --bas" in capsys.readouterr().err
    args = ["search", "--antichain", "2", "--lev", "2", "--bas", "2"]
    assert main(args) == 2
    assert "excludes" in capsys.readouterr().err
    assert main(["search", "--lev", "x", "--bas", "1"]) == 2
    err = capsys.readouterr().err
    assert "--lev takes a natural number or unbounded, not 'x'" in err
    assert main(["search", "--lev", "-1", "--bas", "1"]) == 2
    err = capsys.readouterr().err
    assert "--lev takes a natural number or unbounded, not '-1'" in err
    # sys.maxsize stands for unbounded, so it is no natural level
    big = str(sys.maxsize)
    assert main(["search", "--lev", big, "--bas", "2", "--max-points", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--lev takes a natural number or unbounded, not '{big}'" in out.err


def test_search_takes_no_seed(capsys):
    # the catalogs draw nothing, so there is no seed to give
    assert main(["search", "--help"]) == 0
    assert "--seed" not in capsys.readouterr().out
    assert main(["search", "--lev", "2", "--bas", "2", "--seed", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --seed 1" in out.err


def test_search_lev_bas_nonexistence_is_a_definite_no(capsys):
    # the catalog is complete and spends no budget, so a miss is a
    # definite no, printed and exited as check does
    assert main(["search", "--lev", "5", "--bas", "5", "--max-points", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == "no\n" and out.err == ""


def test_search_exhaustion_is_exit_three(capsys):
    # no point to build on: nothing is found, and nothing crashes
    args = ["search", "--antichain", "2", "--max-points", "0"]
    assert main(args) == 3
    assert "budget exhausted: no antichain" in capsys.readouterr().err


def test_negative_search_counts_are_usage_errors(capsys):
    # as --budget -1 and --lev -1 are: exit 2, with the flag named
    for argv, flag in (
        (["search", "--lev", "1", "--bas", "1", "--max-points", "-1"],
         "--max-points"),
        (["search", "--antichain", "2", "--max-points", "-1"],
         "--max-points"),
        (["search", "--lev", "1", "--bas", "-1"], "--bas"),
    ):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {flag} ") and out.err.endswith(" not -1\n")


@pytest.mark.parametrize("size", ["1", "0", "-1"])
def test_antichain_sizes_below_two_are_usage_errors(capsys, size):
    # as with the other search counts, a size below two is a usage error
    # that names its flag: exit 2, nothing on stdout
    assert main(["search", "--antichain", size]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --antichain ") and out.err.endswith(f" not {size}\n")


def test_search_rejects_positionals(capsys):
    # search reads no corpus, so names and files are usage errors, even
    # when they exist nowhere
    args = [
        "search", "ghost", "nope.clt", "--lev", "2", "--bas", "2",
        "--max-points", "3",
    ]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: ghost nope.clt" in out.err


@pytest.mark.parametrize(
    "spellings",
    [
        (
            ["poset", "le2", "flip", "step", "konst", "{clt}", "--cap", "2"],
            ["poset", "le2", "--cap", "2", "flip", "step", "konst", "{clt}"],
            ["poset", "le2", "flip", "--cap", "2", "step", "{clt}", "konst"],
        ),
        (
            ["check", "le2", "flip", "step", "{clt}", "--witness"],
            ["check", "le2", "flip", "--witness", "step", "{clt}"],
            ["check", "le2", "--witness", "flip", "step", "{clt}"],
        ),
    ],
)
def test_options_may_come_before_or_between_items(clt, capsys, spellings):
    seen = []
    for argv in spellings:
        code = main([clt if a == "{clt}" else a for a in argv])
        seen.append((code, capsys.readouterr()))
    assert seen[0][0] == 0 and seen[0][1].err == ""
    assert all(s == seen[0] for s in seen)


def test_unknown_options_among_items_stay_usage_errors(clt, capsys):
    # argparse's own message, which lists every leftover argument
    for argv, leftovers in (
        (["check", "le2", "flip", "step", clt, "--bogus"], "--bogus"),
        (["check", "le2", "--cap", "2", "flip", "--bogus", "step", clt],
         f"flip --bogus step {clt}"),
    ):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"contred: error: unrecognized arguments: {leftovers}\n")


def test_one_file_is_read_from_its_parse_and_several_merge(clt, tmp_path, capsys):
    parsed = cli._load_corpus([clt])
    assert parsed is cli._parsed[DEMO]
    other = tmp_path / "other.clt"
    other.write_text("space T\n  points t\nend\n")
    merged = cli._load_corpus([clt, str(other)])
    assert merged is not parsed and set(merged.spaces) == {"S", "D2", "T"}
    assert set(parsed.spaces) == {"S", "D2"}
    assert merged.maps == parsed.maps


# -- budgets ---------------------------------------------------------------


def test_budget_flag_stops_the_decider(clt, capsys):
    assert main(["check", "le2", "flip", "step", clt, "--budget", "1"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_the_environment_sets_no_budget(clt, capsys, monkeypatch):
    # only --budget bounds a search: a budget of 1 node would stop this one
    monkeypatch.setenv("CONTRED_BUDGET", "1")
    assert main(["check", "le2", "flip", "step", clt]) == 0
    out = capsys.readouterr()
    assert out.out == "yes\n" and out.err == ""


def test_negative_budgets_are_usage_errors(clt, capsys):
    assert main(["check", "le2", "flip", "flip", clt, "--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err
    assert main(["check", "le2", "flip", "flip", clt, "--budget", "0"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_a_no_the_profile_refutes_spends_no_budget(clt, capsys):
    # flip's levels (2, 2) exceed konst's (1, 1): no node is spent on them
    assert main(["check", "le2", "flip", "konst", clt, "--budget", "0"]) == 1
    assert main(["check", "le0", "flip", "konst", clt, "--budget", "0"]) == 1
    assert capsys.readouterr() == ("no\nno\n", "")


@pytest.mark.parametrize("seed, budget", [(54, 4), (50, 6)])
def test_poset_budget_runs_out_alike_in_every_order(seed, budget, tmp_path, capsys):
    # seeds whose four small maps run out of this budget in some orders of
    # decision and not in others
    rng = random.Random(seed)
    maps = [
        random_map(
            random_space(rng.randint(2, 4), 0.4, rng.randrange(1000)),
            rng.choice([discrete(2), chain(2)]),
            seed=rng.randrange(1000),
            name=f"m{k}",
        )
        for k in range(4)
    ]
    path = tmp_path / f"s{seed}.clt"
    path.write_text(serialize(corpus_from_items(maps)), encoding="utf-8")
    seen = set()
    for names in itertools.permutations(x.name for x in maps):
        code = main(["poset", "le2", "--budget", str(budget), *names, str(path)])
        seen.add((code, capsys.readouterr().out))
    assert len(seen) == 1


# -- corpus loading --------------------------------------------------------


def test_corpus_files_read_with_universal_newlines(tmp_path, capsys):
    args = ["poset", "le2", "bottom", "flip", "ident", "konst"]
    seen = []
    for k, newline in enumerate(("\n", "\r\n", "\r")):
        path = tmp_path / f"demo{k}.clt"
        path.write_bytes(DEMO.replace("\n", newline).encode("utf-8"))
        seen.append((main(args + [str(path)]), capsys.readouterr()))
    assert seen[0][0] == 0 and seen[0][1].err == ""
    assert seen[1] == seen[2] == seen[0]


def test_a_corpus_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.clt"
    path.write_bytes(b"space S\n  points \xff\nend\n")
    assert main(["invariants", "S", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte\n"
    )


def test_merging_consistent_files(tmp_path, capsys):
    shared = "space S\n  points s0 s1\n  below s0 s1\nend\n"
    a = tmp_path / "a.clt"
    b = tmp_path / "b.clt"
    a.write_text(shared + "map f : S -> S\n  s0 -> s1\n  s1 -> s0\nend\n")
    b.write_text(shared + "map g : S -> S\n  s0 -> s0\n  s1 -> s1\nend\n")
    # the continuous map g reduces to f across the two merged files
    assert main(["check", "le2", "g", "f", str(a), str(b)]) == 0
    capsys.readouterr()


def test_merging_conflicting_files(tmp_path, capsys):
    a = tmp_path / "a.clt"
    b = tmp_path / "b.clt"
    a.write_text("space S\n  points s0 s1\nend\n")
    b.write_text("space S\n  points s0 s1\n  below s0 s1\nend\n")
    assert main(["invariants", "S", str(a), str(b)]) == 2
    assert "declared differently" in capsys.readouterr().err


def test_witness_reloads_beside_an_input_with_unsorted_points(tmp_path, capsys):
    source = tmp_path / "in.clt"
    source.write_text(
        "space P\n  points b a\nend\n\nmap p : P -> P\n  a -> a\n  b -> b\nend\n"
    )
    assert main(["check", "le2", "p", "p", str(source), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("yes\n")
    witness = tmp_path / "witness.clt"
    witness.write_text(out.removeprefix("yes\n"))
    assert main(["check", "le2", "p", "p", str(source), str(witness)]) == 0
    assert capsys.readouterr() == ("yes\n", "")


def test_unknown_item_name(clt, capsys):
    assert main(["check", "le2", "ghost", "flip", clt]) == 2
    assert "nothing named 'ghost'" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["invariants", "flip", "nope.clt"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_parse_errors_surface_with_lines(tmp_path, capsys):
    bad = tmp_path / "bad.clt"
    bad.write_text("space S\n  points s0\n  below s0 zz\nend\n")
    assert main(["invariants", "S", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


# -- parsed corpora reused within a process --------------------------------


def test_rewriting_a_file_between_commands_changes_the_answer(tmp_path, capsys):
    path = tmp_path / "f.clt"
    path.write_text(DEMO)
    assert main(["check", "le2", "flip", "ident", str(path)]) == 1
    path.write_text(DEMO.replace("s0 -> s1\n  s1 -> s0", "s0 -> s0\n  s1 -> s1"))
    assert main(["check", "le2", "flip", "ident", str(path)]) == 0
    assert capsys.readouterr().out == "no\nyes\n"


def test_a_malformed_file_fails_the_same_way_every_time(tmp_path, capsys):
    bad = tmp_path / "bad.clt"
    bad.write_text(DEMO + "map broken : S -> S\n  s0 -> nowhere\nend\n")
    errors = []
    for _ in range(2):
        assert main(["invariants", "flip", str(bad)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "line 38" in errors[0]
    assert DEMO + "map broken" not in "".join(cli._parsed)


def test_commands_over_one_text_receive_the_same_items(clt, tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "level", lambda f, v: seen.append(f) or level(f, v))
    copy = tmp_path / "copy.clt"
    copy.write_text(DEMO)
    for path in (clt, clt, str(copy)):
        assert main(["invariants", "flip", path]) == 0
    assert len(seen) == 6 and all(f is seen[0] for f in seen)
    assert capsys.readouterr().out == "lev1=2 lev2=2 bas=2\n" * 3


def test_the_parsed_table_stays_within_its_bound(tmp_path, capsys):
    for k in range(cli.PARSED_LIMIT + 3):
        path = tmp_path / f"c{k}.clt"
        path.write_text(DEMO + f"\nspace T{k}\n  points t\nend\n")
        assert main(["invariants", "flip", str(path)]) == 0
        assert len(cli._parsed) <= cli.PARSED_LIMIT
    assert len(cli._parsed) == cli.PARSED_LIMIT
    # the most recent texts are the ones kept
    assert DEMO + f"\nspace T{cli.PARSED_LIMIT + 2}\n  points t\nend\n" in cli._parsed
    assert DEMO + "\nspace T0\n  points t\nend\n" not in cli._parsed
    capsys.readouterr()


def test_a_merge_conflict_leaves_both_files_usable(tmp_path, capsys):
    a = tmp_path / "a.clt"
    b = tmp_path / "b.clt"
    a.write_text(DEMO)
    b.write_text(DEMO.replace("  below s0 s1\n", "", 1))
    assert main(["check", "le2", "flip", "ident", str(a), str(b)]) == 2
    assert "declared differently" in capsys.readouterr().err
    assert main(["check", "le2", "flip", "ident", str(a)]) == 1
    assert main(["check", "le2", "flip", "ident", str(b)]) == 0
    assert main(["check", "le2", "ident", "flip", str(a)]) == 0
    assert capsys.readouterr() == ("no\nyes\nyes\n", "")


# -- items of the wrong kind -----------------------------------------------


WITH_RELATION = DEMO + """
relation R : S -> S
  s0 -> s0 s1
end
"""

# (positionals with {} for the wrong-kind name, flags after the corpus)
WRONG_KIND_COMMANDS = [
    (["check", "le0", "{}", "flip"], []),
    (["check", "le2", "flip", "{}"], []),
    (["check", "lect", "{}", "flip"], []),
    (["poset", "le2", "flip", "{}"], []),
    (["sup", "le0", "{}", "flip"], []),
    (["sup", "le2", "flip", "{}"], []),
    (["inf", "{}", "flip"], []),
    (["invariants", "{}"], []),
    (["decompose", "{}"], ["--thresholds", "1"]),
    (["admissible", "{}"], []),
]


@pytest.mark.parametrize("name, kind", [("S", "space"), ("R", "relation")])
@pytest.mark.parametrize(
    "positionals, flags", WRONG_KIND_COMMANDS, ids=lambda v: " ".join(v) or "-"
)
def test_spaces_and_relations_are_usage_errors(
    tmp_path, capsys, positionals, flags, name, kind
):
    path = tmp_path / "demo.clt"
    path.write_text(WITH_RELATION, encoding="utf-8")
    argv = [name if a == "{}" else a for a in positionals] + [str(path)] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name!r} is a {kind}; {positionals[0]} ")
    assert "Traceback" not in captured.err


def test_map_only_commands_reject_problems(clt, capsys):
    for argv in (["inf", "duo", "flip", clt], ["admissible", "duo", clt]):
        assert main(argv) == 2
        assert "'duo' is a problem" in capsys.readouterr().err


def test_python_dash_m_relation_name_exits_two_not_one(tmp_path):
    path = tmp_path / "demo.clt"
    path.write_text(WITH_RELATION, encoding="utf-8")
    done = run_python("-m", "contred", "check", "le2", "R", "flip", str(path))
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "'R' is a relation" in done.stderr and "Traceback" not in done.stderr


# -- argument plumbing -----------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["check"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_commands_in_one_process_share_no_options(clt, capsys):
    # the parser is built once per process: a command's flags must not
    # become the defaults of the next one
    assert build_parser() is build_parser()
    assert main(["check", "le2", "flip", "step", clt, "--witness", "--budget", "5"]) == 0
    assert capsys.readouterr().out.startswith("yes\nspace ")
    assert main(["check", "le2", "flip", "step", clt]) == 0
    assert capsys.readouterr().out == "yes\n"
    # alt3 against itself passes the profile comparison and takes 6 search
    # nodes: exhausted under --budget 5, "yes" under the default budget
    fixtures = str(Path(__file__).parent / "golden" / "fixtures.clt")
    assert main(["check", "le2", "alt3", "alt3", fixtures, "--budget", "5"]) == 3
    assert "budget exhausted" in capsys.readouterr().err
    assert main(["check", "le2", "alt3", "alt3", fixtures]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["check", "le9", "flip", "step", clt]) == 2
    assert "invalid choice: 'le9'" in capsys.readouterr().err
    assert main(["check", "le2", "flip", "step", clt]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_a_kept_yes_still_runs_out_under_a_small_budget(capsys):
    # the other order in one process: the yes that alt3 against itself
    # found under the default budget is charged its 6 nodes again
    fixtures = str(Path(__file__).parent / "golden" / "fixtures.clt")
    assert main(["check", "le2", "alt3", "alt3", fixtures]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["check", "le2", "alt3", "alt3", fixtures, "--budget", "5"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_a_repeated_poset_prints_the_same_bytes_without_searching(
    clt, capsys, monkeypatch
):
    args = ["poset", "le2", "bottom", "flip", "ident", "konst", clt]
    assert main(args) == 0
    first = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("searched a decided pair")

    monkeypatch.setattr(reducibility, "_le2_fast_search", refuse)
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_twenty_posets_of_one_corpus_print_what_fresh_parses_print(tmp_path, capsys):
    # the later posets of a process read kept answers; each prints what it
    # prints on items parsed anew, which have none
    rng = random.Random(5)
    doms = [random_space(n, 0.6, rng.randrange(1 << 30)) for n in (2, 3, 3, 4)]
    maps = [
        (random_partial_map if k >= 10 else random_map)(
            doms[k if k < 2 else rng.randrange(4)], rng.choice((discrete(2), chain(2))),
            rng.randrange(1 << 30), name=f"m{k}",
        )
        for k in range(14)
    ]
    path = tmp_path / "pool.clt"
    path.write_text(serialize(corpus_from_items(maps)), encoding="utf-8")
    lines = [
        ["poset", "le2", *(f"m{k}" for k in rng.sample(range(14), 12)), str(path)]
        for _ in range(20)
    ]

    def printed(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    warm = [printed(argv) for argv in lines]
    fresh = []
    for argv in lines:
        cli._parsed.clear()
        fresh.append(printed(argv))
    assert warm == fresh
    assert len(set(fresh)) > 1 and all("cover:" in out for out in fresh)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "contred" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["contred", "contred.cli"])
@pytest.mark.parametrize(
    "lhs, rhs, verdict, code", [("flip", "flip", "yes", 0), ("blur2", "alt3", "no", 1)]
)
def test_python_dash_m_runs_the_cli(module, lhs, rhs, verdict, code):
    fixtures = Path(__file__).parent / "golden" / "fixtures.clt"
    done = run_python("-m", module, "check", "le2", lhs, rhs, str(fixtures))
    assert (done.stdout, done.returncode) == (verdict + "\n", code), done.stderr


def test_a_repeated_poset_builds_no_budget(clt, capsys, monkeypatch):
    # under the default budget a kept answer is returned as it is
    args = ["poset", "le2", "bottom", "flip", "ident", "konst", clt]
    assert main(args) == 0
    first = capsys.readouterr()

    def refuse(self, limit=0):
        raise AssertionError("built a Budget")

    monkeypatch.setattr(kernel.Budget, "__init__", refuse)
    assert main(args) == 0
    assert capsys.readouterr() == first


# -- the argv reader and argparse ------------------------------------------


def _argparse(argv):
    """What argparse makes of ``argv``, leftovers merged; None where it
    rejects the line or prints help."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return cli._parse_args(argv)
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "argv",
    [
        ["poset", "le2", "a", "b", "c", "f.clt"],
        ["poset", "le2", "--cap", "2", "a", "f.clt", "--dot", "--budget", "9"],
        ["poset", "--dot", "lect", "a", "--cap", "2", "b", "f.clt", "g.clt"],
        ["check", "le2", "a", "--witness", "b", "f.clt"],
        ["check", "le0", "--budget", "0", "a", "b", "f.clt", "--witness", "--witness"],
        ["invariants", "a", "f.clt"],
        ["sup", "le2", "a", "b", "f.clt", "--name", "J"],
        ["inf", "--name", "le2", "a", "f.clt"],
        ["decompose", "a", "f.clt", "--thresholds", "1,2"],
        ["admissible", "a", "f.clt"],
        ["search", "--lev", "unbounded", "--bas", "2"],
        ["search", "--antichain", "2", "--relation", "lect", "--max-points", "4",
         "--budget", "7"],
        ["poset", "le2"],
        ["sup", "le0", ""],
    ],
)
def test_plain_lines_are_read_as_argparse_reads_them(argv):
    read = cli._read(argv)
    assert read is not None
    assert read == _argparse(argv)


@pytest.mark.parametrize(
    "argv, argparse_reads_it",
    [
        (["search", "--relation", "le9"], False),
        (["sup", "le2", "a", "--name", "-x"], False),
        (["poset", "le2", "--cap", "-x"], False),
        (["poset", "le2", "a", "--cap"], False),
        (["poset", "le9", "a"], False),
        (["poset", "--dot", "a.clt"], False),
        (["decompose", "a", "f.clt"], False),
        (["search", "--seed", "1"], False),
        (["search", "a"], False),
        (["check", "le2", "a", "--dot"], False),
        (["poset", "le2", "--help"], False),
        (["poset", "le2", "--cap=2", "a"], True),
        (["check", "le2", "--wit", "a", "b"], True),
        (["search", "--lev", "-1"], True),
        (["poset", "le2", "--cap", "-1", "a"], True),
    ],
)
def test_other_lines_are_left_to_argparse(argv, argparse_reads_it):
    assert cli._read(argv) is None
    assert (_argparse(argv) is not None) == argparse_reads_it


_OPTION_FLAGS = sorted({o.flag for c in cli.COMMANDS.values() for o in c.options})
_VALUES = ["2", "0", "-1", "-x", "x", "1,2", "unbounded", "le2", "lect", "", "--", "-"]
_WORDS = st.one_of(
    st.sampled_from(list(cli.COMMANDS)),
    st.sampled_from(["le0", "le2", "lect", "le9"]),
    st.sampled_from(["flip", "step", "demo.clt", "x.clt", "a b"]),
    st.sampled_from(_VALUES),
    st.sampled_from(["--bogus", "-h", "--help", "-x", "--=2"]),
)
_FLAG_VALUE = st.tuples(st.sampled_from(_OPTION_FLAGS), st.sampled_from(_VALUES))
# a chunk is one token, or an option with its value; "--opt=value"
# spellings and abbreviations are one token each
_CHUNKS = st.one_of(
    _WORDS.map(lambda w: [w]),
    st.sampled_from(_OPTION_FLAGS).map(lambda f: [f]),
    _FLAG_VALUE.map(list),
    _FLAG_VALUE.map(lambda t: ["=".join(t)]),
    st.tuples(st.sampled_from(_OPTION_FLAGS), st.integers(3, 6)).map(lambda t: [t[0][: t[1]]]),
)


def _option_chunk(o):
    """One option of a command, mostly with a good value."""
    if o.type is None:
        return st.just([o.flag])
    good = o.choices[-1] if o.choices else "2"
    return st.one_of(st.just(good), st.just(good), st.sampled_from(_VALUES)).map(
        lambda v: [o.flag, v]
    )


@st.composite
def _lines(draw):
    """A command line of its own command's options, mostly with good
    values, and its items, with at most one chunk from anywhere."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    parts = [_option_chunk(o) for o in command.options]
    if command.takes:
        parts.append(st.sampled_from([["flip"], ["demo.clt"]]))
    chunks = draw(st.lists(st.one_of(parts), max_size=6))
    if command.relations and draw(st.integers(0, 9)):
        chunks.insert(0, [draw(st.sampled_from(command.relations))])
    if draw(st.integers(0, 9)):
        chunks += [[o.flag, "2"] for o in command.options if o.required]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(_CHUNKS))
    return [name] + [token for c in chunks for token in c]


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        _lines(),
        _lines(),
        st.lists(_CHUNKS, max_size=7).map(lambda chunks: [t for c in chunks for t in c]),
    )
)
def test_the_reader_agrees_with_argparse(argv):
    read, parsed = cli._read(argv), _argparse(argv)
    if parsed is None:
        assert read is None
    elif read is not None:
        assert read == parsed
