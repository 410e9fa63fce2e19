import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from cpops import branching, cli
from cpops.cache import cache_lookup, cache_store
from cpops.characters import (
    character_direct,
    character_from_json,
    character_to_csv,
    character_to_json,
    character_to_latex,
    character_to_text,
    dominant_character_direct,
    expand_dominant,
)
from cpops.patterns import (
    PatternC,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    pattern_chains,
    pattern_from_json,
    pattern_to_json,
)
from cpops.pops import (
    Pop,
    _block_lists,
    _Blocks,
    enumerate_pops,
    enumerate_restricted_pops,
    monomial_to_json,
    pop_from_json,
    pop_monomial,
    pop_to_json,
)
from cpops.rootsys import DominantWeight, label_text, sweep_dominant_weights


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_example(capsys):
    code, out, _ = run_cli(capsys, "dim", "--rank", "3", "--omegas", "0,0,1")
    assert code == 0
    assert out.strip() == "14"


def test_dim_irreducible_and_check(capsys):
    code, out, _ = run_cli(capsys, "dim", "--omegas", "1,1", "--irreducible",
                           "--check")
    assert code == 0
    assert out.strip() == "16"


def test_char_both_methods_text(capsys):
    code, out, _ = run_cli(capsys, "char", "--rank", "1", "--omegas", "2",
                           "--method", "both", "--format", "text")
    assert code == 0
    assert out.strip() == "e^{2ε1} + (1+q)·1 + e^{-2ε1}"


def test_char_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "char", "--omegas", "0,1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "grade,a1,a2,mult"
    assert len(lines) == 6


def test_char_json_matches_module(capsys):
    code, out, _ = run_cli(capsys, "char", "--omegas", "1,0", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["rank"] == 2
    assert sum(term["mult"] for term in blob["terms"]) == 4


def test_verify_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rank", "2", "--max-total", "2")
    assert code == 0
    assert "0 failure(s)" in out


def test_verify_single_weight_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--omegas", "1,0",
                           "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["ok"] is True


def test_verify_json_sweep_digest(capsys):
    # The JSON reports of the rank-3 sweep to total 3, pinned to their stdout
    # digest from before verify read its gap blocks from row-pair memos.
    code, out, _ = run_cli(capsys, "verify", "--format", "json", "--rank", "3",
                           "--max-total", "3")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "efbce79144c917dbeb3fe4cf8a6fa7b5b66363cd753e9696b19f9dfb0d83101a")


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(branching, "weyl_dim", lambda lam: 0)
    code, out, _ = run_cli(capsys, "verify", "--omegas", "1,1")
    assert code == 1
    assert out.splitlines()[-1] == "verified 1 weight(s), 1 failure(s)"


def test_char_both_mismatch_exits_1(capsys, monkeypatch):
    # --method both compares the two dominant parts.
    fermionic = cli.dominant_character_fermionic

    def bumped(weight):
        ch = fermionic(weight)
        ch.add_term(*min(ch.terms))
        return ch

    monkeypatch.setattr(cli, "dominant_character_fermionic", bumped)
    for extra in ((), ("--dominant",)):
        code, out, err = run_cli(capsys, "char", "--omegas", "1,1", "--method", "both",
                                 *extra)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1


def test_char_dominant_prints_the_dominant_terms(capsys):
    w = DominantWeight.from_omegas((1, 1))
    full = character_direct(w)
    dominant = {(s, mu): m for (s, mu), m in full.terms.items()
                if all(a >= b for a, b in zip(mu, mu[1:] + (0,)))}
    for method in ("direct", "fermionic", "both"):
        code, out, err = run_cli(capsys, "char", "--omegas", "1,1", "--dominant",
                                 "--method", method, "--format", "json")
        assert (code, err) == (0, "")
        assert character_from_json(json.loads(out)).terms == dominant, method
    code, out, _ = run_cli(capsys, "char", "--omegas", "1,1", "--dominant")
    assert out == "e^{2ε1+ε2} + (2+q)·e^{ε1}\n"


@pytest.mark.parametrize("omegas", ["2", "1,1", "0,1,1", "2,1,1,0"])
def test_char_output_equals_renderings(capsys, omegas):
    # Every method, format and --dominant choice against the library's
    # renderings of the dominant part and of its orbit expansion, which
    # test_characters ties to the term-by-term reference.
    w = DominantWeight.from_omegas(tuple(map(int, omegas.split(","))))
    dominant = dominant_character_direct(w)
    for dominant_only in (False, True):
        ch = dominant if dominant_only else expand_dominant(dominant)
        expected = {"json": json.dumps(character_to_json(ch), sort_keys=True) + "\n",
                    "csv": character_to_csv(ch), "latex": character_to_latex(ch) + "\n",
                    "text": character_to_text(ch) + "\n"}
        for fmt, text in expected.items():
            for method in ("direct", "fermionic", "both"):
                code, out, err = run_cli(capsys, "char", "--omegas", omegas, "--format", fmt,
                                         "--method", method, *(("--dominant",) * dominant_only))
                assert (code, out, err) == (0, text, ""), (fmt, method, dominant_only)


def test_char_has_no_cache(tmp_path, capsys, monkeypatch):
    # char always computes: --cache-dir is an unknown flag and the
    # CPOPS_CACHE_DIR variable, which once named a cache directory, is ignored.
    cache_dir = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        cli.main(["char", "--omegas", "1,1", "--cache-dir", str(cache_dir)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"cpops: error: unrecognized arguments: --cache-dir {cache_dir}")
    fresh = run_cli(capsys, "char", "--omegas", "1,1")
    monkeypatch.setenv("CPOPS_CACHE_DIR", str(cache_dir))
    assert run_cli(capsys, "char", "--omegas", "1,1") == fresh
    assert not cache_dir.exists()


@pytest.mark.parametrize("argv, what", [
    # 2**20000 has 6,021 digits; the int-to-str limit once turned it into exit 3.
    (["dim", "--omegas", "20000"], "the overlaid-pattern count"),
    # 4**(10**20) would never finish; refused before the power is taken.
    (["dim", "--omegas", "99999999999999999999,1"], "the overlaid-pattern count"),
    (["dim", "--irreducible", "--omegas", ",".join(["9" * 1100] * 2)], "dim V"),
])
def test_dim_too_many_digits_exits_2(capsys, argv, what):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"cpops: error: {what} has more than 4300 digits"]


def test_dim_prints_4300_digits(capsys):
    code, out, _ = run_cli(capsys, "dim", "--omegas", "14284")  # 2**14284
    assert (code, out) == (0, f"{2 ** 14284}\n")
    assert len(out) == 4301


def _close_stdout_early(argv, read) -> tuple:
    # Start the CLI, read from its stdout with ``read``, close the pipe and
    # return the exit status and stderr.
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cpops.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    assert read(proc.stdout)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    return proc.returncode, err


def test_closed_stdout_exits_141_quietly():
    argv = ["pops", "--omegas", "2,2,1"]
    assert _close_stdout_early(argv, lambda out: out.readline()) == (141, b"")


def test_char_closed_stdout_exits_141_quietly():
    # char writes its 121 KB of JSON in bulk, more than a pipe holds, so the
    # reader's early close always reaches a write.
    argv = ["char", "--format", "json", "--omegas", "2,2,1"]
    assert _close_stdout_early(argv, lambda out: out.read(1) == b"{") == (141, b"")


def test_count_matches_enumeration(capsys):
    code, out, _ = run_cli(capsys, "count", "--omegas", "1,1",
                           "--format", "json")
    assert code == 0
    counts = json.loads(out)
    assert counts["patterns"] == 16
    assert counts["pops"] == 20
    assert counts["pop_formula"] == 20


def test_counts_build_no_pattern_or_overlaid_pattern(capsys, monkeypatch):
    # count and dim --check sum over row transitions (count_chains) and
    # build no PatternC and no Pop.
    def refuse(*args):
        raise AssertionError("a pattern record was built")
    monkeypatch.setattr(PatternC, "__new__", refuse)
    monkeypatch.setattr(Pop, "__new__", refuse)
    code, out, err = run_cli(capsys, "count", "--restricted", "--format", "json",
                             "--omegas", "1,1,1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "patterns": 512, "pop_formula": 1176, "pops": 1176,
        "restricted_patterns": 105, "restricted_pop_formula": 225,
        "restricted_pops": 225}
    for flags, value in (((), "1176"), (("--irreducible",), "512")):
        code, out, err = run_cli(capsys, "dim", "--check", *flags, "--omegas", "1,1,1")
        assert (code, out, err) == (0, value + "\n", ""), flags


def test_dim_check_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_chains", lambda w: (16, 21))
    code, out, err = run_cli(capsys, "dim", "--check", "--omegas", "1,1")
    assert (code, out) == (1, "")
    assert err == "mismatch: formula 20, sum over rows 21\n"


def test_patterns_stream_parses_back(capsys):
    code, out, _ = run_cli(capsys, "patterns", "--lambdas", "1,0")
    assert code == 0
    parsed = [pattern_from_json(json.loads(line)) for line in out.splitlines()]
    assert parsed == list(enumerate_patterns(DominantWeight((1, 0))))


def test_pops_stream_parses_back(capsys):
    code, out, _ = run_cli(capsys, "pops", "--omegas", "2")
    assert code == 0
    parsed = [pop_from_json(json.loads(line)) for line in out.splitlines()]
    assert parsed == list(enumerate_pops(DominantWeight.from_omegas((2,))))


def test_monomials_stream(capsys):
    code, out, _ = run_cli(capsys, "monomials", "--omegas", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "x-(1,1~)@t^1" in lines
    assert lines[-1] == "1"


def _pattern_text(p) -> str:
    # The patterns text line of one pattern.
    return (f"eta={json.dumps([list(r) for r in p.eta_rows])} "
            f"lambda={json.dumps([list(r) for r in p.lambda_rows])}")


def _pop_text(p) -> str:
    # The pops text line of one overlaid pattern, rendered from the Pop.
    overlays = {label_text(pos): list(parts)
                for pos, parts in zip(p.pattern.positions, p.overlays)}
    return f"{_pattern_text(p.pattern)} overlays={json.dumps(overlays, sort_keys=True)}"


def _listing(capsys, *argv) -> list:
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, ""), argv
    assert out.endswith("\n"), argv
    return out.split("\n")[:-1]


SWEEP = [w for r in (1, 2, 3) for w in sweep_dominant_weights(r, 2)]


def _omegas_id(weight) -> str:
    return ",".join(map(str, weight.omegas))


@pytest.mark.parametrize("weight", SWEEP, ids=_omegas_id)
def test_patterns_stream_equals_pattern_to_json(capsys, weight):
    # The listing renders rows from a memo; pattern_to_json is the reference.
    lam = ",".join(map(str, weight.lam))
    for kind, patterns in (((), enumerate_patterns(weight)),
                           (("--restricted",), enumerate_restricted_patterns(weight.lam))):
        patterns = list(patterns)
        assert _listing(capsys, "patterns", *kind, "--lambdas", lam) == [
            json.dumps(pattern_to_json(p), sort_keys=True) for p in patterns], kind
        assert _listing(capsys, "patterns", *kind, "--format", "text",
                        "--lambdas", lam) == list(map(_pattern_text, patterns)), kind


# Rank 4, omegas (1,0,0,1): 336 overlaid patterns, with gap blocks of four
# positions at the top.
@pytest.mark.parametrize("weight", SWEEP + [DominantWeight.from_omegas((1, 0, 0, 1))],
                         ids=_omegas_id)
def test_streams_equal_the_per_pop_serializers(capsys, weight):
    # The CLI renders each pattern's overlays at once from memos of rows and
    # gap blocks; pop_to_json, pop_monomial and monomial_to_json, one
    # overlaid pattern at a time, are the reference, line for line.
    lam = ",".join(map(str, weight.lam))
    pops = list(enumerate_pops(weight))
    restricted = list(enumerate_restricted_pops(weight.lam))
    words = [pop_monomial(p) for p in pops]
    expected = {
        ("pops", "--format", "json"):
            [json.dumps(pop_to_json(p), sort_keys=True) for p in pops],
        ("pops", "--format", "text"): [_pop_text(p) for p in pops],
        ("pops", "--restricted", "--format", "json"):
            [json.dumps(pop_to_json(p), sort_keys=True) for p in restricted],
        ("pops", "--restricted", "--format", "text"): [_pop_text(p) for p in restricted],
        ("monomials", "--format", "text"): [w.text() for w in words],
        ("monomials", "--format", "json"):
            [json.dumps(monomial_to_json(w), sort_keys=True) for w in words],
    }
    for argv, lines in expected.items():
        assert lines, argv
        assert _listing(capsys, *argv, "--lambdas", lam) == lines, argv


def test_stream_edge_cases(capsys):
    # Restricted rank 1 has no gap position, full rank 1 has one, and a word
    # with no factor prints "1".
    assert _listing(capsys, "pops", "--restricted", "--format", "text",
                    "--lambdas", "0") == ["eta=[[0]] lambda=[] overlays={}"]
    assert _listing(capsys, "pops", "--restricted", "--lambdas", "2") == [
        '{"eta": [[2]], "lambda": [], "overlays": [], "rank": 1}']
    assert _listing(capsys, "pops", "--format", "text", "--lambdas", "1") == [
        'eta=[[0]] lambda=[[1]] overlays={"(1,1~)": [0]}',
        'eta=[[1]] lambda=[[1]] overlays={"(1,1~)": []}']
    assert _listing(capsys, "pops", "--lambdas", "0") == [
        '{"eta": [[0]], "lambda": [[0]], "overlays": '
        '[{"barred": true, "i": 1, "j": 1, "parts": []}], "rank": 1}']
    assert _listing(capsys, "monomials", "--lambdas", "0") == ["1"]
    assert _listing(capsys, "monomials", "--format", "json", "--lambdas", "0,0") == [
        '{"degree": 0, "factors": []}']
    assert _listing(capsys, "monomials", "--format", "json", "--lambdas", "1")[0] == (
        '{"degree": 0, "factors": [{"barred": true, "i": 1, "j": 1, "t": 0}]}')


def test_branch_listings(capsys):
    code, out, _ = run_cli(capsys, "branch", "--lambdas", "1,1",
                           "--kind", "filtration")
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = run_cli(capsys, "branch", "--lambdas", "1,0",
                           "--kind", "shtepin-v", "--format", "json")
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [[0, 0], [1, 0]]
    code, out, _ = run_cli(capsys, "branch", "--lambdas", "1,0",
                           "--kind", "shtepin-l")
    assert code == 0
    assert out.splitlines() == ["[0]", "[1]"]
    # Exact lines, pinned byte for byte.
    expected = {
        ("--lambdas", "1,1", "--kind", "filtration", "--format", "text"): [
            "ell=[0, 0] ellp=[0] mult=1 target=[1]",
            "ell=[0, 1] ellp=[0] mult=1 target=[1]",
            "ell=[0, 1] ellp=[1] mult=1 target=[0]",
        ],
        ("--lambdas", "1,1", "--kind", "filtration", "--format", "json"): [
            '{"ell": [0, 0], "ellp": [0], "mult": 1, "target": [1]}',
            '{"ell": [0, 1], "ellp": [0], "mult": 1, "target": [1]}',
            '{"ell": [0, 1], "ellp": [1], "mult": 1, "target": [0]}',
        ],
        ("--lambdas", "2,1,0", "--kind", "shtepin-v", "--format", "text"): [
            "[1, 0, 0]", "[1, 1, 0]", "[2, 0, 0]", "[2, 1, 0]",
        ],
        ("--lambdas", "2,1,0", "--kind", "shtepin-l", "--format", "json"): [
            "[1, 0]", "[1, 1]", "[2, 0]", "[2, 1]",
        ],
    }
    for argv, lines in expected.items():
        code, out, _ = run_cli(capsys, "branch", *argv)
        assert code == 0
        assert out.splitlines() == lines, argv


def test_usage_error_both_weight_forms(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--omegas", "1", "--lambdas", "1"])
    assert exc.value.code == 2


def test_usage_error_no_weight(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim"])
    assert exc.value.code == 2


def test_usage_error_rank_mismatch(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--rank", "3", "--omegas", "1,0"])
    assert exc.value.code == 2


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_usage_error_bad_weight(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--lambdas", "0,1"])
    assert exc.value.code == 2


# Inputs whose usage error must carry a specific message.
BAD_INPUT_MESSAGES = {
    ("dim", "--omegas", "-1"): "omega coordinates must be non-negative",
    ("verify", "--rank", "2", "--max-total", "100000000000000000000"):
        "sweep too large",
    ("verify", "--rank", "2", "--max-total", "3000000000"): "sweep too large",
    ("verify", "--rank", "1000000000000", "--max-total", "0"): "sweep too large",
}


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "0", "--max-total", "1"],
    ["verify", "--rank", "-1"],
    ["verify", "--rank", "2", "--max-total", "-1"],
    ["verify", "--rank", "2", "--max-total", "100000000000000000000"],
    # comb(3e9 + 2, 2) weights; once a MemoryError (exit 3) building the list.
    ["verify", "--rank", "2", "--max-total", "3000000000"],
    # One weight of 10**12 coordinates; once a MemoryError (exit 3) building
    # its coordinate list.
    ["verify", "--rank", "1000000000000", "--max-total", "0"],
    ["dim", "--omegas", "-1"],
    ["char", "--lambdas", "1,2"],
    ["pops", "--lambdas", "-1"],
    ["count", "--omegas", "1,,2"],
    ["verify", "--omegas", ""],
    ["monomials", "--omegas", "1", "--lambdas", "1"],
    ["patterns", "--rank", "2", "--lambdas", "1"],
    ["branch", "--kind", "filtration", "--omegas", "1"],
])
def test_usage_error_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert BAD_INPUT_MESSAGES.get(tuple(argv), "") in err


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    def broken(weight):
        raise RuntimeError("injected\nfailure")
    monkeypatch.setattr(cli, "weyl_dim", broken)
    code, out, err = run_cli(capsys, "dim", "--irreducible", "--omegas", "1")
    assert code == 3
    assert out == ""
    assert err == "cpops: internal error: RuntimeError: injected failure\n"


def test_char_both_beyond_recursion_depth(capsys):
    # Over 1,000 gap positions: the fermionic walk must not recurse per position.
    for omegas in ((0,) * 40, (1,) + (0,) * 31):
        code, out, err = run_cli(capsys, "char", "--method", "both", "--omegas",
                                 ",".join(map(str, omegas)))
        assert code == 0, err
        assert out.strip()


def test_pattern_commands_beyond_recursion_depth(capsys):
    # A chain of 2,200 rows: pattern enumeration must not recurse per row.
    zeros = ",".join(["0"] * 1100)
    code, out, err = run_cli(capsys, "patterns", "--omegas", zeros)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1
    code, out, err = run_cli(capsys, "char", "--method", "direct", "--omegas", zeros)
    assert (code, out, err) == (0, "1\n", "")
    # count and dim --check go one row at a time too; rank 400 keeps the
    # chain (800 rows) past the recursion limit and the test fast.
    zeros = ",".join(["0"] * 400)
    code, out, err = run_cli(capsys, "count", "--restricted", "--format", "json",
                             "--omegas", zeros)
    assert (code, err) == (0, "")
    assert set(json.loads(out).values()) == {1}
    code, out, err = run_cli(capsys, "dim", "--check", "--omegas", zeros)
    assert (code, out, err) == (0, "1\n", "")


def test_import_needs_no_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 10 ms of
    # every CLI start-up; the records are namedtuples instead.
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import cpops.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "[]\n"


def _peak_rss_kb(*argv):
    # Peak resident set size (VmHWM) of one CLI run in a fresh interpreter, in
    # KB. ru_maxrss would not do: Linux carries it over from the forking parent.
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "from cpops.cli import main\n"
              f"main({list(argv)!r})\n"
              "with open('/proc/self/status') as fh: print(fh.read())")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return int(out.split("VmHWM:")[1].split()[0])


def test_large_boxes_are_not_memoized():
    # rank 1, 18 omega_1: boxes of up to comb(18, 9) = 48,620 partitions.
    # Memoizing every box grew the peak by about 30 MB over 12 omega_1.
    grown = _peak_rss_kb("count", "--omegas", "18") - _peak_rss_kb("count", "--omegas", "12")
    assert grown < 15 * 1024


def test_char_peak_does_not_grow_with_output():
    # Rank 5, omegas all 1: 326,054 terms (18 MB of JSON) from 673 dominant
    # ones. Building the full character and its JSON grew the peak by about
    # 170 MB over --dominant; writing from the dominant part grows it by the
    # 50,574 rendered orbit images and one grade's lines.
    args = ("char", "--format", "json", "--omegas", "1,1,1,1,1")
    grown = _peak_rss_kb(*args) - _peak_rss_kb(*args, "--dominant")
    assert grown < 30 * 1024


def test_rendered_partitions_keep_only_small_boxes(capsys):
    # Rank 1, 12 omega_1: boxes of up to comb(12, 6) = 924 partitions. The
    # gap blocks, like the partitions themselves, are kept only when every
    # box of the block holds at most 64 partitions.
    for argv in (["pops", "--omegas", "12"], ["pops", "--format", "text", "--omegas", "12"],
                 ["monomials", "--omegas", "12"],
                 ["monomials", "--format", "json", "--omegas", "12"]):
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 ** 12, argv
    renderers = {"pops-json": (cli._pops_json_slots, False),
                 "pops-text": (cli._pops_text_slots, False),
                 "words-text": (cli._words_text_slots, True),
                 "words-json": (cli._words_json_slots, True),
                 "words-degrees": (cli._words_degrees, True)}
    for name, (render, words) in renderers.items():
        blocks = _Blocks(render, words)
        for rows in pattern_chains((12,), False):
            boxes = [box for pair in itertools.pairwise(rows)
                     for _, box in gap_block(*pair) if box[0] or not words]
            assert [len(slots) for slots in _block_lists(blocks, rows)] == [
                comb(ell + ellp, ell) for ell, ellp in boxes], (name, rows)
        assert blocks, name
        for (lower, upper), block in blocks.items():
            boxes = [(u - x, x - t) for u, x, t in zip(upper, lower, upper[1:] + (0,))]
            assert all(comb(ell + ellp, ell) <= 64 for ell, ellp in boxes), (name, lower)
        assert ((6,), (12,)) not in blocks, name


class _RecordingStdout:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def test_listings_write_in_batches(capsys, monkeypatch):
    # Rank 1, 14 omega_1: the pattern eta=[[7]] lambda=[[14]] has a box of
    # comb(14, 7) = 3,432 partitions, so its lines go out in several batches.
    # The patterns listing batches across patterns: 1,386 at omegas (2,1,1).
    for argv in (["pops", "--omegas", "14"], ["pops", "--format", "text", "--omegas", "14"],
                 ["monomials", "--omegas", "14"],
                 ["monomials", "--format", "json", "--omegas", "14"],
                 ["patterns", "--omegas", "2,1,1"]):
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        recorder = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert cli.main(argv) == 0
        monkeypatch.undo()
        assert "".join(recorder.chunks) == expected, argv
        lines = [chunk.count("\n") for chunk in recorder.chunks]
        assert max(lines) == cli.BATCH_LINES, argv
        assert all(chunk.endswith("\n") for chunk in recorder.chunks), argv


def test_cache_round_trip(tmp_path):
    w = DominantWeight.from_omegas((2,))
    ch = character_direct(w)
    cache_store(str(tmp_path), w.rank, w.lam, "direct", ch)
    hit = cache_lookup(str(tmp_path), w.rank, w.lam, "direct")
    assert hit == ch


def test_cache_unknown_key_misses(tmp_path):
    assert cache_lookup(str(tmp_path), 1, (2,), "direct") is None


def test_cache_corrupt_entry_warns_and_misses(tmp_path, capsys):
    w = DominantWeight.from_omegas((2,))
    entry = json.loads(Path(cache_store(str(tmp_path), w.rank, w.lam, "direct",
                                        character_direct(w))).read_text())
    entry["character"]["terms"][1]["grade"] = 1.9  # once read as grade 1, a hit
    tampered = json.dumps(entry)
    entry["character"] = {"rank": 2, "terms": [{"grade": 0, "weight": [5, 5], "mult": 3}]}
    other_rank = json.dumps(entry)  # once a hit printing (3)·e^{5ε1+5ε2}
    for content in ("not json at all", "[]", "null", '{"version": 1, "key": []}',
                    tampered, other_rank):
        path = cache_store(str(tmp_path), w.rank, w.lam, "direct",
                           character_direct(w))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        assert cache_lookup(str(tmp_path), w.rank, w.lam, "direct") is None
        assert "warning" in capsys.readouterr().err, content


def test_cache_stale_version_misses(tmp_path, capsys):
    w = DominantWeight.from_omegas((2,))
    path = cache_store(str(tmp_path), w.rank, w.lam, "direct",
                       character_direct(w))
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    blob["version"] = -1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
    assert cache_lookup(str(tmp_path), w.rank, w.lam, "direct") is None
    assert "stale" in capsys.readouterr().err


def test_benchmark_patch_targets_exist(tmp_path):
    # perfbench/traced.py wraps names that cpops modules import from each
    # other; a renamed or removed one fails here, not only in a traced run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"
    if not path.is_file():
        pytest.skip("perfbench/ is not present")
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    tracer = traced.Tracer()
    try:
        traced.install(tracer, [])
    finally:
        tracer.unpatch()
    assert traced.probe_cache([], str(tmp_path))["ok"]


def test_benchmark_char_digests_match(capsys):
    # The benchmark counts a stdout digest mismatch as a failed invocation;
    # the same check runs here in-process.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    if not path.is_file():
        pytest.skip("perfbench/ is not present")
    digests = json.loads(path.read_text())
    # Every key: the characters and each pool member of the stream rungs.
    keys = list(digests)
    assert sum(key.startswith(("pops ", "monomials ")) for key in keys) == 11
    for key in keys:
        assert cli.main(key.split()) == 0, key
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[key], key


def test_benchmark_verify_rungs_pass(capsys):
    # The benchmark counts a verify report that is not all ok as a failed
    # invocation; the same rungs run here in-process.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
    if not path.is_file():
        pytest.skip("perfbench/ is not present")
    rungs = json.loads(path.read_text())["workloads"]["verify-sweep"]["rungs"]
    argvs = []
    for rung in rungs:
        if "sweep" in rung:
            rank, total = rung["sweep"]
            argvs.append(
                rung["args"] + ["--rank", str(rank), "--max-total", str(total)])
        else:
            argvs += [rung["args"] + ["--omegas", ",".join(map(str, omegas))]
                      for omegas in rung["pool"]]
    assert len(argvs) == 3
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        reports = json.loads(capsys.readouterr().out)
        assert reports and all(report["ok"] for report in reports), argv
