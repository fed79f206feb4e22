import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ringgraph as rg
from conftest import forks_here
from ringgraph import classify, rings
from ringgraph.classify import THEOREM_IDS
from ringgraph.cli import emit_dot, emit_json, main, parse_ring_expr, ring_summary


# -- parsing ------------------------------------------------------------------


def test_parse_basic_forms():
    assert parse_ring_expr("Z12") == rg.Zn(12)
    assert parse_ring_expr("Z5[x]/(x^2)") == rg.PolyQuot(5, (0, 0, 1))
    assert parse_ring_expr("GF(4)") == rg.GF(2, 2, (1, 1, 1))
    assert parse_ring_expr("GF(4,[1,1,1])") == rg.GF(2, 2, (1, 1, 1))
    assert parse_ring_expr("SZ(Z2,3)") == rg.SquareZero(rg.Zn(2), 3)
    assert parse_ring_expr("Z4 x Z3") == rg.Prod((rg.Zn(4), rg.Zn(3)))


def test_parse_polynomials():
    assert parse_ring_expr("Z7[x]/(x^3+2*x+3)") == rg.PolyQuot(7, (3, 2, 0, 1))
    assert parse_ring_expr("Z4[x]/(x^2+2*x+1)") == rg.PolyQuot(4, (1, 2, 1))
    assert parse_ring_expr("Z2[x]/(x^2+x+1)") == rg.PolyQuot(2, (1, 1, 1))
    assert parse_ring_expr("Z3[x]/( x ^ 2 + 1 )") == rg.PolyQuot(3, (1, 0, 1))


def test_parse_products_and_parens():
    assert parse_ring_expr("Z2 x Z3 x Z5") == rg.Prod((rg.Zn(2), rg.Zn(3), rg.Zn(5)))
    assert parse_ring_expr("(Z2 x Z3) x Z5") == rg.Prod((rg.Zn(2), rg.Zn(3), rg.Zn(5)))
    assert parse_ring_expr("GF(4) x Z5[x]/(x^2)") == rg.Prod(
        (rg.gf(4), rg.PolyQuot(5, (0, 0, 1)))
    )


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(rg.ParseError) as err:
        parse_ring_expr("Zfoo")
    assert err.value.column == 1 and err.value.expected
    with pytest.raises(rg.ParseError) as err:
        parse_ring_expr("Z4 Z5")
    assert err.value.column == 4
    with pytest.raises(rg.ParseError):
        parse_ring_expr("Z2 xZ3")  # product sign needs spaces on both sides
    with pytest.raises(rg.ParseError):
        parse_ring_expr("Z5[y]/(y^2)")
    with pytest.raises(rg.ParseError):
        parse_ring_expr("")


def test_parse_semantic_errors():
    with pytest.raises(rg.SemanticError):
        parse_ring_expr("GF(6)")
    with pytest.raises(rg.SemanticError):
        parse_ring_expr("Z4[x]/(2*x^2+1)")  # not monic
    with pytest.raises(rg.SemanticError):
        parse_ring_expr("SZ(Z2 x Z3,1)")
    with pytest.raises(rg.SemanticError):
        parse_ring_expr("Z0")


ROUND_TRIP_CORPUS = [
    "Z1",
    "Z12",
    "GF(4)",
    "GF(9,[2,1,1])",
    "GF(64)",
    "Z5[x]/(x^2)",
    "Z6[x]/(x^3+5*x+1)",
    "SZ(Z2,3)",
    "SZ(GF(4),1)",
    "Z4 x Z3",
    "Z2 x Z2 x GF(8)",
    "SZ(Z3,1) x Z2[x]/(x^2+x+1)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip_corpus(text):
    expr = parse_ring_expr(text)
    assert parse_ring_expr(str(expr)) == expr


@st.composite
def printable_exprs(draw, depth=0):
    options = ["zn", "gf", "quot", "sz"]
    if depth == 0:
        options.append("prod")
    kind = draw(st.sampled_from(options))
    if kind == "zn":
        return rg.Zn(draw(st.integers(1, 300)))
    if kind == "gf":
        q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27, 49]))
        if q == 9 and draw(st.booleans()):
            return rg.GF(3, 2, (2, 1, 1))  # non-default modulus
        return rg.gf(q)
    if kind == "quot":
        n = draw(st.integers(2, 9))
        deg = draw(st.integers(1, 3))
        coeffs = tuple(draw(st.integers(0, n - 1)) for _ in range(deg)) + (1,)
        return rg.PolyQuot(n, coeffs)
    if kind == "sz":
        base = draw(st.sampled_from([rg.Zn(2), rg.Zn(9), rg.gf(8)]))
        return rg.SquareZero(base, draw(st.integers(0, 4)))
    factors = draw(
        st.lists(printable_exprs(depth=1), min_size=2, max_size=3)
    )
    return rg.Prod(tuple(factors))


@settings(max_examples=150, deadline=None)
@given(printable_exprs())
def test_round_trip_hypothesis(expr):
    assert parse_ring_expr(str(expr)) == expr


def test_round_trip_catalog_expressions(catalog64):
    for entry in catalog64.entries:
        assert parse_ring_expr(str(entry.expr)) == entry.expr


# -- emitters -----------------------------------------------------------------


def test_ring_summary_z4():
    expr = rg.Zn(4)
    summary = ring_summary(expr, rg.make_ring(expr))
    assert summary == {
        "expr": "Z4",
        "order": 4,
        "characteristic": 4,
        "is_local": True,
        "aut_order": 1,
        "orbit_sizes": [1, 1, 1, 1],
        "type": 0,
        "totally_disconnected": True,
        "planar": True,
        "units_minus_one_connected": True,
        "m_minus_zero_connected": True,
        "graph_aut_order": 24,
    }


def test_summary_field_order_is_stable():
    expr = rg.gf(4)
    summary = ring_summary(expr, rg.make_ring(expr))
    assert list(summary) == [
        "expr", "order", "characteristic", "is_local", "aut_order",
        "orbit_sizes", "type", "totally_disconnected", "planar",
        "units_minus_one_connected", "m_minus_zero_connected", "graph_aut_order",
    ]
    assert summary["m_minus_zero_connected"] is True  # fields are local


def test_summary_non_local_has_null_m_connected():
    expr = rg.Zn(6)
    summary = ring_summary(expr, rg.make_ring(expr))
    assert summary["is_local"] is False
    assert summary["m_minus_zero_connected"] is None


def test_json_bytes_stable():
    expr = rg.PolyQuot(5, (0, 0, 1))
    a = emit_json(ring_summary(expr, rg.make_ring(expr)))
    b = emit_json(ring_summary(expr, rg.make_ring(expr)))
    assert a == b
    parsed = json.loads(a)
    assert parsed["aut_order"] == 4 and parsed["type"] == 3


def test_dot_output():
    f4 = rg.make_ring(rg.gf(4))
    dot = emit_dot(rg.aut_orbit_graph(f4)).decode()
    assert dot.count(" -- ") == 1  # exactly one edge, inside {x, x+1}
    assert 'label="x+1"' in dot
    d7 = rg.make_ring(rg.PolyQuot(7, (0, 0, 1)))
    collapsed = emit_dot(rg.aut_orbit_graph(d7), collapse=True).decode()
    assert collapsed.count("label=") == 14 and " -- " not in collapsed
    assert 'label="size=6"' in collapsed


# -- command dispatch -----------------------------------------------------------


def test_cmd_type(capsys):
    assert main(["type", "Z7[x]/(x^2)"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_cmd_info(capsys):
    assert main(["info", "Z4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["graph_aut_order"] == 24 and data["aut_order"] == 1


@pytest.mark.parametrize("text, aut_order", [("Z2048", 1), ("GF(64) x GF(64)", 72)])
def test_info_writes_graph_counts_above_the_int_digit_limit(capsys, text, aut_order):
    # graph_aut_order passes CPython's 4300-digit int-to-str limit here:
    # 2048! has 5895 digits; the limit is lifted for the output only
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert main(["info", text]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # Decimal parses any number of digits and compares exactly with an int
    data = json.loads(capsys.readouterr().out, parse_int=decimal.Decimal)
    assert data["aut_order"] == aut_order and data["expr"] == text
    if text == "Z2048":
        assert data["graph_aut_order"] == math.factorial(2048)


def test_cmd_aut_listing(capsys):
    assert main(["aut", "Z5[x]/(x^2)"]) == 0
    out = capsys.readouterr().out
    assert "aut_order: 4" in out and "x -> 2x" in out


def test_cmd_graph_json(capsys):
    assert main(["graph", "GF(4)", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_sizes"] == [1, 1, 2]


def test_cmd_parse_error_exit_2(capsys):
    assert main(["aut", "Zfoo"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["info", "GF(6)"]) == 2
    assert main(["info", "GF(4,[1,0,1])"]) == 2  # reducible modulus


def test_cmd_resource_limit_exit_3(capsys):
    assert main(["--max-ring-order", "8", "info", "Z100"]) == 3
    assert "resource limit" in capsys.readouterr().err
    assert main(["--search-budget", "2", "aut", "Z11[x]/(x^2+1)"]) == 3


def test_astronomical_order_exits_3(capsys):
    assert main(["info", "Z2[x]/(x^3000000)"]) == 3
    err = capsys.readouterr().err
    assert "resource limit" in err and "exceeds cap" in err
    # the parser passes each factor; make_ring refuses the product, an order
    # of more than 4300 digits, by its bit length
    assert main(["info", " x ".join(["Z4096"] * 1200)]) == 3
    err = capsys.readouterr().err
    assert "of 14401 bits exceeds cap" in err  # 4096**1200 = 2**14400


def _run_cli(argv, timeout):
    """Run `python -m ringgraph argv` on this checkout's package."""
    src = os.path.dirname(os.path.dirname(rg.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "ringgraph", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_parse_ring_expr_refuses_a_huge_field_at_once():
    # the cap defaults to DEFAULT_MAX_ORDER, as in make_ring, so q is never factorized
    start = time.perf_counter()
    with pytest.raises(rg.OrderLimitExceeded, match="field order 1099511627776 exceeds cap 4096"):
        parse_ring_expr("GF(1099511627776)")
    assert time.perf_counter() - start < 1
    assert parse_ring_expr("GF(8192)", max_order=8192) == rg.gf(8192, max_order=8192)


def test_huge_field_order_exits_3_quickly():
    start = time.perf_counter()
    proc = _run_cli(["info", "GF(1000000000000000003)"], timeout=10)
    assert proc.returncode == 3 and "exceeds cap" in proc.stderr
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("text", ["Z3[x]/(x^20000000)", "SZ(Z3,100000000)"])
def test_huge_exponent_exits_3_quickly(text):
    # the order n**k is refused from k alone: no dense coefficient list and
    # no power of that size is built
    start = time.perf_counter()
    proc = _run_cli(["info", text], timeout=10)
    assert proc.returncode == 3 and "exceeds cap" in proc.stderr
    assert time.perf_counter() - start < 10


def test_overlong_integer_literal_exits_2(capsys):
    digits = "9" * 5000  # above CPython's 4300-digit int() conversion limit
    assert main(["info", "Z" + digits]) == 2
    assert "too long" in capsys.readouterr().err
    assert main(["info", f"Z2[x]/(x^{digits})"]) == 2
    assert main(["info", f"GF({digits})"]) == 2
    assert "too long" in capsys.readouterr().err


def test_quotient_base_below_2_exits_2(capsys):
    assert main(["info", "Z0[x]/(x)"]) == 2
    assert main(["info", "Z1[x]/(x^2)"]) == 2
    assert "n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("var", ["RINGGRAPH_MAX_ORDER", "RINGGRAPH_BUDGET"])
def test_non_integer_environment_limit_exits_2(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "abc")
    assert main(["info", "Z4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and var in captured.err and "'abc'" in captured.err


@pytest.mark.parametrize("flag", ["--search-budget", "--max-ring-order"])
def test_negative_limit_flag_exits_2(capsys, flag):
    assert main([flag, "-1", "type", "GF(4)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err and "-1" in captured.err


@pytest.mark.parametrize("var", ["RINGGRAPH_MAX_ORDER", "RINGGRAPH_BUDGET"])
def test_negative_environment_limit_exits_2(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "-5")
    assert main(["type", "GF(4)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and var in captured.err and "-5" in captured.err


def test_zero_search_budget_is_a_limit(capsys):
    assert main(["--search-budget", "0", "type", "Z4"]) == 0
    assert main(["--search-budget", "0", "type", "GF(4)"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_cached_chain_does_not_lift_the_budget(capsys):
    # the first call caches GF(4)'s chain; the second must still be refused
    assert main(["type", "GF(4)"]) == 0
    assert main(["--search-budget", "0", "type", "GF(4)"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_env_vs_flag_precedence(monkeypatch, capsys):
    monkeypatch.setenv("RINGGRAPH_MAX_ORDER", "8")
    assert main(["info", "Z100"]) == 3
    capsys.readouterr()
    assert main(["--max-ring-order", "200", "type", "Z100"]) == 0
    assert capsys.readouterr().out.strip() == "0"


_FUZZ_TOKENS = ("Z", "GF", "SZ", "x", " x ", "[x]/(", "(", ")", "[", "]", ",", "/", "+",
                "*", "^", "0", "1", "2", "3", "4", "8", "9", "16", "64", "257", " ")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(["type", "info"]),
    st.one_of(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14).map("".join),
              st.text(max_size=30)),
)
def test_any_expression_ends_in_a_clean_exit(capsys, cmd, text):
    code = main(["--max-ring-order", "256", "--search-budget", "200000", cmd, "--", text])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (text, err)
    # a clean error is one message with the exit code's prefix, never a
    # traceback; the message may quote the input, so its words are not searched
    assert (err == "") if code == 0 else err.startswith(("error: ", "resource limit: ")), err


def test_cmd_verify(capsys):
    assert main(["verify", "trivial-aut", "--max-order", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS trivial-aut")
    assert main(["verify", "field-ext", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["passed"] is True


def test_cmd_verify_each_id_matches_its_report_in_all(capsys):
    assert main(["verify", "all", "--max-order", "16", "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["theorem"] for r in reports] == list(THEOREM_IDS)
    for theorem, report in zip(THEOREM_IDS, reports):
        assert main(["verify", theorem, "--max-order", "16", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [report], theorem


def test_cmd_verify_all_small(capsys):
    assert main(["verify", "all", "--max-order", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_cmd_verify_rejects_empty_universe(capsys):
    assert main(["verify", "trivial-aut", "--max-order", "1"]) == 2
    assert main(["verify", "all", "--max-order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-order" in captured.err


def test_cmd_verify_that_checks_nothing_is_not_a_pass(capsys):
    # no local ring of order <= 4 has residue degree above 2
    assert main(["verify", "residue-remark", "--max-order", "4", "--json"]) == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data[0]["checked"] == 0 and data[0]["passed"] is False
    assert "residue-remark" in captured.err
    assert main(["verify", "residue-remark", "--max-order", "4"]) == 2
    assert capsys.readouterr().out.startswith("EMPTY residue-remark: checked 0")
    assert main(["verify", "residue-remark", "--max-order", "8"]) == 0


# sha256 of the stdout of `ringgraph verify all --max-order 64 --json`: a
# speed change must leave every report byte for byte as it was
VERIFY_ALL_64_SHA256 = "1f35989a3d90730eb0fec3400be691a73a3e6701eda127e56f3869078d2bdbad"


def test_verify_all_json_is_byte_stable(chain_split, capsys):
    assert main(["verify", "all", "--max-order", "64", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_64_SHA256
    assert len(chain_split.pids) == (chain_split.forked and forks_here)


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
def test_verify_refused_mid_split_reaps_its_child(monkeypatch, capsys, cold_ring_cache):
    # at a budget of 50 the catalog builds, and GF(16), whose chain search
    # takes 60 nodes, is among the rings this process searches before it
    # takes products: the split that `_run_sweeps` starts ends over the
    # budget, the trivial-aut sweep's own split does too, and it raises
    argv = ["--search-budget", "50", "verify", "all", "--max-order", "16"]
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outcomes = []
    for cpus in ({0}, {0, 1}):
        rings._RINGS.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        outcomes.append((main(argv), capsys.readouterr().err))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2
    assert outcomes[0] == outcomes[1] == (
        3, "resource limit: 60 element images exceed the budget of 50; raise the budget to continue\n"
    )


def test_verify_refused_in_a_chain_search_is_the_same_split_or_not(chain_split, capsys):
    # at a budget of 1000 the catalog builds, and a chain search of the
    # trivial-aut sweep runs over it
    argv = ["--search-budget", "1000", "verify", "trivial-aut", "--max-order", "64"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "resource limit: 1120 element images exceed the budget of 1000; raise the budget to continue\n"
    )
    assert len(chain_split.pids) == (chain_split.forked and forks_here)
    if forks_here:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
def test_a_budget_error_in_a_local_units_check_is_the_same_split_or_not(
    monkeypatch, capsys, cold_ring_cache
):
    # the units-connected sweep's check of a local entry, which reads no
    # product chain, runs over the budget at GF(9)
    check = classify._units_connected_detail
    raised = []

    def over_budget(entry, budget):
        if entry.ring.order == 9 and entry.ring.is_field:
            raised.append(entry)
            raise rg.SearchBudgetExceeded("61 element images exceed the budget of 60")
        return check(entry, budget)

    monkeypatch.setattr(classify, "_units_connected_detail", over_budget)
    argv = ["verify", "all", "--max-order", "16"]
    outcomes = []
    for cpus in ({0}, {0, 1}):
        rings._RINGS.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        outcomes.append((main(argv), capsys.readouterr()))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 3 and outcomes[0][1].out == ""
    assert outcomes[0][1].err == "resource limit: 61 element images exceed the budget of 60\n"
    # once per run, in the sweep: `meanwhile` runs no units-connected check
    assert len(raised) == 2


@pytest.mark.skipif(not forks_here, reason="the split forks on Linux only")
@pytest.mark.parametrize("error", [None, RuntimeError])
def test_a_sweep_that_raises_while_the_child_searches_raises_in_order(
    error, monkeypatch, capsys, cold_ring_cache
):
    # at a budget of 50 the catalog builds and the trivial-aut,
    # units-connected and m-connected sweeps pass; the type-formulas sweep
    # runs over it, or raises `error`
    argv = ["--search-budget", "50", "verify", "all", "--max-order", "8"]
    sweep = classify.verify_type_formulas
    calls = []

    def type_formulas(budget=None):
        calls.append(budget)
        if error is not None:
            raise error("the type-formulas sweep fails")
        return sweep(budget=budget)

    monkeypatch.setattr(classify, "verify_type_formulas", type_formulas)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    outcomes = []
    for cpus in ({0}, {0, 1}):
        rings._RINGS.clear()
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if error is None:
            outcomes.append((main(argv), capsys.readouterr(), len(calls)))
        else:
            with pytest.raises(error, match="type-formulas sweep fails"):
                main(argv)
            outcomes.append((None, capsys.readouterr(), len(calls)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    # on both hosts the sweep ran once, in `meanwhile`, and its error
    # propagated from there; with the split the child searched products
    # while it ran
    assert len(forks) == 1
    code, err = (3, "resource limit: 80 element images exceed the budget of 50; "
                 "raise the budget to continue\n") if error is None else (None, "")
    assert outcomes == [(code, ("", err), 1), (code, ("", err), 1)]


def test_python_m_ringgraph_runs_cleanly():
    proc = _run_cli(["info", "Z4"], timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["order"] == 4


def test_cmd_verify_exit_1_on_counterexample(capsys, monkeypatch):
    from ringgraph.classify import VerificationReport

    def fake(catalog, budget=None):
        return VerificationReport(
            "trivial-aut", "stub", 1, False, ((rg.Zn(4), "synthetic failure"),)
        )

    monkeypatch.setattr("ringgraph.cli.classify.verify_trivial_aut_classification", fake)
    assert main(["verify", "trivial-aut", "--max-order", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL trivial-aut" in out and "synthetic failure" in out


def test_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("RINGGRAPH_BUDGET", "2")
    assert main(["aut", "Z13[x]/(x^2+1)"]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_cmd_atlas(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    assert main(["atlas", "--max-order", "6", "--out", str(out_dir)]) == 0
    index = json.loads((out_dir / "index.json").read_text())
    exprs = {rec["expr"] for rec in index}
    assert {"Z2", "Z3", "Z4", "GF(4)", "Z2[x]/(x^2)", "Z2 x Z2", "Z5", "Z6"} <= exprs
    for rec in index:
        data = json.loads((out_dir / rec["file"]).read_text())
        assert data["expr"] == rec["expr"]
        assert "dot" in rec  # all orders here are <= 128
        assert (out_dir / rec["dot"]).exists()


def test_atlas_json_matches_info(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    main(["atlas", "--max-order", "4", "--out", str(out_dir)])
    capsys.readouterr()
    assert main(["info", "GF(4)"]) == 0
    direct = json.loads(capsys.readouterr().out)
    stored = json.loads((out_dir / "GF(4).json").read_text())
    assert direct == stored


# sha256 of every file `ringgraph atlas --max-order 64` writes (one JSON and
# one DOT per entry, and index.json), concatenated in sorted file-name order
ATLAS_64_FILES = 693
ATLAS_64_SHA256 = "0ef18c4c8503112c8e419104ba96b5f849c3472891289affe5d147f28635b297"


def test_atlas_output_is_byte_stable(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    assert main(["atlas", "--max-order", "64", "--out", str(out_dir)]) == 0
    names = sorted(os.listdir(out_dir))
    digest = hashlib.sha256(b"".join((out_dir / name).read_bytes() for name in names))
    assert len(names) == ATLAS_64_FILES
    assert digest.hexdigest() == ATLAS_64_SHA256


def test_ring_summary_reads_sizes_without_building_blocks(monkeypatch):
    def no_blocks(graph):
        raise AssertionError("ring_summary built the orbit blocks")

    monkeypatch.setattr(rg.OrbitGraph, "blocks", property(no_blocks))
    expr = rg.Prod((rg.gf(4), rg.PolyQuot(5, (0, 0, 1))))
    summary = ring_summary(expr, rg.make_ring(expr))
    assert summary["orbit_sizes"] == sorted(a * b for a in (1, 1, 2) for b in [1] * 5 + [4] * 5)
    assert emit_dot(rg.aut_orbit_graph(rg.make_ring(expr)), collapse=True).count(b"size=8") == 5


@pytest.mark.parametrize("max_order", ["-5", "1"])
def test_atlas_rejects_max_order_below_2(tmp_path, capsys, max_order):
    out_dir = tmp_path / "atlas"
    assert main(["atlas", "--max-order", max_order, "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-order must be at least 2, got {max_order}\n"
    assert not out_dir.exists()
    # the same refusal as verify's
    assert main(["verify", "all", "--max-order", max_order]) == 2
    assert capsys.readouterr().err == captured.err


def test_atlas_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    for out in (blocker, blocker / "atlas"):
        assert main(["atlas", "--max-order", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err
    assert blocker.read_text() == "not a directory\n"
