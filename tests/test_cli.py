import json
from fractions import Fraction as F

import pytest

from superschrod.cli import MAX_DEGREE, build_parser, main
from superschrod.singular import SingularVectorReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_verify_pass(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "--algebra", "ssch2")
    assert code == 0
    assert "jacobi: pass" in out
    assert "convention=graded" in out


def test_algebra_verify_identity_fails(capsys):
    code, out, _ = run(capsys, "algebra", "verify", "--algebra", "ssch1",
                       "--adjoint", "identity")
    assert code == 1
    assert "fail" in out


def test_algebra_dump_roundtrip(capsys):
    code, out, _ = run(capsys, "algebra", "dump", "--algebra", "ssch1")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 9
    assert set(data["triangular"]["plus"]) == {"K", "G", "S"}


def test_singular_find_json(capsys):
    code, out, _ = run(capsys, "singular", "find", "--algebra", "ssch1",
                       "--d", "-1/2", "--m", "1", "--max-degree", "6",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 1
    report = data["reports"][0]
    assert report["matched"] == "prop2-massive"
    assert report["weight"] == 1
    parsed = SingularVectorReport.from_json_dict(report)
    assert parsed.to_json_dict() == report


def test_singular_check(capsys):
    code, out, _ = run(capsys, "singular", "check", "--algebra", "ssch2",
                       "--d", "3/2", "--m", "1", "--r", "0", "--p", "1")
    assert code == 0
    assert "annihilated by Q+/Q-/P/X-: yes" in out
    assert "rec5=pass" in out


def test_singular_check_rejects_mismatched_parameters(capsys):
    code, _, err = run(capsys, "singular", "check", "--algebra", "ssch1",
                       "--d", "0", "--m", "1", "--p", "1")
    assert code == 2
    assert "d = p - 1/2" in err


def test_singular_check_rejects_negative_p(capsys):
    for module in (["--algebra", "ssch1", "--d", "1/2", "--m", "1"],
                   ["--algebra", "ssch2", "--d", "1/2", "--m", "1",
                    "--r", "0"]):
        code, out, err = run(capsys, "singular", "check", *module,
                             "--p", "-1")
        assert code == 2, module
        assert out == ""
        assert "needs p >= 0" in err and "needs d =" not in err, module


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "ssch1",
                       "--d", "2", "--m", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 5
    assert data["verdict"] == "(V^p/I^1)/I^p"


def test_gram_command(capsys):
    code, out, _ = run(capsys, "gram", "--algebra", "ssch1", "--d", "-1/2",
                       "--m", "1", "--weight", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["det"] == "0"


def test_realization_verify(capsys):
    code, out, _ = run(capsys, "realization", "verify", "--algebra", "ssch1",
                       "--d", "3/4", "--m", "1", "--degree", "4")
    assert code == 0
    assert "relations: pass" in out


def test_realization_verify_takes_no_r(capsys):
    # the paper's realization has no R eigenvalue: --r is not an option
    for kind in ("ssch1", "ssch2"):
        for r in ("2", "-1/2"):
            code, out, err = run(capsys, "realization", "verify", "--algebra",
                                 kind, "--d", "3/4", "--m", "1", "--r", r)
            assert code == 2 and out == "", (kind, r)
            assert "unrecognized arguments: --r" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "singular", "find", "--algebra", "ssch1",
                       "--d", "0.5", "--m", "1")
    assert code == 2
    code, _, _ = run(capsys, "singular", "find", "--algebra", "nope",
                     "--d", "1", "--m", "1")
    assert code == 2
    code, _, err = run(capsys, "singular", "find", "--algebra", "ssch1",
                       "--d", "1", "--m", "1", "--max-degree", "0")
    assert code == 2
    code, _, err = run(capsys, "singular", "find", "--algebra", "ssch2",
                       "--d", "1", "--m", "1")
    assert code == 2
    assert "--r" in err
    code, out, err = run(capsys, "gram", "--algebra", "ssch1", "--d", "1",
                         "--m", "1", "--weight", "1", "--rweight", "1")
    assert (code, out) == (2, "")
    assert "--rweight applies to ssch2 only" in err
    # beyond the bound the recursive action engine would overflow the stack
    too_big = str(MAX_DEGREE + 1)
    for argv, flag in [
        (["singular", "check", "--algebra", "ssch2", "--d", "1", "--m", "0",
          "--r", "0", "--p", "990"], "--p"),
        (["gram", "--algebra", "ssch2", "--d", "1", "--m", "0", "--r", "0",
          "--weight", too_big, "--rweight", "1", "--cutoff", "8"], "--weight"),
        (["gram", "--algebra", "ssch2", "--d", "1", "--m", "0", "--r", "0",
          "--weight", "1", "--rweight", "1", "--cutoff", too_big], "--cutoff"),
        (["singular", "find", "--algebra", "ssch1", "--d", "1", "--m", "0",
          "--max-degree", too_big], "--max-degree"),
        (["realization", "verify", "--algebra", "ssch1", "--d", "1",
          "--m", "0", "--degree", too_big], "--degree"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "%s must be at most %d" % (flag, MAX_DEGREE) in err
    # a weight with an empty subspace has no Gram matrix
    for argv, weight in [
        (["gram", "--algebra", "ssch1", "--d", "1", "--m", "1",
          "--weight", "-3"], "-3"),
        (["gram", "--algebra", "ssch2", "--d", "1", "--m", "1", "--r", "0",
          "--weight", "2", "--rweight", "7"], "(2, 7)"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "weight %s" % weight in err, argv


@pytest.mark.parametrize("d", ["247", "495/2", str(10 ** 6)])
@pytest.mark.parametrize("point", [("ssch1", "1", None), ("ssch1", "0", None),
                                   ("ssch2", "1", "0"), ("ssch2", "0", "1/3")],
                         ids=["ssch1-massive", "ssch1-massless",
                              "ssch2-massive", "ssch2-massless"])
def test_classify_beyond_the_degree_bound_is_a_usage_error(capsys, d, point):
    # with 2d an integer, the chain reaches degree 2d + 2 and --certify
    # searches to 2d + 7, so that degree is held to MAX_DEGREE
    kind, m, r = point
    argv = ["classify", "--algebra", kind, "--d", d, "--m", m, "--certify"]
    code, out, err = run(capsys, *argv + (["--r", r] if r else []))
    assert (code, out) == (2, "")
    assert err == ("error: classify reaches degree 2d + 7 = %s at d = %s; "
                   "the largest accepted degree is %d\n"
                   % (2 * F(d) + 7, d, MAX_DEGREE))


def test_classify_at_the_degree_bound_runs(capsys):
    # 2d + 7 = MAX_DEGREE is accepted (the massless N=1 chain stops at I^1
    # when d is not an integer)
    code, out, _ = run(capsys, "classify", "--algebra", "ssch1", "--d",
                       "%d/2" % (MAX_DEGREE - 7), "--m", "0", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "V^d/I^1"


@pytest.mark.parametrize("argv, depth", [
    (["--algebra", "ssch1", "--d", "20", "--m", "0"], 47),
    (["--algebra", "ssch2", "--d", "2", "--m", "0", "--r", "1/3",
      "--max-degree", "12"], 12),
    (["--algebra", "ssch2", "--d", "2", "--m", "0", "--r", "2"], 11),
])
def test_the_certificate_line_gives_the_searched_degree(capsys, argv, depth):
    # a finite terminal is searched to max(cutoff, 2d + 7), not the cutoff
    code, out, _ = run(capsys, "classify", *argv, "--certify")
    assert code == 0
    assert out.endswith("  no singular vectors up to degree %d: confirmed\n"
                        % depth)


def test_a_missing_line_branch_is_a_failed_certificate(capsys):
    # the massive N=2 quotient by u0 at d = r = 1/2 builds, but classify
    # has no r = d branch yet (ROADMAP item 3): the certificate finds a
    # singular vector in the terminal and the command exits 1
    code, out, err = run(capsys, "classify", "--algebra", "ssch2", "--d",
                         "1/2", "--m", "1", "--r", "1/2", "--certify")
    assert code == 1
    assert "  no singular vectors up to degree 8: FAILED\n" in out
    assert err == ""


def test_byte_determinism(capsys):
    args = ["singular", "find", "--algebra", "ssch2", "--d", "3/2",
            "--m", "1", "--r", "0", "--max-degree", "4", "--json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ["classify", "--algebra", "ssch2", "--d", "3", "--m", "0",
            "--r", "-3", "--json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_env_cutoff(capsys, monkeypatch):
    monkeypatch.setenv("SUPERSCHROD_CUTOFF", "3")
    code, out, _ = run(capsys, "singular", "find", "--algebra", "ssch1",
                       "--d", "-1/2", "--m", "1", "--json")
    assert code == 0
    assert json.loads(out)["max_degree"] == 3
    # subcommands without a cutoff never read the variable
    monkeypatch.setenv("SUPERSCHROD_CUTOFF", "abc")
    code, out, _ = run(capsys, "algebra", "dump", "--algebra", "ssch1")
    assert code == 0
    assert json.loads(out)["kind"] == "ssch1"
    # an explicit flag overrides a malformed variable
    code, _, _ = run(capsys, "singular", "find", "--algebra", "ssch1",
                     "--d", "-1/2", "--m", "1", "--max-degree", "2")
    assert code == 0
    # a non-positive value is reported against the variable, not a flag
    monkeypatch.setenv("SUPERSCHROD_CUTOFF", "0")
    for argv in (["singular", "find"], ["classify"],
                 ["gram", "--weight", "1"]):
        code, out, err = run(capsys, *argv, "--algebra", "ssch1",
                             "--d", "-1/2", "--m", "1")
        assert code == 2, argv
        assert out == ""
        assert "SUPERSCHROD_CUTOFF" in err and "--" not in err, argv


def test_the_cached_parser_answers_like_a_fresh_one(capsys):
    # one parser serves every request of a process: a usage error, a valid
    # request and the error again answer as a freshly built parser does
    bad = ["gram", "--algebra", "ssch1", "--d", "1/2", "--m", "1"]
    good = ["gram", "--algebra", "ssch1", "--d", "1/2", "--m", "1",
            "--weight", "2", "--json"]
    parser = build_parser()
    cached = [run(capsys, *argv) for argv in (bad, good, bad)]
    assert build_parser() is parser
    fresh = []
    for argv in (bad, good, bad):
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 2]
    assert "--weight" in cached[0][2]
