"""Command-line interface behavior, output formats, and exit codes."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import powertree
from powertree.checks import VerificationResult
from powertree.cli import main


def test_kappa_text_output(capsys):
    assert main(["kappa", "quaternion:8"]) == 0
    out, err = capsys.readouterr()
    assert out == "kappa = 2^11\n"
    assert "time" in err


def test_kappa_of_trivial_group(capsys):
    assert main(["kappa", "cyclic:1"]) == 0
    assert capsys.readouterr().out == "kappa = 1\n"


def test_kappa_through_the_cli(capsys):
    assert main(["kappa", "cyclic:6"]) == 0
    assert capsys.readouterr().out == "kappa = 2^2*3^3*5\n"


def test_kappa_help_has_no_engine_option(capsys):
    # one counting route: there is no engine to choose
    with pytest.raises(SystemExit):
        main(["kappa", "--help"])
    out = capsys.readouterr().out
    assert "--factor-bound" in out
    assert "--engine" not in out


def test_kappa_output_is_deterministic(capsys):
    main(["kappa", "dihedral:12"])
    first = capsys.readouterr().out
    main(["kappa", "dihedral:12"])
    assert capsys.readouterr().out == first


def test_kappa_json(capsys):
    assert main(["kappa", "quaternion:8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == "quaternion:8"
    assert list(payload) == ["group", "kappa", "cross_checked"]
    assert payload["kappa"] == "2^11"
    assert payload["cross_checked"] is True


def test_components_text(capsys):
    assert main(["components", "cyclic:2 x cyclic:4"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "components = 3"
    assert lines[1] == "component 1: size 5, not a clique"
    assert len(lines) == 4


def test_components_json(capsys):
    assert main(["components", "cyclic:2 x cyclic:4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    assert [c["size"] for c in payload["components"]] == [5, 1, 1]
    assert payload["components"][1]["is_clique"] is True


def test_verify_single_group(capsys):
    assert main(["verify", "quaternion:8"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-1].endswith("checks, 0 failures")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_claim_filter(capsys):
    assert main(["verify", "quaternion:8", "--claim", "full-degree-det-divisor"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS full-degree-det-divisor [quaternion:8]")


def test_verify_past_the_int_str_limit(capsys):
    # det(J+Q) = 1849^1849 has 6041 digits
    assert main(["verify", "cyclic:1849", "--claim", "full-degree-det-divisor"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS full-degree-det-divisor [cyclic:1849]")
    assert lines[0].endswith("(6041 digits)")


def test_verify_json(capsys):
    assert main(["verify", "cyclic:6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload
    for row in payload:
        assert list(row) == ["claim_id", "group", "holds", "witness", "applicable"]
        assert row["holds"] is True
    # cyclic:6 is not a p-group, so its clique-components row passes without applying
    assert [row["claim_id"] for row in payload if not row["applicable"]] == [
        "clique-components-single-prime"]


def test_verify_custom_corpus(capsys, tmp_path):
    corpus = tmp_path / "tiny.txt"
    corpus.write_text("# tiny corpus\ncyclic:6\nsym:3\n")
    assert main(["verify", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "[cyclic:6]" in out and "[sym:3]" in out


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    rows = [VerificationResult("full-degree-det-divisor", "cyclic:6", False, "broken")]
    monkeypatch.setattr("powertree.cli.run_verifications",
                        lambda *args, **kwargs: rows)
    assert main(["verify", "cyclic:6"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("FAIL")
    assert out.splitlines()[-1] == "1 checks, 1 failures"


def test_recognize_text(capsys):
    assert main(["recognize", "--kappa", "2^180*3^40*5^108"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("verdict: A6 (unique in class S)\n")
    assert "step 6: symplectic-elimination:" in out
    assert len(out.splitlines()) == 7


def test_recognize_negative_verdict(capsys):
    assert main(["recognize", "--kappa", "3^10*5^18"]) == 0
    assert capsys.readouterr().out.endswith("verdict: not kappa(A6): this is kappa(A5)\n")


def test_recognize_json(capsys):
    assert main(["recognize", "--kappa", "2^180*3^40*5^108", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "A6 (unique in class S)"
    assert len(payload["steps"]) == 6
    assert payload["steps"][1]["data"]["cap"] == 13


def test_export_json(capsys):
    assert main(["export", "quaternion:8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 8
    assert len(payload["edges"]) == 16


# sha256 of the JSON export, frozen from the digit-tuple (Z_p)^k that the bit fields replaced
EXPORT_DIGESTS = {
    "elemabelian:3:2": "cfba5c361d86148c6491588db3847c36c219701a3a6ef123f752c76bf662e31a",
    "elemabelian:2:3 x cyclic:3":
        "d5571c099d8e0285f49e8ac85ec92966329f2ef0112bf21a28c88c00be259325",
}


@pytest.mark.parametrize("spec", sorted(EXPORT_DIGESTS))
def test_export_json_is_pinned(capsys, spec):
    assert main(["export", spec]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DIGESTS[spec]


def test_export_dot(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    assert main(["export", "quaternion:8", "--dot", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.startswith("graph power {")
    assert text.count(" -- ") == 16


def test_unknown_family_fails_with_diagnostic(capsys):
    assert main(["kappa", "frobnicate:7"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "powertree: error: unknown group family 'frobnicate' in 'frobnicate:7'"
    )


def test_malformed_kappa_literal_fails_with_diagnostic(capsys):
    assert main(["recognize", "--kappa", "2^x*3"]) == 2
    assert "'2^x'" in capsys.readouterr().err


def _cli_subprocess(*argv, preexec_fn=None):
    # a subprocess, so that a hang times out instead of stalling the suite
    source = Path(powertree.__file__).resolve().parents[1]
    script = "import sys; from powertree.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=60, preexec_fn=preexec_fn,
                          env={"PYTHONPATH": str(source)})


def test_kappa_literal_base_above_the_bound_fails_at_once():
    # the bound is checked before primality, which would trial-divide this
    # 31-digit prime base up to its square root
    done = _cli_subprocess("recognize", "--kappa", "1000000000000000000000000000057^2")
    assert done.returncode == 2
    assert "exceeds the factor bound 10000" in done.stderr


def test_kappa_literal_base_under_a_large_bound_is_tested_at_once():
    # a 19-digit prime base under the bound: primality by Miller-Rabin, not
    # by trial division up to its square root
    done = _cli_subprocess("recognize", "--kappa", "1000000000000000003^2",
                           "--factor-bound", "10000000000000000000")
    assert done.returncode == 0, done.stderr
    assert "1000000000000000003^2" in done.stdout


def test_kappa_literal_base_past_miller_rabin_is_refused_at_once():
    # the first prime above the Miller-Rabin bound, under a bound above it:
    # its primality is not decided, so the literal is refused (exit 2)
    done = _cli_subprocess("recognize", "--kappa", "3317044064679887385962123^2",
                           "--factor-bound", "4000000000000000000000000")
    assert done.returncode == 2
    assert ("powertree: error: primality of 3317044064679887385962123 is not decided"
            in done.stderr)


def test_kappa_literal_cofactor_under_a_large_bound_fits_in_memory():
    # the cofactor is trial-divided up to its square root, not checked against
    # a sieve of bound + 1 bytes, which would not fit under the 800 MiB limit
    resource = pytest.importorskip("resource")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))

    done = _cli_subprocess("recognize", "--kappa", "2^3*1000000007",
                           "--factor-bound", "1000000000", preexec_fn=limit_address_space)
    assert done.returncode == 2
    assert "recognition requires a fully factored tree count" in done.stderr


def test_file_errors_exit_two(capsys, tmp_path):
    assert main(["verify", "--corpus", str(tmp_path / "missing.txt")]) == 2
    assert capsys.readouterr().err.startswith("powertree: error: ")
    assert main(["export", "cyclic:6", "--dot", str(tmp_path / "missing-dir" / "x.dot")]) == 2
    assert capsys.readouterr().err.startswith("powertree: error: ")


def test_order_cap_enforced(capsys):
    assert main(["kappa", "sym:8"]) == 2
    assert "above the cap" in capsys.readouterr().err
    assert main(["kappa", "cyclic:6", "--order-cap", "5"]) == 2
    capsys.readouterr()
    assert main(["kappa", "cyclic:6", "--order-cap", "6"]) == 0
    capsys.readouterr()
    assert main(["kappa", "sym:2000"]) == 2  # an order past the int-to-str limit
    assert "group 'sym:2000' has order above the cap 2000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [], ["kappa"], ["recognize"], ["kappa", "cyclic:6", "--engine", "bogus"],
    ["verify", "--claim", "bogus"], ["bogus-command"],
    ["kappa", "cyclic:6", "--engine", "crt"], ["kappa", "cyclic:6", "--engine", "dc"],
    ["kappa", "cyclic:12", "--engine", "deletion_contraction"],
    ["kappa", "cyclic:6", "--engine", "auto"], ["kappa", "cyclic:6", "--engine", "matrix_tree"],
])
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
