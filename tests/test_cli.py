"""CLI surface: subcommands, exit codes, formats, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

import treefam
from enumeration_oracle import enumeration_count_avoiding
from packing_oracle import check_packing_certificate
from treefam import PackingResult, SimpleGraph, Tree
from treefam.cli import COMMANDS, EXIT_OK, EXIT_UNKNOWN_COMMAND, EXIT_VALIDATION, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_count_matching(capsys):
    code, data = run_json(capsys, "count", "matching", "--n", "6", "--l", "3",
                          "--reproducible")
    assert code == EXIT_OK
    assert data["count"] == "48"
    assert "generated_at" not in data


def test_count_contain_inline_and_file(capsys, tmp_path):
    code, data = run_json(capsys, "count", "contain", "--n", "5",
                          "--edges", "1-2", "--reproducible")
    assert code == EXIT_OK and data["count"] == "50"
    p = tmp_path / "forest.txt"
    p.write_text("# fixed edge\n1 2\n")
    code, data = run_json(capsys, "count", "contain", "--n", "5",
                          "--edges-file", str(p), "--reproducible")
    assert code == EXIT_OK and data["count"] == "50"


def test_count_contain_cycle_is_zero_not_error(capsys):
    code, data = run_json(capsys, "count", "contain", "--n", "5",
                          "--edges", "1-2,2-3,1-3", "--reproducible")
    assert code == EXIT_OK and data["count"] == "0"


def test_count_at_least(capsys):
    code, data = run_json(capsys, "count", "at-least", "--n", "6",
                          "--edges", "1-2,2-3,4-5,5-6", "--m", "3",
                          "--reproducible")
    assert code == EXIT_OK and data["count"] == "117"


def test_count_at_least_18_edge_forest(capsys):
    # balanced_forest(30, 18): six 2-edge paths and six single edges
    edges = ("1-2,2-3,4-5,5-6,7-8,8-9,10-11,11-12,13-14,14-15,16-17,17-18,"
             "19-20,21-22,23-24,25-26,27-28,29-30")
    code, data = run_json(capsys, "count", "at-least", "--n", "30",
                          "--edges", edges, "--m", "9", "--reproducible")
    assert code == EXIT_OK
    assert data["count"] == "119709808618702951963497600000000000"


def test_enumerate_n2(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "2", "--reproducible")
    assert code == EXIT_OK
    assert data["count"] == "1" and data["trees"] == [[[1, 2]]]


def test_unknown_commands_exit_64(capsys):
    code, out = run(capsys, "frobnicate")
    assert code == EXIT_UNKNOWN_COMMAND
    assert "error" in json.loads(out)
    code, out = run(capsys, "count", "bogus")
    assert code == EXIT_UNKNOWN_COMMAND


def test_validation_errors_exit_2_with_object(capsys):
    code, out = run(capsys, "count", "matching", "--n", "5", "--l", "3")
    assert code == EXIT_VALIDATION
    assert "message" in json.loads(out)["error"]
    # missing subcommand is a usage error, not an unknown command
    code, out = run(capsys, "count")
    assert code == EXIT_VALIDATION


def test_workers_flag_is_gone(capsys):
    code, out = run(capsys, "dt", "--n", "5", "--t", "1", "--workers", "2")
    assert code == EXIT_VALIDATION
    assert "--workers" in json.loads(out)["error"]["message"]


def test_cli_import_does_not_load_numpy():
    # every CLI call is a fresh process; numpy is imported only by the
    # commands that sweep masks
    src = str(Path(treefam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, treefam.cli; raise SystemExit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cap_violation_names_the_cap(capsys):
    code, out = run(capsys, "enumerate", "--n", "12")
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["cap"] == "enum_cap"
    # caps are fixed limits: the old per-invocation flag is an unknown argument
    code, out = run(capsys, "enumerate", "--n", "4", "--enum-cap", "3")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": "unrecognized arguments: --enum-cap 3"}}


@pytest.mark.parametrize("argv, cap, value", [
    (("enumerate", "--n", "9"), "enum_cap", 8),
    (("family", "verify", "--kind", "trivial", "--n", "9", "--edges", "1-2"), "enum_cap", 8),
    (("dt", "--n", "11", "--t", "1"), "dt_cap", 10),
    (("gamma", "build", "--graph", "K8", "--t", "1"), "gamma_cap", 20000),
    (("search", "max", "--n", "8", "--t", "1"), "gamma_cap", 20000),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_each_limit_fires_past_its_boundary(capsys, argv, cap, value):
    code, out = run(capsys, *argv, "--reproducible")
    assert code == EXIT_VALIDATION
    err = json.loads(out)["error"]
    assert err["cap"] == cap and str(value) in err["message"]


@pytest.mark.parametrize("argv, flag", [
    (("enumerate", "--n", "4"), "--enum-cap"),
    (("family", "verify", "--kind", "trivial", "--n", "5", "--edges", "1-2"), "--enum-cap"),
    (("dt", "--n", "5", "--t", "1"), "--enum-cap"),
    (("llll", "notstar", "--n", "7", "--edges", "1-2,3-4,5-6"), "--enum-cap"),
    (("gamma", "build", "--graph", "K4", "--t", "1"), "--cap"),
    (("gamma", "alpha", "--graph", "K4", "--t", "1"), "--cap"),
    (("gamma", "omega", "--graph", "K4", "--t", "1"), "--cap"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_cap_flags_are_retired(capsys, argv, flag):
    code, out = run(capsys, *argv, flag, "9", "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": f"unrecognized arguments: {flag} 9"}}


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_must_be_positive(capsys, budget):
    code, out = run(capsys, "search", "max", "--n", "4", "--t", "1", "--budget", budget)
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": f"--budget must be positive, got {budget}"}}


@pytest.mark.parametrize("argv", [
    ("count", "at-least", "--n", "6", "--edges", "1-2", "--m", "1"),
    ("family", "size", "--kind", "ntj", "--n", "9", "--t", "4", "--j", "1"),
    ("family", "scan", "--n", "12", "--t", "3", "--j-max", "1"),
    ("llll", "notstar", "--n", "7", "--edges", "1-2,3-4,5-6"),
], ids=" ".join)
def test_ie_cap_is_retired(capsys, monkeypatch, argv):
    # the determinant kernel has no inclusion-exclusion cap: the flag is an
    # unknown argument and the variable is ignored
    code, out = run(capsys, *argv, "--ie-cap", "2")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": "unrecognized arguments: --ie-cap 2"}}
    monkeypatch.setenv("TREEFAM_IE_CAP", "0")
    code, out = run(capsys, *argv, "--reproducible")
    assert code == EXIT_OK, out


def test_count_at_least_past_the_old_cap(capsys):
    # ten 4-vertex paths, 30 edges: the subset sums factor over the paths,
    # so sum_k N_k x^k = 40^8 (n^3 + 6n^2 y + 10n y^2 + 4y^3)^10, y = x - 1
    n, m = 40, 20
    edges = [(4 * i + a, 4 * i + a + 1) for i in range(10) for a in (1, 2, 3)]
    path = [n ** 3 - 6 * n ** 2 + 10 * n - 4, 6 * n ** 2 - 20 * n + 12, 10 * n - 12, 4]
    dist = [n ** 8]
    for _ in range(10):
        out = [0] * (len(dist) + 3)
        for i, a in enumerate(dist):
            for j, b in enumerate(path):
                out[i + j] += a * b
        dist = out
    assert sum(dist) == n ** (n - 2)
    code, data = run_json(capsys, "count", "at-least", "--n", str(n), "--edges",
                          ",".join(f"{u}-{v}" for u, v in edges), "--m", str(m),
                          "--reproducible")
    assert code == EXIT_OK
    assert data["count"] == str(sum(dist[m:]))


def test_env_cap_override(capsys, monkeypatch):
    # the TREEFAM_* variables are retired: neither a value that would lower a
    # limit nor one that is not a number changes a result
    want = {argv: run(capsys, *argv, "--reproducible")
            for argv in [("enumerate", "--n", "4"), ("search", "max", "--n", "4", "--t", "1")]}
    for value in ("3", "0", "junk"):
        monkeypatch.setenv("TREEFAM_ENUM_CAP", value)
        monkeypatch.setenv("TREEFAM_NODE_BUDGET", value)
        for argv, (code, out) in want.items():
            assert code == EXIT_OK
            assert run(capsys, *argv, "--reproducible") == (code, out)
    code, out = run(capsys, "enumerate", "--n", "9")
    assert json.loads(out)["error"]["cap"] == "enum_cap"


def test_reproducible_output_is_byte_identical(capsys):
    _, a = run(capsys, "dt", "--n", "5", "--t", "1", "--reproducible")
    _, b = run(capsys, "dt", "--n", "5", "--t", "1", "--reproducible")
    assert a == b


def test_scan_csv_and_json_carry_identical_values(capsys):
    code, data = run_json(capsys, "family", "scan", "--n", "12", "--t", "3",
                          "--j-max", "2", "--reproducible")
    assert code == EXIT_OK
    code, out = run(capsys, "family", "scan", "--n", "12", "--t", "3",
                    "--j-max", "2", "--format", "csv", "--reproducible")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["size"] for r in rows] == [row["size"] for row in data["rows"]]
    assert rows[0]["winner"] == "1"
    assert out.splitlines()[0] == "n,t,j,size,winner"


def test_scan_negative_j_max_is_a_validation_error(capsys):
    code, out = run(capsys, "family", "scan", "--n", "5", "--t", "1", "--j-max", "-1")
    assert code == EXIT_VALIDATION
    assert "j_max=-1" in json.loads(out)["error"]["message"]


def test_family_size_kinds(capsys):
    code, data = run_json(capsys, "family", "size", "--kind", "stars-plus-edge",
                          "--n", "6", "--reproducible")
    assert code == EXIT_OK and data["size"] == "436"
    code, data = run_json(capsys, "family", "size", "--kind", "trivial",
                          "--n", "6", "--edges", "1-2,3-4", "--reproducible")
    assert code == EXIT_OK and data["size"] == "144"
    code, data = run_json(capsys, "family", "size", "--kind", "ntj", "--n", "9",
                          "--t", "4", "--j", "1", "--reproducible")
    assert code == EXIT_OK and int(data["size"]) > 0
    code, data = run_json(capsys, "family", "size", "--kind", "example",
                          "--n", "15", "--t", "8", "--reproducible")
    assert code == EXIT_OK and data["threshold_size"] == "74631375"
    # non-forest trivial family rejected
    code, out = run(capsys, "family", "size", "--kind", "trivial", "--n", "6",
                    "--edges", "1-2,2-3,1-3")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv,unread", [
    (["--kind", "trivial", "--n", "6", "--t", "5"], "--t"),
    (["--kind", "stars-plus-edge", "--n", "6", "--t", "3", "--shape", "star"],
     "--t, --shape"),
    (["--kind", "example", "--n", "15", "--t", "8", "--j", "0"], "--j"),
    (["--kind", "ntj", "--n", "9", "--t", "4", "--edges", "1-2"], "--edges"),
], ids=["trivial-t", "stars-plus-edge-t-shape", "example-j", "ntj-edges"])
def test_family_size_rejects_flags_its_kind_does_not_read(capsys, argv, unread):
    # these used to print a size with exit 0, ignoring the flag
    code, out = run(capsys, "family", "size", *argv)
    assert code == EXIT_VALIDATION
    kind = argv[1]
    assert json.loads(out) == {
        "error": {"message": f"--kind {kind} does not read {unread}"}
    }


def test_family_size_ntj_defaults_match_explicit_flags(capsys):
    _, bare = run(capsys, "family", "size", "--kind", "ntj", "--n", "12",
                  "--t", "2", "--reproducible")
    _, explicit = run(capsys, "family", "size", "--kind", "ntj", "--n", "12",
                      "--t", "2", "--j", "0", "--shape", "path", "--reproducible")
    assert bare == explicit
    assert json.loads(bare)["j"] == 0 and json.loads(bare)["shape"] == "path"


@pytest.mark.parametrize("kind", ["ntj", "example"])
def test_family_size_without_t_is_a_validation_error(capsys, kind):
    # used to crash with a TypeError traceback (exit 1)
    code, out = run(capsys, "family", "size", "--kind", kind, "--n", "15",
                    "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {
        "error": {"message": f"--t is required with --kind {kind}"}
    }


def test_family_verify(capsys):
    code, data = run_json(capsys, "family", "verify", "--kind", "stars-plus-edge",
                          "--n", "5", "--reproducible")
    assert code == EXIT_OK
    assert data["size"] == "53" and data["verified"] is True
    code, data = run_json(capsys, "family", "verify", "--kind", "threshold",
                          "--n", "6", "--edges", "1-2,2-3,4-5,5-6", "--m", "3",
                          "--reproducible")
    assert code == EXIT_OK
    assert data["size"] == "117" and data["claimed_t"] == 2 and data["verified"]


def _payload(kind, n, claimed_t, size, mpi, verified):
    return {"kind": kind, "n": n, "claimed_t": claimed_t, "size": size,
            "min_pairwise_intersection": mpi, "verified": verified}


@pytest.mark.parametrize("argv,want", [
    (["--kind", "trivial", "--n", "6", "--edges", "1-2,3-4"],
     _payload("trivial", 6, 2, "144", 2, True)),
    (["--kind", "trivial", "--n", "6"],
     _payload("trivial", 6, 0, "1296", 0, True)),
    (["--kind", "stars-plus-edge", "--n", "6"],
     _payload("stars-plus-edge", 6, 1, "436", 1, True)),
    (["--kind", "stars-plus-edge", "--n", "5", "--t", "2"],
     _payload("stars-plus-edge", 5, 2, "53", 1, False)),
    (["--kind", "threshold", "--n", "7", "--edges", "1-2,3-4,5-6,6-7", "--m", "3"],
     _payload("threshold", 7, 2, "1120", 2, True)),
    (["--kind", "threshold", "--n", "6", "--edges", "1-2,3-4", "--m", "1"],
     _payload("threshold", 6, 0, "720", 0, True)),
])
def test_family_verify_kind_payloads(capsys, argv, want):
    code, out = run(capsys, "family", "verify", *argv, "--reproducible")
    assert code == EXIT_OK
    assert out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("argv,message", [
    (["--kind", "stars-plus-edge", "--n", "5", "--edges", "1-2", "--m", "3"],
     "--kind stars-plus-edge does not read --edges, --m"),
    (["--kind", "trivial", "--n", "5", "--edges", "1-2", "--m", "3"],
     "--kind trivial does not read --m"),
    (["--kind", "threshold", "--n", "6", "--edges", "1-2,3-4"],
     "--m is required with --kind threshold"),
], ids=["stars-plus-edge-edges-m", "trivial-m", "threshold-no-m"])
def test_family_verify_checks_the_flags_of_its_kind(capsys, argv, message):
    # the first two used to print verified true with exit 0, dropping flags
    code, out = run(capsys, "family", "verify", *argv, "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": message}}


@pytest.mark.parametrize("spec,want", [
    ({"kind": "threshold", "n": 5, "t": 1, "edges": [[1, 2], [2, 3], [4, 5]],
      "threshold": 2},
     _payload("threshold", 5, 1, "43", 1, True)),
    ({"kind": "explicit", "n": 4, "t": 2,
      "members": [[[1, 2], [2, 3], [3, 4]], [[1, 3], [2, 3], [2, 4]],
                  [[1, 2], [1, 3], [1, 4]]]},
     _payload("explicit", 4, 2, "3", 1, False)),
])
def test_family_verify_spec_payloads(capsys, tmp_path, spec, want):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "family", "verify", "--spec", str(path), "--reproducible")
    assert code == EXIT_OK
    assert out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("spec,message", [
    ({"kind": "threshold", "n": 5, "t": 1, "edges": [[1, 2], [2, 3]],
      "threshold": "1"}, "must be integers"),
    ({"kind": "threshold", "n": 5, "t": 1, "edges": [[1, 2], [2, 3]],
      "threshold": 1.5}, "must be integers"),
    ({"kind": "trivial", "n": "5", "t": 1, "edges": [[1, 2]]}, "must be integers"),
    ({"kind": "trivial", "n": 5, "t": 1, "edges": [[1, 2, 3]]}, "integer pairs"),
    ({"kind": "trivial", "n": 5, "t": 1, "edges": [1, 2]}, "integer pairs"),
    ({"kind": "explicit", "n": 4, "t": 1, "members": [[1, 2]]}, "integer pairs"),
    ({"kind": "explicit", "n": 4, "t": 1, "members": 5}, "list of trees"),
    ([1], "JSON object"),
    ({"kind": "trivial", "n": 4, "t": 1, "edges": [[True, 2]]}, "integer pairs"),
    ({"kind": "threshold", "n": 5, "t": -3, "edges": [[1, 2]], "threshold": 1},
     "t=-3 must be >= 0"),
    ({"kind": "explicit", "n": 4, "t": 1,
      "members": [[[1, 2], [2, 3], [3, 4]], [[3, 4], [2, 1], [2, 3]]]}, "repeats a member"),
    # a misspelt key, or a field the kind does not read, used to be dropped
    # and the spec verified another family with exit 0
    ({"kind": "threshold", "n": 5, "t": 1, "edges": [[1, 2]], "threshhold": 1},
     "unknown family spec key 'threshhold'"),
    ({"kind": "trivial", "n": 5, "t": 1, "edges": [[1, 2]], "threshold": 3},
     "trivial families do not read threshold"),
    ({"kind": "stars_plus_edge", "n": 5, "t": 1, "members": [[[1, 2]]]},
     "stars_plus_edge families do not read members"),
    ({"kind": [1], "n": 5, "t": 1}, "unknown family kind [1]"),
    # used to verify the family on edge (1, 2) with exit 0
    ({"kind": "stars_plus_edge", "n": 5, "t": 1, "edges": []},
     "a stars_plus_edge family has one edge, got []"),
])
def test_family_verify_rejects_malformed_spec(capsys, tmp_path, spec, message):
    # these used to crash with a traceback (exit 1), or, for threshold 1.5,
    # to verify a family at threshold 2
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "family", "verify", "--spec", str(path), "--reproducible")
    assert code == EXIT_VALIDATION
    assert message in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("edges,message", [
    ("2-7", "edge (2,7) out of range for n=6"),
    ("1-2,1-2", "duplicate edge (1,2)"),
    ("1-2,2-1", "duplicate edge (1,2)"),
])
def test_family_verify_rejects_bad_edges(capsys, edges, message):
    # (2,7) would otherwise alias bit 9, the edge (3,4), and a duplicate
    # would lower the claimed t; both must fail, not print a family
    code, out = run(capsys, "family", "verify", "--kind", "threshold", "--n", "6",
                    "--edges", edges, "--m", "1", "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": message}}


@pytest.mark.parametrize("argv", [
    ("count", "at-least", "--n", "6", "--edges", "2-7", "--m", "5"),
    ("count", "at-least", "--n", "6", "--edges", "2-7", "--m", "1"),
    ("count", "contain", "--n", "6", "--edges", "2-7"),
])
def test_count_rejects_out_of_range_edges(capsys, argv):
    # --m above |S| used to print "count": "0" with exit 0
    code, out = run(capsys, *argv, "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": "edge (2,7) out of range for n=6"}}


def test_family_verify_spec_file(capsys, tmp_path):
    from treefam.extremal import FamilySpec

    spec = tmp_path / "family.json"
    spec.write_text(FamilySpec("trivial", 6, 2, edges=[(1, 2), (3, 4)]).to_json())
    code, data = run_json(capsys, "family", "verify", "--spec", str(spec),
                          "--reproducible")
    assert code == EXIT_OK
    assert data["size"] == "144" and data["verified"] is True
    code, out = run(capsys, "family", "verify", "--reproducible")
    assert code == EXIT_VALIDATION  # neither --kind nor --spec
    # a spec file over the enumeration cap names the cap, as --kind does
    spec.write_text(FamilySpec("trivial", 9, 1, edges=[(1, 2)]).to_json())
    code, out = run(capsys, "family", "verify", "--spec", str(spec))
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["cap"] == "enum_cap"


def test_family_verify_spec_rejects_the_flags_it_ignores(capsys, tmp_path):
    from treefam.extremal import FamilySpec

    # the spec file fixes kind, n, t and edges: flags that would describe a
    # different family were silently dropped, printing the file's verdict
    spec = tmp_path / "trivial6.json"
    spec.write_text(FamilySpec("trivial", 6, 2, edges=[(1, 2), (3, 4)]).to_json())
    code, out = run(capsys, "family", "verify", "--spec", str(spec), "--n", "5",
                    "--kind", "threshold", "--m", "3", "--t", "4", "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {
        "error": {"message": "--spec does not read --kind, --n, --t, --m"}
    }
    for flags in (["--edges", "1-2"], ["--edges-file", str(spec)]):
        code, out = run(capsys, "family", "verify", "--spec", str(spec), *flags)
        assert code == EXIT_VALIDATION
        assert json.loads(out)["error"]["message"] == f"--spec does not read {flags[0]}"


def test_spread_check_with_witness(capsys):
    code, data = run_json(capsys, "spread", "check", "--n", "6", "--r", "3001/1000",
                          "--edge-budget", "1", "--witness", "--reproducible")
    assert code == EXIT_OK
    assert data["verified"] is False
    assert data["witness"]["X"] == [[1, 2]]
    assert data["witness_edge_list"] == "# X\n1 2\n"
    code, data = run_json(capsys, "spread", "check", "--n", "5", "--r", "5/2",
                          "--t", "4", "--reproducible")
    assert code == EXIT_OK and data["verified"] is True


def test_spread_check_edge_budget_validation(capsys):
    code, data = run_json(capsys, "spread", "check", "--n", "5", "--r", "3",
                          "--edge-budget", "-1", "--reproducible")
    assert code == EXIT_VALIDATION
    assert "edge_budget" in data["error"]["message"]
    code, data = run_json(capsys, "spread", "check", "--n", "5", "--r", "5/2",
                          "--t", "2", "--edge-budget", "99", "--reproducible")
    assert code == EXIT_OK and data["verified"] is True
    assert data["edge_budget"] == 4


def test_spread_check_at_n_40(capsys):
    code, data = run_json(capsys, "spread", "check", "--n", "40", "--r", "20",
                          "--t", "3", "--reproducible")
    assert code == EXIT_OK and data["verified"] is True
    code, data = run_json(capsys, "spread", "check", "--n", "40", "--r", "20001/1000",
                          "--edge-budget", "1", "--witness", "--reproducible")
    assert code == EXIT_OK and data["verified"] is False
    assert data["witness"]["X"] == [[1, 2]]


def test_gamma_commands(capsys, tmp_path):
    code, data = run_json(capsys, "gamma", "packing", "--graph", "K4",
                          "--reproducible")
    assert code == EXIT_OK and data["packing"] == 2
    assert len(data["witness"]) == 2

    dump = tmp_path / "g.bin"
    code, data = run_json(capsys, "gamma", "build", "--graph", "K4", "--t", "1",
                          "--out", str(dump), "--reproducible")
    assert code == EXIT_OK and data["vertices"] == 16 and dump.exists()

    code, data = run_json(capsys, "gamma", "alpha", "--graph", "K4", "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK and data["size"] == 10 and data["optimal"] is True

    code, data = run_json(capsys, "gamma", "omega", "--graph", "K4", "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK and data["size"] == 2

    code, data = run_json(capsys, "gamma", "omega", "--graph", "C5", "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK and data["size"] == 1  # any two C5 trees share edges


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_gamma_build_out_unwritable(capsys, tmp_path, where):
    # used to end in a FileNotFoundError (or IsADirectoryError) traceback, exit 1
    out_path = tmp_path / "no" / "x.bin" if where == "missing directory" else tmp_path
    code, out = run(capsys, "gamma", "build", "--graph", "K5", "--t", "1",
                    "--out", str(out_path))
    assert code == EXIT_VALIDATION
    message = json.loads(out)["error"]["message"]
    assert message.startswith(f"cannot write {out_path}: ")


def _packing_output(g, data):
    """The JSON of `gamma packing` as a PackingResult on g, for the oracle."""
    return PackingResult(data["packing"], [Tree(g.n, w) for w in data["witness"]],
                         data["partition"], data["cross_edges"])


def test_gamma_packing_of_a_graph_file(capsys, tmp_path):
    # this graph used to exit 2 with "edge set contains a cycle"
    g = tmp_path / "g.txt"
    g.write_text("1 2\n1 3\n1 4\n1 5\n2 3\n2 4\n3 4\n4 5\n")
    code, data = run_json(capsys, "gamma", "packing", "--graph", str(g),
                          "--reproducible")
    assert code == EXIT_OK
    assert data == {
        "packing": 2,
        "witness": [[[1, 2], [1, 3], [1, 5], [3, 4]], [[1, 4], [2, 3], [2, 4], [4, 5]]],
        "partition": [[1], [2], [3], [4], [5]],
        "cross_edges": 8,
    }
    host = SimpleGraph.from_edge_list_text(g.read_text())
    check_packing_certificate(host, _packing_output(host, data))


def test_gamma_packing_past_the_old_cap(capsys):
    # K11 was refused by a packing cap of n = 10 vertices
    code, data = run_json(capsys, "gamma", "packing", "--graph", "K11", "--reproducible")
    assert code == EXIT_OK and data["packing"] == 5
    host = SimpleGraph.complete(11)
    check_packing_certificate(host, _packing_output(host, data))


@pytest.mark.parametrize("graph", ["K1", "P1", "empty file"])
def test_gamma_packing_of_one_vertex(capsys, tmp_path, graph):
    # used to crash with a TypeError traceback (exit 1)
    if graph == "empty file":
        graph = tmp_path / "g.txt"
        graph.write_text("")
    code, out = run(capsys, "gamma", "packing", "--graph", str(graph))
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {
        "error": {"message": "packing needs n >= 2 vertices, got n=1"}
    }


def test_dt_command(capsys):
    code, data = run_json(capsys, "dt", "--n", "6", "--t", "1", "--reproducible")
    assert code == EXIT_OK and data["value"] == "30"
    assert (data["pairs_checked"], data["partitions"]) == (50, 15)


def test_llll_commands(capsys):
    code, data = run_json(capsys, "llll", "check", "--p", "2/7,2/7,2/7",
                          "--x", "4/7,4/7,4/7", "--reproducible")
    assert code == EXIT_OK and data["ok"] is True and data["bound"] == "27/343"
    code, data = run_json(capsys, "llll", "check", "--p", "1/2,1/2",
                          "--x", "1/2,1/2", "--graph-edges", "0-1",
                          "--reproducible")
    assert code == EXIT_OK and data["ok"] is False
    code, data = run_json(capsys, "llll", "notstar", "--n", "7",
                          "--edges", "1-2,3-4,5-6", "--reproducible")
    assert code == EXIT_OK and data["verdict"] is True
    assert data["avoid_count"] == str(enumeration_count_avoiding(7, [(1, 2), (3, 4), (5, 6)], []))
    # 6-star-like input rejected as validation error
    code, out = run(capsys, "llll", "notstar", "--n", "7",
                    "--edges", "1-2,2-3,3-4,4-5,5-6,6-7")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("p,x,graph_edges,code,ok", [
    ("1/4,1/4", "1/2,1/2", "0-1", EXIT_OK, True),
    ("1/4,1/4", "1/2,1/2", "", EXIT_OK, True),
    ("1/4,1/4", "1/2,1/2", "0-1,1-0", EXIT_VALIDATION, None),
    ("1/2", "1/2", "0-0", EXIT_VALIDATION, None),
    ("1/2", "1/2", "0-1", EXIT_VALIDATION, None),
])
def test_llll_check_takes_a_simple_dependency_graph(capsys, p, x, graph_edges, code, ok):
    # a repeated pair or a self-loop used to change the verdict silently
    got, out = run(capsys, "llll", "check", "--p", p, "--x", x,
                   "--graph-edges", graph_edges, "--reproducible")
    assert got == code
    data = json.loads(out)
    assert data["ok"] is ok if code == EXIT_OK else "error" in data


def test_search_max(capsys):
    code, data = run_json(capsys, "search", "max", "--n", "4", "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK
    assert data["size"] == 10 and data["optimal"] is True


def test_search_max_at_n_2(capsys):
    # used to exit 2 with "n=2 must be >= 3" after the search had finished
    code, data = run_json(capsys, "search", "max", "--n", "2", "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK
    assert data["size"] == 1 and data["optimal"] is True
    assert "stars_plus_edge" not in data["comparison"]


def test_sample_deterministic(capsys):
    _, a = run(capsys, "sample", "--n", "6", "--seed", "11", "--reproducible")
    _, b = run(capsys, "sample", "--n", "6", "--seed", "11", "--reproducible")
    assert a == b
    code, data = run_json(capsys, "sample", "--n", "2", "--seed", "0",
                          "--count", "3", "--reproducible")
    assert code == EXIT_OK and data["trees"] == [[[1, 2]]] * 3
    code, out = run(capsys, "sample", "--n", "6", "--count", "-3", "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": "count=-3 must be >= 0"}}


def test_text_format(capsys):
    code, out = run(capsys, "count", "matching", "--n", "6", "--l", "3",
                    "--format", "text", "--reproducible")
    assert code == EXIT_OK
    assert "count: 48" in out
    # without --reproducible the last line is the UTC time stamp
    code, out = run(capsys, "count", "matching", "--n", "6", "--l", "3", "--format", "text")
    lines = out.splitlines()
    assert code == EXIT_OK and lines[:3] == ["n: 6", "l: 3", "count: 48"] and len(lines) == 4
    key, _, stamp = lines[3].partition(": ")
    assert key == "generated_at" and datetime.fromisoformat(stamp).tzinfo is not None


def test_graph_alias_validation(capsys):
    code, out = run(capsys, "gamma", "packing", "--graph", "Q7")
    assert code == EXIT_VALIDATION


def test_graph_from_edge_list_file(capsys, tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text("# five-cycle\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, data = run_json(capsys, "gamma", "alpha", "--graph", str(p), "--t", "1",
                          "--reproducible")
    assert code == EXIT_OK and data["size"] == 5
    # --graph-n pads with isolated vertices, disconnecting the graph
    code, data = run_json(capsys, "gamma", "packing", "--graph", str(p),
                          "--graph-n", "6", "--reproducible")
    assert code == EXIT_OK and data["packing"] == 0


@pytest.mark.parametrize("sub", ["build", "alpha", "packing"])
def test_graph_n_is_refused_for_an_alias(capsys, sub):
    # --graph K5 --graph-n 7 used to print the K_5 result with exit 0
    t = () if sub == "packing" else ("--t", "1")
    code, out = run(capsys, "gamma", sub, "--graph", "K5", "--graph-n", "7", *t, "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": "--graph-n applies only to an edge-list file, not to K5"}}


@pytest.mark.parametrize("argv, message", [
    (("spread", "check", "--n", "5", "--r", "x"), "r must be a rational, got 'x'"),
    (("spread", "check", "--n", "5", "--r", "1/0", "--t", "1"), "r must be a rational, got '1/0'"),
    (("llll", "check", "--p", "1/2,x", "--x", "1/2,1/2"), "p must be a list of rationals, got ['1/2', 'x']"),
    (("family", "size", "--kind", "trivial", "--n", "5", "--edges", "1-2,2-3,1-3"),
     "edge set contains a cycle through (2,3)"),
    (("family", "verify", "--kind", "trivial", "--n", "5", "--edges", "1-2,2-3,1-3"),
     "edge set contains a cycle through (2,3)"),
    (("count", "contain", "--n", "5", "--edges", "1-2-3"), "bad edge '1-2-3', expected 'u-v'"),
    (("count", "contain", "--n", "5", "--edges", "1-2", "--edges-file", "e.txt"),
     "give either --edges or --edges-file, not both"),
    (("family", "verify", "--kind", "trivial", "--edges", "1-2"), "--n is required with --kind"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_bad_values_exit_2_with_the_library_message(capsys, argv, message):
    code, out = run(capsys, *argv, "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out) == {"error": {"message": message}}


@pytest.mark.parametrize("argv", [("count", "contain", "--n", "5", "--edges-file"), ("family", "verify", "--spec")])
def test_unreadable_input_file_exits_2(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing.txt")
    code, out = run(capsys, *argv, missing, "--reproducible")
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["message"].startswith(f"cannot read {missing}: ")


def test_bare_treefam_exits_2_and_help_exits_0(capsys):
    code, usage = run(capsys)
    assert code == EXIT_VALIDATION and usage.startswith("Command-line front end")
    for flag in ("-h", "--help"):
        assert run(capsys, flag) == (EXIT_OK, usage)


def test_counts_never_json_numbers(capsys):
    _, out = run(capsys, "count", "matching", "--n", "7", "--l", "2",
                 "--reproducible")
    data = json.loads(out)
    assert isinstance(data["count"], str)


def test_count_longer_than_the_int_str_limit(capsys):
    # 2 * 2000^1997 has 6,593 digits, past CPython's default 4,300; main lifts
    # the limit for its own call and puts back whatever limit was set
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    get = sys.get_int_max_str_digits
    before = get()
    try:
        sys.set_int_max_str_digits(0)
        want = str(2 * 2000 ** 1997)
        sys.set_int_max_str_digits(4300)
        code, out = run(capsys, "count", "matching", "--n", "2000", "--l", "1",
                        "--reproducible")
        assert get() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert code == EXIT_OK
    assert len(want) == 6593
    assert out == json.dumps({"n": 2000, "l": 1, "count": want}, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    *[(*path, "--help") for path in COMMANDS],
    ("count", "matching", "--n", "6", "--l", "1", "--seed", "4"),
    ("dt", "--n", "6", "--t", "1", "--budget", "5"),
    ("spread", "check", "--n", "5", "--r", "3", "--enum-cap", "3"),
    ("gamma", "packing", "--graph", "K4", "--ie-cap", "2"),
], ids=" ".join)
def test_command_table(capsys, argv):
    # every table entry builds a parser; a flag its command does not read is
    # rejected like any unknown flag
    code, out = run(capsys, *argv, "--reproducible")
    if argv[-1] == "--help":
        assert code == EXIT_OK and out.startswith("usage: treefam " + argv[0])
    else:
        assert code == EXIT_VALIDATION
        assert json.loads(out) == {
            "error": {"message": f"unrecognized arguments: {' '.join(argv[-2:])}"}
        }
