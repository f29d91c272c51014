import hashlib
import json
import math
import os

import pytest

import robinsym
from robinsym.cli import main as cli_main
from robinsym.config import KNOWN_THEOREMS, ConfigError, default_config_text, parse_config
from robinsym.domains import parse_domain_spec
from robinsym.runner import all_passed, emit_reports, enumerate_jobs, run_experiments, \
    source_from_name
from robinsym.verify import CHECKERS, Ladder

MINIMAL = """\
[run]
domains = disc r=1
betas = 1
ks = 1
sources = const
theorems = saint_venant
h = 0.15
refinements = 1

[gamma]
gamma2 = 16.0
provenance = suite default, validated against the gamma_star diagnostic

[output]
dir = reports
"""


def test_minimal_config_valid():
    cfg = parse_config(MINIMAL)
    assert cfg.domains == ["disc r=1"]
    assert cfg.gamma2 == 16.0
    assert cfg.theorems == ["saint_venant"]


def test_default_config_parses():
    cfg = parse_config(default_config_text())
    assert len(cfg.domains) == 2


def test_duplicate_key_names_line():
    text = MINIMAL.replace("h = 0.15\n", "h = 0.15\nh = 0.2\n")
    with pytest.raises(ConfigError, match="line 8"):
        parse_config(text)


def test_unknown_key_names_line():
    text = MINIMAL.replace("h = 0.15", "hh = 0.15")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(text)


def test_missing_provenance_rejected():
    text = MINIMAL.replace(
        "provenance = suite default, validated against the gamma_star diagnostic\n", "")
    with pytest.raises(ConfigError, match="provenance"):
        parse_config(text)


def test_k_out_of_range_cites_bound():
    text = MINIMAL.replace("ks = 1", "ks = 2").replace("sources = const",
                                                       "sources = radial")
    text = text.replace("theorems = saint_venant", "theorems = lorentz_k1")
    with pytest.raises(ConfigError, match=r"0 < k <= n/\(2n-2\)"):
        parse_config(text)
    # with f = 1 the range extends and k = 2 is accepted
    ok = MINIMAL.replace("ks = 1", "ks = 2").replace("theorems = saint_venant",
                                                     "theorems = lorentz_k1")
    assert parse_config(ok).ks == [2.0]


@pytest.mark.parametrize("old, new, line, what", [
    ("h = 0.15", "h = abc", 7, "a number"),
    ("betas = 1", "betas = 1, x", 3, "a number"),
    ("refinements = 1", "refinements = 1.5", 8, "an integer"),
    ("gamma2 = 16.0", "gamma2 = abc", 11, "a number")])
def test_non_numeric_value_names_its_line(old, new, line, what):
    with pytest.raises(ConfigError, match=f"line {line}: .* is not {what}"):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize("old, new, key", [("betas = 1", "betas = nan", "betas"),
                                           ("ks = 1", "ks = nan", "ks"),
                                           ("h = 0.15", "h = inf", "h"),
                                           ("gamma2 = 16.0", "gamma2 = inf", "gamma2")])
def test_non_finite_values_rejected(old, new, key):
    with pytest.raises(ConfigError, match=f"{key} must be positive and finite"):
        parse_config(MINIMAL.replace(old, new))


def test_a_single_rung_is_rejected():
    # the discretization error is the gap difference of two rungs; one rung
    # has none to report
    with pytest.raises(ConfigError, match="refinements must be at least 1"):
        parse_config(MINIMAL.replace("refinements = 1", "refinements = 0"))
    with pytest.raises(ValueError, match="two rungs"):
        Ladder(parse_domain_spec("disc r=1"), 1.0, 0.15, refinements=0)


@pytest.mark.parametrize("key", ["domains", "betas", "ks", "sources", "theorems"])
def test_empty_list_rejected_by_name(key):
    lines = [f"{key} =" if line.startswith(f"{key} =") else line
             for line in MINIMAL.split("\n")]
    with pytest.raises(ConfigError, match=f"{key} must list"):
        parse_config("\n".join(lines))


@pytest.mark.parametrize("old, new, twice", [
    ("domains = disc r=1", "domains = disc r=1; disc r=1", "'disc r=1'"),
    ("domains = disc r=1", "domains = disc r=1; disc r=1.0", "'disc r=1.0'"),
    ("betas = 1", "betas = 1, 2, 1.0", "1.0"),
    ("ks = 1", "ks = 1, 1", "1.0"),
    ("sources = const", "sources = const; const", "'const'"),
    ("theorems = saint_venant", "theorems = saint_venant, saint_venant", "'saint_venant'")])
def test_a_value_listed_twice_is_rejected_by_key_and_value(old, new, twice):
    # each listed value multiplies the jobs, so a repeat would run them twice
    key = old.split(" =")[0]
    with pytest.raises(ConfigError, match=f"\\[run\\] {key} lists {twice} twice"):
        parse_config(MINIMAL.replace(old, new))


@pytest.mark.parametrize("flag", ["--h", "--gamma2"])
def test_cli_verify_takes_run_values_from_the_config_only(tmp_path, capsys, flag):
    # an override after parsing would leave config_hash naming another run
    with pytest.raises(SystemExit) as info:
        cli_main(["verify", "--out", str(tmp_path / "rep"), flag, "0.2"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_config_hash_names_the_config_text_the_cli_read(tmp_path):
    hashes = []
    for h in ("0.15", "0.2"):
        text = MINIMAL.replace("h = 0.15", f"h = {h}")
        cfg_path = tmp_path / f"run_{h}.cfg"
        cfg_path.write_text(text)
        out = tmp_path / f"rep_{h}"
        assert cli_main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        digest = hashlib.sha256(cfg_path.read_bytes()).hexdigest()[:16]
        jobs = sorted(out.glob("job_*.json"))
        assert jobs and all(json.loads(p.read_text())["config_hash"] == digest for p in jobs)
        hashes.append(digest)
    assert hashes[0] != hashes[1]


def test_job_enumeration_deterministic():
    cfg = parse_config(MINIMAL.replace("domains = disc r=1",
                                       "domains = disc r=1; rect w=2 h=0.5"))
    jobs = enumerate_jobs(cfg)
    assert [j.index for j in jobs] == list(range(len(jobs)))
    assert len(jobs) == 2


def test_disc_run_all_pass_and_isolation(tmp_path):
    text = MINIMAL.replace("domains = disc r=1", "domains = disc r=1; disc r=-1")
    cfg = parse_config(text)
    rows = run_experiments(cfg)
    assert rows[0].status == "ok" and rows[0].report.passed
    assert rows[1].status == "failed" and "GeometryError" in rows[1].error
    assert not all_passed(rows)


def test_default_config_at_small_beta_completes_every_job():
    # at beta = 0.01 six of the 14 jobs once failed at relative residual
    # 1.35e-10: u is a large constant plus a small variation there
    cfg = parse_config(default_config_text().replace("betas = 1", "betas = 0.01"))
    rows = run_experiments(cfg)
    assert len(rows) == 14
    assert [row.error for row in rows if row.status != "ok"] == []


def test_emit_reports_structure_and_determinism(tmp_path):
    cfg = parse_config(MINIMAL)
    rows = run_experiments(cfg)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    emit_reports(rows, str(out1))
    rows2 = run_experiments(parse_config(MINIMAL))
    emit_reports(rows2, str(out2))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        with open(out1 / name, "rb") as f1, open(out2 / name, "rb") as f2:
            assert f1.read() == f2.read(), name
    summary = (out1 / "summary.txt").read_text().strip().split("\n")
    assert len(summary) == 1 + len(rows)
    payload = json.loads((out1 / "job_000.json").read_text())
    assert payload["status"] == "ok"
    assert payload["report"]["theorem"] == "saint_venant"


def test_plot_data_sorted(tmp_path):
    text = MINIMAL.replace("domains = disc r=1",
                           "domains = rect w=2 h=0.5; disc r=1; stadium l=1 r=0.5")
    rows = run_experiments(parse_config(text))
    emit_reports(rows, str(tmp_path))
    lines = (tmp_path / "plot_gap_vs_alpha2.txt").read_text().strip().split("\n")
    xs = [float(line.split()[0]) for line in lines[1:]]
    assert xs == sorted(xs)
    assert len(xs) == 3


def test_cli_oracle_and_asymmetry(capsys):
    assert cli_main(["oracle", "--R", "1", "--beta", "1", "--kind", "torsion"]) == 0
    out = capsys.readouterr().out
    assert f"{5 * math.pi / 8:.10g}"[:10] in out
    assert cli_main(["oracle", "--kind", "eigen"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda=1.57")
    assert cli_main(["asymmetry", "--domain", "rect w=1 h=1"]) == 0
    out = capsys.readouterr().out
    assert "asymmetry=0.18" in out
    assert cli_main(["asymmetry", "--domain", "polygon 0,0 1,0 1,1 0,1"]) == 0
    out = capsys.readouterr().out
    assert "asymmetry=0.18" in out


@pytest.mark.parametrize("spec, gamma_star", [
    ("rect w=2 h=1", "1.352234862"),
    ("ellipse a=1.2247448713915892 b=0.81649658092772615", "2.130415839"),  # the default's
    ("disc r=1", "0"),
])
def test_cli_asymmetry_prints_gamma_star(capsys, spec, gamma_star):
    # gamma_star = alpha^2 / deficit, the smallest gamma2 for which the
    # quantitative isoperimetric inequality holds on the domain; 0 at no deficit
    assert cli_main(["asymmetry", "--domain", spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("asymmetry=") and out.endswith(f" gamma_star={gamma_star}\n")


def test_cli_mesh_and_solve_roundtrip(tmp_path, capsys):
    mesh_path = tmp_path / "m.txt"
    assert cli_main(["mesh", "--domain", "disc r=1", "--h", "0.2",
                     "--out", str(mesh_path)]) == 0
    capsys.readouterr()
    field_path = tmp_path / "u.txt"
    assert cli_main(["solve", "--domain", "disc r=1", "--h", "0.1", "--beta", "1",
                     "--out", str(field_path)]) == 0
    out = capsys.readouterr().out
    assert "u_max=0.75" in out
    text = field_path.read_text().split("\n")
    assert text[0].startswith("nodes ")


def test_shared_ladder_matches_fresh_ladders():
    # the grouped run shares one Ladder per (domain, beta); every row must
    # equal, bit for bit, the checker run on a ladder of its own
    text = MINIMAL.replace("domains = disc r=1", "domains = disc r=1; rect w=2 h=0.5")
    text = text.replace("sources = const", "sources = const; radial")
    text = text.replace("theorems = saint_venant", "theorems = " + ", ".join(KNOWN_THEOREMS))
    cfg = parse_config(text)
    rows = run_experiments(cfg)
    assert [row.job for row in rows] == enumerate_jobs(cfg)
    assert {row.job.theorem for row in rows} == set(KNOWN_THEOREMS)
    for row in rows:
        job = row.job
        domain = parse_domain_spec(job.domain_spec)
        fresh = Ladder(domain, job.beta, cfg.h, cfg.refinements)
        if job.k is None:
            rep = CHECKERS[job.theorem](fresh, cfg.gamma2)
        else:
            rep = CHECKERS[job.theorem](fresh, source_from_name(job.source, domain), job.k,
                                        cfg.gamma2)
        assert row.status == "ok"
        assert row.report.gap == rep.gap
        assert row.report.margin == rep.margin
        assert row.report.disc_error == rep.disc_error
        assert row.report.extras == rep.extras


def test_unparsable_domain_fails_every_job_of_its_group():
    text = MINIMAL.replace("domains = disc r=1", "domains = disc r=-1; disc r=1")
    text = text.replace("theorems = saint_venant", "theorems = saint_venant, pointwise")
    rows = run_experiments(parse_config(text))
    assert [row.job.index for row in rows] == [0, 1, 2, 3]
    bad = [row for row in rows if row.job.domain_spec == "disc r=-1"]
    good = [row for row in rows if row.job.domain_spec == "disc r=1"]
    assert len(bad) == len(good) == 2
    assert all(row.status == "failed" and row.report is None for row in bad)
    assert bad[0].error == bad[1].error
    assert bad[0].error.startswith("GeometryError: ")
    assert all(row.status == "ok" and row.report.passed for row in good)


@pytest.mark.parametrize("key", ["tgrid", "seed", "workers"])
def test_retired_run_keys_are_unknown(key):
    # keys that once existed and did nothing are rejected like any other
    text = MINIMAL.replace("refinements = 1", f"refinements = 1\n{key} = 2")
    with pytest.raises(ConfigError, match=f"line 9: unknown key '{key}' in \\[run\\]"):
        parse_config(text)


def test_cli_verify_exit_code(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    code = cli_main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "rep")])
    assert code == 0
    assert (tmp_path / "rep" / "summary.txt").exists()


def test_cli_mesh_requires_input():
    with pytest.raises(SystemExit):
        cli_main(["mesh", "--h", "0.2"])


def test_cross_process_determinism(tmp_path):
    # byte-identity must hold across interpreter invocations, not just reruns
    # inside one process (caches could otherwise leak state into reports)
    import subprocess
    import sys
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL)
    for sub in ("p1", "p2"):
        res = subprocess.run(
            [sys.executable, "-m", "robinsym.cli", "verify", "--config",
             str(cfg_path), "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    for name in sorted(os.listdir(tmp_path / "p1")):
        a = (tmp_path / "p1" / name).read_bytes()
        b = (tmp_path / "p2" / name).read_bytes()
        assert a == b, name


# sha256 over the sorted (file name, bytes) pairs of the default `robinsym
# verify` reports with OPENBLAS_NUM_THREADS=1 (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1); the BLAS thread count moves some report digits
DEFAULT_REPORT_DIGEST = "0487dc1617cfaa394d12a0f5e9cbf7ec8f1ab91fbfbece96d4a9e5c110ee7602"


def test_default_reports_keep_their_digest(tmp_path):
    import subprocess
    import sys
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(robinsym.__file__)))
    res = subprocess.run([sys.executable, "-m", "robinsym.cli", "verify", "--out",
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    digest = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes() + b"\0")
    assert digest.hexdigest() == DEFAULT_REPORT_DIGEST, (
        "the default reports are no longer byte-identical; if that is intended, set "
        f"DEFAULT_REPORT_DIGEST to {digest.hexdigest()} and state in CHANGES.md why "
        "the reports moved")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--domain", "disc r=1", "--f", "foo"],
     "robinsym solve: error: argument --f: invalid choice: 'foo'"),
    (["asymmetry", "--domain", "blob r=1"], "robinsym asymmetry: unknown shape kind 'blob'"),
    (["mesh", "--domain", "disc r=1", "--h", "5"],
     "robinsym mesh: target size must be in (0, diameter/4)"),
    (["verify", "--config", "nope.cfg"],
     "robinsym verify: [Errno 2] No such file or directory: 'nope.cfg'"),
    (["oracle", "--R", "-1"], "robinsym oracle: R and beta must be positive"),
    (["solve", "--domain", "rect w=5 h=0.5", "--f", "radial"],
     "robinsym solve: source must be nonnegative"),
    (["verify", "--config", "retired.cfg"], "robinsym verify: line 2: unknown key 'seed' in [run]"),
    (["solve", "--domain", "disc r=1", "--h", "0.3", "--out", "nodir/u.txt"],
     "robinsym solve: [Errno 2] No such file or directory: 'nodir/u.txt'"),
    (["asymmetry", "--domain", "rect w=2 h=1 cx=1e17"],
     "robinsym asymmetry: rect w, h: a centre coordinate of 1e+17 is more than 2^26 times the"
     " smallest extent 1, too far out for the doubles there to resolve the shape"),
    (["oracle", "--kind", "profile", "--samples", "1"],
     "robinsym oracle: a profile needs at least 2 samples, got 1"),
    (["oracle", "--kind", "profile", "--samples", "-3"],
     "robinsym oracle: a profile needs at least 2 samples, got -3"),
    (["solve", "--domain", "disc r=1", "--h", "0.5", "--beta", "0"],
     "robinsym solve: beta must be positive and finite, got 0"),
    (["solve", "--domain", "disc r=1", "--h", "0.5", "--beta", "nan"],
     "robinsym solve: beta must be positive and finite, got nan"),
    (["oracle", "--kind", "torsion", "--R", "nan"],
     "robinsym oracle: R and beta must be positive and finite"),
    (["oracle", "--kind", "eigen", "--beta", "inf"],
     "robinsym oracle: R and beta must be positive and finite"),
    (["oracle", "--kind", "profile", "--beta", "nan"],
     "robinsym oracle: need finite measure > 0, finite beta > 0"),
    (["oracle", "--kind", "eigen", "--R", "1e-300"],
     "robinsym oracle: R and beta must be positive and finite, R in [1e-70, 1e+70]"),
    (["oracle", "--kind", "torsion", "--R", "1e200"],
     "robinsym oracle: R and beta must be positive and finite, R in [1e-70, 1e+70]"),
    (["oracle", "--kind", "profile", "--R", "1e200"],
     "robinsym oracle: profile s and values must be finite"),
    (["mesh", "--domain", "disc r=1", "--h", "0.5", "--refine", "-2"],
     "robinsym mesh: --refine must be >= 0, got -2"),
    (["solve", "--domain", "disc r=1", "--h", "0.5", "--refine", "-1"],
     "robinsym solve: --refine must be >= 0, got -1"),
    (["mesh", "--domain", "polygon 0,0 2,0 2,2 1,0 0,2"],
     "robinsym mesh: polygon is self-intersecting or touches itself"),
    (["mesh", "--domain", "polygon 0,0 2,0 2,2 1,1 1,1.5 1,1 0,2"],
     "robinsym mesh: polygon is self-intersecting or touches itself"),
    (["asymmetry", "--domain", "disc r=1", "--h", "0.1"],
     "robinsym: error: unrecognized arguments: --h 0.1"),
    (["oracle", "--kind", "eigen", "--b", "2"], "robinsym: error: unrecognized arguments: --b 2"),
], ids=["unknown-source", "unknown-shape", "mesh-size", "missing-config", "negative-radius",
        "negative-source", "retired-key", "unwritable-output", "far-offset-shape",
        "one-sample-profile",
        "negative-sample-profile", "zero-beta", "nan-beta", "nan-radius", "infinite-beta",
        "nan-profile-beta", "overflowing-eigen", "overflowing-torsion",
        "overflowing-profile", "negative-mesh-refine", "negative-solve-refine",
        "vertex-on-edge-polygon", "zero-width-spike-polygon", "abbreviated-help",
        "abbreviated-beta"])
def test_cli_errors_end_in_one_line_and_exit_code_2(tmp_path, monkeypatch, capsys, argv,
                                                    message):
    # an uncaught error would propagate here; argparse reports a bad choice
    # itself, after the usage line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "retired.cfg").write_text("[run]\nseed = 3\n")
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines[-1].startswith(message)
    assert len(lines) == 1 or ": error: " in message
