"""Command-line driver: subcommands, exit codes, determinism."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oversmooth import cli
from oversmooth.graphio import gen_graph


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("OVERSMOOTH_SEED", raising=False)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dump_config_roundtrip(tmp_path, capsys):
    code, out, _ = _run(capsys, ["simulate", "--dump-config",
                                 "--graph", "er:20,0.2", "--steps", "7"])
    assert code == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(out)
    code2, out2, _ = _run(capsys, ["simulate", "--dump-config",
                                   "--config", str(cfg_file)])
    assert code2 == 0
    assert out2 == out  # byte-identical round trip


def test_flags_override_config(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"steps": 5, "variant": "vanilla"}))
    code, out, _ = _run(capsys, ["simulate", "--dump-config",
                                 "--config", str(cfg_file),
                                 "--steps", "9"])
    assert code == 0
    assert json.loads(out)["steps"] == 9
    assert json.loads(out)["variant"] == "vanilla"


# RunConfig field -> the simulate flags that set it to a non-default value
_SIMULATE_FLAGS = {
    "graph": ["--graph", "er:20,0.2"],
    "graph_seed": ["--graph-seed", "5"],
    "operator": ["--operator", "adjacency"],
    "variant": ["--variant", "batchnorm"],
    "nonlinearity": ["--nonlinearity", "relu"],
    "steps": ["--steps", "9"],
    "seeds": ["--seeds", "3,4"],
    "k": ["--k", "3"],
    "alpha": ["--alpha", "0.5"],
    "scale": ["--scale", "2.0"],
    "gnv2_k": ["--gnv2-k", "3"],
    "weight_std": ["--weight-std", "0.5"],
    "reference": ["--reference", "all_ones"],
    "normalize_features": ["--raw-features"],
    "identity_w2": ["--identity-w2"],
    "largest_cc": ["--largest-cc"],
    "top_k_metric": ["--top-k-metric", "2"],
    "outdir": ["--outdir", "elsewhere"],
}


def test_every_simulate_setting_has_a_flag(capsys):
    assert set(_SIMULATE_FLAGS) == {
        f.name for f in dataclasses.fields(cli.RunConfig)}
    code, out, _ = _run(capsys, ["simulate", "--dump-config"])
    assert code == 0
    default = json.loads(out)
    for name, flags in _SIMULATE_FLAGS.items():
        code, out, err = _run(capsys, ["simulate", "--dump-config", *flags])
        assert code == 0, (name, err)
        dumped = json.loads(out)
        changed = {key for key in default if dumped[key] != default[key]}
        assert changed == {name}, (name, changed)


def test_simulate_outputs_and_aggregate(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _, _ = _run(capsys, [
        "simulate", "--graph", "er:20,0.3", "--steps", "3",
        "--seeds", "0,1", "--k", "4", "--outdir", str(outdir)])
    assert code == 0
    for seed in (0, 1):
        text = (outdir / f"vanilla_seed{seed}.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "step,mu_v,dirichlet,d_col,d_pcol,rank,top_k_dist"
        assert len(lines) == 4  # header + 3 steps
        assert text.endswith("\n")
    agg = (outdir / "vanilla_aggregate.csv").read_text().strip().splitlines()
    assert len(agg) == 4
    assert agg[0].startswith("step,mu_v_mean,mu_v_std")


def test_simulate_determinism(tmp_path, capsys):
    args = ["simulate", "--graph", "er:20,0.3", "--steps", "4",
            "--seeds", "3", "--k", "4"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, args + ["--outdir", str(d1)])[0] == 0
    assert _run(capsys, args + ["--outdir", str(d2)])[0] == 0
    for name in ("vanilla_seed3.csv", "vanilla_aggregate.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_degenerate_abort(tmp_path, capsys):
    # pairnorm on a single-column constant-ish setup degenerates: use a
    # graph whose vanilla output hits a constant column (star center sees
    # the same sum everywhere with identity-like features). A zero weight
    # std forces X -> 0, which pairnorm rejects.
    outdir = tmp_path / "out"
    code, _, _ = _run(capsys, [
        "simulate", "--graph", "er:20,0.3", "--variant", "pairnorm",
        "--weight-std", "0.0", "--steps", "5", "--seeds", "0",
        "--k", "3", "--outdir", str(outdir)])
    assert code == 2
    text = (outdir / "pairnorm_seed0.csv").read_text()
    assert "# aborted at step 1:" in text


def test_simulate_overflow_abort_is_quiet(tmp_path):
    # in a fresh process, so numpy's warnings would reach the real stderr
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "oversmooth.cli", "simulate",
         "--graph", "er:30,0.3", "--largest-cc", "--k", "4",
         "--steps", "200", "--weight-std", "1000", "--seeds", "0",
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "RuntimeWarning" not in proc.stderr
    text = (tmp_path / "vanilla_seed0.csv").read_text()
    assert "non-finite features" in text


def test_simulate_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OVERSMOOTH_SEED", "7")
    outdir = tmp_path / "out"
    code, _, _ = _run(capsys, [
        "simulate", "--graph", "er:20,0.3", "--steps", "2",
        "--seeds", "0,1", "--k", "3", "--outdir", str(outdir)])
    assert code == 0
    assert (outdir / "vanilla_seed7.csv").exists()
    assert not (outdir / "vanilla_seed0.csv").exists()


def test_simulate_edge_list_file(tmp_path, capsys):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("0 1\n1 2\n2 0\n")
    outdir = tmp_path / "out"
    code, _, _ = _run(capsys, [
        "simulate", "--graph", str(edge_file), "--steps", "2",
        "--seeds", "0", "--k", "2", "--outdir", str(outdir)])
    assert code == 0


def test_simulate_edge_list_largest_cc(tmp_path, capsys):
    # node 3 is isolated: the normalized operator exists only once
    # --largest-cc has kept the triangle
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("0 1\n1 2\n2 0\n4 5\n")
    args = ["simulate", "--graph", str(edge_file), "--steps", "2",
            "--seeds", "0", "--k", "2", "--outdir", str(tmp_path / "out")]
    code, _, err = _run(capsys, args)
    assert code == 1 and "degree 0" in err
    code, _, err = _run(capsys, args + ["--largest-cc"])
    assert code == 0, err


def _write_edge_list(path, g):
    path.write_text("".join(f"{u} {v} {w}\n" for u, v, w in
                            zip(g.u.tolist(), g.v.tolist(), g.w.tolist())))
    return str(path)


def test_verify_edge_list_file(tmp_path, capsys):
    # the file holds er:30,0.2's largest component plus a disjoint edge,
    # which verify drops again
    g = gen_graph("er:30,0.2", seed=0, largest_cc=True)
    edge_file = tmp_path / "g.txt"
    _write_edge_list(edge_file, g)
    with edge_file.open("a") as fh:
        fh.write(f"{g.n} {g.n + 1}\n")
    args = ["--props", "1,7", "--trials", "3", "--steps", "16"]
    from_spec = _run(capsys, ["verify", "--graph", "er:30,0.2", *args])
    from_file = _run(capsys, ["verify", "--graph", str(edge_file), *args])
    assert from_spec[0] == 0
    assert from_file == from_spec


@pytest.mark.parametrize("command", ["spectrum", "partition"])
def test_edge_list_file_matches_spec(tmp_path, capsys, command):
    edge_file = _write_edge_list(tmp_path / "g.txt", gen_graph("star:5"))
    from_spec = _run(capsys, [command, "star:5"])
    assert from_spec[0] == 0
    assert _run(capsys, [command, edge_file]) == from_spec


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--jobs", "2"], 1),
    (["verify", "--no-such-flag"], 1),
    (["frobnicate"], 1),
    (["--help"], 0),
], ids=["simulate-jobs", "unknown-flag", "unknown-command", "help"])
def test_usage_exit_codes(capsys, argv, code):
    got, out, err = _run(capsys, argv)
    assert got == code
    if code:
        assert len(err.strip().splitlines()) == 1 and "error:" in err
    else:
        assert "usage:" in out


@pytest.mark.parametrize("flag, value", [
    ("--k", "0"), ("--gnv2-k", "-1"), ("--top-k-metric", "-1")])
def test_simulate_rejects_bad_width(tmp_path, capsys, flag, value):
    outdir = tmp_path / "out"
    code, _, err = _run(capsys, ["simulate", "--graph", "er:20,0.3",
                                 "--steps", "2", flag, value,
                                 "--outdir", str(outdir)])
    assert code == 1
    assert err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err and value in err
    assert not outdir.exists()


# each malformed input exits 1 with one line naming its source and value
@pytest.mark.parametrize("argv, names", [
    (["verify", "--props", "1", "--trials", "-1"], ["--trials", "-1"]),
    (["simulate", "--seeds", "a,b"], ["--seeds", "a,b"]),
    (["verify", "--props", "1,x"], ["--props", "1,x"]),
    (["simulate", "--config", "CONFIG"], ["unknown config key", "nope"]),
    (["verify", "--props", "2", "--k", "0"], ["--k", "'0'"]),
    (["verify", "--props", "2", "--k", "-1"], ["--k", "'-1'"]),
    (["verify", "--props", "6", "--k", "200"], ["k=200", "[1, n-2]"]),
], ids=["trials", "seeds", "props", "config-key", "k-zero", "k-negative",
        "prop6-k-above-n"])
def test_bad_input_names_its_source(tmp_path, capsys, argv, names):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"steps": 2, "nope": 1}))
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    code, _, err = _run(capsys, argv + ["--graph", "er:30,0.3"])
    assert code == 1
    assert err.count("\n") == 1
    assert all(name in err for name in names), err


def test_verify_imports_no_scipy():
    # importing scipy would add about 0.17 s to every run's set-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from oversmooth import cli\n"
            "code = cli.main(['verify', '--props', '1', '--graph', "
            "'er:1000,0.01', '--trials', '2'])\n"
            "assert code == 0, code\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["simulate", "verify", "spectrum",
                                     "partition"])
def test_missing_graph_file_message(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.txt")
    argv = {"simulate": ["simulate", "--graph", missing, "--outdir",
                         str(tmp_path / "out")],
            "verify": ["verify", "--graph", missing]}.get(command,
                                                           [command, missing])
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err == f"error: no such file or generator spec {missing!r}\n"


def test_simulate_top_k_metric_needs_symmetric_operator(tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _, err = _run(capsys, [
        "simulate", "--graph", "er:30,0.2", "--operator", "row_stochastic",
        "--reference", "all_ones", "--top-k-metric", "3", "--steps", "3",
        "--outdir", str(outdir)])
    assert code == 1
    assert err.count("\n") == 1 and "--top-k-metric" in err
    assert not outdir.exists()


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", text, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[3:]
            for line in joined.splitlines()
            if line.startswith("python -m oversmooth.cli ")]


def test_readme_cli_commands(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "simulate", "verify", "spectrum", "partition"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = _run(capsys, argv)
        assert code in ((0, 3) if argv[0] == "verify" else (0,)), (argv, err)
        assert "Traceback" not in err


def test_simulate_rank_column_matches_svd_replay(tmp_path, capsys):
    # Plain updates collapse the features onto one direction, so the
    # rank column falls from k to 1.  Replay the run in numpy (W ~ N(0,
    # 1/k) from default_rng(seed), x0 from default_rng((seed, 101)) with
    # unit columns) and count singular values above 1e-10 * sigma_max *
    # max(n, k); steps with a singular value within 1% of that
    # threshold are skipped.
    seed, k, steps = 2, 4, 64
    outdir = tmp_path / "out"
    code, _, _ = _run(capsys, [
        "simulate", "--graph", "er:30,0.3", "--largest-cc", "--k", str(k),
        "--steps", str(steps), "--seeds", str(seed), "--outdir",
        str(outdir)])
    assert code == 0
    lines = (outdir / f"vanilla_seed{seed}.csv").read_text().splitlines()
    col = lines[0].split(",").index("rank")
    ranks = [int(line.split(",")[col]) for line in lines[1:]]
    adj = gen_graph("er:30,0.3", seed=0, largest_cc=True).adjacency()
    dinv = 1.0 / np.sqrt(adj.sum(axis=1))
    a_hat = adj * dinv[:, None] * dinv[None, :]
    x = np.random.default_rng((seed, 101)).normal(size=(adj.shape[0], k))
    x /= np.linalg.norm(x, axis=0)
    rng = np.random.default_rng(seed)
    compared = []
    for t in range(steps):
        x = a_hat @ x @ rng.normal(0.0, 1.0 / np.sqrt(k), size=(k, k))
        sigma = np.linalg.svd(x, compute_uv=False)
        threshold = 1e-10 * sigma[0] * max(x.shape)
        if np.all(np.abs(sigma / threshold - 1.0) >= 0.01):
            assert ranks[t] == int(np.sum(sigma > threshold)), t + 1
            compared.append(ranks[t])
    assert len(compared) >= steps - 2
    assert compared[0] == k and compared[-1] == 1


@pytest.mark.parametrize("reference", ["all_ones", "degree_sqrt"])
def test_simulate_row_stochastic(tmp_path, capsys, reference):
    # a non-symmetric operator has no eigensystem; the metrics need none
    outdir = tmp_path / "out"
    code, _, err = _run(capsys, [
        "simulate", "--graph", "er:30,0.2", "--largest-cc",
        "--operator", "row_stochastic", "--reference", reference,
        "--steps", "3", "--seeds", "0", "--k", "4", "--outdir", str(outdir)])
    assert code == 0, err
    lines = (outdir / "vanilla_seed0.csv").read_text().splitlines()
    assert lines[0] == "step,mu_v,dirichlet,d_col,d_pcol,rank,top_k_dist"
    assert len(lines) == 4


def test_simulate_config_error(capsys):
    code, _, err = _run(capsys, ["simulate", "--graph", "nope:3"])
    assert code == 1
    assert "error" in err


def test_simulate_dominant_eig_needs_connected_graph(tmp_path, capsys):
    # no edges between the blocks: lambda = 1 is repeated, so the
    # dominant eigenvector would be an arbitrary vector of that eigenspace
    outdir = tmp_path / "out"
    args = ["simulate", "--graph", "sbm:20+20,0.3,0.0", "--steps", "2",
            "--seeds", "0", "--k", "2", "--outdir", str(outdir)]
    code, _, err = _run(capsys, args)
    assert code == 1
    assert err.count("\n") == 1 and "--largest-cc" in err
    assert not outdir.exists()
    for extra in (["--largest-cc"], ["--reference", "all_ones"]):
        code, _, err = _run(capsys, args + extra)
        assert code == 0, err


def test_verify_prop7_star(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _, _ = _run(capsys, ["verify", "--props", "7",
                               "--graph", "star:4",
                               "--out", str(out_file)])
    assert code == 0
    reports = json.loads(out_file.read_text())
    assert reports[0]["id"] == 7
    assert reports[0]["verdict"] == "pass"
    assert out_file.read_text().endswith("\n")


def test_verify_unknown_prop(capsys):
    code, _, err = _run(capsys, ["verify", "--props", "99"])
    assert code == 1
    assert "unknown proposition" in err


def test_verify_multiple_props_fast(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--props", "2,3,7", "--graph", "er:30,0.3",
        "--trials", "20", "--steps", "32", "--seed", "1"])
    assert code == 0
    reports = json.loads(out)
    assert [r["id"] for r in reports] == [2, 3, 7]
    assert all(r["verdict"] == "pass" for r in reports)


def test_verify_zero_trials_undefined(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--props", "1,4", "--graph", "er:30,0.3",
        "--trials", "0"])
    assert code == 0
    reports = json.loads(out)
    assert [(r["id"], r["verdict"]) for r in reports] == [
        (1, "undefined"), (4, "undefined")]


def test_verify_determinism(capsys):
    args = ["verify", "--props", "7", "--graph", "path:5"]
    _, out1, _ = _run(capsys, args)
    _, out2, _ = _run(capsys, args)
    assert out1 == out2


def test_spectrum_star4(capsys):
    code, out, _ = _run(capsys, ["spectrum", "star:4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    r3 = np.sqrt(3.0)
    assert np.abs(np.array(vals) - [r3, -r3, 0.0, 0.0]).max() < 1e-10


def test_spectrum_path3(capsys):
    code, out, _ = _run(capsys, ["spectrum", "path:3"])
    lines = out.strip().splitlines()[1:]
    vals = [float(line.split(",")[1]) for line in lines]
    r2 = np.sqrt(2.0)
    assert np.abs(np.array(vals) - [r2, -r2, 0.0]).max() < 1e-10


def test_spectrum_with_partition_cycle5(capsys):
    code, out, _ = _run(capsys, ["spectrum", "cycle:5", "--partition"])
    assert code == 0
    assert "# quotient matrix" in out
    lines = out.splitlines()
    q_line = lines[lines.index("# quotient matrix") + 1]
    assert float(q_line) == 2.0
    node_rows = lines[lines.index("# node,class") + 1:
                      lines.index("# node,class") + 6]
    assert all(row.endswith(",0") for row in node_rows)  # single class
    assert any(line.startswith("# structural,") for line in lines)


def test_spectrum_centered_tau(capsys):
    code, out, _ = _run(capsys, ["spectrum", "star:16", "--tau", "1.0"])
    assert code == 0
    vals = [float(line.split(",")[1])
            for line in out.strip().splitlines()[1:]]
    # centered star: exactly one nonzero eigenvalue
    assert sum(abs(v) > 1e-9 for v in vals) == 1


def test_partition_command(capsys):
    code, out, _ = _run(capsys, ["partition", "star:4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,class"
    classes = dict(line.split(",") for line in lines[1:5])
    assert classes["0"] != classes["1"]
    assert classes["1"] == classes["2"] == classes["3"]
