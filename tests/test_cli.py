"""Command-line front end, driven in-process through cli.main(argv)."""

import json
import logging
import os
import subprocess
import sys

import pytest

import srlnc
from srlnc import chain as chain_module
from srlnc import cli
from srlnc.chain import (
    build_chain,
    chain_delivery_probability,
    intercept_probability,
)
from srlnc.coding import ChannelParams, CodeParams
from srlnc.errors import NumericalIntegrityError
from srlnc.rank import delivery_probability


def _run(capsys, argv):
    """One in-process srlnc call: exit code, stdout and stderr.  pytest's
    logging plugin holds the root logger, so for the call a handler on the
    srlnc logger prints each warning to stderr with the bare message, as
    logging's last-resort handler does for the installed command."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    log = logging.getLogger("srlnc")
    log.addHandler(handler)
    try:
        rc = cli.main(argv)
    finally:
        log.removeHandler(handler)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _rows(text):
    """CSV body as a list of dicts (metadata lines skipped)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# Frozen output of a cheap deterministic command; catches accidental drift
# in the model, the float formatting, or the metadata block.
_GOLDEN_RANK = """\
# command = srlnc rank --K 3 --q 2 --p 0.6
# seed = 0
# mode = paper-exact
# version = 0.1.0
K,q,p,kind,index,value
3,2,0.6,innovation,0,0.784
3,2,0.6,innovation,1,0.6728726217567332
3,2,0.6,innovation,2,0.5130036798948961
3,2,0.6,full_rank,3,0.2706259267523969
3,2,0.6,full_rank,4,0.49620250619204664
3,2,0.6,full_rank,5,0.679105494408815
3,2,0.6,full_rank,6,0.8046326824299855
"""


def test_rank_golden_bytes(capsys):
    rc, out, err = _run(capsys, ["rank", "--K", "3", "--q", "2", "--p", "0.6"])
    assert rc == 0 and err == ""
    assert out == _GOLDEN_RANK


# `srlnc rank --K 20 --q 16 --p 0.3` on both sides of K, recorded when each
# full-rank row was read on its own: --Nhat 100 gives the rows r = 20 .. 100,
# --Nhat 19 lies below K and gives the innovation rows only, with exit code 0.
_GOLDEN_RANK_K20_HEAD = """\
# command = srlnc rank --K 20 --q 16 --p 0.3 --Nhat {n}
# seed = 0
# mode = paper-exact
# version = 0.1.0
K,q,p,kind,index,value
"""
_GOLDEN_RANK_K20_W = """\
20,16,0.3,innovation,0,0.9999999999651321
20,16,0.3,innovation,1,0.9999999999651321
20,16,0.3,innovation,2,0.9999999999651321
20,16,0.3,innovation,3,0.9999999999651321
20,16,0.3,innovation,4,0.9999999999651321
20,16,0.3,innovation,5,0.9999999999651321
20,16,0.3,innovation,6,0.9999999999651321
20,16,0.3,innovation,7,0.9999999999651321
20,16,0.3,innovation,8,0.9999999999651321
20,16,0.3,innovation,9,0.9999999999651321
20,16,0.3,innovation,10,0.9999999999651321
20,16,0.3,innovation,11,0.9999999999651321
20,16,0.3,innovation,12,0.9999999999651321
20,16,0.3,innovation,13,0.9999999999651321
20,16,0.3,innovation,14,0.9999999999651321
20,16,0.3,innovation,15,0.9999999999651321
20,16,0.3,innovation,16,0.9999999999651321
20,16,0.3,innovation,17,0.9999999999651321
20,16,0.3,innovation,18,0.9999999999651321
20,16,0.3,innovation,19,0.9999999999651321
"""
_GOLDEN_RANK_K20_R = """\
20,16,0.3,full_rank,20,0.9999999993026422
20,16,0.3,full_rank,21,0.999999999790794
20,16,0.3,full_rank,22,0.9999999999372369
20,16,0.3,full_rank,23,0.9999999999811706
20,16,0.3,full_rank,24,0.9999999999943512
20,16,0.3,full_rank,25,0.9999999999983058
20,16,0.3,full_rank,26,0.9999999999994915
20,16,0.3,full_rank,27,0.9999999999998468
20,16,0.3,full_rank,28,0.9999999999999534
20,16,0.3,full_rank,29,0.9999999999999867
20,16,0.3,full_rank,30,0.9999999999999956
20,16,0.3,full_rank,31,0.9999999999999978
20,16,0.3,full_rank,32,1.0
20,16,0.3,full_rank,33,1.0
20,16,0.3,full_rank,34,1.0
20,16,0.3,full_rank,35,1.0
20,16,0.3,full_rank,36,1.0
20,16,0.3,full_rank,37,1.0
20,16,0.3,full_rank,38,1.0
20,16,0.3,full_rank,39,1.0
20,16,0.3,full_rank,40,1.0
20,16,0.3,full_rank,41,1.0
20,16,0.3,full_rank,42,1.0
20,16,0.3,full_rank,43,1.0
20,16,0.3,full_rank,44,1.0
20,16,0.3,full_rank,45,1.0
20,16,0.3,full_rank,46,1.0
20,16,0.3,full_rank,47,1.0
20,16,0.3,full_rank,48,1.0
20,16,0.3,full_rank,49,1.0
20,16,0.3,full_rank,50,1.0
20,16,0.3,full_rank,51,1.0
20,16,0.3,full_rank,52,1.0
20,16,0.3,full_rank,53,1.0
20,16,0.3,full_rank,54,1.0
20,16,0.3,full_rank,55,1.0
20,16,0.3,full_rank,56,1.0
20,16,0.3,full_rank,57,1.0
20,16,0.3,full_rank,58,1.0
20,16,0.3,full_rank,59,1.0
20,16,0.3,full_rank,60,1.0
20,16,0.3,full_rank,61,1.0
20,16,0.3,full_rank,62,1.0
20,16,0.3,full_rank,63,1.0
20,16,0.3,full_rank,64,1.0
20,16,0.3,full_rank,65,1.0
20,16,0.3,full_rank,66,1.0
20,16,0.3,full_rank,67,1.0
20,16,0.3,full_rank,68,1.0
20,16,0.3,full_rank,69,1.0
20,16,0.3,full_rank,70,1.0
20,16,0.3,full_rank,71,1.0
20,16,0.3,full_rank,72,1.0
20,16,0.3,full_rank,73,1.0
20,16,0.3,full_rank,74,1.0
20,16,0.3,full_rank,75,1.0
20,16,0.3,full_rank,76,1.0
20,16,0.3,full_rank,77,1.0
20,16,0.3,full_rank,78,1.0
20,16,0.3,full_rank,79,1.0
20,16,0.3,full_rank,80,1.0
20,16,0.3,full_rank,81,1.0
20,16,0.3,full_rank,82,1.0
20,16,0.3,full_rank,83,1.0
20,16,0.3,full_rank,84,1.0
20,16,0.3,full_rank,85,1.0
20,16,0.3,full_rank,86,1.0
20,16,0.3,full_rank,87,1.0
20,16,0.3,full_rank,88,1.0
20,16,0.3,full_rank,89,1.0
20,16,0.3,full_rank,90,1.0
20,16,0.3,full_rank,91,1.0
20,16,0.3,full_rank,92,1.0
20,16,0.3,full_rank,93,1.0
20,16,0.3,full_rank,94,1.0
20,16,0.3,full_rank,95,1.0
20,16,0.3,full_rank,96,1.0
20,16,0.3,full_rank,97,1.0
20,16,0.3,full_rank,98,1.0
20,16,0.3,full_rank,99,1.0
20,16,0.3,full_rank,100,1.0
"""


@pytest.mark.parametrize("n_hat, body", [
    (100, _GOLDEN_RANK_K20_W + _GOLDEN_RANK_K20_R),
    (19, _GOLDEN_RANK_K20_W),
], ids=["Nhat-100", "Nhat-19"])
def test_rank_golden_bytes_on_both_sides_of_k(capsys, n_hat, body):
    rc, out, err = _run(capsys, ["rank", "--K", "20", "--q", "16", "--p", "0.3",
                                 "--Nhat", str(n_hat)])
    assert rc == 0 and err == ""
    assert out == _GOLDEN_RANK_K20_HEAD.format(n=n_hat) + body


# Frozen output of one figure-1a chain point under each transition law and
# of one figure-2a optimize budget, which runs the whole pi recursion,
# bisection and audit.
_GOLDEN_CHAIN = {mode: f"""\
# command = srlnc chain --K 20 --q 2 --p 0.7 --Nhat 40 --eps-b 0.01 --eps-e 0.26 --eps-k 0.5 --mode {mode}
# seed = 0
# mode = {mode}
# version = 0.1.0
p,N_hat,I,D,I_chain_delivery,K,q,eps_B,eps_E,eps_K,mode
0.7,40,{intercept},0.9999833221587657,0.9999999550718197,20,2,0.01,0.26,0.5,{mode}
""" for mode, intercept in (("paper-exact", "0.074769437948314"),
                            ("consistent", "0.06930771675600658"))}
_GOLDEN_OPTIMIZE = """\
# command = srlnc optimize --K 20 --q 16 --Nhat 61 --eps-b 0.05 --eps-e 0.2 --eps-k 1.0
# seed = 0
# mode = paper-exact
# version = 0.1.0
K,q,N_hat,D_hat,p_star,status,delivery,intercept,intercept_classic,iterations,mode
20,16,61,0.99,0.8767503739135816,interior-root,0.9900000498158624,0.9999999999973507,1.0,16,paper-exact
"""


# A seeded simulate run: simulate takes no --mode, and its metadata still
# records the fixed transition law.
_GOLDEN_SIMULATE = """\
# command = srlnc simulate --K 4 --q 2 --p 0.7 --Nhat 10 --eps-b 0.05 --eps-e 0.3 --eps-k 0.5 --trials 300 --seed 11
# seed = 11
# mode = paper-exact
# version = 0.1.0
p,N_hat,eps_B,eps_E,eps_K,K,q,trials,intercept_hat,delivery_hat,ci,mean_slots
0.7,10,0.05,0.3,0.5,4,2,300,0.39666666666666667,0.8166666666666667,0.05535883696059401,7.8566666666666665
"""


@pytest.mark.parametrize("mode", list(_GOLDEN_CHAIN))
def test_chain_golden_bytes(capsys, mode):
    rc, out, err = _run(capsys, [
        "chain", "--K", "20", "--q", "2", "--p", "0.7", "--Nhat", "40",
        "--eps-b", "0.01", "--eps-e", "0.26", "--eps-k", "0.5", "--mode", mode])
    assert rc == 0 and err == ""
    assert out == _GOLDEN_CHAIN[mode]


def test_optimize_golden_bytes(capsys):
    rc, out, err = _run(capsys, ["optimize", "--K", "20", "--q", "16",
                                 "--Nhat", "61", "--eps-b", "0.05",
                                 "--eps-e", "0.2", "--eps-k", "1.0"])
    assert rc == 0 and err == ""
    assert out == _GOLDEN_OPTIMIZE


def _run_process(argv):
    """One srlnc call in a fresh interpreter: exit code, stdout and stderr.
    Logged warnings reach stderr through logging's last-resort handler, as
    they do for the installed command, and not through pytest's capture."""
    src = os.path.dirname(os.path.dirname(srlnc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from srlnc.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


_OPTIMIZE_HEADER = ("K,q,N_hat,D_hat,p_star,status,delivery,intercept,"
                    "intercept_classic,iterations,mode\n")
_CLAMP_WARNINGS = """\
innovation table not monotone at K=20 q=2 p=0.99 (worst increase 1); approximation outside its range
74 bracket term(s) clamped to 0 while building the chain at K=20 p=0.99; the innovation table is outside its comfort zone
"""
_SATURATED_ARGS = ["--K", "20", "--Nhat", "40", "--eps-b", "0.01",
                   "--eps-e", "0.26", "--eps-k", "0.5", "--p-max", "0.99",
                   "--Dhat", "0.0"]

# Every exit path of optimize other than the interior root above, recorded
# before the solver stopped computing intercepts: the infeasible row (exit
# 4), the saturated rows whose chain at p* = 0.99 warns in both modes, and
# the JSON form.  stderr is pinned too.  The last row is an interior root
# priced above classic coding: with working feedback (eps_K = 0) a sparser
# code delays Bob's ACK and Eve listens for longer.  Its stdout is the row
# printed before optimize warned about it.
_ABOVE_CLASSIC_ARGS = ["--K", "20", "--q", "2", "--Nhat", "40", "--eps-b",
                       "0.05", "--eps-e", "0.2", "--eps-k", "0", "--Dhat",
                       "0.95"]
_GOLDEN_OPTIMIZE_PATHS = [
    (["--K", "5", "--Nhat", "17", "--eps-b", "0.05", "--eps-e", "0.2",
      "--Dhat", "1.0"], 4,
     "# command = srlnc optimize --K 5 --Nhat 17 --eps-b 0.05 --eps-e 0.2 "
     "--Dhat 1.0\n# seed = 0\n# mode = paper-exact\n# version = 0.1.0\n"
     + _OPTIMIZE_HEADER
     + "5,2,17,1.0,,infeasible,,,0.9948044973722054,0,paper-exact\n",
     "constraint infeasible: delivery(0.5000) = 0.999458 < d_hat = 1.000000\n"),
    (_SATURATED_ARGS, 0,
     "# command = srlnc optimize " + " ".join(_SATURATED_ARGS)
     + "\n# seed = 0\n# mode = paper-exact\n# version = 0.1.0\n"
     + _OPTIMIZE_HEADER
     + "20,2,40,0.0,0.99,saturated-at-pmax,5.645689042046663e-12,"
       "5.283903493049152e-44,0.10063773165916295,0,paper-exact\n",
     _CLAMP_WARNINGS),
    (_SATURATED_ARGS + ["--mode", "consistent"], 0,
     "# command = srlnc optimize " + " ".join(_SATURATED_ARGS)
     + " --mode consistent\n# seed = 0\n# mode = consistent\n"
       "# version = 0.1.0\n"
     + _OPTIMIZE_HEADER
     + "20,2,40,0.0,0.99,saturated-at-pmax,5.645689042046663e-12,"
       "5.72698752058671e-44,0.08454499146626394,0,consistent\n",
     _CLAMP_WARNINGS),
    (["--K", "20", "--q", "16", "--Nhat", "61", "--eps-b", "0.05",
      "--eps-e", "0.2", "--format", "json"], 0,
     """\
{
  "meta": {
    "command": "srlnc optimize --K 20 --q 16 --Nhat 61 --eps-b 0.05 --eps-e 0.2 --format json",
    "seed": 0,
    "mode": "paper-exact",
    "version": "0.1.0"
  },
  "records": [
    {
      "K": 20,
      "q": 16,
      "N_hat": 61,
      "D_hat": 0.99,
      "p_star": 0.8767503739135816,
      "status": "interior-root",
      "delivery": 0.9900000498158624,
      "intercept": 0.9999999999973507,
      "intercept_classic": 1.0,
      "iterations": 16,
      "mode": "paper-exact"
    }
  ]
}
""", ""),
    (_ABOVE_CLASSIC_ARGS, 0,
     "# command = srlnc optimize " + " ".join(_ABOVE_CLASSIC_ARGS)
     + "\n# seed = 0\n# mode = paper-exact\n# version = 0.1.0\n"
     + _OPTIMIZE_HEADER
     + "20,2,40,0.95,0.8528662682550927,interior-root,0.9500004032856374,"
       "0.20640964308666165,0.18101076019395018,19,paper-exact\n",
     "the chain prices p*=0.8528662682550927 above classic coding: "
     "intercept 0.20640964308666165 > intercept_classic 0.18101076019395018;"
     " p* is the delivery root, which minimises the intercept only where the"
     " intercept falls with p\n"),
]


@pytest.mark.parametrize("argv,code,out,err", _GOLDEN_OPTIMIZE_PATHS,
                         ids=["infeasible", "saturated-warns-paper-exact",
                              "saturated-warns-consistent", "json",
                              "interior-warns-above-classic"])
def test_optimize_exit_paths_golden_bytes(argv, code, out, err):
    assert _run_process(["optimize", *argv]) == (code, out, err)


def test_in_process_runs_show_warnings(capsys):
    # _run shows the saturated call's two warnings, as the installed command does
    _, code, out, err = _GOLDEN_OPTIMIZE_PATHS[1]
    assert _run(capsys, ["optimize", *_SATURATED_ARGS]) == (code, out, err)


def test_simulate_golden_bytes(capsys):
    rc, out, err = _run(capsys, ["simulate", "--K", "4", "--q", "2",
                                 "--p", "0.7", "--Nhat", "10", "--eps-b", "0.05",
                                 "--eps-e", "0.3", "--eps-k", "0.5",
                                 "--trials", "300", "--seed", "11"])
    assert rc == 0 and err == ""
    assert out == _GOLDEN_SIMULATE


def test_rank_classic_endpoint_row(capsys):
    rc, out, _ = _run(capsys, ["rank", "--K", "20", "--p", "0.5"])
    assert rc == 0
    last_w = [r for r in _rows(out) if r["kind"] == "innovation"][-1]
    assert last_w["index"] == "19"
    assert float(last_w["value"]) == 0.5


def test_rank_oracle_column(capsys):
    rc, out, _ = _run(capsys, ["rank", "--K", "3", "--p", "0.6",
                               "--with-oracle"])
    assert rc == 0
    rows = _rows(out)
    assert all(r["oracle"] != "" for r in rows)
    # the t = K-1 innovation cell is the loosest spot of the approximation
    # at this small K (measured +0.076); the rest sit within 0.05
    for r in rows:
        assert 0.0 <= float(r["oracle"]) <= 1.0
        assert abs(float(r["value"]) - float(r["oracle"])) <= 0.08


# `srlnc chain --dump-matrix matrix.csv`: the stdout and the dumped file of
# each call are frozen in tests/golden/chain_dump_<name>.{out,csv}.  The
# K=20, p=0.99 chain on the (0, 1) channel dumps 39 cells as -0.0.
_GOLDEN_DUMPS = {
    "k3_paper_exact": ["--K", "3", "--q", "2", "--p", "0.6", "--Nhat", "12",
                       "--eps-b", "0.1", "--eps-e", "0.3", "--eps-k", "0.8",
                       "--mode", "paper-exact"],
    "k3_consistent": ["--K", "3", "--q", "2", "--p", "0.6", "--Nhat", "12",
                      "--eps-b", "0.1", "--eps-e", "0.3", "--eps-k", "0.8",
                      "--mode", "consistent"],
    "k20_p099": ["--K", "20", "--q", "2", "--p", "0.99", "--Nhat", "40",
                 "--eps-b", "0.0", "--eps-e", "1.0", "--eps-k", "0.5"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_DUMPS))
def test_chain_dump_matrix_golden_bytes(capsys, tmp_path, monkeypatch, name):
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          f"chain_dump_{name}")
    monkeypatch.chdir(tmp_path)
    rc, out, _ = _run(capsys, ["chain", *_GOLDEN_DUMPS[name],
                               "--dump-matrix", "matrix.csv"])
    assert rc == 0
    with open(golden + ".out") as fh:
        assert out == fh.read()
    with open(golden + ".csv", "rb") as fh:
        assert (tmp_path / "matrix.csv").read_bytes() == fh.read()


_K3_CHAIN = ["chain", *_GOLDEN_DUMPS["k3_paper_exact"]]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(_K3_CHAIN, "--out", id="--out"),
    pytest.param(_K3_CHAIN, "--dump-matrix", id="--dump-matrix"),
    pytest.param(["sweep", "--figure", "1a", "--K", "4", "--trials", "10"],
                 "--out", id="sweep --out"),
])
def test_unwritable_path_is_an_io_error_with_no_result(
        capsys, monkeypatch, tmp_path, argv, flag):
    # the path is checked before the work: the sweep never simulates
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    monkeypatch.setattr(cli, "estimate", refuse)
    rc, out, err = _run(capsys, [*argv, flag, str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    assert err.startswith("srlnc: i/o error: ")
    assert out == ""


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("fail, code", [
    ("config", 2), ("integrity", 3)])
def test_a_failed_call_leaves_no_file_behind(
        capsys, monkeypatch, tmp_path, flag, fail, code):
    def boom(*args, **kwargs):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setattr(cli, "build_chain", boom)
    argv = _K3_CHAIN if fail == "integrity" else [
        "chain", "--p", "0.6", "--Nhat", "8"]  # no --K: exit 2
    path = tmp_path / "x.csv"
    rc, out, _ = _run(capsys, [*argv, flag, str(path)])
    assert rc == code
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("fail, code", [
    ("config", 2), ("integrity", 3)])
def test_a_failed_call_keeps_a_link_to_a_missing_file(
        capsys, monkeypatch, tmp_path, flag, fail, code):
    def boom(*args, **kwargs):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setattr(cli, "build_chain", boom)
    argv = _K3_CHAIN if fail == "integrity" else [
        "chain", "--p", "0.6", "--Nhat", "8"]  # no --K: exit 2
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    rc, out, _ = _run(capsys, [*argv, flag, str(link)])
    assert rc == code
    assert out == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert not target.exists()


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
def test_a_call_through_a_link_to_a_missing_file_writes_the_target(
        capsys, tmp_path, flag):
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    rc, _, _ = _run(capsys, [*_K3_CHAIN, flag, str(link)])
    assert rc == 0
    assert link.is_symlink()
    assert target.read_text().startswith("# command = srlnc chain ")


@pytest.mark.parametrize("flag", ["--out", "--dump-matrix"])
@pytest.mark.parametrize("before", [b"", b"kept\n"])
def test_a_failed_call_keeps_a_file_that_existed(capsys, tmp_path, flag,
                                                 before):
    path = tmp_path / "x.csv"
    path.write_bytes(before)
    rc, _, _ = _run(capsys, ["chain", "--p", "0.6", "--Nhat", "8", flag,
                             str(path)])
    assert rc == 2
    assert path.read_bytes() == before


@pytest.mark.parametrize("dump", ["F", "./F", "sub/../F"])
def test_out_and_dump_matrix_on_one_file_are_refused(capsys, monkeypatch,
                                                      tmp_path, dump):
    # the record would overwrite the dump: refused before any file is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    rc, out, err = _run(capsys, [*_K3_CHAIN, "--out", "F",
                                 "--dump-matrix", dump])
    assert rc == 2
    assert out == ""
    assert "--out and --dump-matrix name one file: " in err
    assert [f.name for f in tmp_path.iterdir()] == ["sub"]


def test_rank_logs_the_non_monotone_innovation_table_once(capsys, caplog):
    rc, _, _ = _run(capsys, ["rank", "--K", "20", "--q", "2", "--p", "0.99",
                             "--Nhat", "19"])
    assert rc == 0
    assert [r.getMessage() for r in caplog.records
            if "innovation table not monotone" in r.getMessage()] == [
        "innovation table not monotone at K=20 q=2 p=0.99 (worst increase "
        "1); approximation outside its range"]


def test_an_infeasible_solve_still_writes_its_row_to_a_new_file(capsys,
                                                                tmp_path):
    path = tmp_path / "x.csv"
    rc, _, _ = _run(capsys, ["optimize", "--K", "5", "--Nhat", "17",
                             "--eps-b", "0.05", "--eps-e", "0.2",
                             "--Dhat", "1.0", "--out", str(path)])
    assert rc == 4
    (row,) = _rows(path.read_text())
    assert row["status"] == "infeasible"


def test_chain_row_matches_the_library(capsys, tmp_path):
    dump = tmp_path / "matrix.csv"
    argv = ["chain", "--K", "4", "--q", "2", "--p", "0.6", "--Nhat", "10",
            "--eps-b", "0.05", "--eps-e", "0.3", "--eps-k", "0.9",
            "--dump-matrix", str(dump)]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    (row,) = _rows(out)

    code = CodeParams(K=4, q=2, p=0.6, n_hat=10)
    chan = ChannelParams(0.05, 0.3, 0.9)
    P = build_chain(code, chan, "paper-exact")
    assert float(row["I"]) == intercept_probability(P, 10)
    assert float(row["D"]) == delivery_probability(code, chan)
    assert float(row["I_chain_delivery"]) == chain_delivery_probability(P, 10)

    dumped = _rows(dump.read_text())
    trips = {(int(r["row"]), int(r["col"])): float(r["prob"]) for r in dumped}
    for i, j, v in P.triplets():
        assert trips[(i, j)] == v


def test_chain_delivery_mass_is_clamped_and_propagated_once(capsys, monkeypatch):
    # At q=16, eps_k=0 the summed chain mass rounds to 1.000000000000001;
    # it must print as a probability, and I and I_chain_delivery must come
    # from one propagation of the chain.
    calls = []
    real = chain_module._propagate
    monkeypatch.setattr(chain_module, "_propagate",
                        lambda P, n: calls.append(n) or real(P, n))
    rc, out, _ = _run(capsys, ["chain", "--K", "20", "--q", "16", "--p", "0.1",
                               "--Nhat", "40", "--eps-b", "0.05",
                               "--eps-e", "0.3", "--eps-k", "0.0"])
    assert rc == 0
    (row,) = _rows(out)
    assert row["I_chain_delivery"] == "1.0"
    assert 0.0 <= float(row["I"]) <= 1.0
    assert calls == [40]


def test_simulate_reruns_are_byte_identical(capsys, tmp_path):
    out_path = tmp_path / "sim.csv"
    argv = ["simulate", "--K", "3", "--p", "0.6", "--Nhat", "8",
            "--eps-b", "0.1", "--eps-e", "0.3", "--eps-k", "0.8",
            "--trials", "500", "--seed", "7", "--out", str(out_path)]
    assert cli.main(argv) == 0
    first = out_path.read_bytes()
    assert cli.main(argv) == 0
    assert out_path.read_bytes() == first
    capsys.readouterr()  # nothing should have hit stdout
    rows = _rows(first.decode())
    assert rows[0]["trials"] == "500"
    assert 0.0 <= float(rows[0]["intercept_hat"]) <= 1.0


def test_optimize_reports_and_exits_zero_when_feasible(capsys):
    rc, out, _ = _run(capsys, ["optimize", "--K", "5", "--Nhat", "17",
                               "--eps-b", "0.05", "--eps-e", "0.2",
                               "--Dhat", "0.99"])
    assert rc == 0
    (row,) = _rows(out)
    assert row["status"] == "interior-root"
    assert 0.5 < float(row["p_star"]) < 0.95
    assert float(row["delivery"]) >= 0.99
    assert int(row["iterations"]) <= 60


def test_optimize_classic_intercept_is_clamped(capsys):
    # The classic chain's intercept mass rounds to 1.0000000000000002 here.
    rc, out, _ = _run(capsys, ["optimize", "--K", "20", "--q", "16",
                               "--Nhat", "61", "--eps-b", "0.05",
                               "--eps-e", "0.2", "--eps-k", "1.0"])
    assert rc == 0
    (row,) = _rows(out)
    assert row["intercept_classic"] == "1.0"
    assert 0.0 <= float(row["intercept"]) <= 1.0


def test_optimize_infeasible_exits_4_but_still_writes_the_row(capsys):
    rc, out, _ = _run(capsys, ["optimize", "--K", "5", "--Nhat", "17",
                               "--eps-b", "0.05", "--eps-e", "0.2",
                               "--Dhat", "1.0"])
    assert rc == 4
    (row,) = _rows(out)
    assert row["status"] == "infeasible"
    assert row["p_star"] == "" and row["delivery"] == ""
    assert row["intercept_classic"] != ""


@pytest.mark.parametrize("argv,needle", [
    (["chain", "--K", "3", "--p", "0.6", "--Nhat", "8",
      "--eps-b", "0.5", "--eps-e", "0.2"], "eps"),
    (["chain", "--K", "3", "--Nhat", "8"], "--p"),
    (["rank", "--p", "0.6"], "--K"),
    (["sweep", "--figure", "1a", "--q", "16"], "q=2 panel"),
    (["sweep", "--figure", "2a", "--eps-b", "0.1"], "eps_b=0.05 panel"),
    (["rank", "--K", "3", "--p", "0.6", "--config", "/nonexistent.ini"],
     "not found"),
    (["simulate", "--K", "3", "--p", "0.6", "--Nhat", "6", "--threads", "0"],
     "workers=0 must be an integer >= 1"),
    # the q > 2 budget grids of figure 2 end at N_hat = 100
    (["sweep", "--figure", "2a", "--K", "100", "--q", "16"],
     "figure 2a has no budget above K=100 at q=16"),
    # D_hat = 1 leaves every budget infeasible, so no simulation would start
    (["sweep", "--figure", "2a", "--K", "5", "--q", "2", "--eps-k", "1.0",
      "--Dhat", "1.0", "--threads", "0", "--trials", "10"],
     "workers=0 must be an integer >= 1"),
])
def test_configuration_errors_exit_2(capsys, argv, needle):
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert needle in err


# C(n, n/2) leaves the float range at n = 1030: a budget that large is a
# configuration error, not a traceback, and 1029 still runs.
@pytest.mark.parametrize("argv", [
    ["chain", "--K", "20", "--p", "0.7", "--eps-b", "0.05", "--eps-e", "0.2"],
    ["optimize", "--K", "20", "--eps-b", "0.05", "--eps-e", "0.2"],
], ids=["chain", "optimize"])
def test_a_budget_above_1029_exits_2(capsys, argv):
    rc, out, err = _run(capsys, argv + ["--Nhat", "1029"])
    assert rc == 0 and err == ""
    rc, out, err = _run(capsys, argv + ["--Nhat", "1030"])
    assert (rc, out) == (2, "")
    assert err.startswith("srlnc: configuration error: C(1030, ")
    assert "above 1029 are out of range" in err


def test_numerical_integrity_failures_exit_3(capsys, monkeypatch):
    def boom(args, argv):
        raise NumericalIntegrityError("synthetic failure")

    help_text, flags, _ = cli._COMMANDS["rank"]
    monkeypatch.setitem(cli._COMMANDS, "rank", (help_text, flags, boom))
    rc, _, err = _run(capsys, ["rank", "--K", "3", "--p", "0.6"])
    assert rc == 3
    assert "synthetic failure" in err


def test_config_file_fills_gaps_and_flags_win(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nK = 3\np = 0.6\nNhat = 7\n")
    rc, out, _ = _run(capsys, ["rank", "--config", str(ini)])
    assert rc == 0
    rows = _rows(out)
    assert rows[0]["K"] == "3" and rows[0]["p"] == "0.6"
    assert rows[-1]["index"] == "7"  # Nhat from the file

    # an explicit flag beats the file value
    rc, out, _ = _run(capsys, ["rank", "--config", str(ini), "--p", "0.7"])
    assert rc == 0
    assert _rows(out)[0]["p"] == "0.7"

    # a seed from the file drives simulate exactly as the flag does
    ini.write_text("[run]\nK = 3\np = 0.6\nNhat = 7\nseed = 11\n")
    sim = ["simulate", "--eps-b", "0.1", "--eps-e", "0.3", "--eps-k", "0.8",
           "--trials", "200"]
    rc, from_file, _ = _run(capsys, sim + ["--config", str(ini)])
    assert rc == 0
    assert "# seed = 11" in from_file
    rc, from_flag, _ = _run(capsys, sim + ["--K", "3", "--p", "0.6",
                                           "--Nhat", "7", "--seed", "11"])
    assert rc == 0
    assert from_file.splitlines()[1:] == from_flag.splitlines()[1:]


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    # pi_variant is no key: the pi recursion has one reading; figure is no
    # key: sweep requires the --figure flag before the file is read; tol is
    # no key: the bisection's tolerance is a constant of the solver
    ini = tmp_path / "bad.ini"
    for key, value in (("budget", "9"), ("pi_variant", "row-count"),
                       ("figure", "2a"), ("tol", "1e-6")):
        ini.write_text(f"[run]\nK = 3\n{key} = {value}\n")
        rc, _, err = _run(capsys, ["rank", "--config", str(ini), "--p", "0.6"])
        assert rc == 2
        assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("text,needle", [
    (b"K = 3\n", "no section headers"),
    (b"[run]\nK = 3\nK = 4\n", "option 'K' in section 'run' already exists"),
    (b"[run]\nK = 3\n[run]\np = 0.6\n", "section 'run' already exists"),
    (b"[run]\nK = %(x)s\n", "interpolation key 'x'"),
    (b"\xff\xfe[run]\nK = 3\n", "can't decode byte 0xff"),
], ids=["no-section-header", "duplicate-key", "duplicate-section",
        "bad-interpolation", "undecodable"])
def test_config_file_that_cannot_be_parsed_exits_2(capsys, tmp_path, text,
                                                   needle):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    rc, out, err = _run(capsys, ["rank", "--config", str(ini), "--p", "0.6"])
    assert (rc, out) == (2, "")
    assert err.startswith(f"srlnc: configuration error: malformed config "
                          f"file {ini}: ")
    assert needle in err and err.count("\n") == 1


def test_config_file_default_section_is_read_like_any_other(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nK = 3\np = 0.6\n")
    rc, out, err = _run(capsys, ["rank", "--config", str(ini)])
    assert (rc, err) == (0, "")
    assert _rows(out)[0]["K"] == "3" and _rows(out)[0]["p"] == "0.6"

    # an unknown key there is refused, with or without another section
    for text in ("[DEFAULT]\nbudget = 9\n", "[DEFAULT]\nbudget = 9\n[run]\n"):
        ini.write_text(text)
        rc, out, err = _run(capsys, ["rank", "--config", str(ini), "--K", "3",
                                     "--p", "0.6"])
        assert (rc, out) == (2, "")
        assert "unknown key 'budget'" in err


@pytest.mark.parametrize("argv,key,value,choices", [
    (["rank", "--K", "3", "--p", "0.6"], "format", "xml", "csv, json"),
    (["chain", "--K", "3", "--p", "0.6", "--Nhat", "8"], "mode", "exact",
     "paper-exact, consistent"),
])
def test_config_file_rejects_values_outside_the_choices(capsys, tmp_path, argv,
                                                        key, value, choices):
    # a choice read from the file is held to the flag's choices
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[run]\n{key} = {value}\n")
    rc, out, err = _run(capsys, argv + ["--config", str(ini)])
    assert rc == 2
    assert out == ""
    assert f"{key!r}" in err and f"{value!r}" in err and choices in err


# --pi-variant is retired with the misprinted reading of the pi recursion;
# --seed and --mode are flags only where they change the numbers (seed in
# simulate and sweep, mode in chain, optimize and sweep).
@pytest.mark.parametrize("argv,flag", [
    (["rank", "--K", "3", "--p", "0.6"], ["--pi-variant", "row-count"]),
    (["chain", "--K", "3", "--p", "0.6", "--Nhat", "6"],
     ["--pi-variant", "row-count"]),
    (["optimize", "--K", "3", "--Nhat", "6"], ["--pi-variant", "row-count"]),
    (["sweep", "--figure", "2a"], ["--pi-variant", "row-count"]),
    (["rank", "--K", "3", "--p", "0.6"], ["--seed", "1"]),
    (["rank", "--K", "3", "--p", "0.6"], ["--mode", "consistent"]),
    (["chain", "--K", "3", "--p", "0.6", "--Nhat", "6"], ["--seed", "1"]),
    (["simulate", "--K", "3", "--p", "0.6", "--Nhat", "6"],
     ["--mode", "consistent"]),
    (["optimize", "--K", "3", "--Nhat", "6"], ["--seed", "1"]),
    (["optimize", "--K", "3", "--Nhat", "6"], ["--tol", "1e-6"]),
], ids=["rank", "chain", "optimize", "sweep", "rank-seed", "rank-mode",
        "chain-seed", "simulate-mode", "optimize-seed", "optimize-tol"])
def test_retired_recursion_flag_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_an_abbreviated_flag_is_a_usage_error(capsys):
    # optimize has no --p; argparse's prefix matching used to read it as
    # --p-max and solve with p_max = 0.6
    with pytest.raises(SystemExit) as exc:
        _run(capsys, ["optimize", "--K", "20", "--Nhat", "40", "--eps-b",
                      "0.05", "--eps-e", "0.2", "--p", "0.6"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --p 0.6" in captured.err


_RANK =["rank", "--K", "3", "--q", "2", "--p", "0.6"]


# The CSV header is the JSON records' keys in order; rank's records carry
# oracle (null without --with-oracle), its CSV shows it only with the flag.
@pytest.mark.parametrize("argv", [
    ["chain", "--K", "4", "--q", "2", "--p", "0.6", "--Nhat", "10",
     "--eps-b", "0.05", "--eps-e", "0.3", "--eps-k", "0.9"],
    ["simulate", "--K", "4", "--p", "0.7", "--Nhat", "10", "--eps-b", "0.05",
     "--eps-e", "0.3", "--eps-k", "0.5", "--trials", "300", "--seed", "11"],
    ["optimize", "--K", "5", "--Nhat", "17", "--eps-b", "0.05",
     "--eps-e", "0.2", "--Dhat", "1.0"],
    ["sweep", "--figure", "1a", "--K", "3", "--eps-b", "0.05",
     "--eps-k", "1.0", "--trials", "20", "--seed", "3"],
    _RANK,
    _RANK + ["--with-oracle"],
], ids=["chain", "simulate", "optimize-infeasible", "sweep-1a", "rank",
        "rank-oracle"])
def test_json_format_carries_the_same_records(capsys, argv):
    rc, csv_out, _ = _run(capsys, argv)
    json_rc, json_out, _ = _run(capsys, argv + ["--format", "json"])
    assert json_rc == rc
    doc = json.loads(json_out)
    assert list(doc["meta"]) == ["command", "seed", "mode", "version"]
    assert doc["meta"]["version"] == "0.1.0"
    lines = csv_out.splitlines()
    assert lines[1:4] == [f"# {k} = {v}" for k, v in doc["meta"].items()][1:]
    header, *rows = lines[4:]
    keys = list(doc["records"][0])
    if argv == _RANK:
        assert all(rec["oracle"] is None for rec in doc["records"])
        keys.remove("oracle")
    assert header.split(",") == keys
    assert len(rows) == len(doc["records"])
    for rec, row in zip(doc["records"], rows):
        assert list(rec) == list(doc["records"][0])
        assert row.split(",") == [cli._fmt(rec[k]) for k in keys]


def test_sweep_figure1_panel_schema(capsys):
    argv = ["sweep", "--figure", "1a", "--K", "4", "--eps-b", "0.05",
            "--eps-k", "1.0", "--trials", "50", "--seed", "3"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 9  # q=2 sparsity grid 0.50 .. 0.90
    assert [r["p"] for r in rows] == [repr(round(0.5 + 0.05 * i, 2))
                                      for i in range(9)]
    probe = rows[3]
    code = CodeParams(K=4, q=2, p=float(probe["p"]), n_hat=8)
    chan = ChannelParams(0.05, 0.3, 1.0)
    P = build_chain(code, chan, "paper-exact")
    assert float(probe["intercept_theory"]) == intercept_probability(P, 8)
    assert float(probe["delivery_theory"]) == delivery_probability(code, chan)
    for r in rows:
        assert 0.0 <= float(r["intercept_hat"]) <= 1.0
        assert r["trials"] == "50"


def test_sweep_figure2_panel_schema(capsys):
    argv = ["sweep", "--figure", "2a", "--K", "5", "--q", "2",
            "--eps-k", "1.0", "--trials", "40", "--seed", "2"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    rows = _rows(out)
    assert [int(r["N_hat"]) for r in rows] == list(range(6, 21))
    for r in rows:
        assert r["status"] in ("interior-root", "saturated-at-pmax",
                               "infeasible")
        if r["status"] == "infeasible":
            assert r["gain"] == ""
        else:
            assert float(r["ci_low"]) <= float(r["gain"]) <= float(r["ci_high"])
            assert 0.5 <= float(r["p_star"]) <= 0.95
        assert r["eps_B"] == "0.05" and r["eps_E"] == "0.2"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_cli_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(srlnc.__file__))
    check = ("import srlnc.cli, sys; "
             "assert not any(m.startswith('scipy') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", check], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_pulls_in_no_hashlib_or_multiprocessing():
    # hashlib (OpenSSL) serves only the figure-2 leg seeds, and
    # multiprocessing only estimate(workers > 1); both load where used
    src = os.path.dirname(os.path.dirname(srlnc.__file__))
    check = ("import srlnc.cli, sys; "
             "bad = [m for m in sys.modules if m.split('.')[0] in "
             "('hashlib', '_hashlib', 'concurrent', 'multiprocessing')]; "
             "assert not bad, bad")
    subprocess.run([sys.executable, "-c", check], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
