"""The CLI's help, usage-error and version output, pinned byte for byte.

Each subcommand's arguments are added only when argparse selects it, so
these cases fix what that must not change: the top-level help and usage
line, every subcommand's help, and argparse's own errors.  COLUMNS is set
so argparse wraps at 80 columns whatever the terminal.
"""

import argparse

import pytest

from srlnc import cli

# (argv, exit code, stdout, stderr)
_PINNED = [
    (["--help"], 0,
     """\
usage: srlnc [-h] [--version] {rank,chain,simulate,optimize,sweep} ...

Sparse network-coded broadcast: interception analysis, simulation, and
sparsity optimization.

positional arguments:
  {rank,chain,simulate,optimize,sweep}
    rank                innovation/full-rank probability tables
    chain               analytical intercept and delivery
    simulate            Monte Carlo protocol simulation
    optimize            solve the sparsity optimization
    sweep               reproduce one figure panel

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
     ""),
    (["rank", "--help"], 0,
     """\
usage: srlnc rank [-h] [--K K] [--q Q] [--p P] [--Nhat NHAT] [--out OUT]
                  [--format {csv,json}] [--config CONFIG] [--with-oracle]

options:
  -h, --help           show this help message and exit
  --K K                generation size (source packets)
  --q Q                field order, a power of two up to 256
  --p P                coefficient zero-probability in [1/q, 1)
  --Nhat NHAT          transmission budget in slots
  --out OUT            output path (default: stdout)
  --format {csv,json}  output format
  --config CONFIG      INI file with parameter defaults (flags win)
  --with-oracle        add an exact enumeration column (small K only)
""",
     ""),
    (["chain", "--help"], 0,
     """\
usage: srlnc chain [-h] [--K K] [--q Q] [--p P] [--Nhat NHAT] [--eps-b EPS_B]
                   [--eps-e EPS_E] [--eps-k EPS_K]
                   [--mode {paper-exact,consistent}] [--out OUT]
                   [--format {csv,json}] [--config CONFIG]
                   [--dump-matrix PATH]

options:
  -h, --help            show this help message and exit
  --K K                 generation size (source packets)
  --q Q                 field order, a power of two up to 256
  --p P                 coefficient zero-probability in [1/q, 1)
  --Nhat NHAT           transmission budget in slots
  --eps-b EPS_B         legitimate receiver erasure probability
  --eps-e EPS_E         eavesdropper erasure probability
  --eps-k EPS_K         feedback (ACK) erasure probability
  --mode {paper-exact,consistent}
                        transition-matrix variant
  --out OUT             output path (default: stdout)
  --format {csv,json}   output format
  --config CONFIG       INI file with parameter defaults (flags win)
  --dump-matrix PATH    also write the transition matrix as (row, col, prob)
""",
     ""),
    (["simulate", "--help"], 0,
     """\
usage: srlnc simulate [-h] [--K K] [--q Q] [--p P] [--Nhat NHAT]
                      [--eps-b EPS_B] [--eps-e EPS_E] [--eps-k EPS_K]
                      [--trials TRIALS] [--seed SEED] [--threads THREADS]
                      [--out OUT] [--format {csv,json}] [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --K K                generation size (source packets)
  --q Q                field order, a power of two up to 256
  --p P                coefficient zero-probability in [1/q, 1)
  --Nhat NHAT          transmission budget in slots
  --eps-b EPS_B        legitimate receiver erasure probability
  --eps-e EPS_E        eavesdropper erasure probability
  --eps-k EPS_K        feedback (ACK) erasure probability
  --trials TRIALS      Monte Carlo trials per point
  --seed SEED          base RNG seed
  --threads THREADS    worker processes for simulation
  --out OUT            output path (default: stdout)
  --format {csv,json}  output format
  --config CONFIG      INI file with parameter defaults (flags win)
""",
     ""),
    (["optimize", "--help"], 0,
     """\
usage: srlnc optimize [-h] [--K K] [--q Q] [--Nhat NHAT] [--eps-b EPS_B]
                      [--eps-e EPS_E] [--eps-k EPS_K] [--Dhat DHAT]
                      [--p-max P_MAX] [--tol TOL]
                      [--mode {paper-exact,consistent}] [--out OUT]
                      [--format {csv,json}] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --K K                 generation size (source packets)
  --q Q                 field order, a power of two up to 256
  --Nhat NHAT           transmission budget in slots
  --eps-b EPS_B         legitimate receiver erasure probability
  --eps-e EPS_E         eavesdropper erasure probability
  --eps-k EPS_K         feedback (ACK) erasure probability
  --Dhat DHAT           delivery floor for the optimizer
  --p-max P_MAX         upper end of the sparsity search
  --tol TOL             delivery tolerance of the bisection
  --mode {paper-exact,consistent}
                        transition-matrix variant
  --out OUT             output path (default: stdout)
  --format {csv,json}   output format
  --config CONFIG       INI file with parameter defaults (flags win)
""",
     ""),
    (["sweep", "--help"], 0,
     """\
usage: srlnc sweep [-h] --figure {1a,1b,2a,2b,2c,2d} [--K K] [--q Q]
                   [--eps-b EPS_B] [--eps-k EPS_K] [--Dhat DHAT]
                   [--p-max P_MAX] [--trials TRIALS] [--seed SEED]
                   [--threads THREADS] [--mode {paper-exact,consistent}]
                   [--out OUT] [--format {csv,json}] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --figure {1a,1b,2a,2b,2c,2d}
  --K K                 generation size (source packets)
  --q Q                 field order, a power of two up to 256
  --eps-b EPS_B         legitimate receiver erasure probability
  --eps-k EPS_K         feedback (ACK) erasure probability
  --Dhat DHAT           delivery floor for the optimizer
  --p-max P_MAX         upper end of the sparsity search
  --trials TRIALS       Monte Carlo trials per point
  --seed SEED           base RNG seed
  --threads THREADS     worker processes for simulation
  --mode {paper-exact,consistent}
                        transition-matrix variant
  --out OUT             output path (default: stdout)
  --format {csv,json}   output format
  --config CONFIG       INI file with parameter defaults (flags win)
""",
     ""),
    ([], 2,
     "",
     """\
usage: srlnc [-h] [--version] {rank,chain,simulate,optimize,sweep} ...
srlnc: error: the following arguments are required: command
"""),
    (["bogus"], 2,
     "",
     """\
usage: srlnc [-h] [--version] {rank,chain,simulate,optimize,sweep} ...
srlnc: error: argument command: invalid choice: 'bogus' (choose from 'rank', 'chain', 'simulate', 'optimize', 'sweep')
"""),
    (["chain", "--K", "x"], 2,
     "",
     """\
usage: srlnc chain [-h] [--K K] [--q Q] [--p P] [--Nhat NHAT] [--eps-b EPS_B]
                   [--eps-e EPS_E] [--eps-k EPS_K]
                   [--mode {paper-exact,consistent}] [--out OUT]
                   [--format {csv,json}] [--config CONFIG]
                   [--dump-matrix PATH]
srlnc chain: error: argument --K: invalid int value: 'x'
"""),
    (["chain", "--bogus", "1"], 2,
     "",
     """\
usage: srlnc [-h] [--version] {rank,chain,simulate,optimize,sweep} ...
srlnc: error: unrecognized arguments: --bogus 1
"""),
    (["sweep", "--figure", "9z"], 2,
     "",
     """\
usage: srlnc sweep [-h] --figure {1a,1b,2a,2b,2c,2d} [--K K] [--q Q]
                   [--eps-b EPS_B] [--eps-k EPS_K] [--Dhat DHAT]
                   [--p-max P_MAX] [--trials TRIALS] [--seed SEED]
                   [--threads THREADS] [--mode {paper-exact,consistent}]
                   [--out OUT] [--format {csv,json}] [--config CONFIG]
srlnc sweep: error: argument --figure: invalid choice: '9z' (choose from '1a', '1b', '2a', '2b', '2c', '2d')
"""),
    (["--version"], 0,
     """\
0.1.0
""",
     ""),
]


@pytest.mark.parametrize("argv,code,out,err", _PINNED,
                         ids=[" ".join(row[0]) or "no-args" for row in _PINNED])
def test_help_usage_and_version_output(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (code, out, err)


def test_only_the_selected_subcommand_gets_its_arguments(capsys, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert cli.main(["chain", "--K", "3", "--p", "0.6", "--Nhat", "6"]) == 0
    capsys.readouterr()
    # building every subcommand's flags takes 67 calls
    assert len(added) < 67
    for name in ("rank", "simulate", "optimize", "sweep"):
        assert [flag for prog, flag in added if prog == f"srlnc {name}"] == ["-h"]
    assert ("srlnc chain", "--dump-matrix") in added
