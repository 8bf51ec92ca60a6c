"""The CLI's help, usage-error and version output, pinned byte for byte.

A call that starts with a subcommand is parsed by that subcommand's parser
alone, and every other call, or one that leaves arguments over, by the
whole parser.  These cases fix what that must not change: the top-level
help and usage line, every subcommand's help, argparse's own errors, and
what the two parse paths make of the same arguments.  COLUMNS is set so
argparse wraps at 80 columns whatever the terminal.
"""

import argparse
import contextlib

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
    parsers, added = [], []
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def recording_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    def recording_add(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording_add)
    assert cli.main(["chain", "--K", "3", "--p", "0.6", "--Nhat", "6"]) == 0
    capsys.readouterr()
    assert [parser.prog for parser in parsers] == ["srlnc chain"]
    assert added == [("srlnc chain", flag) for flag in (
        "-h", "--K", "--q", "--p", "--Nhat", "--eps-b", "--eps-e", "--eps-k",
        "--mode", "--out", "--format", "--config", "--dump-matrix")]


_C = ["--K", "3", "--p", "0.6", "--Nhat", "6"]

# (argv, accepted): each is parsed by cli._parse and by the whole parser
_BOTH_PATHS = [
    (["rank", "--K", "3", "--p", "0.6", "--with-oracle"], True),
    (["chain", *_C, "--mode", "consistent", "--dump-matrix", "m.csv"], True),
    (["simulate", *_C, "--trials", "50", "--seed", "4", "--threads", "2"],
     True),
    (["optimize", "--K", "3", "--Nhat", "6", "--Dhat", "0.9"], True),
    (["sweep", "--figure", "2a", "--K", "5", "--format", "json"], True),
    (["chain"], True),
    # abbreviations are refused: --Nh is not --Nhat, optimize's --p not --p-max
    (["chain", "--Nh", "6", "--eps-b", "0.1"], False),
    (["optimize", "--p", "0.9"], False),
    (["chain", "--K=3", "--eps-k=0.5", "--format=json"], True),
    (["chain", "--K", "2", "--K", "3"], True),
    (["chain", "--config", "run.ini", "--K", "3"], True),
    (["chain", "--eps-b", "-0.5"], True),
    (["chain", "--eps", "0.1"], False),
    (["chain", "--K", "x"], False),
    (["chain", "--K"], False),
    (["sweep"], False),
    (["sweep", "--figure", "9z"], False),
    (["chain", "-h"], False),
    (["sweep", "--help", "--bogus"], False),
    # arguments left over after a valid call
    (["chain", *_C, "extra"], False),
    (["chain", "--bogus", "1"], False),
    (["chain", *_C, "--"], False),
    (["chain", "--", *_C], False),
    (["chain", "--version"], False),
    (["rank", "--K", "3", "--version"], False),
    (["chain", *_C, "chain"], False),
    # no subcommand first
    ([], False),
    (["bogus"], False),
    (["--K", "3", "chain"], False),
    (["--version", "chain"], False),
    (["-h", "rank"], False),
]


def _outcome(capsys, parse, argv):
    """The namespace as a dict, or the exit code, with stdout and stderr."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv,accepted", _BOTH_PATHS,
                         ids=[" ".join(row[0]) or "no-args"
                              for row in _BOTH_PATHS])
def test_both_parse_paths_agree(capsys, monkeypatch, argv, accepted):
    monkeypatch.setenv("COLUMNS", "80")
    fast = _outcome(capsys, cli._parse, argv)
    whole = _outcome(capsys, lambda a: cli._build_parser().parse_args(a), argv)
    assert fast == whole
    assert isinstance(fast[0], dict) == accepted


def test_each_subcommand_parser_has_the_whole_parsers_help(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built = {}
    add_flags = cli._add_flags

    def recording(parser, command):
        built.setdefault(command, []).append(parser)
        return add_flags(parser, command)

    monkeypatch.setattr(cli, "_add_flags", recording)
    cli._build_parser()
    for command in cli._COMMANDS:
        with contextlib.suppress(SystemExit):
            cli._parse([command, "--help"])
    capsys.readouterr()
    assert list(built) == list(cli._COMMANDS)
    for command, (subparser, standalone) in built.items():
        assert standalone is not subparser
        assert standalone.prog == subparser.prog == f"srlnc {command}"
        assert standalone.format_help() == subparser.format_help()
