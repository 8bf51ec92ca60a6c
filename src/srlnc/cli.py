"""Command-line front end.

Subcommands:

* ``rank``: innovation and full-rank probability tables for one (K, q, p).
* ``chain``: analytical intercept and delivery for one parameter point.
* ``simulate``: Monte Carlo estimates for one parameter point.
* ``optimize``: solve the constrained sparsity problem once.
* ``sweep``: reproduce a whole figure panel (grids of the above).

Output is CSV on stdout by default: ``#``-prefixed metadata lines (command,
seed, mode, version), the record keys as header, then one row per grid point.
``--seed`` is taken by ``simulate`` and ``sweep``, the only subcommands that
draw random numbers, and ``--mode`` by ``chain``, ``optimize`` and ``sweep``,
the ones that build a chain; elsewhere the metadata records the fixed value
(seed 0, mode paper-exact).  ``optimize`` builds the chain only to print the
intercepts at p* and at 1/q; the solve itself reads delivery alone.  On
``sweep``, ``--mode`` changes the figure-1 panels only: the figure-2 gain
curves are simulated.
Flags are spelled in full: ``--p`` is not read as ``--p-max``.
``--format json`` emits the same content as ``{"meta": ..., "records": ...}``.
``--out FILE`` redirects to a file.  Numbers are rendered with repr so files
are byte-stable across runs; re-running the command recorded in the metadata
reproduces the file exactly.

Parameters can also come from an INI-style config file (``--config``): keys
in any section, ``[DEFAULT]`` included, match the long flag names with
underscores (``eps_b = 0.05``); explicit flags win over file values.  A
file value for ``format`` or ``mode`` must be one of the flag's choices, and
a file configparser cannot read exits 2.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 numerical
integrity failure, 4 infeasible optimization (the row is still written, with
its status field set).
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import shlex
import sys

from . import __version__
from .chain import (
    ChannelParams,
    DEFAULT_MODE,
    TRANSITION_MODES,
    build_chain,
    chain_delivery_probability,
    delivery_probability,
    intercept_probability,
)
from .coding import CodeParams
from .errors import ConfigError, NumericalIntegrityError
from .optimize import ImConfig, intercept_gain, solve_im
from .rank import RankTables, exact_full_rank_prob, exact_innovation_prob
from .sim import SimConfig, estimate

log = logging.getLogger(__name__)

FIGURES = ("1a", "1b", "2a", "2b", "2c", "2d")

# Every parameter: name -> (type, or a tuple of choices; hard default; help).
# Its flag is "--" + name with dashes for underscores, and every name but
# out is also a --config key.  A None default leaves the value to the
# subcommand: trials is 20000 in simulate and figure-1 sweeps, 10000 in the
# much heavier gain curves of figure 2.
_PARAMS = {
    "K": (int, None, "generation size (source packets)"),
    "q": (int, 2, "field order, a power of two up to 256"),
    "p": (float, None, "coefficient zero-probability in [1/q, 1)"),
    "Nhat": (int, None, "transmission budget in slots"),
    "eps_b": (float, 0.0, "legitimate receiver erasure probability"),
    "eps_e": (float, 0.0, "eavesdropper erasure probability"),
    "eps_k": (float, 1.0, "feedback (ACK) erasure probability"),
    "trials": (int, None, "Monte Carlo trials per point"),
    "seed": (int, 0, "base RNG seed"),
    "mode": (TRANSITION_MODES, DEFAULT_MODE, "transition-matrix variant"),
    "threads": (int, 1, "worker processes for simulation"),
    "out": (str, None, "output path (default: stdout)"),
    "format": (("csv", "json"), "csv", "output format"),
    "Dhat": (float, 0.99, "delivery floor for the optimizer"),
    "p_max": (float, 0.95, "upper end of the sparsity search"),
    "tol": (float, 1e-6, "delivery tolerance of the bisection"),
}

# add_argument keywords of every flag, by name: the parameters, which start
# as None so that _apply_config can tell an absent flag, then the rest.
_FLAGS = {
    name: dict(default=None, help=help_text,
               **(dict(choices=kind) if isinstance(kind, tuple)
                  else dict(type=kind)))
    for name, (kind, _, help_text) in _PARAMS.items()
} | {
    "figure": dict(required=True, choices=FIGURES),
    "config": dict(default=None,
                   help="INI file with parameter defaults (flags win)"),
    "with_oracle": dict(action="store_true",
                        help="add an exact enumeration column (small K only)"),
    "dump_matrix": dict(default=None, metavar="PATH", help="also write the "
                        "transition matrix as (row, col, prob)"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_flags(parser: argparse.ArgumentParser,
               command: str) -> argparse.ArgumentParser:
    for name in _COMMANDS[command][1]:
        parser.add_argument(_flag(name), **_FLAGS[name])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlnc",
        description="Sparse network-coded broadcast: interception analysis, "
                    "simulation, and sparsity optimization.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_flags(subs.add_parser(name, help=help_text, allow_abbrev=False),
                   name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with argv[0]'s subcommand parser alone when it takes the whole
    call, else with the whole parser, which prints argparse's own errors."""
    if argv and argv[0] in _COMMANDS:
        parser = _add_flags(argparse.ArgumentParser(
            prog=f"srlnc {argv[0]}", allow_abbrev=False), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _apply_config(args: argparse.Namespace) -> None:
    """Fill None-valued entries from the config file, then hard defaults."""
    from_file: dict[str, object] = {}
    if getattr(args, "config", None):
        ini = configparser.ConfigParser()
        ini.optionxform = str  # keys like K and Dhat are case-sensitive
        try:
            read = ini.read(args.config)
            # [DEFAULT] first, then each section with the defaults merged in
            items = [item for section in ini.values()
                     for item in section.items()]
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {args.config}: "
                              + " ".join(str(exc).split())) from exc
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        for key, raw in items:
            if key not in _PARAMS or key == "out":
                raise ConfigError(
                    f"unknown key {key!r} in config file {args.config}"
                )
            kind = _PARAMS[key][0]
            if isinstance(kind, tuple):
                if raw not in kind:
                    raise ConfigError(
                        f"bad value for {key!r} in {args.config}: {raw!r}; "
                        f"choose from {', '.join(kind)}"
                    )
                from_file[key] = raw
                continue
            try:
                from_file[key] = kind(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in {args.config}: {raw!r}"
                ) from exc
    # sweep reads None as "cover the whole preset family" for these, so the
    # hard defaults must not stand in for an absent flag there; explicit
    # config-file values still apply.
    skip_defaults = (
        {"K", "q", "eps_b", "eps_k"} if args.command == "sweep" else set()
    )
    for key in vars(args):
        if getattr(args, key) is None:
            if key in from_file:
                setattr(args, key, from_file[key])
            elif key in _PARAMS and key not in skip_defaults:
                setattr(args, key, _PARAMS[key][1])


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(
            "missing required parameter(s): "
            + ", ".join(_flag(n) for n in missing)
        )


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(records: list[dict], meta: dict, out: str | None, fmt: str,
          columns: list[str] | None = None) -> None:
    """Write JSON, or CSV headed by the records' keys or by columns."""
    if fmt == "json":
        text = json.dumps({"meta": meta, "records": records}, indent=2) + "\n"
    else:
        columns = columns or list(records[0])
        lines = [f"# {k} = {v}" for k, v in meta.items()]
        lines.append(",".join(columns))
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args: argparse.Namespace, argv: list[str]) -> dict:
    return {
        "command": "srlnc " + " ".join(shlex.quote(a) for a in argv),
        "seed": getattr(args, "seed", 0),
        "mode": getattr(args, "mode", DEFAULT_MODE),
        "version": __version__,
    }


# -- subcommands --------------------------------------------------------------


def _cmd_rank(args: argparse.Namespace, argv: list[str]) -> int:
    _require(args, "K", "p")
    n_hat = args.Nhat if args.Nhat is not None else 2 * args.K
    tables = RankTables(args.K, args.q, args.p)
    # W first, then the full-rank column, so their warnings keep this order
    rows = [("innovation", t, w) for t, w in enumerate(tables.W)]
    if n_hat >= args.K:
        rows += [("full_rank", r, v) for r, v in enumerate(
            tables.full_rank_probs(args.K, n_hat).tolist(), start=args.K)]
    oracles = {"innovation": exact_innovation_prob,
               "full_rank": exact_full_rank_prob}
    records = []
    for kind, index, value in rows:
        rec = {"K": args.K, "q": args.q, "p": args.p, "kind": kind,
               "index": index, "value": value, "oracle": None}
        if args.with_oracle:
            try:
                rec["oracle"] = oracles[kind](index, args.K, args.p, args.q)
            except ConfigError:
                pass  # enumeration too large; leave the cell empty
        records.append(rec)
    # JSON records always carry oracle; the CSV column only with the flag
    columns = [c for c in records[0] if args.with_oracle or c != "oracle"]
    _emit(records, _meta(args, argv), args.out, args.format, columns)
    return 0


def _cmd_chain(args: argparse.Namespace, argv: list[str]) -> int:
    _require(args, "K", "p", "Nhat")
    code = CodeParams(K=args.K, q=args.q, p=args.p, n_hat=args.Nhat)
    chan = ChannelParams(args.eps_b, args.eps_e, args.eps_k)
    P = build_chain(code, chan, args.mode)
    record = {
        "p": args.p, "N_hat": args.Nhat,
        "I": intercept_probability(P, args.Nhat),
        "D": delivery_probability(code, chan),
        "I_chain_delivery": chain_delivery_probability(P, args.Nhat),
        "K": args.K, "q": args.q, "eps_B": args.eps_b, "eps_E": args.eps_e,
        "eps_K": args.eps_k, "mode": args.mode,
    }
    _emit([record], _meta(args, argv), args.out, args.format)
    if args.dump_matrix:
        rows = [{"row": i, "col": j, "prob": v} for i, j, v in P.triplets()]
        _emit(rows, _meta(args, argv), args.dump_matrix, "csv")
    return 0


def _cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    _require(args, "K", "p", "Nhat")
    code = CodeParams(K=args.K, q=args.q, p=args.p, n_hat=args.Nhat)
    chan = ChannelParams(args.eps_b, args.eps_e, args.eps_k)
    trials = args.trials if args.trials is not None else 20000
    cfg = SimConfig(code=code, chan=chan, trials=trials,
                    base_seed=args.seed)
    stats = estimate(cfg, workers=args.threads)
    record = {
        "p": args.p, "N_hat": args.Nhat, "eps_B": args.eps_b,
        "eps_E": args.eps_e, "eps_K": args.eps_k, "K": args.K, "q": args.q,
        "trials": trials, "intercept_hat": stats.intercept_hat,
        "delivery_hat": stats.delivery_hat, "ci": stats.intercept_ci,
        "mean_slots": stats.mean_slots,
    }
    _emit([record], _meta(args, argv), args.out, args.format)
    return 0


def _cmd_optimize(args: argparse.Namespace, argv: list[str]) -> int:
    _require(args, "K", "Nhat")
    code = CodeParams(K=args.K, q=args.q, p=1.0 / args.q, n_hat=args.Nhat)
    chan = ChannelParams(args.eps_b, args.eps_e, args.eps_k)
    cfg = ImConfig(code=code, chan=chan, d_hat=args.Dhat, p_max=args.p_max,
                   tol=args.tol)
    sol = solve_im(cfg)

    def intercept(p: float) -> float:
        at = CodeParams(K=args.K, q=args.q, p=p, n_hat=args.Nhat)
        P = build_chain(at, chan, args.mode)
        return intercept_probability(P, args.Nhat)

    classic = intercept(code.p)  # priced first: its chain warns before p*'s
    at_star = None if sol.p_star is None else intercept(sol.p_star)
    if at_star is not None and at_star > classic:
        log.warning("the chain prices p*=%r above classic coding: intercept "
                    "%r > intercept_classic %r; p* is the delivery root, which"
                    " minimises the intercept only where the intercept falls "
                    "with p", sol.p_star, at_star, classic)
    record = {
        "K": args.K, "q": args.q, "N_hat": args.Nhat, "D_hat": args.Dhat,
        "p_star": sol.p_star, "status": sol.status, "delivery": sol.delivery,
        "intercept": at_star, "intercept_classic": classic,
        "iterations": sol.iterations, "mode": args.mode,
    }
    _emit([record], _meta(args, argv), args.out, args.format)
    return 4 if sol.status == "infeasible" else 0


# Figure presets.  Channel families follow the reference parameter sets; the
# budget grids cover the ranges the corresponding plots display.
_FIG1_EPS_B = (0.01, 0.05, 0.1)
_FIG1_EPS_K = (0.0, 0.5, 0.85, 0.9, 0.95, 1.0)
_FIG2_CHANNELS = {"2a": (0.05, 0.2), "2b": (0.05, 0.3),
                  "2c": (0.1, 0.25), "2d": (0.1, 0.35)}
_FIG2_EPS_K = (0.85, 0.9, 0.95, 1.0)
_FIG2_K = (5, 20)
_FIG2_Q = (2, 16)


def _fig1_p_grid(q: int) -> list[float]:
    if q == 2:
        return [round(0.50 + 0.05 * i, 2) for i in range(9)]
    return [1.0 / q] + [round(0.10 + 0.05 * i, 2) for i in range(17)]


def _fig2_nhat_grid(K: int, q: int) -> list[int]:
    stop = 4 * K if q == 2 else min(16 * K, 100)
    return list(range(K + 1, stop + 1))


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    if args.figure in ("1a", "1b"):
        q = 2 if args.figure == "1a" else 16
        if args.q is not None and args.q != q:
            raise ConfigError(
                f"figure {args.figure} is the q={q} panel; drop --q or "
                "pick the other panel"
            )
        K = args.K if args.K is not None else 20
        n_hat = 2 * K
        eps_bs = [args.eps_b] if args.eps_b is not None else list(_FIG1_EPS_B)
        eps_ks = [args.eps_k] if args.eps_k is not None else list(_FIG1_EPS_K)
        trials = args.trials if args.trials is not None else 20000
        records = []
        for eps_b in eps_bs:
            eps_e = round(eps_b + 0.25, 6)
            for p in _fig1_p_grid(q):
                code = CodeParams(K=K, q=q, p=p, n_hat=n_hat)
                # Delivery reads eps_b only, so one evaluation serves every eps_k.
                delivery = delivery_probability(
                    code, ChannelParams(eps_b, eps_e, eps_ks[0]))
                for eps_k in eps_ks:
                    chan_k = ChannelParams(eps_b, eps_e, eps_k)
                    P = build_chain(code, chan_k, args.mode)
                    stats = estimate(
                        SimConfig(code=code, chan=chan_k, trials=trials,
                                  base_seed=args.seed),
                        workers=args.threads,
                    )
                    records.append({
                        "figure": args.figure, "K": K, "q": q, "N_hat": n_hat,
                        "eps_B": eps_b, "eps_E": eps_e, "eps_K": eps_k, "p": p,
                        "trials": trials,
                        "intercept_theory": intercept_probability(P, n_hat),
                        "intercept_hat": stats.intercept_hat,
                        "ci": stats.intercept_ci,
                        "delivery_theory": delivery,
                        "delivery_hat": stats.delivery_hat,
                        "mean_slots": stats.mean_slots,
                    })
        _emit(records, _meta(args, argv), args.out, args.format)
        return 0

    eps_b_panel, eps_e_panel = _FIG2_CHANNELS[args.figure]
    if args.eps_b is not None and args.eps_b != eps_b_panel:
        raise ConfigError(
            f"figure {args.figure} is the eps_b={eps_b_panel} panel; "
            "drop --eps-b or pick the matching panel"
        )
    Ks = [args.K] if args.K is not None else list(_FIG2_K)
    qs = [args.q] if args.q is not None else list(_FIG2_Q)
    eps_ks = [args.eps_k] if args.eps_k is not None else list(_FIG2_EPS_K)
    trials = args.trials if args.trials is not None else 10000
    records = []
    for K in Ks:
        for q in qs:
            for eps_k in eps_ks:
                chan = ChannelParams(eps_b_panel, eps_e_panel, eps_k)
                code = CodeParams(K=K, q=q, p=1.0 / q, n_hat=2 * K)
                cfg = ImConfig(code=code, chan=chan, d_hat=args.Dhat,
                               p_max=args.p_max)
                points = intercept_gain(
                    cfg, _fig2_nhat_grid(K, q), trials=trials,
                    base_seed=args.seed, workers=args.threads,
                )
                for pt in points:
                    records.append({
                        "N_hat": pt.n_hat, "p_star": pt.p_star,
                        "status": pt.status,
                        "I_classic": pt.intercept_classic,
                        "I_opt": pt.intercept_opt, "gain": pt.gain,
                        "ci_low": pt.ci_low, "ci_high": pt.ci_high,
                        "figure": args.figure, "K": K, "q": q,
                        "eps_B": eps_b_panel, "eps_E": eps_e_panel,
                        "eps_K": eps_k, "D_hat": args.Dhat, "trials": trials,
                    })
    if not records:  # the q > 2 grids end at N_hat = 100
        raise ConfigError(f"figure {args.figure} has no budget above "
                          f"K={args.K} at q={args.q}")
    _emit(records, _meta(args, argv), args.out, args.format)
    return 0


# Every subcommand: name -> (help, its flags in --help order, handler).
_COMMANDS = {
    "rank": ("innovation/full-rank probability tables",
             ("K", "q", "p", "Nhat", "out", "format", "config", "with_oracle"),
             _cmd_rank),
    "chain": ("analytical intercept and delivery",
              ("K", "q", "p", "Nhat", "eps_b", "eps_e", "eps_k", "mode", "out",
               "format", "config", "dump_matrix"),
              _cmd_chain),
    "simulate": ("Monte Carlo protocol simulation",
                 ("K", "q", "p", "Nhat", "eps_b", "eps_e", "eps_k", "trials",
                  "seed", "threads", "out", "format", "config"),
                 _cmd_simulate),
    "optimize": ("solve the sparsity optimization",
                 ("K", "q", "Nhat", "eps_b", "eps_e", "eps_k", "Dhat",
                  "p_max", "tol", "mode", "out", "format", "config"),
                 _cmd_optimize),
    "sweep": ("reproduce one figure panel",
              ("figure", "K", "q", "eps_b", "eps_k", "Dhat", "p_max", "trials",
               "seed", "threads", "mode", "out", "format", "config"),
              _cmd_sweep),
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parse(argv)
    try:
        _apply_config(args)
        return _COMMANDS[args.command][2](args, argv)
    except ConfigError as exc:
        print(f"srlnc: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalIntegrityError as exc:
        print(f"srlnc: numerical integrity failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"srlnc: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
