"""Correctness checks on the output of each op.

Every check compares against a value computed apart from srlnc (see
``reference.py``) or against a property the method must have.  A check
returns a list of problems; an empty list means the op passed.

One fault of the program is kept in the workloads and reported as a failed
op rather than a wrong result: ``chain.intercept_probability`` and
``chain.chain_delivery_probability`` return the summed chain mass without
clamping it to [0, 1].  At q=16 ``srlnc optimize`` prints intercepts of
1.0000000000000002 to ...04 for budgets of 61 and up, and ``srlnc chain``
prints ``I_chain_delivery`` values up to 1.000000000000001 at eps_k = 0.
"""

from __future__ import annotations

import csv
import functools
import io

import reference as ref

TOL = 1e-12
SIGMAS = 4.0
# Step above p_star at which the delivery must already miss the floor.  The
# bisection stops once delivery is within 1e-6 of the floor, and delivery
# falls by at least 0.3 per unit of p near every root in optimize-fig2, so the
# root lies within a few 1e-6 of p_star.
ROOT_STEP = 1e-4
# Lower end of the search above 1/q, as a share of [1/q, p_max], as in
# srlnc.optimize.
LOW_END = 1e-9



def parse(out: str) -> dict[str, str]:
    """The single record of a CSV output, after the ``#`` metadata lines."""
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    if len(rows) != 1:
        raise ValueError(f"expected one record, got {len(rows)}")
    return rows[0]


def _num(rec: dict[str, str], key: str) -> float | None:
    return float(rec[key]) if rec[key] else None


@functools.lru_cache(maxsize=None)
def _classic(n_hat: int, eps: float, K: int, q: int) -> float:
    return float(ref.classic_receive_full_rank(n_hat, eps, K, q))


@functools.lru_cache(maxsize=None)
def _mp_delivery(q: int, p: float, n_hat: int, K: int, eps_b: float) -> float:
    return ref.MpRankModel(q, p).delivery(n_hat, K, eps_b)


def _in_unit(rec: dict[str, str], keys) -> list[str]:
    bad = []
    for key in keys:
        v = _num(rec, key)
        if v is not None and not 0.0 <= v <= 1.0:
            bad.append(f"{key}={v!r} outside [0, 1]")
    return bad


def _unclamped(rec: dict[str, str], keys) -> tuple[list[str], bool]:
    """Range check of fields summed from chain mass without a clamp: a value
    above 1 by rounding only is the kept fault, anything else a problem."""
    bad, fault = [], False
    for key in keys:
        v = _num(rec, key)
        if v is not None and 1.0 < v <= 1.0 + TOL:
            fault = True
        else:
            bad += _in_unit(rec, (key,))
    return bad, fault


def _echo(op, rec: dict[str, str], K: int) -> list[str]:
    """The record must describe the point the op asked for."""
    want = {"K": K, "q": op.q, "N_hat": op.n_hat}
    if op.p is not None:
        want["p"] = op.p
    got = {k: float(rec[k]) for k in want}
    return [] if got == want else [f"record describes {got}, op asked for {want}"]


def check_simulate(op, rc: int, rec: dict[str, str], K: int) -> tuple[list[str], bool]:
    bad = [] if rc == 0 else [f"exit code {rc}"]
    bad += _echo(op, rec, K) + _in_unit(rec, ("intercept_hat", "delivery_hat"))
    i_hat, d_hat = _num(rec, "intercept_hat"), _num(rec, "delivery_hat")
    slots = _num(rec, "mean_slots")
    if not K <= slots <= op.n_hat:
        bad.append(f"mean_slots={slots!r} outside [K, N_hat]")
    if op.eps_k == 1.0 and slots != op.n_hat:
        bad.append(f"mean_slots={slots!r} != N_hat with jammed feedback")
    if op.eps_k == 1.0:
        i_cl = _classic(op.n_hat, op.eps_e, K, op.q)
        i_sig = SIGMAS * ref.smoothed_sigma(i_cl, op.trials)
        if op.p == 1.0 / op.q:
            d_cl = _classic(op.n_hat, op.eps_b, K, op.q)
            d_sig = SIGMAS * ref.smoothed_sigma(d_cl, op.trials)
            if abs(d_hat - d_cl) > d_sig:
                bad.append(f"delivery_hat={d_hat} vs exact {d_cl} beyond {d_sig:.3g}")
            if abs(i_hat - i_cl) > i_sig:
                bad.append(f"intercept_hat={i_hat} vs exact {i_cl} beyond {i_sig:.3g}")
        elif i_hat > i_cl + i_sig:
            bad.append(f"intercept_hat={i_hat} above classic {i_cl} + {i_sig:.3g}")
    return bad, False


def check_chain(op, rc: int, rec: dict[str, str], K: int) -> tuple[list[str], bool]:
    bad = [] if rc == 0 else [f"exit code {rc}"]
    range_bad, fault = _unclamped(rec, ("I", "I_chain_delivery"))
    bad += _echo(op, rec, K) + _in_unit(rec, ("D",)) + range_bad
    i_val, d_val = _num(rec, "I"), _num(rec, "D")
    if op.p == 1.0 / op.q:
        d_ref = _classic(op.n_hat, op.eps_b, K, op.q)
        if op.eps_k == 1.0:
            i_ref = _classic(op.n_hat, op.eps_e, K, op.q)
            if abs(i_val - i_ref) > TOL:
                bad.append(f"I={i_val!r} vs exact classic {i_ref!r}")
    else:
        d_ref = float(_mp_delivery(op.q, op.p, op.n_hat, K, op.eps_b))
    if abs(d_val - d_ref) > TOL:
        bad.append(f"D={d_val!r} vs reference {d_ref!r}")
    return bad, fault


def check_optimize(op, rc: int, rec: dict[str, str], K: int) -> tuple[list[str], bool]:
    """Problems, and whether the op shows the unclamped-intercept fault."""
    status = rec["status"]
    want_rc = 4 if status == "infeasible" else 0
    bad = [] if rc == want_rc else [f"exit code {rc} with status {status!r}"]
    bad += _echo(op, rec, K)
    p_min = 1.0 / op.q
    p_star, delivery = _num(rec, "p_star"), _num(rec, "delivery")

    i_cl = _classic(op.n_hat, op.eps_e, K, op.q)
    if abs(_num(rec, "intercept_classic") - i_cl) > TOL:
        bad.append(f"intercept_classic={rec['intercept_classic']} vs exact {i_cl!r}")

    p_low = p_min + LOW_END * (op.p_max - p_min)
    d_low = _mp_delivery(op.q, p_low, op.n_hat, K, op.eps_b)
    if (status == "infeasible") != (d_low < op.d_hat):
        bad.append(f"status {status!r} but delivery at the lower end is {float(d_low)!r}")

    if status == "infeasible":
        if p_star is not None or delivery is not None:
            bad.append("infeasible record carries a solution")
    elif status in ("interior-root", "saturated-at-pmax"):
        if not p_min <= p_star <= op.p_max:
            bad.append(f"p_star={p_star!r} outside [1/q, p_max]")
        d_ref = _mp_delivery(op.q, p_star, op.n_hat, K, op.eps_b)
        if abs(delivery - float(d_ref)) > TOL:
            bad.append(f"delivery={delivery!r} vs reference {float(d_ref)!r}")
        if d_ref < op.d_hat - TOL:
            bad.append(f"delivery at p_star={p_star!r} is {float(d_ref)!r} < D_hat")
        if status == "interior-root":
            above = _mp_delivery(op.q, p_star + ROOT_STEP, op.n_hat, K, op.eps_b)
            if above >= op.d_hat:
                bad.append(f"delivery {float(above)!r} still meets D_hat "
                           f"{ROOT_STEP} above p_star={p_star!r}")
        elif p_star != op.p_max:
            bad.append(f"saturated at p_star={p_star!r} != p_max")
    else:
        bad.append(f"unknown status {status!r}")

    range_bad, fault = _unclamped(rec, ("intercept", "intercept_classic"))
    return bad + _in_unit(rec, ("p_star", "delivery")) + range_bad, fault
