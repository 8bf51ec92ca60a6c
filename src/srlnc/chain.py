"""Absorbing Markov chain for the intercept analysis.

The chain tracks the pair of decoding defects (packets still missing) of the
legitimate receiver (Bob) and the eavesdropper (Eve), plus a flag saying
whether the source has already heard Bob's acknowledgment.  One transition is
one broadcast slot.  Once the ACK lands the source stops, so those states are
absorbing; Eve's defect is frozen there and becomes the state's whole
identity.

State labels pack the triple into one integer so the transition matrix is
lower triangular:

* ack received (implies Bob done): ``label = eve_defect``, in ``0..K``;
* ack pending: ``label = (bob_defect + 1)(K+1) + eve_defect``.

That gives ``(K+1)(K+2)`` states.  The process starts at ``(K, K, 0)``,
label ``(K+1)^2 + K``, and interception means reaching any state with
``eve_defect == 0``, i.e. the labels ``{t(K+1) : t = 0..K+1}``.

Row i has at most six entries, at the fixed destinations ``i - (2K+3)``,
``i - (2K+2)``, ``i - (K+2)``, ``i - (K+1)``, ``i - 1`` and ``i``.
`build_chain` fills those six cells of every row at once, and the matrix is
kept as that ``(S, 6)`` cell array.  Read by column, label j gathers from
the sources ``j + a + b(K+1)``, a in {0, 1} and b in {0, 1, 2}, so one slot
of propagation multiplies a strided view of the distribution by the
matching cells and sums the six terms.

The per-slot probabilities approximate the coupled rank evolution using the
innovation table ``W(K)`` of the chain's code point ``(q, p)``:  a
receiver at defect d advances with probability ``W[K-d]`` given reception,
and joint advances are bounded by the harder of the two conditions.  The
approximation can overshoot; see ``intercept_probability`` for the
consequences.

Two transition modes exist because the source material for the rows with
``bob_defect == 0`` and ``eve_defect >= 1`` admits two readings of which
absorbing label pairs with "Eve advanced in the stopping slot".  Mode
``"paper-exact"`` keeps the transition structure as originally specified;
mode ``"consistent"`` swaps the two acknowledgment-branch destinations so
that an Eve advance in the final slot lowers her frozen defect.  The modes
coincide whenever the feedback channel is fully jammed (eps_k = 1).
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .coding import ChannelParams, CodeParams
from .errors import ConfigError, NumericalIntegrityError, count
from .rank import _model

log = logging.getLogger(__name__)

TRANSITION_MODES = ("paper-exact", "consistent")
DEFAULT_MODE = "paper-exact"

# Row-sum slack tolerated before a matrix is declared broken.
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ChainState:
    """One state of the chain: both defects plus the ACK flag."""

    bob_defect: int
    eve_defect: int
    ack_received: bool = False


def n_states(K: int) -> int:
    """Total number of reachable states for generation size K."""
    return (K + 1) * (K + 2)


def label_of(state: ChainState, K: int) -> int:
    """Integer label of a reachable state; raises on unreachable ones."""
    d_b = count(state.bob_defect, "bob_defect", high=K)
    d_e = count(state.eve_defect, "eve_defect", high=K)
    if not isinstance(state.ack_received, (bool, np.bool_)):
        raise ConfigError(
            f"ack_received={state.ack_received!r} must be a bool"
        )
    if state.ack_received:
        if d_b != 0:
            raise ConfigError(
                "ack_received requires bob_defect == 0; the source only "
                "receives an ACK after Bob has decoded"
            )
        return d_e
    return (d_b + 1) * (K + 1) + d_e


def state_of(label: int, K: int) -> ChainState:
    """Inverse of label_of."""
    label = count(label, "label", high=n_states(K) - 1)
    if label <= K:
        return ChainState(0, label, True)
    return ChainState(label // (K + 1) - 1, label % (K + 1), False)


def initial_label(K: int) -> int:
    """Label of the start state (both defects at K, no ACK yet)."""
    return (K + 1) ** 2 + K


def intercept_labels(K: int) -> tuple[int, ...]:
    """Labels of all states with eve_defect == 0 (a closed set)."""
    return tuple(t * (K + 1) for t in range(K + 2))


class TransitionMatrix:
    """Sparse row-stochastic transition matrix over the labeled states.

    Stored once, as the ``(S, 6)`` array ``cells``: cell k of row i is the
    probability of moving from label i to label ``i - off[k]``, with ``off``
    from `_layout`, and cells outside the layout hold 0.  triplets() lists
    the layout's cells in row-major order (by source, then by destination),
    explicit zeros included, so every label has at least its self-loop.
    clamp_count records how many bracket terms went negative during
    construction and were clamped to zero; nonzero counts happen only where
    the innovation table itself misbehaves.  Propagated distributions are
    memoised per budget (see distribution), so several readings of one
    budget cost one propagation.
    """

    def __init__(self, K: int, mode: str, cells: np.ndarray,
                 clamp_count: int = 0):
        self.K = K
        self.mode = mode
        self.cells = cells
        self.clamp_count = clamp_count
        self._dists: dict[int, np.ndarray] = {}

    @property
    def n_states(self) -> int:
        return n_states(self.K)

    def distribution(self, n_hat: int) -> np.ndarray:
        """Read-only distribution after n_hat slots from the initial state."""
        n_hat = count(n_hat, "n_hat")  # before the memo, which 2.0 would hit
        dist = self._dists.get(n_hat)
        if dist is None:
            dist = _propagate(self, n_hat)
            dist.flags.writeable = False
            self._dists[n_hat] = dist
        return dist

    def _fail(self, i: int, what: str) -> NumericalIntegrityError:
        """Error naming row label i, its state and the row's entries."""
        off, has = _layout(self.K)
        k = np.flatnonzero(has[i] | (self.cells[i] != 0.0))
        row = dict(zip((i - off[k]).tolist(), self.cells[i, k].tolist()))
        return NumericalIntegrityError(
            f"row {i} ({state_of(i, self.K)}): {what}; row = {row}"
        )

    def verify(self) -> None:
        """Integrity checks; raises NumericalIntegrityError naming the first
        faulty row and the first of its faults."""
        K, cells = self.K, self.cells
        off, has = _layout(K)
        totals = cells.sum(axis=1)
        faults = (  # labels 0..K hold a self-loop of 1 and, by layout, no more
            (((cells[:, 5] != 1.0) & (np.arange(len(cells)) <= K))[:, None],
             "should be absorbing"),
            (~has & (cells != 0.0), "P[{i},{j}] = {v!r} outside the layout"),
            (~((cells >= 0.0) & (cells <= 1.0)),  # NaN included
             "P[{i},{j}] = {v!r} outside [0, 1]"),
            ((np.abs(totals - 1.0) > _ROW_SUM_TOL)[:, None],
             "probabilities sum to {t!r}, off by {d:.3e}"),
        )
        if any(bad.any() for bad, _ in faults):
            rows = np.logical_or.reduce([bad.any(axis=1) for bad, _ in faults])
            i = int(np.argmax(rows))
            bad, what = next((bad, w) for bad, w in faults if bad[i].any())
            k = int(np.argmax(bad[i]))
            raise self._fail(i, what.format(
                i=i, j=i - int(off[k]), v=float(cells[i, k]),
                t=float(totals[i]), d=totals[i] - 1.0))

    def triplets(self) -> list[tuple[int, int, float]]:
        """(row, col, prob) entries in row-major order, for audit dumps."""
        off, has = _layout(self.K)
        src, k = np.nonzero(has)
        return list(zip(src.tolist(), (src - off[k]).tolist(),
                        self.cells[has].tolist()))


@functools.lru_cache(maxsize=64)
def _layout(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (off, has) for generation size K: cell k of row i is the
    entry to label i - off[k]; has marks the cells each row has, explicit
    zeros included."""
    off = np.array([2 * K + 3, 2 * K + 2, K + 2, K + 1, 1, 0])
    has = np.zeros((n_states(K), 6), dtype=bool)
    H = has[K + 1:].reshape(K + 1, K + 1, 6)  # pending labels as [d_b, d_e]
    has[:, 5] = H[:, :, 3] = H[:, 1:, 4] = H[:, 1:, 2] = H[1, :, 1] = True
    H[1, 1:, 0] = True
    off.flags.writeable = has.flags.writeable = False
    return off, has


def build_chain(code: CodeParams, chan: ChannelParams,
                mode: str = DEFAULT_MODE) -> TransitionMatrix:
    """Populate the transition matrix for one parameter set.

    The innovation table ``W(code.K)`` of the shared rank model of
    ``(code.q, code.p)`` is the only rank input the chain uses.  Each class
    of pending states, a slice of the grid G[d_b, d_e], is filled at once
    with the float operations and row-sum order of the row-by-row
    ``tests/oracles.build_chain_reference``, which it equals bit for bit.
    """
    if mode not in TRANSITION_MODES:
        raise ConfigError(f"mode must be one of {TRANSITION_MODES}, got {mode!r}")
    K = code.K
    eb, ee, ek = chan.eps_b, chan.eps_e, chan.eps_k
    # Wd[d] = W[K - d] for a receiver at defect d; the pad at d = 0 is unused.
    Wd = np.array([*_model(code.q, code.p).W(K), 0.0])[::-1]
    d = np.arange(K + 1)
    d_b, d_e, w_b, w_e = d[:, None], d[None, :], Wd[:, None], Wd[None, :]

    # h: Eve advances, Bob does not.  The subtracted term removes the mass
    # where Bob (who receives with probability 1 - eps_b) advances too, which
    # keeps the row marginals consistent with diag, hence substochastic.  v
    # is the mirror image; diag is bounded by the harder (higher-rank) side.
    h_raw = (1.0 - ee) * (w_e - (1.0 - eb) * w_b)
    v_raw = (1.0 - eb) * (w_b - (1.0 - ee) * w_e)
    h_neg = (d_b < d_e) & (h_raw < 0.0)
    v_neg = (d_e < d_b) & (v_raw < 0.0)
    h = np.where(d_b >= d_e, eb * (1.0 - ee) * w_e, np.where(h_neg, 0.0, h_raw))
    v = np.where(d_e >= d_b, ee * (1.0 - eb) * w_b, np.where(v_neg, 0.0, v_raw))
    diag = (1.0 - eb) * (1.0 - ee) * Wd[np.minimum(d_b, d_e)]

    P = np.zeros((n_states(K), 6))
    G = P[K + 1:].reshape(K + 1, K + 1, 6)
    # A: d_b >= 2, d_e >= 1.  B: Bob may finish this slot; his ACK then gets
    # through with probability 1 - eps_k, freezing the chain.
    G[2:, 1:, 4], G[2:, 1:, 3], G[2:, 1:, 2] = h[2:, 1:], v[2:, 1:], diag[2:, 1:]
    G[1, 1:, 4], G[1, 1:, 3], G[1, 1:, 2] = h[1, 1:], ek * v[1, 1:], ek * diag[1, 1:]
    G[1, 1:, 1], G[1, 1:, 0] = (1.0 - ek) * v[1, 1:], (1.0 - ek) * diag[1, 1:]
    # C: Bob already decoded and re-acknowledges every slot.
    advance = (1.0 - ee) * Wd[1:]
    moved, stays = (1.0 - ek) * advance, (1.0 - ek) * (1.0 - advance)
    G[0, 1:, 4] = ek * advance
    moved_to, stays_to = (3, 2) if mode == "paper-exact" else (2, 3)
    G[0, 1:, moved_to], G[0, 1:, stays_to] = moved, stays
    # D, E: Eve is done, Bob is not (in E he may finish and be acknowledged).
    # F: only the ACK is pending.
    G[2:, 0, 3] = (1.0 - eb) * Wd[2:]
    gain = (1.0 - eb) * Wd[1]
    G[1, 0, 1], G[1, 0, 3] = (1.0 - ek) * gain, ek * gain
    G[0, 0, 3] = 1.0 - ek

    # Sum as the row-by-row law lists the entries: h, v, diag in A; B's five
    # from i - 1 down; C's advance, moved, stays in either mode (hence the
    # second line).  E's two terms commute, and one-term rows are exact.
    total = P[:, 4] + P[:, 3] + P[:, 2] + P[:, 1] + P[:, 0]
    total[K + 2:2 * K + 2] = G[0, 1:, 4] + moved + stays
    rest = 1.0 - total
    P[:, 5] = np.where(rest > 0.0, rest, 0.0)
    clamps = int(np.count_nonzero((h_neg | v_neg)[1:, 1:]))  # A and B
    # A non-self total above 1 leaves the self-loop at 0 and fails the row
    # sum, so verify() catches every broken row before anything is logged.
    out = TransitionMatrix(K, mode, P, clamp_count=clamps)
    out.verify()
    if clamps:
        log.warning(
            "%d bracket term(s) clamped to 0 while building the chain at "
            "K=%d p=%g; the innovation table is outside its comfort zone",
            clamps, K, code.p,
        )
    return out


def _propagate(P: TransitionMatrix, n_hat: int) -> np.ndarray:
    """Distribution after n_hat slots, starting from the initial state; n_hat
    comes checked from ``TransitionMatrix.distribution``."""
    K, S = P.K, P.n_states
    reach = 2 * K + 3  # the farthest source lies this far above its label
    cells = np.zeros((S + reach, 6))
    cells[:S] = P.cells
    dist = np.zeros(S + reach)
    dist[initial_label(K)] = 1.0
    # Label j's source j + a + b(K+1) reaches it through cell 5 - 2b - a.
    # Both views run [b, a, j], so each label sums its six terms in ascending
    # source order; zero padding stands in for sources past the last label.
    step = dist.itemsize
    sources = as_strided(dist, (3, 2, S), (step * (K + 1), step, step))
    weights = np.ascontiguousarray(as_strided(
        cells.ravel()[5:], (3, 2, S), (step * (6 * K + 4), step * 5, step * 6)))
    terms = np.empty((6, S))
    for _ in range(n_hat):
        np.multiply(sources, weights, out=terms.reshape(3, 2, S))
        np.add.reduce(terms, axis=0, out=dist[:S])
    return dist[:S]


def intercept_probability(P: TransitionMatrix, n_hat: int) -> float:
    """Probability that Eve has decoded within n_hat slots.

    Mass of the n_hat-step distribution on the eve_defect == 0 labels,
    clamped to 1 against rounding in the summed mass.  The underlying
    per-slot probabilities tend to overshoot, so treat this as an empirical
    upper bound on the true intercept probability.
    """
    dist = P.distribution(n_hat)
    return min(1.0, float(sum(dist[j] for j in intercept_labels(P.K))))


def chain_delivery_probability(P: TransitionMatrix, n_hat: int) -> float:
    """Chain-side estimate of Bob decoding within n_hat slots.

    Mass on labels 0..K+1 after n_hat steps, clamped to 1 like the
    intercept.  Diagnostic only: it shares the chain's overshoot, so the
    binomial form in rank.delivery_probability is what the sparsity optimizer
    constrains against.
    """
    dist = P.distribution(n_hat)
    return min(1.0, float(np.sum(dist[: P.K + 2])))
