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
`build_chain` fills those six cells of every row at once, so the matrix is
kept as three row-major arrays (source label, destination label,
probability), and one slot of propagation scatters ``dist[src] * prob`` onto
``dst`` with ``np.bincount``.

The per-slot probabilities approximate the coupled rank evolution using the
innovation table W of ``RankTables(K, q, p)`` at the chain's code point:  a
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

from .coding import CodeParams
from .errors import ConfigError, NumericalIntegrityError, count, probability
from .rank import RankTables, _binom_row, _model, _SparseRankModel

log = logging.getLogger(__name__)

TRANSITION_MODES = ("paper-exact", "consistent")
DEFAULT_MODE = "paper-exact"

# Row-sum slack tolerated before a matrix is declared broken.
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ChannelParams:
    """Erasure probabilities of the three channels in the model.

    eps_b: probability a broadcast packet is lost to Bob.
    eps_e: probability a broadcast packet is lost to Eve.
    eps_k: probability Bob's acknowledgment is lost (1 = fully jammed
        feedback, 0 = perfect feedback).

    The model requires eps_b <= eps_e: the whole countermeasure is built on
    the eavesdropper's channel being no better than the legitimate one, and
    the analysis breaks down otherwise.
    """

    eps_b: float
    eps_e: float
    eps_k: float

    def __post_init__(self) -> None:
        for name in ("eps_b", "eps_e", "eps_k"):
            object.__setattr__(self, name, probability(getattr(self, name), name))
        if self.eps_b > self.eps_e:
            raise ConfigError(
                f"eps_b={self.eps_b} exceeds eps_e={self.eps_e}: the model assumes "
                "the eavesdropper's channel is no better than the legitimate "
                "receiver's, and its guarantees do not hold the other way around"
            )


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

    Stored once, as three parallel arrays: entry k moves probability
    prob[k] from label src[k] to label dst[k].  Entries run in row-major
    order (by src, then by dst), every label has at least its self-loop,
    and explicit zeros are kept, so the arrays are exactly the audit dump of
    triplets().  clamp_count records how many bracket terms went negative
    during construction and were clamped to zero; nonzero counts happen only
    where the innovation table itself misbehaves.  Propagated distributions
    are memoised per budget (see distribution), so several readings of one
    budget cost one propagation.
    """

    def __init__(self, K: int, mode: str, src: np.ndarray, dst: np.ndarray,
                 prob: np.ndarray, clamp_count: int = 0):
        self.K = K
        self.mode = mode
        self.src = src
        self.dst = dst
        self.prob = prob
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
        here = self.src == i
        row = dict(zip(self.dst[here].tolist(), self.prob[here].tolist()))
        return NumericalIntegrityError(
            f"row {i} ({state_of(i, self.K)}): {what}; row = {row}"
        )

    def verify(self) -> None:
        """Structural sanity checks; raises NumericalIntegrityError."""
        K, S = self.K, n_states(self.K)
        src, dst, prob = self.src, self.dst, self.prob
        bad = (src < 0) | (src >= S)
        if bad.any():
            raise NumericalIntegrityError(
                f"row label {int(src[bad][0])} outside 0..{S - 1}"
            )
        bad = (dst < 0) | (dst > src)
        if bad.any():
            k = int(np.argmax(bad))
            raise self._fail(int(src[k]), f"destination {int(dst[k])} is not "
                             "lower-triangular or out of range")
        bad = ~((prob >= -1e-15) & (prob <= 1.0 + 1e-12))  # NaN included
        if bad.any():
            k = int(np.argmax(bad))
            raise self._fail(int(src[k]), f"P[{int(src[k])},{int(dst[k])}] = "
                             f"{float(prob[k])} outside [0, 1]")
        totals = np.bincount(src, weights=prob, minlength=S)
        bad = np.abs(totals - 1.0) > _ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise self._fail(i, f"probabilities sum to {float(totals[i])!r}, "
                             f"off by {totals[i] - 1.0:.3e}")
        # Labels 0..K must be pure self-loops; with the row sums checked,
        # entries i -> i at exactly 1 leave room for one entry only.
        bad = (src <= K) & ((dst != src) | (prob != 1.0))
        if bad.any():
            raise self._fail(int(src[np.argmax(bad)]), "should be absorbing")

    def triplets(self) -> list[tuple[int, int, float]]:
        """(row, col, prob) entries in row-major order, for audit dumps."""
        return list(zip(self.src.tolist(), self.dst.tolist(),
                        self.prob.tolist()))


@functools.lru_cache(maxsize=64)
def _layout(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (off, has, src, dst) for generation size K: cell k of row i
    is the entry to label i - off[k]; has marks the cells each row has,
    explicit zeros included; src and dst label them in row-major order."""
    off = np.array([2 * K + 3, 2 * K + 2, K + 2, K + 1, 1, 0])
    has = np.zeros((n_states(K), 6), dtype=bool)
    H = has[K + 1:].reshape(K + 1, K + 1, 6)  # pending labels as [d_b, d_e]
    has[:, 5] = H[:, :, 3] = H[:, 1:, 4] = H[:, 1:, 2] = H[1, :, 1] = True
    H[1, 1:, 0] = True
    src, col = np.nonzero(has)
    dst = src - off[col]
    for a in (off, has, src, dst):
        a.flags.writeable = False
    return off, has, src, dst


def build_chain(code: CodeParams, chan: ChannelParams,
                mode: str = DEFAULT_MODE) -> TransitionMatrix:
    """Populate the transition matrix for one parameter set.

    The innovation probabilities W of ``RankTables(code.K, code.q, code.p)``
    are the only rank inputs the chain uses.  Each class of pending states,
    a slice of the grid G[d_b, d_e], is filled at once with the float
    operations and row-sum order of the row-by-row
    ``tests/oracles.build_chain_reference``, which it equals bit for bit.
    """
    if mode not in TRANSITION_MODES:
        raise ConfigError(f"mode must be one of {TRANSITION_MODES}, got {mode!r}")
    K = code.K
    eb, ee, ek = chan.eps_b, chan.eps_e, chan.eps_k
    # Wd[d] = W[K - d] for a receiver at defect d; the pad at d = 0 is unused.
    Wd = np.array([*RankTables(K, code.q, code.p).W, 0.0])[::-1]
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

    off, has, src, dst = _layout(K)
    P = np.zeros(has.shape)
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
    out = TransitionMatrix(K, mode, src, dst, P[has], clamp_count=clamps)

    bad = (P[:, :5] < 0.0) | (P[:, :5] > 1.0)
    over = total > 1.0 + _ROW_SUM_TOL
    first = np.flatnonzero(bad.any(axis=1) | over)
    if first.size:
        r = int(first[0])
        if bad[r].any():
            k = int(np.argmax(bad[r]))
            raise out._fail(r, f"transition to {r - int(off[k])} has "
                            f"probability {float(P[r, k])!r} outside [0, 1]")
        raise out._fail(r, f"non-self transitions sum to {float(total[r])!r} > 1")
    if clamps:
        log.warning(
            "%d bracket term(s) clamped to 0 while building the chain at "
            "K=%d p=%g; the innovation table is outside its comfort zone",
            clamps, K, code.p,
        )
    out.verify()
    return out


def _propagate(P: TransitionMatrix, n_hat: int) -> np.ndarray:
    """Distribution after n_hat slots, starting from the initial state; n_hat
    comes checked from ``TransitionMatrix.distribution``."""
    S = P.n_states
    dist = np.zeros(S)
    dist[initial_label(P.K)] = 1.0
    for _ in range(n_hat):
        # Entries are row-major, so each destination accumulates its
        # sources in ascending label order.
        dist = np.bincount(P.dst, weights=dist[P.src] * P.prob, minlength=S)
    return dist


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
    binomial form in delivery_probability is what the sparsity optimizer
    constrains against.
    """
    dist = P.distribution(n_hat)
    return min(1.0, float(np.sum(dist[: P.K + 2])))


def delivery_probability(code: CodeParams, chan: ChannelParams,
                         n_hat: int | None = None) -> float:
    """Probability that Bob decodes within the transmission budget.

    Sums over the number n of slots Bob actually receives: binomial weight
    times the probability that n sparse coded packets already carry full
    rank, read from the rank model of (code.q, code.p).  Needs at least K
    receptions, so a budget below K yields 0.
    """
    N = code.n_hat if n_hat is None else count(n_hat, "n_hat")
    K = code.K
    if N < K:
        log.warning("transmission budget %d is below K=%d; delivery is 0", N, K)
        return 0.0
    return _delivery(_reception_weights(K, N, chan.eps_b),
                     _model(code.q, code.p), K, N)


def _reception_weights(K: int, N: int, eps_b: float) -> np.ndarray:
    """Binomial weight of Bob receiving n of N slots, for n = K .. N."""
    n = np.arange(K, N + 1)
    return _binom_row(N)[K:] * (1.0 - eps_b) ** n * eps_b ** (N - n)


def _delivery(weights: np.ndarray, model: _SparseRankModel, K: int,
              N: int) -> float:
    """Bob's delivery: reception weights against R(n, K), n = K .. N, of
    ``model``, clamped to 1 against rounding."""
    return min(1.0, float(weights @ model.full_rank_probs(K, N)))
