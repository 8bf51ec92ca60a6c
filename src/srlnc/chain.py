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

Each row has at most six entries, so the matrix is kept as three row-major
arrays (source label, destination label, probability), and one slot of
propagation scatters ``dist[src] * prob`` onto ``dst`` with ``np.bincount``.

The per-slot probabilities approximate the coupled rank evolution using the
innovation table W of `RankTables`:  a receiver at defect d advances with
probability ``W[K-d]`` given reception, and joint advances are bounded by the
harder of the two conditions.  The approximation can overshoot; see
``intercept_probability`` for the consequences.

Two transition modes exist because the source material for the rows with
``bob_defect == 0`` and ``eve_defect >= 1`` admits two readings of which
absorbing label pairs with "Eve advanced in the stopping slot".  Mode
``"paper-exact"`` keeps the transition structure as originally specified;
mode ``"consistent"`` swaps the two acknowledgment-branch destinations so
that an Eve advance in the final slot lowers her frozen defect.  The modes
coincide whenever the feedback channel is fully jammed (eps_k = 1).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coding import CodeParams
from .errors import ConfigError, NumericalIntegrityError
from .rank import RankTables, _binom_row

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
        for name, v in (("eps_b", self.eps_b), ("eps_e", self.eps_e),
                        ("eps_k", self.eps_k)):
            if not isinstance(v, (int, float)) or math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v!r} must be a probability in [0, 1]")
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
    d_b, d_e = state.bob_defect, state.eve_defect
    if not (0 <= d_b <= K and 0 <= d_e <= K):
        raise ConfigError(f"defects ({d_b}, {d_e}) outside 0..{K}")
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
    if not (0 <= label < n_states(K)):
        raise ConfigError(f"label {label!r} outside 0..{n_states(K) - 1}")
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


def _clamped(x: float, clamps: list[int]) -> float:
    if x < 0.0:
        clamps[0] += 1
        return 0.0
    return x


def build_chain(code: CodeParams, chan: ChannelParams, tables: RankTables,
                mode: str = DEFAULT_MODE) -> TransitionMatrix:
    """Populate the transition matrix for one parameter set.

    tables must have been built for the same (K, q, p) as code; the
    innovation probabilities W are the only rank inputs the chain uses.
    """
    if mode not in TRANSITION_MODES:
        raise ConfigError(f"mode must be one of {TRANSITION_MODES}, got {mode!r}")
    if not tables.matches(code.K, code.q, code.p):
        raise ConfigError(
            f"rank tables built for (K={tables.K}, q={tables.q}, p={tables.p}) "
            f"do not match code params (K={code.K}, q={code.q}, p={code.p})"
        )
    K = code.K
    eb, ee, ek = chan.eps_b, chan.eps_e, chan.eps_k
    W = tables.W
    clamps = [0]

    def horizontal(d_b: int, d_e: int) -> float:
        # Eve advances, Bob does not.  The subtracted term removes the mass
        # where Bob (who receives with probability 1 - eps_b) advances too;
        # using Bob's reception probability there keeps the row marginals
        # consistent with the diagonal term, hence substochastic.
        if d_b >= d_e:
            return eb * (1.0 - ee) * W[K - d_e]
        return _clamped(
            (1.0 - ee) * (W[K - d_e] - (1.0 - eb) * W[K - d_b]), clamps
        )

    def vertical(d_b: int, d_e: int) -> float:
        # Bob advances, Eve does not; mirror image of horizontal.
        if d_e >= d_b:
            return ee * (1.0 - eb) * W[K - d_b]
        return _clamped(
            (1.0 - eb) * (W[K - d_b] - (1.0 - ee) * W[K - d_e]), clamps
        )

    def diagonal(d_b: int, d_e: int) -> float:
        # Both advance; bounded by the harder (higher-rank) condition.
        return (1.0 - eb) * (1.0 - ee) * W[K - min(d_b, d_e)]

    srcs: list[int] = []
    dsts: list[int] = []
    probs: list[float] = []
    for i in range(n_states(K)):
        st = state_of(i, K)
        d_b, d_e = st.bob_defect, st.eve_defect
        row: dict[int, float] = {}
        if st.ack_received:
            pass  # absorbing: the self-loop remainder below is the whole row
        elif d_b >= 2 and d_e >= 1:
            row[i - 1] = horizontal(d_b, d_e)
            row[i - K - 1] = vertical(d_b, d_e)
            row[i - K - 2] = diagonal(d_b, d_e)
        elif d_b == 1 and d_e >= 1:
            # Bob may finish this slot; his ACK then gets through with
            # probability 1 - eps_k, freezing the chain.
            row[i - 1] = horizontal(d_b, d_e)
            row[i - K - 1] = ek * vertical(d_b, d_e)
            row[i - K - 2] = ek * diagonal(d_b, d_e)
            row[i - 2 * K - 2] = (1.0 - ek) * vertical(d_b, d_e)
            row[i - 2 * K - 3] = (1.0 - ek) * diagonal(d_b, d_e)
        elif d_b == 0 and d_e >= 1:
            # Bob already decoded and re-acknowledges every slot.
            advance = (1.0 - ee) * W[K - d_e]
            row[i - 1] = ek * advance
            if mode == "paper-exact":
                row[i - K - 1] = (1.0 - ek) * advance
                row[i - K - 2] = (1.0 - ek) * (1.0 - advance)
            else:
                row[i - K - 2] = (1.0 - ek) * advance
                row[i - K - 1] = (1.0 - ek) * (1.0 - advance)
        elif d_b >= 2 and d_e == 0:
            row[i - K - 1] = (1.0 - eb) * W[K - d_b]
        elif d_b == 1 and d_e == 0:
            gain = (1.0 - eb) * W[K - 1]
            row[i - 2 * K - 2] = (1.0 - ek) * gain
            row[i - K - 1] = ek * gain
        else:  # d_b == 0 and d_e == 0: only the ACK is pending.
            row[i - K - 1] = 1.0 - ek
        total = 0.0
        for j, prob in row.items():
            if prob < 0.0 or prob > 1.0:
                raise NumericalIntegrityError(
                    f"row {i} ({st}): transition to {j} has probability "
                    f"{prob!r} outside [0, 1]; row so far = {row}"
                )
            total += prob
        if total > 1.0 + _ROW_SUM_TOL:
            raise NumericalIntegrityError(
                f"row {i} ({st}): non-self transitions sum to {total!r} > 1; "
                f"row = {row}"
            )
        row[i] = row.get(i, 0.0) + max(0.0, 1.0 - total)
        for j in sorted(row):
            srcs.append(i)
            dsts.append(j)
            probs.append(row[j])

    out = TransitionMatrix(K, mode, np.array(srcs), np.array(dsts),
                           np.array(probs), clamp_count=clamps[0])
    if clamps[0]:
        log.warning(
            "%d bracket term(s) clamped to 0 while building the chain at "
            "K=%d p=%g; the innovation table is outside its comfort zone",
            clamps[0], K, code.p,
        )
    out.verify()
    return out


def _propagate(P: TransitionMatrix, n_hat: int) -> np.ndarray:
    """Distribution after n_hat slots, starting from the initial state."""
    if not isinstance(n_hat, int) or n_hat < 0:
        raise ConfigError(f"n_hat={n_hat!r} must be a nonnegative integer")
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
                         tables: RankTables, n_hat: int | None = None) -> float:
    """Probability that Bob decodes within the transmission budget.

    Sums over the number n of slots Bob actually receives: binomial weight
    times the probability that n sparse coded packets already carry full
    rank.  Needs at least K receptions, so a budget below K yields 0.
    """
    if not tables.matches(code.K, code.q, code.p):
        raise ConfigError(
            f"rank tables built for (K={tables.K}, q={tables.q}, p={tables.p}) "
            f"do not match code params (K={code.K}, q={code.q}, p={code.p})"
        )
    N = code.n_hat if n_hat is None else n_hat
    if not isinstance(N, int) or N < 0:
        raise ConfigError(f"n_hat={N!r} must be a nonnegative integer")
    K = code.K
    if N < K:
        log.warning("transmission budget %d is below K=%d; delivery is 0", N, K)
        return 0.0
    eb = chan.eps_b
    n = np.arange(K, N + 1)
    weights = _binom_row(N)[K:] * (1.0 - eb) ** n * eb ** (N - n)
    return min(1.0, float(weights @ tables.full_rank_probs(K, N)))
