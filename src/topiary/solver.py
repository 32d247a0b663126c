"""Constructions of the optimal measure.

Three iterative solvers plus ground-truth utilities:

* greedy: conditional-gradient ascent with exact line search. Simple and
  monotone, but atoms it should not have touched decay only harmonically
  (the chronic zig-zag-drag), so it can stall short of tight tolerances.
* second-greedy: greedy alternated with a prune pass that deletes atoms
  whose removal-plus-rescale raises the objective. Fixes the drag.
* exchange: active-set method. Repeatedly brings in the point of maximal
  margin, walking the ray mu + t (delta_x - nu) where nu is the shifted
  hedge of the current support; support margins stay equal along the ray
  and return to zero at the landing point. Exact in a handful of steps.

Also: hedge (the signed mass-one measure with margin identically zero on a
set), grow/prune sets, topiaric-index predicates, removal orderings, and a
subset-enumeration oracle used as independent ground truth in tests.

A result only counts as converged when the full certificate holds: maximal
margin at most margin_tol everywhere and support margins at least
-margin_tol. The weighted support margins always sum to zero, so a positive
score bound alone would let a light atom hide a large negative margin.
"""

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Tuple
import logging
import warnings

import numpy as np
import scipy.linalg

from . import measure as msr
from . import objective as obj
from .objective import ZERO_TOL
from .errors import (
    AccessibilityFailure,
    CycleDetected,
    DegenerateDirection,
    InvalidInput,
    MaxIterExceeded,
    MonotonicityError,
    NoProgress,
    NotAnIndex,
    NotPrunable,
    TooLarge,
)

log = logging.getLogger("topiary.solver")

ORACLE_CAP = 12
DECONSTRUCT_CAP = 16

# relative pivot threshold below which an augmented system is declared
# singular; never regularized silently
SINGULARITY_RTOL = 1e-10

_DRIFT_EVERY = 256
_DRIFT_TOL = 1e-9

ALGORITHMS = ("greedy", "second-greedy", "exchange")


@dataclass
class SolveConfig:
    algorithm: str = "exchange"
    margin_tol: float = obj.DEFAULT_MARGIN_TOL
    weight_tol: float = 1e-10
    max_iter: int = 100000
    trace: bool = False
    seed_point: Optional[int] = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidInput(
                "algorithm must be one of %s, got %r" % (", ".join(ALGORITHMS), self.algorithm)
            )
        if not (self.margin_tol > 0 and self.weight_tol > 0):
            raise InvalidInput("tolerances must be positive")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be at least 1")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float
    score: float
    support_size: int
    added_point: Optional[int] = None
    dropped_points: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TopiaryResult:
    measure: msr.AtomicMeasure
    objective: float
    rate: float
    score: float
    index: Tuple[int, ...]
    iterations: int
    algorithm: str
    margin_tol: float
    trace: Optional[Tuple[TraceRow, ...]] = None

    @classmethod
    def evaluate(cls, measure, psi, kern, margin_tol, iterations, algorithm, trace=None):
        """The result for measure, read off one margin table."""
        table = obj.margin_table(measure, psi, kern)
        return cls(
            measure=measure,
            objective=table.objective,
            rate=table.rate,
            score=table.score,
            index=tuple(int(i) for i in np.flatnonzero(np.abs(table.margins) <= margin_tol)),
            iterations=iterations,
            algorithm=algorithm,
            margin_tol=margin_tol,
            trace=trace,
        )

    def support(self):
        return self.measure.support()


@dataclass(frozen=True)
class ExchangeOutcome:
    measure: msr.AtomicMeasure
    objective: float
    inner_iterations: int
    dropped: Tuple[int, ...]
    margin_at_x: float


def representatives(kern, psi_values, candidates=None):
    """Candidate ids with duplicate Gram rows collapsed.

    Representative of a duplicate group: maximal psi, then lowest id. A
    lower-psi twin has a strictly smaller margin under every measure, so
    discarding it changes nothing about the optimum.
    """
    cand = list(range(kern.n)) if candidates is None else sorted(set(int(c) for c in candidates))
    for c in cand:
        if not 0 <= c < kern.n:
            raise InvalidInput("candidate id %d outside ground set" % c)
    cand_set = set(cand)
    drop = set()
    for group in kern.duplicate_groups():
        members = [i for i in group if i in cand_set]
        if len(members) < 2:
            continue
        rep = max(members, key=lambda i: (psi_values[i], -i))
        drop.update(i for i in members if i != rep)
    return [c for c in cand if c not in drop]


class SolverState:
    """Single-owner working state advanced by greedy_step / prune / exchange.

    Keeps incremental caches: m = G w (embedded values), lin = psi . w,
    nsq = w' G w. Updated in O(n) per step and cross-checked against a full
    recomputation every 256 steps.
    """

    def __init__(self, kern, psi, config=None, start=None, candidates=None):
        self.kernel = kern
        self.psi = obj.as_psi(psi, kern)
        self.config = config if config is not None else SolveConfig()
        self.G = kern.gram
        self.psi_values = self.psi.values
        self.candidates = np.asarray(
            representatives(kern, self.psi_values, candidates), dtype=int
        )
        if self.candidates.size == 0:
            raise InvalidInput("no candidates to optimize over")

        self.w = np.zeros(kern.n)
        if start is None:
            seed = self.config.seed_point
            if seed is not None:
                seed = self._to_candidate(int(seed))
            else:
                diag = np.diag(self.G)[self.candidates]
                vals = self.psi_values[self.candidates] - diag / 2.0
                seed = int(self.candidates[int(np.argmax(vals))])
            self.w[seed] = 1.0
        else:
            self.w = start.as_vector(kern.n)
        self._refresh_caches()
        self.iterations = 0
        self.trace = [] if self.config.trace else None
        self._since_check = 0

    def _to_candidate(self, point_id):
        if point_id in self.candidates:
            return point_id
        # map a duplicate onto its surviving representative
        for group in self.kernel.duplicate_groups():
            if point_id in group:
                for rep in group:
                    if rep in self.candidates:
                        return rep
        raise InvalidInput("seed point %d is not a candidate" % point_id)

    def _refresh_caches(self):
        sup = np.flatnonzero(self.w)
        self.m = self.G[:, sup] @ self.w[sup] if sup.size else np.zeros(self.kernel.n)
        self.lin = float(self.psi_values[sup] @ self.w[sup]) if sup.size else 0.0
        self.nsq = float(self.w[sup] @ self.m[sup]) if sup.size else 0.0

    def _drift_guard(self):
        self._since_check += 1
        if self._since_check < _DRIFT_EVERY:
            return
        self._since_check = 0
        m, lin, nsq = self.m, self.lin, self.nsq
        self._refresh_caches()
        drift = max(
            float(np.max(np.abs(m - self.m), initial=0.0)),
            abs(lin - self.lin),
            abs(nsq - self.nsq),
        )
        if drift > _DRIFT_TOL:
            log.warning("incremental caches drifted by %g; recomputed", drift)

    # -- derived quantities -------------------------------------------------

    def support(self):
        return np.flatnonzero(self.w)

    def rate(self):
        return self.lin - self.nsq

    def objective(self):
        return self.lin - self.nsq / 2.0

    def margins(self):
        return self.psi_values - self.m - self.rate()

    def score_argmax(self):
        """(max margin, argmax) over candidates; ties as in margin_table."""
        return obj._argmax(self.margins(), self.candidates, self.G, self.m, self.nsq)

    def converged(self):
        s, _ = self.score_argmax()
        if s > self.config.margin_tol:
            return False
        sup = self.support()
        return float(self.margins()[sup].min()) >= -self.config.margin_tol

    def measure(self):
        sup = self.support()
        return msr.probability(sup, self.w[sup])

    def _record(self, added, dropped):
        if self.trace is not None:
            s, _ = self.score_argmax()
            self.trace.append(
                TraceRow(
                    iteration=self.iterations,
                    objective=self.objective(),
                    score=s,
                    support_size=int(self.support().size),
                    added_point=added,
                    dropped_points=tuple(int(d) for d in dropped),
                )
            )

    def _check_monotone(self, before, after, where):
        if after < before - 1e-12 * max(1.0, abs(before)):
            raise MonotonicityError(
                "%s decreased the objective from %.17g to %.17g" % (where, before, after)
            )


def greedy_step(state):
    """One exact-line-search step toward the maximal-margin candidate.

    Refuses to run on a converged state. Mutates and returns state.
    """
    return _greedy_step_raw(state, state.config.margin_tol)


def _greedy_step_raw(state, minimum):
    """Step whenever the score exceeds `minimum`.

    The solve loops pass 0 here: once the score dips under margin_tol they
    may still owe sub-tolerance ascent steps to shrink a lingering atom
    whose own margin is too negative for the certificate.
    """
    s, x = state.score_argmax()
    if s <= minimum:
        raise InvalidInput("score %.3g is within tolerance; nothing to add" % s)
    d2 = float(state.G[x, x] - 2.0 * state.m[x] + state.nsq)
    if d2 <= ZERO_TOL:
        raise DegenerateDirection(
            "candidate %d has margin %.3g but zero step length; Gram rows "
            "are inconsistent" % (x, s)
        )
    before = state.objective()
    t = min(1.0, max(0.0, s / d2))
    m_x = float(state.m[x])  # pre-update value feeds the cross term
    state.nsq = (1 - t) ** 2 * state.nsq + 2 * t * (1 - t) * m_x + t * t * float(state.G[x, x])
    state.m = (1 - t) * state.m + t * state.G[:, x]
    state.lin = (1 - t) * state.lin + t * float(state.psi_values[x])
    state.w *= 1 - t
    state.w[x] += t
    state.iterations += 1
    state._check_monotone(before, state.objective(), "greedy step")
    state._drift_guard()
    state._record(x, ())
    return state


def prune(state):
    """Delete disadvantageous atoms one at a time.

    An atom is disadvantageous when removing it and rescaling the rest
    strictly raises the objective; the largest improvement goes first, ties
    to the lowest id. No-op when every removal hurts.
    """
    dropped = []
    while True:
        sup = state.support()
        if sup.size < 2:
            break
        ws = state.w[sup]
        feasible = ws < 1.0 - ZERO_TOL
        if not feasible.any():
            break
        ids = sup[feasible]
        wv = ws[feasible]
        lin_r = (state.lin - wv * state.psi_values[ids]) / (1 - wv)
        nsq_r = (
            state.nsq - 2 * wv * state.m[ids] + wv * wv * np.diag(state.G)[ids]
        ) / (1 - wv) ** 2
        gains = (lin_r - nsq_r / 2.0) - state.objective()
        best = float(gains.max())
        if best <= 0.0:
            break
        i = int(ids[int(np.argmax(gains == best))])
        before = state.objective()
        state.w[i] = 0.0
        state.w /= state.w.sum()
        state._refresh_caches()
        dropped.append(i)
        state._check_monotone(before, state.objective(), "prune")
    if dropped:
        state._record(None, dropped)
    return state


def _try_polish(state):
    """Snap onto the hedge of the current support when that closes the run.

    Line-search iterations crawl once the support already matches the optimal
    index; the exact weights on that face are its hedge. Solve it, peel
    negative-weight atoms off one at a time, and adopt the result only when
    the full certificate holds and the objective did not fall. Returns True
    when adopted.
    """
    S = list(int(i) for i in state.support())
    before = state.objective()
    dropped = []
    v = None
    for _ in range(len(S)):
        try:
            v, _ = _augmented_solve(state.G[np.ix_(S, S)], state.psi_values[S])
        except NotPrunable:
            return False
        worst = int(np.argmin(v))
        if v[worst] >= -state.config.weight_tol:
            break
        dropped.append(S.pop(worst))
        if not S:
            return False
    else:
        return False
    v = np.clip(v, 0.0, None)
    total = float(v.sum())
    if total <= 0.0:
        return False
    w = np.zeros_like(state.w)
    w[S] = v / total
    m = state.G[:, S] @ w[S]
    lin = float(state.psi_values[S] @ w[S])
    nsq = float(w[S] @ m[S])
    iota = state.psi_values - m - (lin - nsq)
    tol = state.config.margin_tol
    if float(iota[state.candidates].max()) > tol:
        return False
    if float(iota[np.flatnonzero(w)].min()) < -tol:
        return False
    after = lin - nsq / 2.0
    if after < before - 1e-12 * max(1.0, abs(before)):
        return False
    state.w = w
    state._refresh_caches()
    state.iterations += 1
    state._record(None, dropped)
    return True


# -- hedge and friends ------------------------------------------------------

def _augmented_solve(G_S, top, bottom=1.0):
    """Solve [[G_S, 1], [1', 0]] [v; c] = [top; bottom].

    Raises NotPrunable when a pivot falls under SINGULARITY_RTOL relative to
    the largest entry. The system is never regularized.
    """
    s = G_S.shape[0]
    M = np.zeros((s + 1, s + 1))
    M[:s, :s] = G_S
    M[:s, s] = 1.0
    M[s, :s] = 1.0
    rhs = np.concatenate([np.asarray(top, dtype=float), [float(bottom)]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = float(np.max(np.abs(M)))
    if float(pivots.min()) <= SINGULARITY_RTOL * max(scale, 1.0):
        raise NotPrunable(
            "augmented system is singular (pivot %.3g against scale %.3g)"
            % (float(pivots.min()), scale)
        )
    sol = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return sol[:s], float(sol[s])


def hedge(kern, psi, A):
    """Signed mass-one measure whose margin vanishes identically on A.

    Solves sum_j w_j k(x_j, x_i) + c = psi(x_i) on A together with
    sum w_j = 1; returns (measure, c) where c is the measure's rate. The
    unconstrained mean-variance optimum at risk tolerance two, in the
    portfolio reading. Sets without a hedge raise NotPrunable.
    """
    psi = obj.as_psi(psi, kern)
    ids = _validate_subset(kern, A)
    v, c = _augmented_solve(kern.gram[np.ix_(ids, ids)], psi.values[ids])
    return msr.signed(ids, v), c


def grow_set(kern, psi, A, candidates=None, config=None):
    """Points outside A with positive margin under the topiary of A."""
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    result = solve_subset(kern, psi, A, cfg)
    iota = obj.margins(result.measure, psi, kern)
    pool = range(kern.n) if candidates is None else candidates
    a_set = set(_validate_subset(kern, A))
    return tuple(sorted(int(x) for x in pool if int(x) not in a_set and iota[int(x)] > cfg.margin_tol))


def prune_set(kern, psi, A, weight_tol=1e-10):
    """Support of the negative part of hedge(A)."""
    h, _ = hedge(kern, psi, A)
    return tuple(sorted(int(i) for i, w in h.atoms if w < -weight_tol))


def _validate_subset(kern, A):
    ids = sorted(set(int(a) for a in A))
    if not ids:
        raise InvalidInput("subset is empty")
    if ids[0] < 0 or ids[-1] >= kern.n:
        raise InvalidInput("subset contains ids outside the ground set")
    return ids


# -- exchange ---------------------------------------------------------------

def _exchange_core(G, psi_values, w, x, margin_tol, weight_tol):
    """Drive the margin at x to zero along hedge-shift rays.

    w is mutated. Returns (dropped ids, inner iteration count, final margin).
    The ko rule is structural: only x ever gains weight, so an atom dropped
    here cannot re-enter within the call.
    """
    dropped = []
    inner = 0
    limit = 2 * len(w) + 8
    while True:
        sup = np.flatnonzero(w)
        nsq = float(w[sup] @ G[np.ix_(sup, sup)] @ w[sup])
        lin = float(psi_values[sup] @ w[sup])
        mu_x = float(G[x, sup] @ w[sup])
        iota0 = float(psi_values[x]) - mu_x - (lin - nsq)
        if iota0 <= margin_tol:
            break
        inner += 1
        if inner > limit:
            raise NoProgress("exchange failed to close the margin at %d" % x)

        S = sup[sup != x]
        if S.size == 0:
            # support is already {x}; its own margin is zero by definition,
            # so iota0 > margin_tol cannot hold unless the caches lie
            raise NoProgress("margin positive at the only support atom %d" % x)
        G_S = G[np.ix_(S, S)]
        v, shift = _augmented_solve(G_S, G[S, x])

        nu_x = float(v @ G[S, x])
        vGv = float(v @ G_S @ v)
        quad = float(G[x, x]) - 2.0 * nu_x + vGv  # ||delta_x - nu||^2
        mu_nu = float((v @ G[np.ix_(S, sup)]) @ w[sup])
        mu_d = mu_x - mu_nu
        slope = float(psi_values[x]) - float(v @ psi_values[S]) - mu_d  # dO/dt at 0
        lin_coef = (float(G[x, x]) - nu_x) + (slope + mu_d) - 2.0 * mu_d

        t_obj = slope / quad if quad > ZERO_TOL else (np.inf if slope > 0 else 0.0)
        t_zero = _smallest_positive_root(quad, lin_coef, iota0)
        vpos = v > ZERO_TOL
        t_pos = float((w[S][vpos] / v[vpos]).min()) if vpos.any() else np.inf

        t = min(t_pos, t_zero, t_obj)
        if not np.isfinite(t) or t <= ZERO_TOL:
            raise NoProgress(
                "exchange step collapsed (t = %.3g) with margin %.3g at %d"
                % (t, iota0, x)
            )
        before = lin - nsq / 2.0
        w[S] -= t * v
        w[x] += t
        np.maximum(w, 0.0, out=w)
        for i in S[w[S] < weight_tol]:
            dropped.append(int(i))
            w[i] = 0.0
        w /= w.sum()
        sup2 = np.flatnonzero(w)
        after = float(psi_values[sup2] @ w[sup2]) - float(
            w[sup2] @ G[np.ix_(sup2, sup2)] @ w[sup2]
        ) / 2.0
        if after < before - 1e-12 * max(1.0, abs(before)):
            raise MonotonicityError(
                "exchange decreased the objective from %.17g to %.17g" % (before, after)
            )
    return dropped, inner, iota0


def _smallest_positive_root(a, b, c):
    """Smallest root > ZERO_TOL of a t^2 - b t + c = 0, else inf."""
    if abs(a) <= ZERO_TOL:
        if b > ZERO_TOL:
            t = c / b
            return t if t > ZERO_TOL else np.inf
        return np.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return np.inf
    sq = float(np.sqrt(disc))
    roots = sorted(((b - sq) / (2 * a), (b + sq) / (2 * a)))
    for t in roots:
        if t > ZERO_TOL:
            return t
    return np.inf


def exchange_add(kern, psi, mu, x, config=None):
    """Add the point x to a measure that is the topiary of its own support.

    Walks mu + t (delta_x - nu) where nu solves the shifted hedge system on
    the support, so all support margins move in lockstep; t stops at the
    first of weight feasibility, the margin zero of x, or the objective
    maximizer. Dropped atoms stay out (ko rule). Ends when the margin at x
    is within tolerance.
    """
    cfg = config if config is not None else SolveConfig()
    psi = obj.as_psi(psi, kern)
    x = int(x)
    if mu.weight_of(x) > 0:
        raise InvalidInput("point %d already carries weight" % x)
    iota_x = obj.margin(mu, psi, kern, x)
    if iota_x <= cfg.margin_tol:
        raise InvalidInput(
            "margin %.3g at point %d is not positive; nothing to add" % (iota_x, x)
        )
    w = mu.as_vector(kern.n)
    dropped, inner, final = _exchange_core(
        kern.gram, psi.values, w, x, cfg.margin_tol, cfg.weight_tol
    )
    sup = np.flatnonzero(w)
    out = msr.probability(sup, w[sup])
    return ExchangeOutcome(
        measure=out,
        objective=obj.aesthetic_objective(out, psi, kern),
        inner_iterations=inner,
        dropped=tuple(dropped),
        margin_at_x=final,
    )


# -- full solves ------------------------------------------------------------

def _round_sig(x, digits=12):
    if x == 0.0 or not np.isfinite(x):
        return x
    from math import floor, log10

    return round(x, digits - 1 - int(floor(log10(abs(x)))))


def _certificate_holds(result):
    """Max margin within tolerance and every support margin in the index.

    Every margin is at most the score, so a support margin is >= -tol
    exactly when it lies in the index |margin| <= tol.
    """
    return result.score <= result.margin_tol and set(result.support()) <= set(result.index)


def _finish(state, algorithm):
    cfg = state.config
    trace = tuple(state.trace) if state.trace is not None else None

    def evaluate(m):
        return TopiaryResult.evaluate(
            m, state.psi, state.kernel, cfg.margin_tol, state.iterations, algorithm, trace
        )

    m0 = state.measure()
    result = evaluate(msr.drop_small_atoms(m0, cfg.weight_tol))
    if result.measure is not m0 and not _certificate_holds(result):
        # dropping a dust atom must not cost the certificate
        full = evaluate(m0)
        if _certificate_holds(full):
            result = full
    return result


# -- one solve loop, one step per algorithm -----------------------------------
#
# Each step advances a state whose certificate failed, given its score s and
# argmax x. The loop owns the iteration budget, the hedge polish (tried
# once per support, whenever the score is at most the algorithm's trigger)
# and the finish.

_GREEDY_POLISH_BELOW = 1e-6


def _step_greedy(state, s, x):
    if s <= 0.0:
        raise NoProgress("certificate failed yet no ascent direction, score %.3g" % s)
    _greedy_step_raw(state, 0.0)


# second-greedy tries the snap on every new support, whatever the score
_SECOND_GREEDY_POLISH_BELOW = np.inf


def _step_second_greedy(state, s, x):
    if s <= state.config.margin_tol:
        # score within tolerance but a support margin is under -tol
        before = state.support().size
        prune(state)
        if state.support().size < before:
            return
    _step_greedy(state, s, x)
    prune(state)


_EXCHANGE_POLISH_BELOW = 1e-6


def _step_exchange(state, s, x):
    cfg = state.config
    if s <= cfg.margin_tol:
        # certificate failed on the support side only; exchange cannot
        # be driven by a non-positive margin, but a prune pass can
        before_sup = state.support().size
        prune(state)
        if state.support().size == before_sup:
            raise NoProgress(
                "score %.3g under tolerance with support margin %.3g"
                % (s, float(state.margins()[state.support()].min()))
            )
        return
    before = state.objective()
    # the core moves w in place over several inner steps; it works on a copy
    # so that a failure part way leaves w and the caches describing one state
    w = state.w.copy()
    try:
        dropped, _, _ = _exchange_core(
            state.G, state.psi_values, w, x, cfg.margin_tol, cfg.weight_tol
        )
    except NotPrunable:
        greedy_step(state)
        return
    state.w = w
    state._refresh_caches()
    state.iterations += 1
    state._check_monotone(before, state.objective(), "exchange")
    state._record(x, dropped)


_STEPS = {
    "greedy": (_step_greedy, _GREEDY_POLISH_BELOW),
    "second-greedy": (_step_second_greedy, _SECOND_GREEDY_POLISH_BELOW),
    "exchange": (_step_exchange, _EXCHANGE_POLISH_BELOW),
}


def _drive(algorithm, kern, psi, config, candidates):
    cfg = config if config is not None else SolveConfig(algorithm=algorithm)
    state = SolverState(kern, psi, cfg, candidates=candidates)
    step, polish_below = _STEPS[algorithm]
    seen = set()
    polished = None
    while not state.converged():
        if state.iterations >= cfg.max_iter:
            partial = _finish(state, algorithm)
            raise MaxIterExceeded(
                "%s hit max_iter %d with score %.3g" % (algorithm, cfg.max_iter, partial.score),
                result=partial,
            )
        if algorithm == "exchange":
            # greedy ascent cannot come back to a state; an exchange can
            key = (frozenset(int(i) for i in state.support()), _round_sig(state.objective()))
            if key in seen:
                raise CycleDetected(
                    "exchange revisited a support/objective pair",
                    result=_finish(state, algorithm),
                )
            seen.add(key)
        s, x = state.score_argmax()
        if s <= polish_below:
            # the snap outcome depends only on the support set, so retrying on
            # an unchanged support would just repeat the same rejection
            key = frozenset(int(i) for i in state.support())
            if key != polished:
                polished = key
                if _try_polish(state):
                    continue
        step(state, s, x)
    return _finish(state, algorithm)


def solve_greedy(kern, psi, config=None, candidates=None):
    return _drive("greedy", kern, psi, config, candidates)


def solve_second_greedy(kern, psi, config=None, candidates=None):
    return _drive("second-greedy", kern, psi, config, candidates)


def solve_exchange(kern, psi, config=None, candidates=None):
    return _drive("exchange", kern, psi, config, candidates)


def solve(kern, psi, config=None):
    cfg = config if config is not None else SolveConfig()
    return _drive(cfg.algorithm, kern, psi, cfg, None)


def solve_subset(kern, psi, subset, config=None):
    """Topiary of a subset of the ground set, by exchange."""
    ids = _validate_subset(kern, subset)
    cfg = config if config is not None else SolveConfig()
    return solve_exchange(kern, psi, cfg, candidates=ids)


def is_topiaric_index(kern, psi, B, config=None):
    """True when the topiary of B has margin zero on all of B."""
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = _validate_subset(kern, B)
    return set(ids) <= set(solve_subset(kern, psi, ids, cfg).index)


def construction_ordering(kern, psi, K, config=None, deconstruct_cap=DECONSTRUCT_CAP):
    """Ordering of a topiaric index whose every initial segment is an index.

    Found by peeling removable points (highest id first, so the built-up
    ordering starts from the lowest ids) and reversing the removal order.
    Existence is guaranteed in exact arithmetic; failure to find a removable
    point therefore reports the margin evidence and blames tolerances.
    """
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = _validate_subset(kern, K)
    if len(ids) > deconstruct_cap:
        raise TooLarge(
            "deconstruction over %d points exceeds the cap %d" % (len(ids), deconstruct_cap)
        )
    if not is_topiaric_index(kern, psi, ids, cfg):
        raise NotAnIndex("input set is not a topiaric index")
    removals = []
    current = list(ids)
    while len(current) > 1:
        evidence = {}
        removable = None
        for x in sorted(current, reverse=True):
            rest = [y for y in current if y != x]
            result = solve_subset(kern, psi, rest, cfg)
            iota = obj.margins(result.measure, psi, kern)
            worst = float(np.max(np.abs(iota[rest])))
            if worst <= cfg.margin_tol:
                removable = x
                break
            evidence[x] = worst
        if removable is None:
            raise AccessibilityFailure(
                "no single-point deletion stays an index; residual margins: %s"
                % ", ".join("%d: %.3g" % (x, e) for x, e in sorted(evidence.items()))
            )
        removals.append(removable)
        current = [y for y in current if y != removable]
    return tuple(current + list(reversed(removals)))


def oracle_solve(kern, psi, K=None, config=None):
    """Exhaustive ground truth for small problems.

    Enumerates every non-empty support candidate, solves its hedge system,
    and keeps solutions that are feasible (weights nonnegative, margins
    nonpositive off the support). The feasible maximum is the optimum by
    the concavity of the objective. Independent of the iterative solvers.
    """
    psi = obj.as_psi(psi, kern)
    cfg = config if config is not None else SolveConfig()
    ids = list(range(kern.n)) if K is None else _validate_subset(kern, K)
    if len(ids) > ORACLE_CAP:
        raise TooLarge(
            "oracle enumerates subsets of at most %d points, got %d" % (ORACLE_CAP, len(ids))
        )
    G = kern.gram
    pv = psi.values
    id_arr = np.asarray(ids, dtype=int)
    best = None
    examined = 0
    for size in range(1, len(ids) + 1):
        for S in combinations(range(len(ids)), size):
            examined += 1
            sel = id_arr[list(S)]
            G_S = G[np.ix_(sel, sel)]
            try:
                v, c = _augmented_solve(G_S, pv[sel])
            except NotPrunable:
                continue
            if v.min() < -1e-12:
                continue
            rest = np.setdiff1d(id_arr, sel)
            if rest.size:
                mu_rest = G[np.ix_(rest, sel)] @ v
                if float((pv[rest] - mu_rest - c).max()) > 1e-9:
                    continue
            objective = float(pv[sel] @ v) - float(v @ G_S @ v) / 2.0
            if best is None or objective > best[0]:
                best = (objective, sel, v)
    if best is None:
        raise NoProgress("oracle found no feasible support; input is inconsistent")
    _, sel, v = best
    return TopiaryResult.evaluate(
        msr.probability(sel, v), psi, kern, cfg.margin_tol, examined, "oracle"
    )
